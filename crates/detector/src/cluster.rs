//! Recurrence analysis via pattern clustering (paper §IV-B, step 5).
//!
//! Once a quantum's histogram shows a significant burst distribution, the
//! remaining question is whether the *pattern* recurs across the observation
//! window (up to 512 OS time quanta — 51.2 s — to avoid diluting histogram
//! significance). The paper's pattern-clustering algorithm (1) discretizes
//! the event-density histograms into strings and (2) aggregates similar
//! strings with k-means; recurring burst patterns show up as a populous
//! cluster of bursty histograms, regardless of burst intervals — so
//! low-bandwidth or irregular channels are still caught.
//!
//! A recurring channel keeps producing the *same* [`LevelString`], so
//! [`kmeans`] groups equal strings first (a hash of the 128 bytes, checked
//! for equality on a hit: expected O(n)) and runs the k-means++ folds, the
//! assignments and the empty-cluster re-seeds once per distinct string,
//! widened to `f64`. The result is bit-identical to k-means over every
//! input's `f64` features. Equal strings lie at equal distances from every
//! centroid (same kernel), so they share a nearest centroid. The k-means++
//! draws and their cumulative-distance scan still walk the inputs in order,
//! each at its string's distance. A centroid is its sum of `multiplicity ×
//! level` over the member count: levels are whole numbers below 256 (below
//! [`DISCRETIZATION_LEVELS`] = 16 from [`discretize`]), so every product and
//! partial sum is a whole number of at most 255·n (15·512 in a full window)
//! and exact in `f64` in any order — the same number as the per-input sum.
//! An empty cluster re-seeds at the input farthest from the first input's
//! centroid, the *last* one on ties, as `max_by` picks.

use crate::batch::{add_scaled, sq_dist, sq_dist_bounded, sq_dists_fused, MAX_FUSED_K};
use crate::density::{DensityHistogram, HISTOGRAM_BINS};
use crate::DetectorError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Number of discretization levels per histogram bin (log-scaled).
pub const DISCRETIZATION_LEVELS: u8 = 16;

/// A histogram discretized to one level per bin: what k-means clusters.
pub type LevelString = [u8; HISTOGRAM_BINS];

/// Discretizes a density histogram into a 128-symbol string: each bin's
/// frequency is quantized to a log₂ level in `0..DISCRETIZATION_LEVELS`.
///
/// ```
/// use cchunter_detector::density::DensityHistogram;
/// use cchunter_detector::cluster::discretize;
/// let mut bins = vec![0u64; 128];
/// bins[0] = 1000;
/// bins[20] = 7;
/// let s = discretize(&DensityHistogram::from_bins(bins, 100).unwrap());
/// assert_eq!(s.len(), 128);
/// assert!(s[0] > s[20]);
/// assert_eq!(s[1], 0);
/// ```
pub fn discretize(histogram: &DensityHistogram) -> LevelString {
    std::array::from_fn(|bin| level(histogram.frequency(bin)))
}

/// [`discretize`] of the histogram whose nonzero bins are the `(bin,
/// frequency)` pairs of `nonzero`; bins past the last are ignored.
pub(crate) fn discretize_nonzero(nonzero: impl IntoIterator<Item = (usize, u64)>) -> LevelString {
    let mut levels = [0; HISTOGRAM_BINS];
    for (bin, f) in nonzero {
        if let Some(l) = levels.get_mut(bin) {
            *l = level(f);
        }
    }
    levels
}

/// The discretization level of one bin frequency: ⌊log₂ f⌋ + 1, capped at
/// `DISCRETIZATION_LEVELS - 1`; an empty bin is level 0.
pub(crate) fn level(frequency: u64) -> u8 {
    let width = u64::BITS - frequency.leading_zeros();
    width.min(u32::from(DISCRETIZATION_LEVELS) - 1) as u8
}

/// [`discretize`] as `f64` features, a form [`kmeans`] also accepts.
pub fn discretized_features(histogram: &DensityHistogram) -> Vec<f64> {
    discretize(histogram).map(f64::from).to_vec()
}

/// The levels of a [`kmeans`] input string: `u8` as in a [`LevelString`],
/// or `f64` as from [`discretized_features`].
pub trait Level: Copy {
    /// The string `levels` spells, or `None` unless it is
    /// [`HISTOGRAM_BINS`] whole numbers in `0..=255`.
    fn string(levels: &[Self]) -> Option<LevelString>;
}

impl Level for u8 {
    fn string(levels: &[u8]) -> Option<LevelString> {
        levels.try_into().ok()
    }
}

impl Level for f64 {
    fn string(levels: &[f64]) -> Option<LevelString> {
        let mut string = [0; HISTOGRAM_BINS];
        // The cast saturates (NaN to 0): only whole numbers in 0..=255 widen
        // back to themselves.
        let whole = levels.iter().zip(&mut string).all(|(&x, l)| {
            *l = x as u8;
            f64::from(*l) == x
        });
        (whole && levels.len() == HISTOGRAM_BINS).then_some(string)
    }
}

/// Configuration of the recurrence analyzer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Number of k-means clusters.
    pub k: usize,
    /// Maximum k-means iterations.
    pub max_iterations: usize,
    /// Seed for deterministic k-means++ initialization.
    pub seed: u64,
    /// Minimum number of bursty histograms that must land in one cluster
    /// for the pattern to count as *recurrent*.
    pub min_recurring: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            k: 3,
            max_iterations: 50,
            seed: 0xCC15_BEEF,
            min_recurring: 2,
        }
    }
}

/// Result of k-means clustering over discretized histogram strings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PatternClusters {
    /// Cluster index assigned to each input, in input order.
    pub assignments: Vec<usize>,
    /// Cluster centroids in feature space.
    pub centroids: Vec<Vec<f64>>,
    /// Number of members per cluster.
    pub sizes: Vec<usize>,
}

impl PatternClusters {
    /// Index and size of the most populous cluster, or `None` when empty.
    pub fn largest(&self) -> Option<(usize, usize)> {
        self.sizes
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(_, size)| size)
    }
}

/// A string widened to `f64`, or a centroid.
type Point = [f64; HISTOGRAM_BINS];

/// Index of the centroid nearest to `point`, first wins on exact ties. Up
/// to [`MAX_FUSED_K`] centroids the fused kernel (bit-identical to
/// [`sq_dist`]) measures all in one pass; beyond it a candidate is abandoned
/// once its partial sum of squares (which only grows) passes the best.
fn nearest_centroid(point: &Point, centroids: &[Point]) -> usize {
    let fuse = centroids.len() <= MAX_FUSED_K;
    let mut fused = [f64::INFINITY; MAX_FUSED_K];
    if fuse {
        sq_dists_fused(point, centroids, &mut fused);
    }
    let (mut best, mut best_dist) = (0, f64::INFINITY);
    for (j, centroid) in centroids.iter().enumerate() {
        let dist = if fuse {
            fused[j]
        } else {
            sq_dist_bounded(point, centroid, best_dist)
        };
        if dist.total_cmp(&best_dist).is_lt() {
            (best, best_dist) = (j, dist);
        }
    }
    best
}

/// FxHash-style hash of a level string's 8-byte words: the best-mixed half.
fn hash(levels: &LevelString) -> usize {
    let h = levels.chunks_exact(8).fold(0u64, |h, word| {
        let word = u64::from_le_bytes(word.try_into().unwrap_or_default());
        (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
    });
    (h >> 32) as usize
}

/// Level strings grouped by value, in expected O(n): each distinct string
/// once (first seen first) with its multiplicity, the distinct index of
/// every input, and an open-addressing table over the distinct strings
/// (`1 + index`, 0 when empty) a power of two over twice their count long.
#[derive(Debug)]
pub(crate) struct Groups {
    distinct: Vec<(LevelString, usize)>,
    of: Vec<usize>,
    table: Vec<usize>,
}

impl FromIterator<LevelString> for Groups {
    fn from_iter<I: IntoIterator<Item = LevelString>>(strings: I) -> Self {
        let strings = strings.into_iter();
        let n = strings.size_hint().1.unwrap_or(0).clamp(4, 1 << 20);
        let mut groups = Groups {
            distinct: Vec::new(),
            of: Vec::with_capacity(n),
            table: vec![0; 2 * n.next_power_of_two()],
        };
        strings.for_each(|levels| groups.insert(levels));
        groups
    }
}

/// Groups the level strings `strings` for k-means into `k` clusters.
fn groups<L: Level, S: AsRef<[L]>>(
    strings: impl IntoIterator<Item = S>,
    k: usize,
) -> Result<Groups, DetectorError> {
    if k == 0 {
        return Err(DetectorError::invalid("k-means needs k of at least one"));
    }
    let string = |(i, s): (usize, S)| {
        L::string(s.as_ref()).ok_or_else(|| DetectorError::BadHarvest {
            reason: format!("k-means input {i} is not {HISTOGRAM_BINS} whole levels in 0..=255"),
        })
    };
    strings.into_iter().enumerate().map(string).collect()
}

impl Groups {
    fn insert(&mut self, levels: LevelString) {
        if 2 * (self.distinct.len() + 1) > self.table.len() {
            self.table = vec![0; 2 * self.table.len()];
            for g in 0..self.distinct.len() {
                let at = self.slot(&self.distinct[g].0);
                self.table[at] = g + 1;
            }
        }
        let at = self.slot(&levels);
        if self.table[at] == 0 {
            self.distinct.push((levels, 0));
            self.table[at] = self.distinct.len();
        }
        let group = self.table[at] - 1;
        self.distinct[group].1 += 1;
        self.of.push(group);
    }

    /// The table slot holding `levels`, or the empty slot it would take.
    fn slot(&self, levels: &LevelString) -> usize {
        let mask = self.table.len() - 1;
        let mut at = hash(levels) & mask;
        while self.table[at] != 0 && self.distinct[self.table[at] - 1].0 != *levels {
            at = (at + 1) & mask;
        }
        at
    }

    /// [`recurrence_from_levels`] over these bursty strings.
    pub(crate) fn recurrence(&self, windows: usize, config: &ClusterConfig) -> RecurrenceVerdict {
        let bursty_windows = self.of.len();
        let largest_burst_cluster = if bursty_windows < config.min_recurring.max(1) {
            bursty_windows
        } else {
            let (_, _, sizes) = self.cluster(config.k, config.seed, config.max_iterations);
            sizes.into_iter().max().unwrap_or(0)
        };
        RecurrenceVerdict {
            windows,
            bursty_windows,
            largest_burst_cluster,
            recurrent: bursty_windows >= config.min_recurring
                && largest_burst_cluster >= config.min_recurring,
        }
    }

    /// Seeded k-means over the distinct strings (module docs): each one's
    /// cluster, the centroids and the member counts. `k` is clamped to
    /// `1..=inputs`, of which there must be at least one.
    fn cluster(&self, k: usize, seed: u64, iters: usize) -> (Vec<usize>, Vec<Point>, Vec<usize>) {
        let (n, k) = (self.of.len(), k.clamp(1, self.of.len()));
        let points: Vec<Point> = self.distinct.iter().map(|d| d.0.map(f64::from)).collect();
        let mut rng = SmallRng::seed_from_u64(seed);

        // k-means++ seeding. `dists[g]` is the least distance from string
        // `g` to a centroid so far, and `nearest[g]` the centroid holding it
        // (ascending, strict-less: `nearest_centroid`'s rule), so once every
        // centroid is folded in, `nearest` is the first assignment. A fold
        // abandons a distance past the current least, which it would not
        // take anyway.
        let mut centroids: Vec<Point> = Vec::with_capacity(k);
        let mut dists = vec![f64::INFINITY; points.len()];
        let mut nearest = vec![0usize; points.len()];
        let mut chosen = rng.gen_range(0..n);
        loop {
            let centroid = points[self.of[chosen]];
            for ((d, near), point) in dists.iter_mut().zip(&mut nearest).zip(&points) {
                let cand = sq_dist_bounded(point, &centroid, *d);
                if cand.total_cmp(d).is_lt() {
                    (*d, *near) = (cand, centroids.len());
                }
            }
            centroids.push(centroid);
            if centroids.len() == k {
                break;
            }
            // The draw walks the inputs in order, each at its string's
            // distance; when every input sits on a centroid, any will do.
            let total: f64 = self.of.iter().map(|&g| dists[g]).sum();
            if total <= f64::EPSILON {
                chosen = rng.gen_range(0..n);
                continue;
            }
            let mut target = rng.gen_range(0.0..total);
            chosen = n - 1;
            for (i, &g) in self.of.iter().enumerate() {
                if target < dists[g] {
                    chosen = i;
                    break;
                }
                target -= dists[g];
            }
        }

        // Lloyd iterations. The first assignment is `nearest`; it stops
        // after its update if that equals the all-zero start. A later one
        // that changes nothing stops before its update, which would
        // recompute the same means.
        let mut assignment = nearest;
        let mut sums = vec![0.0f64; k * HISTOGRAM_BINS];
        let mut sizes = vec![0usize; k];
        if iters == 0 {
            assignment.fill(0);
            sizes[0] = n;
        }
        for iteration in 0..iters {
            let changed = if iteration == 0 {
                assignment.iter().any(|&a| a != 0)
            } else {
                let mut changed = false;
                for (a, p) in assignment.iter_mut().zip(&points) {
                    let near = nearest_centroid(p, &centroids);
                    changed |= *a != near;
                    *a = near;
                }
                changed
            };
            if !changed && iteration > 0 {
                break;
            }
            sums.fill(0.0);
            sizes.fill(0);
            for ((point, &(_, count)), &a) in points.iter().zip(&self.distinct).zip(&assignment) {
                sizes[a] += count;
                let sum = &mut sums[a * HISTOGRAM_BINS..(a + 1) * HISTOGRAM_BINS];
                add_scaled(sum, point, count as f64);
            }
            for (j, (sum, &size)) in sums.chunks_exact(HISTOGRAM_BINS).zip(&sizes).enumerate() {
                if size > 0 {
                    for (c, s) in centroids[j].iter_mut().zip(sum) {
                        *c = s / size as f64;
                    }
                    continue;
                }
                // Re-seed an empty cluster at the farthest input.
                let anchor = centroids[assignment[self.of[0]]];
                let dist = |g: usize| sq_dist(&points[g], &anchor);
                let far = (0..points.len()).map(dist).fold(0.0, f64::max);
                if let Some(i) = self.of.iter().rposition(|&g| dist(g) == far) {
                    centroids[j] = points[self.of[i]];
                }
            }
            if !changed {
                break;
            }
        }
        // The last update counted the final assignment's members.
        (assignment, centroids, sizes)
    }
}

/// Deterministic k-means (k-means++ seeding) over level strings of
/// [`HISTOGRAM_BINS`] levels each: [`LevelString`]s, or their `f64` form
/// from [`discretized_features`].
/// Equal strings are clustered once, and the result is bit-identical to
/// k-means over every input's `f64` features (module docs).
///
/// # Errors
///
/// Returns [`DetectorError::InvalidConfig`] if `k` is zero, and
/// [`DetectorError::BadHarvest`] if an `f64` input is not [`HISTOGRAM_BINS`]
/// whole numbers in `0..=255`.
pub fn kmeans<L: Level, S: AsRef<[L]>>(
    strings: impl IntoIterator<Item = S>,
    k: usize,
    seed: u64,
    max_iterations: usize,
) -> Result<PatternClusters, DetectorError> {
    let groups = groups(strings, k)?;
    if groups.of.is_empty() {
        return Ok(PatternClusters::default());
    }
    let (assignment, centroids, sizes) = groups.cluster(k, seed, max_iterations);
    Ok(PatternClusters {
        assignments: groups.of.iter().map(|&g| assignment[g]).collect(),
        centroids: centroids.iter().map(|c| c.to_vec()).collect(),
        sizes,
    })
}

/// Outcome of recurrence analysis over an observation window of quanta.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecurrenceVerdict {
    /// Quanta analyzed.
    pub windows: usize,
    /// Quanta whose histograms carried a significant burst distribution.
    pub bursty_windows: usize,
    /// Size of the largest cluster of bursty histograms.
    pub largest_burst_cluster: usize,
    /// Whether the burst pattern recurs — the recurrent-burst signature of
    /// a contention-based covert timing channel.
    pub recurrent: bool,
}

/// Decides recurrence from the level strings of the bursty quanta (in
/// window order), given as [`kmeans`] takes them. `windows` is the total
/// number of observed quanta, bursty or not. The pattern is recurrent when
/// at least [`ClusterConfig::min_recurring`] of the bursty quanta share a
/// cluster (i.e. keep producing *similar* burst histograms).
/// [`crate::online::OnlineWindow`] runs the same analysis over its stored
/// strings.
///
/// # Errors
///
/// Fails as [`kmeans`] does, however few the bursty quanta.
pub fn recurrence_from_levels<L: Level, S: AsRef<[L]>>(
    windows: usize,
    bursty: impl IntoIterator<Item = S>,
    config: &ClusterConfig,
) -> Result<RecurrenceVerdict, DetectorError> {
    Ok(groups(bursty, config.k)?.recurrence(windows, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::burst::BurstDetector;
    use crate::kmeans_f64::{kmeans_f64, recurrence_f64};

    fn histogram(pairs: &[(usize, u64)]) -> DensityHistogram {
        let mut bins = vec![0u64; HISTOGRAM_BINS];
        for &(bin, f) in pairs {
            bins[bin] = f;
        }
        DensityHistogram::from_bins(bins, 100_000).expect("test bins are 128 long")
    }

    fn covert_histogram(peak: usize) -> DensityHistogram {
        histogram(&[(0, 2400), (1, 8), (peak, 180), (peak + 1, 20)])
    }

    fn benign_histogram(scale: u64) -> DensityHistogram {
        histogram(&[(0, 2400), (1, 50 * scale), (2, 10 * scale), (3, scale)])
    }

    /// A level string with `levels` at bins `0..`.
    fn string(levels: &[u8]) -> LevelString {
        let mut s = [0; HISTOGRAM_BINS];
        s[..levels.len()].copy_from_slice(levels);
        s
    }

    /// `n` seeded strings drawn from `distinct` seeded templates (all
    /// distinct templates when `distinct >= n`).
    fn strings(n: usize, distinct: usize, seed: u64) -> Vec<LevelString> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let templates: Vec<LevelString> = (0..distinct.max(1))
            .map(|_| std::array::from_fn(|_| (next() % 16) as u8))
            .collect();
        (0..n)
            .map(|i| {
                templates[if distinct >= n {
                    i
                } else {
                    next() as usize % distinct.max(1)
                }]
            })
            .collect()
    }

    /// Grouped k-means against the `f64` oracle over the widened strings:
    /// same assignments, sizes and centroid bits.
    fn assert_matches_oracle(strings: &[LevelString], k: usize, seed: u64, iterations: usize) {
        let features: Vec<Vec<f64>> = strings
            .iter()
            .map(|s| s.iter().map(|&l| f64::from(l)).collect())
            .collect();
        let fast = kmeans(strings, k, seed, iterations).unwrap();
        let slow = kmeans_f64(&features, k, seed, iterations);
        let case = format!(
            "n={} k={k} seed={seed} iterations={iterations}",
            strings.len()
        );
        assert_eq!(fast.assignments, slow.assignments, "{case}");
        assert_eq!(fast.sizes, slow.sizes, "{case}");
        assert_eq!(fast.centroids.len(), slow.centroids.len(), "{case}");
        for (cf, cs) in fast.centroids.iter().zip(&slow.centroids) {
            let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(cf), bits(cs), "{case}");
        }
        // The f64 form of the same strings clusters the same way.
        let widened = features.iter().map(Vec::as_slice);
        assert_eq!(
            kmeans(widened, k, seed, iterations).unwrap(),
            fast,
            "{case}"
        );
    }

    #[test]
    fn discretize_is_monotone_in_frequency() {
        let h = histogram(&[(0, 1), (1, 2), (2, 4), (3, 1000), (4, 0)]);
        let s = discretize(&h);
        assert!(s[0] < s[1] || s[0] == 1); // log levels: 1, 2, 3
        assert!(s[2] < s[3]);
        assert_eq!(s[4], 0);
        assert!(*s.iter().max().unwrap() < DISCRETIZATION_LEVELS);
        let nonzero: Vec<(usize, u64)> = h
            .bins()
            .iter()
            .enumerate()
            .filter(|(_, &f)| f > 0)
            .map(|(b, &f)| (b, f))
            .collect();
        assert_eq!(discretize_nonzero(nonzero), s);
        let widened: Vec<f64> = s.iter().map(|&l| f64::from(l)).collect();
        assert_eq!(discretized_features(&h), widened);
    }

    #[test]
    fn kmeans_separates_two_obvious_groups() {
        let strings: Vec<LevelString> = (0..10)
            .map(|i| {
                if i % 2 == 0 {
                    string(&[12, 1, 0, 0])
                } else {
                    string(&[
                        12, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8, 9, 7,
                    ])
                }
            })
            .collect();
        let clusters = kmeans(&strings, 2, 42, 50).unwrap();
        // Strings alternate groups; assignments must alternate too.
        let (a0, a1) = (clusters.assignments[0], clusters.assignments[1]);
        assert_ne!(a0, a1);
        for i in (0..10).step_by(2) {
            assert_eq!(clusters.assignments[i], a0);
            assert_eq!(clusters.assignments[i + 1], a1);
        }
        assert_eq!(clusters.sizes, vec![5, 5]);
    }

    #[test]
    fn grouped_kmeans_is_bit_identical_to_the_f64_oracle() {
        // (inputs, distinct templates, k): all distinct, heavily
        // duplicated, a few templates, k past the distinct count (its
        // duplicate seeds leave a cluster empty, so the re-seed runs),
        // k past the fused kernel's width.
        for (n, distinct, k) in [
            (1usize, 1usize, 1usize),
            (7, 7, 3),
            (64, 64, 3),
            (80, 80, 3),
            (200, 3, 3),
            (52, 1, 3),
            (52, 2, 3),
            (40, 5, 5),
            (12, 2, 4),
            (30, 9, 7),
        ] {
            for seed in [1, 99, 0xCC15_BEEF] {
                let strings = strings(n, distinct, seed ^ (n * 31 + k) as u64);
                for iterations in [0, 1, 2, 50] {
                    assert_matches_oracle(&strings, k, seed, iterations);
                }
            }
        }
        // All-identical inputs: every seeding round after the first draws
        // a duplicate.
        let same = vec![string(&[3; 8]); 12];
        assert_matches_oracle(&same, 4, 7, 20);
        assert_eq!(kmeans(&same, 4, 7, 20).unwrap().sizes, vec![12, 0, 0, 0]);
    }

    #[test]
    fn kmeans_refuses_zero_k_and_non_level_features() {
        let strings = strings(5, 5, 3);
        for k_zero in [
            kmeans(&strings, 0, 1, 10),
            kmeans::<u8, &LevelString>([], 0, 1, 10),
        ] {
            assert!(matches!(k_zero, Err(DetectorError::InvalidConfig { .. })));
        }
        let short = vec![vec![1.0; 4]];
        let fractional = vec![vec![0.5; HISTOGRAM_BINS]];
        let negative = vec![vec![-1.0; HISTOGRAM_BINS]];
        let nan = vec![vec![f64::NAN; HISTOGRAM_BINS]];
        for bad in [short, fractional, negative, nan] {
            let bad = bad.iter().map(Vec::as_slice);
            assert!(matches!(
                kmeans(bad, 3, 1, 10),
                Err(DetectorError::BadHarvest { .. })
            ));
        }
        let config = ClusterConfig {
            k: 0,
            ..ClusterConfig::default()
        };
        assert!(recurrence_from_levels(1, &strings, &config).is_err());
    }

    #[test]
    fn kmeans_is_deterministic() {
        let strings = strings(20, 6, 7);
        assert_eq!(
            kmeans(&strings, 3, 7, 50).unwrap(),
            kmeans(&strings, 3, 7, 50).unwrap()
        );
    }

    #[test]
    fn kmeans_handles_k_larger_than_n() {
        let clusters = kmeans([string(&[1]), string(&[2])], 10, 1, 10).unwrap();
        assert_eq!(clusters.centroids.len(), 2);
    }

    #[test]
    fn kmeans_empty_input() {
        let clusters = kmeans::<u8, &LevelString>([], 3, 1, 10).unwrap();
        assert!(clusters.assignments.is_empty());
        assert!(clusters.largest().is_none());
    }

    #[test]
    fn hash_table_growth_keeps_every_group() {
        // An input of unknown length starts the table at its smallest, so
        // distinct strings past the first few rebuild it.
        let strings = strings(300, 300, 11);
        let mut unsized_input = strings.iter();
        let groups = groups(std::iter::from_fn(|| unsized_input.next()), 3).unwrap();
        assert!(groups.table.len() >= 600);
        assert_eq!(groups.distinct.len(), 300);
        assert_eq!(groups.of, (0..300).collect::<Vec<_>>());
        assert_matches_oracle(&strings, 3, 5, 50);
    }

    /// Recurrence over a window of histograms: the significant ones'
    /// strings, clustered; checked against the `f64` oracle.
    fn recurrence(histograms: &[DensityHistogram]) -> RecurrenceVerdict {
        let detector = BurstDetector::default();
        let bursty: Vec<LevelString> = histograms
            .iter()
            .filter(|h| detector.analyze(h).significant)
            .map(discretize)
            .collect();
        let config = ClusterConfig::default();
        let verdict = recurrence_from_levels(histograms.len(), &bursty, &config).unwrap();
        let features: Vec<Vec<f64>> = bursty
            .iter()
            .map(|s| s.iter().map(|&l| f64::from(l)).collect())
            .collect();
        assert_eq!(
            verdict,
            recurrence_f64(histograms.len(), &features, &config)
        );
        verdict
    }

    #[test]
    fn covert_channel_pattern_recurs() {
        // 16 quanta, all carrying the same burst signature around bin 20.
        let histograms: Vec<DensityHistogram> = (0..16).map(|_| covert_histogram(20)).collect();
        let r = recurrence(&histograms);
        assert!(r.recurrent);
        assert_eq!(r.bursty_windows, 16, "every quantum is significant");
        assert!(r.largest_burst_cluster >= 14);
    }

    #[test]
    fn benign_window_is_not_recurrent() {
        let histograms: Vec<DensityHistogram> =
            (1..17).map(|i| benign_histogram(i % 3 + 1)).collect();
        let r = recurrence(&histograms);
        assert!(!r.recurrent, "{r:?}");
    }

    #[test]
    fn single_burst_is_not_recurrent() {
        let mut histograms: Vec<DensityHistogram> = (0..7).map(|_| benign_histogram(1)).collect();
        histograms.push(covert_histogram(40));
        let r = recurrence(&histograms);
        assert_eq!(r.bursty_windows, 1);
        assert!(!r.recurrent, "one-shot bursts must not count as recurrent");
    }

    #[test]
    fn irregular_burst_intervals_still_recur() {
        // Bursty quanta scattered irregularly through a mostly quiet window
        // (the low-bandwidth channel shape).
        let mut histograms = Vec::new();
        for i in 0..32 {
            if [3, 7, 8, 19, 30].contains(&i) {
                histograms.push(covert_histogram(20));
            } else {
                histograms.push(histogram(&[(0, 2500)]));
            }
        }
        let r = recurrence(&histograms);
        assert!(r.recurrent);
        assert_eq!(r.bursty_windows, 5);
    }
}
