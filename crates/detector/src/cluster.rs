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

use crate::batch::{sq_dist, sq_dist_bounded, sq_dists_fused, MAX_FUSED_K};
use crate::density::DensityHistogram;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Number of discretization levels per histogram bin (log-scaled).
pub const DISCRETIZATION_LEVELS: u8 = 16;

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
pub fn discretize(histogram: &DensityHistogram) -> Vec<u8> {
    histogram.bins().iter().map(|&f| level(f)).collect()
}

/// The discretization level of one bin frequency: ⌊log₂ f⌋ + 1, capped at
/// `DISCRETIZATION_LEVELS - 1`; an empty bin is level 0.
pub(crate) fn level(frequency: u64) -> u8 {
    let width = u64::BITS - frequency.leading_zeros();
    width.min(u32::from(DISCRETIZATION_LEVELS) - 1) as u8
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
#[derive(Debug, Clone, PartialEq)]
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

/// Below this many feature vectors the assignment step stays serial — the
/// fan-out cost of [`threadpool::par_map`] only pays off on wide windows.
const PAR_ASSIGN_MIN: usize = 64;

/// Index of the centroid nearest to `point` (first wins on exact ties —
/// the tie-break every caller, serial or parallel, must share for
/// assignments to be reproducible).
///
/// Distances use the lane-accumulated [`sq_dist`] kernel with early
/// abandonment: once a candidate's partial sum exceeds the best distance it
/// can never win (partial sums of squares are nondecreasing, and selection
/// requires strictly-less under `total_cmp`), so cutting it short changes
/// neither the winner nor the first-wins tie-break.
///
/// For k up to [`MAX_FUSED_K`] the distances come from the fused
/// single-pass kernel [`sq_dists_fused`], whose per-centroid sums are
/// bit-identical to `sq_dist` calls; the argmin over full distances also
/// matches the early-abandoning loop it replaces, because an abandoned
/// candidate's partial sum already exceeded the running best and its full
/// distance can only be larger — strictly-less selection rejects it either
/// way.
fn nearest_centroid(point: &[f64], centroids: &[Vec<f64>]) -> usize {
    let mut best = 0;
    if centroids.len() <= MAX_FUSED_K {
        let mut dists = [f64::INFINITY; MAX_FUSED_K];
        sq_dists_fused(point, centroids, &mut dists);
        let mut best_dist = dists[0];
        for (j, dist) in dists.iter().enumerate().take(centroids.len()).skip(1) {
            if dist.total_cmp(&best_dist) == std::cmp::Ordering::Less {
                best = j;
                best_dist = *dist;
            }
        }
        return best;
    }
    let mut best_dist = sq_dist(point, &centroids[0]);
    for (j, centroid) in centroids.iter().enumerate().skip(1) {
        let dist = sq_dist_bounded(point, centroid, best_dist);
        if dist.total_cmp(&best_dist) == std::cmp::Ordering::Less {
            best = j;
            best_dist = dist;
        }
    }
    best
}

/// Deterministic k-means (k-means++ seeding) over feature vectors.
///
/// The assignment step fans out across the process thread pool for large
/// inputs; because each point's nearest centroid is computed independently
/// (same arithmetic, same tie-break) and results land at their input index,
/// the output is bit-identical to serial execution for any thread count.
/// The centroid-update accumulation stays serial to keep floating-point
/// summation order fixed.
///
/// # Panics
///
/// Panics if `k` is zero or feature vectors have inconsistent lengths.
pub fn kmeans<F: AsRef<[f64]> + Sync>(
    features: &[F],
    k: usize,
    seed: u64,
    max_iterations: usize,
) -> PatternClusters {
    assert!(k > 0, "k must be nonzero");
    if features.is_empty() {
        return PatternClusters {
            assignments: Vec::new(),
            centroids: Vec::new(),
            sizes: Vec::new(),
        };
    }
    let dim = features[0].as_ref().len();
    assert!(
        features.iter().all(|f| f.as_ref().len() == dim),
        "inconsistent feature dimensions"
    );
    let k = k.min(features.len());
    let mut rng = SmallRng::seed_from_u64(seed);

    // k-means++ initialization. `dists[i]` holds min over current centroids
    // of sq_dist(features[i], centroid), maintained incrementally: each new
    // centroid folds in with the same `f64::min` the full recomputation
    // would use, so the values (and the seeded sampling driven by them) are
    // identical to the O(n·k²) rebuild-every-round form this replaces.
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    let mut dists = vec![f64::INFINITY; features.len()];
    let mut init_nearest = vec![0usize; features.len()];
    // Each fold uses the early-abandoning kernel with the point's current
    // min as the cutoff: an abandoned distance is some partial sum already
    // above `*d`, so the strict-less test keeps `*d` — exactly what the
    // full distance would have produced (it can only be larger still).
    // Alongside the min, track *which* centroid holds it, applying the same
    // ascending-index, strict-less, first-wins-on-ties rule as
    // `nearest_centroid`: once all k centroids are folded, `init_nearest`
    // IS the first iteration's assignment vector, for free.
    let fold_in = |dists: &mut Vec<f64>, nearest: &mut Vec<usize>, j: usize, centroid: &[f64]| {
        for ((d, n), f) in dists.iter_mut().zip(nearest.iter_mut()).zip(features) {
            let cand = sq_dist_bounded(f.as_ref(), centroid, *d);
            if cand.total_cmp(d) == std::cmp::Ordering::Less {
                *d = cand;
                *n = j;
            }
        }
    };
    centroids.push(features[rng.gen_range(0..features.len())].as_ref().to_vec());
    fold_in(&mut dists, &mut init_nearest, 0, &centroids[0]);
    while centroids.len() < k {
        let total: f64 = dists.iter().sum();
        if total <= f64::EPSILON {
            // All points identical to existing centroids.
            centroids.push(features[rng.gen_range(0..features.len())].as_ref().to_vec());
            let j = centroids.len() - 1;
            fold_in(&mut dists, &mut init_nearest, j, &centroids[j]);
            continue;
        }
        let mut target = rng.gen_range(0.0..total);
        let mut chosen = features.len() - 1;
        for (i, d) in dists.iter().enumerate() {
            if target < *d {
                chosen = i;
                break;
            }
            target -= d;
        }
        centroids.push(features[chosen].as_ref().to_vec());
        let j = centroids.len() - 1;
        fold_in(&mut dists, &mut init_nearest, j, &centroids[j]);
    }

    let mut assignments = vec![0usize; features.len()];
    let mut updated_once = false;
    // The init fold already computed every point's nearest init centroid;
    // hand it to the first loop iteration so the first (and often only
    // non-converged) assignment pass costs nothing.
    let mut precomputed = Some(init_nearest);
    // Scratch reused across iterations: one flat k×dim accumulator slab and
    // the per-cluster member counts. Zeroing a flat slab each round is a
    // memset; the summation order inside it is identical to the per-cluster
    // `Vec<Vec<f64>>` form this replaces.
    let mut sums = vec![0.0f64; k * dim];
    let mut counts = vec![0usize; k];
    for _ in 0..max_iterations {
        // Assign: independent per point, so safe to parallelize.
        let mut changed = false;
        if let Some(nearest) = precomputed.take() {
            for (a, n) in assignments.iter_mut().zip(&nearest) {
                if *a != *n {
                    *a = *n;
                    changed = true;
                }
            }
        } else if features.len() >= PAR_ASSIGN_MIN {
            let centroids = &centroids;
            let nearest: Vec<usize> =
                threadpool::par_map(features, |f| nearest_centroid(f.as_ref(), centroids));
            for (a, n) in assignments.iter_mut().zip(&nearest) {
                if *a != *n {
                    *a = *n;
                    changed = true;
                }
            }
        } else {
            for (a, f) in assignments.iter_mut().zip(features) {
                let n = nearest_centroid(f.as_ref(), &centroids);
                if *a != n {
                    *a = n;
                    changed = true;
                }
            }
        }
        // Converged with the centroids already derived from these exact
        // assignments: re-running the update would recompute the identical
        // means (same members, same summation order), so skip it. The guard
        // excludes the first iteration, whose "unchanged" compares against
        // the all-zeros initial vector rather than a real prior update.
        if !changed && updated_once {
            break;
        }
        // Update: serial, preserving a fixed summation order.
        sums.iter_mut().for_each(|s| *s = 0.0);
        counts.iter_mut().for_each(|c| *c = 0);
        for (f, &a) in features.iter().zip(&assignments) {
            counts[a] += 1;
            crate::batch::add_assign(&mut sums[a * dim..(a + 1) * dim], f.as_ref());
        }
        for (j, (sum, &count)) in sums.chunks_exact(dim.max(1)).zip(&counts).enumerate() {
            if count > 0 {
                for (c, s) in centroids[j].iter_mut().zip(sum) {
                    *c = s / count as f64;
                }
            } else {
                // Re-seed an empty cluster at the point farthest from its
                // centroid.
                let far = features
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| {
                        sq_dist(a.as_ref(), &centroids[assignments[0]])
                            .total_cmp(&sq_dist(b.as_ref(), &centroids[assignments[0]]))
                    })
                    .map(|(i, _)| i)
                    .expect("nonempty features");
                centroids[j] = features[far].as_ref().to_vec();
            }
        }
        if !changed {
            break;
        }
        updated_once = true;
    }

    let mut sizes = vec![0usize; k];
    for &a in &assignments {
        sizes[a] += 1;
    }
    PatternClusters {
        assignments,
        centroids,
        sizes,
    }
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

/// A histogram's discretized string as a k-means feature vector: the
/// values of `discretize(h)` mapped through `f64::from`, computed in a single
/// pass without the intermediate `u8` string.
pub fn discretized_features(histogram: &DensityHistogram) -> Vec<f64> {
    histogram
        .bins()
        .iter()
        .map(|&f| f64::from(level(f)))
        .collect()
}

/// Decides recurrence from the already-discretized feature vectors of the
/// bursty quanta (in window order). `windows` is the total number of
/// observed quanta, bursty or not. The pattern is recurrent when at least
/// [`ClusterConfig::min_recurring`] of the bursty quanta share a cluster
/// (i.e. keep producing *similar* burst histograms).
///
/// [`crate::online::OnlineWindow`] calls this over its window's stored
/// levels, widened: given the same bursty feature sequence it returns the
/// same verdict, which is what lets the window skip re-clustering when a
/// pushed or evicted quantum leaves that sequence unchanged.
pub fn recurrence_from_features<F: AsRef<[f64]> + Sync>(
    windows: usize,
    bursty_features: &[F],
    config: &ClusterConfig,
) -> RecurrenceVerdict {
    let bursty_windows = bursty_features.len();
    if bursty_windows < config.min_recurring {
        return RecurrenceVerdict {
            windows,
            bursty_windows,
            largest_burst_cluster: bursty_windows,
            recurrent: false,
        };
    }
    let clusters = kmeans(
        bursty_features,
        config.k,
        config.seed,
        config.max_iterations,
    );
    let largest = clusters.largest().map(|(_, s)| s).unwrap_or(0);
    RecurrenceVerdict {
        windows,
        bursty_windows,
        largest_burst_cluster: largest,
        recurrent: largest >= config.min_recurring,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::burst::BurstDetector;
    use crate::density::HISTOGRAM_BINS;

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

    #[test]
    fn discretize_is_monotone_in_frequency() {
        let h = histogram(&[(0, 1), (1, 2), (2, 4), (3, 1000), (4, 0)]);
        let s = discretize(&h);
        assert!(s[0] < s[1] || s[0] == 1); // log levels: 1, 2, 3
        assert!(s[2] < s[3]);
        assert_eq!(s[4], 0);
        assert!(*s.iter().max().unwrap() < DISCRETIZATION_LEVELS);
    }

    #[test]
    fn kmeans_separates_two_obvious_groups() {
        let mut features = Vec::new();
        for i in 0..5 {
            features.push(vec![0.0 + i as f64 * 0.01, 0.0]);
            features.push(vec![10.0 + i as f64 * 0.01, 10.0]);
        }
        let clusters = kmeans(&features, 2, 42, 50);
        // Points alternate groups; assignments must alternate too.
        let a0 = clusters.assignments[0];
        let a1 = clusters.assignments[1];
        assert_ne!(a0, a1);
        for i in (0..10).step_by(2) {
            assert_eq!(clusters.assignments[i], a0);
            assert_eq!(clusters.assignments[i + 1], a1);
        }
        assert_eq!(clusters.sizes, vec![5, 5]);
    }

    /// Straight transcription of the textbook form of the algorithm —
    /// full k-means++ distance recomputation per seeding round, fresh
    /// assignment scan per iteration, per-cluster `Vec` accumulators —
    /// kept as the oracle the optimized `kmeans` must match bit-for-bit
    /// (same seeded choices, same assignments, same centroid floats).
    fn kmeans_reference<F: AsRef<[f64]> + Sync>(
        features: &[F],
        k: usize,
        seed: u64,
        max_iterations: usize,
    ) -> PatternClusters {
        assert!(k > 0);
        if features.is_empty() {
            return PatternClusters {
                assignments: Vec::new(),
                centroids: Vec::new(),
                sizes: Vec::new(),
            };
        }
        let dim = features[0].as_ref().len();
        let k = k.min(features.len());
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
        centroids.push(features[rng.gen_range(0..features.len())].as_ref().to_vec());
        while centroids.len() < k {
            let dists: Vec<f64> = features
                .iter()
                .map(|f| {
                    centroids
                        .iter()
                        .map(|c| sq_dist(f.as_ref(), c))
                        .fold(f64::INFINITY, f64::min)
                })
                .collect();
            let total: f64 = dists.iter().sum();
            if total <= f64::EPSILON {
                centroids.push(features[rng.gen_range(0..features.len())].as_ref().to_vec());
                continue;
            }
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = features.len() - 1;
            for (i, d) in dists.iter().enumerate() {
                if target < *d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            centroids.push(features[chosen].as_ref().to_vec());
        }
        let mut assignments = vec![0usize; features.len()];
        let mut updated_once = false;
        for _ in 0..max_iterations {
            let nearest: Vec<usize> = features
                .iter()
                .map(|f| {
                    let point = f.as_ref();
                    let mut best = 0;
                    let mut best_dist = sq_dist(point, &centroids[0]);
                    for (j, c) in centroids.iter().enumerate().skip(1) {
                        let dist = sq_dist(point, c);
                        if dist.total_cmp(&best_dist) == std::cmp::Ordering::Less {
                            best = j;
                            best_dist = dist;
                        }
                    }
                    best
                })
                .collect();
            let mut changed = false;
            for (a, n) in assignments.iter_mut().zip(&nearest) {
                if *a != *n {
                    *a = *n;
                    changed = true;
                }
            }
            if !changed && updated_once {
                break;
            }
            let mut sums = vec![vec![0.0f64; dim]; k];
            let mut counts = vec![0usize; k];
            for (f, &a) in features.iter().zip(&assignments) {
                counts[a] += 1;
                for (s, x) in sums[a].iter_mut().zip(f.as_ref()) {
                    *s += x;
                }
            }
            for (j, (sum, &count)) in sums.iter().zip(&counts).enumerate() {
                if count > 0 {
                    centroids[j] = sum.iter().map(|s| s / count as f64).collect();
                } else {
                    let far = features
                        .iter()
                        .enumerate()
                        .max_by(|(_, a), (_, b)| {
                            sq_dist(a.as_ref(), &centroids[assignments[0]])
                                .total_cmp(&sq_dist(b.as_ref(), &centroids[assignments[0]]))
                        })
                        .map(|(i, _)| i)
                        .expect("nonempty features");
                    centroids[j] = features[far].as_ref().to_vec();
                }
            }
            if !changed {
                break;
            }
            updated_once = true;
        }
        let mut sizes = vec![0usize; k];
        for &a in &assignments {
            sizes[a] += 1;
        }
        PatternClusters {
            assignments,
            centroids,
            sizes,
        }
    }

    #[test]
    fn optimized_kmeans_is_bit_identical_to_reference() {
        // Mixed shapes: well-separated groups, near-duplicates, a stretch
        // of identical points (exercises the duplicate-centroid seeding
        // branch), and high-dimensional discretized-looking strings.
        let mut x = 0x1234_5678_u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for (n, dim, k) in [
            (1usize, 1usize, 1usize),
            (7, 3, 3),
            (64, 128, 3),
            (40, 16, 5),
        ] {
            let features: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..dim).map(|_| (next() % 16) as f64).collect())
                .collect();
            let fast = kmeans(&features, k, 99, 50);
            let slow = kmeans_reference(&features, k, 99, 50);
            assert_eq!(fast.assignments, slow.assignments, "n={n} dim={dim} k={k}");
            assert_eq!(fast.sizes, slow.sizes, "n={n} dim={dim} k={k}");
            for (cf, cs) in fast.centroids.iter().zip(&slow.centroids) {
                for (a, b) in cf.iter().zip(cs) {
                    assert_eq!(a.to_bits(), b.to_bits(), "n={n} dim={dim} k={k}");
                }
            }
        }
        // All-identical points: every seeding round hits the duplicate
        // branch.
        let dupes: Vec<Vec<f64>> = (0..12).map(|_| vec![3.0; 8]).collect();
        let fast = kmeans(&dupes, 4, 7, 20);
        let slow = kmeans_reference(&dupes, 4, 7, 20);
        assert_eq!(fast.assignments, slow.assignments);
        assert_eq!(fast.sizes, slow.sizes);
    }

    #[test]
    fn kmeans_is_deterministic() {
        let features: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![(i % 7) as f64, (i % 3) as f64])
            .collect();
        let a = kmeans(&features, 3, 7, 50);
        let b = kmeans(&features, 3, 7, 50);
        assert_eq!(a, b);
    }

    #[test]
    fn kmeans_handles_k_larger_than_n() {
        let features = vec![vec![1.0], vec![2.0]];
        let clusters = kmeans(&features, 10, 1, 10);
        assert_eq!(clusters.centroids.len(), 2);
    }

    #[test]
    fn kmeans_empty_input() {
        let clusters = kmeans::<Vec<f64>>(&[], 3, 1, 10);
        assert!(clusters.assignments.is_empty());
        assert!(clusters.largest().is_none());
    }

    /// Recurrence over a window of histograms: the significant ones'
    /// features, clustered.
    fn recurrence(histograms: &[DensityHistogram]) -> RecurrenceVerdict {
        let detector = BurstDetector::default();
        let bursty: Vec<Vec<f64>> = histograms
            .iter()
            .filter(|h| detector.analyze(h).significant)
            .map(discretized_features)
            .collect();
        recurrence_from_features(histograms.len(), &bursty, &ClusterConfig::default())
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
