//! Burst-pattern detection on event-density histograms (paper §IV-B,
//! steps 3–4).
//!
//! Scanning the histogram left to right, the *threshold density* is the
//! first bin that is smaller than its predecessor and no larger than its
//! successor (the valley between the non-burst distribution hugging bin 0
//! and the burst distribution in the right tail); if no such bin exists, the
//! bin where the slope of the fitted curve becomes gentle is used. The
//! *likelihood ratio* of the burst distribution — its sample count divided
//! by all samples excluding bin 0 — separates covert channels (≥ 0.9
//! empirically, even at 0.1 bps) from benign programs (< 0.5). CC-Hunter's
//! decision threshold is a conservative 0.5.
//!
//! The analysis walks only the nonzero bins (a covert quantum has ~7): a
//! zero bin right after a nonzero one is a local minimum, and every
//! statistic is an integer sum, so the walk is exact against a dense scan.

use crate::density::{DensityHistogram, HISTOGRAM_BINS};
use std::mem::MaybeUninit;

/// Configuration for [`BurstDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstConfig {
    /// Likelihood ratios above this are considered for further (recurrence)
    /// analysis. The paper sets a conservative 0.5.
    pub likelihood_threshold: f64,
    /// Fallback knee detection: the slope is "gentle" once the bin-to-bin
    /// drop falls below this fraction of the largest drop.
    pub gentle_slope_fraction: f64,
    /// Minimum Δt windows in the burst distribution for it to count as a
    /// contention cluster at all — a handful of coincidental multi-event
    /// windows is not a burst pattern.
    pub min_burst_windows: u64,
    /// Fraction of the burst mass that must lie within the coherence
    /// window around the burst peak for the distribution to count as a
    /// *contention cluster*. Covert channels pile their burst windows at a
    /// characteristic density (≈ bin 20 for the bus, bins 84–105 for the
    /// divider); benign contention scatters thinly across densities.
    pub min_coherence: f64,
    /// Half-width of the coherence window, as a fraction of the peak bin
    /// (at least ±2 bins).
    pub coherence_width_fraction: f64,
}

impl Default for BurstConfig {
    fn default() -> Self {
        BurstConfig {
            likelihood_threshold: 0.5,
            gentle_slope_fraction: 0.05,
            min_burst_windows: 4,
            min_coherence: 0.45,
            coherence_width_fraction: 0.2,
        }
    }
}

/// Outcome of burst analysis on one density histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstVerdict {
    /// The Δt the histogram was built with (cycles).
    pub delta_t: u64,
    /// The threshold density separating the two distributions, if one was
    /// found.
    pub threshold_density: Option<usize>,
    /// Mean density of the non-burst distribution (bins left of the
    /// threshold, bin 0 included). Below 1.0 for genuine non-bursty periods.
    pub nonburst_mean: f64,
    /// Mean density of the burst distribution (bins at/right of the
    /// threshold). Above 1.0 when bursts are present.
    pub burst_mean: f64,
    /// Number of Δt windows in the burst distribution.
    pub burst_windows: u64,
    /// Number of Δt windows with any events at all (bin 0 excluded).
    pub contended_windows: u64,
    /// Likelihood ratio: `burst_windows / contended_windows` (bin 0
    /// omitted, per the paper).
    pub likelihood_ratio: f64,
    /// Fraction of the burst mass concentrated around the burst peak
    /// (1.0 = perfectly clustered).
    pub coherence: f64,
    /// Whether a significant burst distribution exists (threshold found,
    /// enough burst mass, mean density above 1.0, and a coherent cluster).
    pub has_burst_distribution: bool,
    /// Whether the likelihood ratio exceeds the configured decision
    /// threshold (0.5 by default): the histogram is "considered for further
    /// analysis" as a possible covert channel.
    pub significant: bool,
    /// Density bin with the highest frequency inside the burst
    /// distribution, if any (e.g. ≈ 20 for the paper's memory-bus channel,
    /// ≈ 96 for the divider channel).
    pub burst_peak: Option<usize>,
    /// First and last non-empty density bins of the burst distribution.
    pub burst_range: Option<(usize, usize)>,
}

impl BurstVerdict {
    fn quiet(delta_t: u64) -> Self {
        BurstVerdict {
            delta_t,
            threshold_density: None,
            nonburst_mean: 0.0,
            burst_mean: 0.0,
            burst_windows: 0,
            contended_windows: 0,
            likelihood_ratio: 0.0,
            coherence: 0.0,
            has_burst_distribution: false,
            significant: false,
            burst_peak: None,
            burst_range: None,
        }
    }
}

/// The recurrent-burst detector front end: locates the threshold density
/// and computes the burst distribution's likelihood ratio.
#[derive(Debug, Clone, Copy, Default)]
pub struct BurstDetector {
    config: BurstConfig,
}

impl BurstDetector {
    /// Creates a detector with the given configuration.
    pub fn new(config: BurstConfig) -> Self {
        BurstDetector { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &BurstConfig {
        &self.config
    }

    /// Analyzes one event-density histogram.
    pub fn analyze(&self, histogram: &DensityHistogram) -> BurstVerdict {
        let nonzero = histogram.bins().iter().copied().enumerate();
        let mut room = [MaybeUninit::uninit(); HISTOGRAM_BINS];
        let nonzero = gather_nonzero(nonzero.filter(|p| p.1 > 0), &mut room);
        self.analyze_nonzero(histogram.delta_t(), nonzero)
    }

    /// The one analysis, over a histogram's nonzero `(bin, frequency)`
    /// pairs ([`gather_nonzero`]; frequencies summing within `u64`): a stored window slot is scored
    /// without a dense view, with the dense histogram's statistics.
    pub(crate) fn analyze_nonzero(&self, delta_t: u64, nonzero: &[(usize, u64)]) -> BurstVerdict {
        let quiet = BurstVerdict::quiet(delta_t);
        let contended: u64 = nonzero.iter().filter(|p| p.0 > 0).map(|p| p.1).sum();
        if contended == 0 {
            return quiet;
        }
        let threshold =
            local_minimum_threshold(nonzero).or_else(|| self.gentle_slope_threshold(nonzero));
        let Some(threshold) = threshold else {
            let (weight, count) = weighted(nonzero);
            return BurstVerdict {
                contended_windows: contended,
                nonburst_mean: ratio(weight, count),
                ..quiet
            };
        };
        // Bins left of the threshold, bin 0 included, hold the non-burst
        // distribution; the rest hold the burst distribution.
        let (nonburst, burst) = nonzero.split_at(nonzero.partition_point(|p| p.0 < threshold));
        let (nonburst_weight, nonburst_count) = weighted(nonburst);
        let (burst_weight, burst_count) = weighted(burst);
        let burst_windows = u64::try_from(burst_count).unwrap_or(u64::MAX);
        // The last of tied peaks, as `max_by_key` picks.
        let burst_peak = burst.iter().max_by_key(|p| p.1).map(|p| p.0);
        let coherence = burst_peak.map_or(0.0, |peak| {
            let half_width =
                ((peak as f64 * self.config.coherence_width_fraction).round() as usize).max(2);
            let near = peak.saturating_sub(half_width).max(threshold)
                ..=(peak + half_width).min(HISTOGRAM_BINS - 1);
            let near: u64 = burst
                .iter()
                .filter(|p| near.contains(&p.0))
                .map(|p| p.1)
                .sum();
            near as f64 / burst_windows as f64
        });
        let burst_mean = ratio(burst_weight, burst_count);
        let likelihood_ratio = burst_windows as f64 / contended as f64;
        let has_burst = burst_windows >= self.config.min_burst_windows
            && burst_mean > 1.0
            && coherence >= self.config.min_coherence;
        BurstVerdict {
            threshold_density: Some(threshold),
            nonburst_mean: ratio(nonburst_weight, nonburst_count),
            burst_mean,
            burst_windows,
            contended_windows: contended,
            likelihood_ratio,
            coherence,
            has_burst_distribution: has_burst,
            significant: has_burst && likelihood_ratio > self.config.likelihood_threshold,
            burst_peak,
            burst_range: burst.first().zip(burst.last()).map(|(a, b)| (a.0, b.0)),
            ..quiet
        }
    }

    /// Fallback: "the bin at which the slope of the fitted curve becomes
    /// gentle". The curve is monotonically decreasing here (no local
    /// minimum exists), so the knee is the first bin whose drop from its
    /// predecessor falls below a fraction of the largest drop. Only a
    /// nonzero bin can drop into its successor, and the first bin after a
    /// zero one drops by nothing.
    fn gentle_slope_threshold(&self, nonzero: &[(usize, u64)]) -> Option<usize> {
        // The drop from pair `j`'s bin into the next bin.
        let drop = |j: usize| {
            let (bin, f) = nonzero[j];
            f.saturating_sub(frequency_at(nonzero, j + 1, bin + 1))
        };
        let drops = (0..nonzero.len()).filter(|&j| nonzero[j].0 < HISTOGRAM_BINS - 1);
        let largest_drop = drops.map(drop).max().unwrap_or(0);
        if largest_drop == 0 {
            return None;
        }
        let gentle = (largest_drop as f64 * self.config.gentle_slope_fraction).ceil() as u64;
        // Bins 0, 1, … before the first zero bin are pairs 0, 1, ….
        let mut run = 0;
        while nonzero.get(run).is_some_and(|p| p.0 == run) {
            run += 1;
        }
        let knee = (0..run).find(|&j| drop(j) <= gentle).unwrap_or(run) + 1;
        (knee < HISTOGRAM_BINS).then_some(knee)
    }
}

/// "From left to right in the histogram, threshold density is the first
/// bin which is smaller than the preceding bin, and equal or smaller than
/// the next bin." Over the nonzero pairs that is a walk: a nonzero bin
/// between a larger predecessor and a successor at least as large, or the
/// zero bin right after a nonzero bin — within bins `1..=126` either way.
fn local_minimum_threshold(nonzero: &[(usize, u64)]) -> Option<usize> {
    let inner = 1..=HISTOGRAM_BINS - 2;
    for (j, &(bin, f)) in nonzero.iter().enumerate() {
        let next = frequency_at(nonzero, j + 1, bin + 1);
        let prev = frequency_at(nonzero, j.wrapping_sub(1), bin.wrapping_sub(1));
        if inner.contains(&bin) && f < prev && f <= next {
            return Some(bin);
        }
        if next == 0 && inner.contains(&(bin + 1)) {
            return Some(bin + 1);
        }
    }
    None
}

/// Gathers the pairs of `pairs` (bins ascending) whose bin is below
/// [`HISTOGRAM_BINS`] into the front of `room`, a stack array the caller
/// owns, and returns them. Only the gathered prefix is ever written or
/// read, so a gather costs its pairs, not a zero fill of all 128 (2 KiB).
pub(crate) fn gather_nonzero(
    pairs: impl IntoIterator<Item = (usize, u64)>,
    room: &mut [MaybeUninit<(usize, u64)>; HISTOGRAM_BINS],
) -> &[(usize, u64)] {
    let mut len = 0;
    let pairs = pairs.into_iter().filter(|p| p.0 < HISTOGRAM_BINS);
    for (slot, pair) in room.iter_mut().zip(pairs) {
        slot.write(pair);
        len += 1;
    }
    // SAFETY: the loop wrote the first `len` pairs, and `MaybeUninit<T>`
    // has `T`'s layout.
    unsafe { std::slice::from_raw_parts(room.as_ptr().cast(), len) }
}

/// The frequency of `bin` if pair `j` holds it, else 0 (a nonzero bin's
/// neighbour is the adjacent pair or absent).
fn frequency_at(nonzero: &[(usize, u64)], j: usize, bin: usize) -> u64 {
    nonzero.get(j).filter(|p| p.0 == bin).map_or(0, |p| p.1)
}

/// The density-weighted sum and the count of `pairs`' windows: integers,
/// exact in any order. The count stays within the window total, a `u64`;
/// the weighted sum can exceed it.
fn weighted(pairs: &[(usize, u64)]) -> (u128, u128) {
    pairs.iter().fold((0, 0), |(sum, count), &(i, f)| {
        (sum + i as u128 * u128::from(f), count + u128::from(f))
    })
}

/// `num / den`, or 0 for an empty distribution.
fn ratio(num: u128, den: u128) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::DensityHistogram;

    fn histogram_from(pairs: &[(usize, u64)]) -> DensityHistogram {
        let mut bins = vec![0u64; HISTOGRAM_BINS];
        for &(bin, freq) in pairs {
            bins[bin] = freq;
        }
        DensityHistogram::from_bins(bins, 100_000).expect("test bins are 128 long")
    }

    /// The dense form of the analysis: bin-by-bin scans of all 128 bins.
    /// The oracle [`BurstDetector::analyze_nonzero`] must match field for
    /// field.
    fn analyze_dense(config: &BurstConfig, histogram: &DensityHistogram) -> BurstVerdict {
        let bins = histogram.bins();
        let contended = histogram.contended_windows();
        let quiet = BurstVerdict::quiet(histogram.delta_t());
        if contended == 0 {
            return quiet;
        }
        let largest_drop = bins.windows(2).map(|w| w[0].saturating_sub(w[1])).max();
        let gentle = |largest: u64| (largest as f64 * config.gentle_slope_fraction).ceil() as u64;
        let threshold = (1..bins.len() - 1)
            .find(|&i| bins[i] < bins[i - 1] && bins[i] <= bins[i + 1])
            .or_else(|| {
                let largest = largest_drop.filter(|&d| d > 0)?;
                (1..bins.len()).find(|&i| bins[i - 1].saturating_sub(bins[i]) <= gentle(largest))
            });
        let weighted = |range: std::ops::Range<usize>| -> (u128, u128) {
            range.fold((0, 0), |(s, c), i| {
                (s + i as u128 * u128::from(bins[i]), c + u128::from(bins[i]))
            })
        };
        let Some(threshold) = threshold else {
            let (sum, count) = weighted(0..HISTOGRAM_BINS);
            return BurstVerdict {
                contended_windows: contended,
                nonburst_mean: sum as f64 / count as f64,
                ..quiet
            };
        };
        let (pre_weight, pre_count) = weighted(1..threshold);
        let (burst_weight, burst_windows) = weighted(threshold..HISTOGRAM_BINS);
        let burst_windows = burst_windows as u64;
        let nonburst_count = u128::from(bins[0]) + pre_count;
        let mean = |w: u128, c: u128| if c == 0 { 0.0 } else { w as f64 / c as f64 };
        let burst: Vec<usize> = (threshold..HISTOGRAM_BINS)
            .filter(|&i| bins[i] > 0)
            .collect();
        let burst_peak = burst.iter().copied().max_by_key(|&i| bins[i]);
        let coherence = burst_peak.map_or(0.0, |peak| {
            let half = ((peak as f64 * config.coherence_width_fraction).round() as usize).max(2);
            let lo = peak.saturating_sub(half).max(threshold);
            let hi = (peak + half).min(HISTOGRAM_BINS - 1);
            bins[lo..=hi].iter().sum::<u64>() as f64 / burst_windows as f64
        });
        let burst_mean = mean(burst_weight, u128::from(burst_windows));
        let likelihood_ratio = burst_windows as f64 / contended as f64;
        let has_burst = burst_windows >= config.min_burst_windows
            && burst_mean > 1.0
            && coherence >= config.min_coherence;
        BurstVerdict {
            threshold_density: Some(threshold),
            nonburst_mean: mean(pre_weight, nonburst_count),
            burst_mean,
            burst_windows,
            contended_windows: contended,
            likelihood_ratio,
            coherence,
            has_burst_distribution: has_burst,
            significant: has_burst && likelihood_ratio > config.likelihood_threshold,
            burst_peak,
            burst_range: burst.first().zip(burst.last()).map(|(&a, &b)| (a, b)),
            ..quiet
        }
    }

    fn assert_matches_dense(config: BurstConfig, h: &DensityHistogram) {
        let sparse = BurstDetector::new(config).analyze(h);
        assert_eq!(sparse, analyze_dense(&config, h), "bins {:?}", h.bins());
    }

    #[test]
    fn sparse_core_matches_the_dense_scan_on_edge_shapes() {
        let max = u64::MAX;
        let shapes: &[&[(usize, u64)]] = &[
            // All-zero contended mass, and an empty histogram.
            &[(0, 1000)],
            &[],
            // Edge bins alone and together.
            &[(1, 5)],
            &[(127, 9)],
            &[(126, 9)],
            &[(126, 3), (127, 9)],
            &[(0, 4), (1, 9), (126, 3), (127, 9)],
            &[(0, 7), (127, 1)],
            // Ties and plateaus: equal neighbours, flat runs, tied peaks.
            &[(0, 10), (1, 5), (2, 5), (3, 5), (20, 8), (21, 8)],
            &[(0, 10), (1, 10), (2, 10), (3, 10)],
            &[(1, 4), (2, 4), (3, 2), (4, 2), (5, 6), (9, 6)],
            &[(0, 50), (1, 20), (2, 20), (3, 30), (4, 30)],
            // Monotone, no zero gap: the gentle-slope fallback.
            &[(0, 1000), (1, 400), (2, 100), (3, 96), (4, 93)],
            &[
                (0, 1000),
                (1, 400),
                (2, 100),
                (3, 96),
                (4, 93),
                (5, 93),
                (6, 2),
            ],
            &[(0, 2), (1, 3), (2, 4), (3, 5)],
            &[(2, 1), (3, 2), (4, 3)],
            // u64::MAX bins (one carries the whole window total).
            &[(1, max)],
            &[(127, max)],
            &[(0, max)],
            &[(0, max - 10), (40, 10)],
        ];
        let configs = [
            BurstConfig::default(),
            BurstConfig {
                gentle_slope_fraction: 0.5,
                min_burst_windows: 1,
                min_coherence: 0.0,
                ..BurstConfig::default()
            },
        ];
        for pairs in shapes {
            for config in configs {
                assert_matches_dense(config, &histogram_from(pairs));
            }
        }
        // Every bin nonzero, strictly decreasing: no local minimum, and the
        // gentle-slope knee is past the last bin.
        let falling = DensityHistogram::from_bins((0..128).map(|i| (128 - i) * 1000).collect(), 9)
            .expect("128 bins");
        let steps = DensityHistogram::from_bins((0..128).rev().collect(), 9).expect("128 bins");
        let rising = DensityHistogram::from_bins((1..129).collect(), 9).expect("128 bins");
        for h in [falling, steps, rising] {
            for config in configs {
                assert_matches_dense(config, &h);
            }
        }
    }

    #[test]
    fn sparse_core_matches_the_dense_scan_on_fuzzed_histograms() {
        let mut x = 0x5EED_B125_7000_0001u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for case in 0..20_000 {
            // Few nonzero bins (the covert and benign shapes), dense runs
            // near the left, or every bin; small frequencies make ties.
            let mut bins = vec![0u64; HISTOGRAM_BINS];
            let (count, span, scale) = match case % 4 {
                0 => (next() % 8, 128, 1 + next() % 300),
                1 => (next() % 24, 8 + next() % 24, 1 + next() % 6),
                2 => (128, 128, 1 + next() % 4),
                _ => (next() % 40, 128, 1 + next() % 1_000_000),
            };
            for _ in 0..count {
                bins[(next() % span) as usize] = next() % (scale + 1);
            }
            if case % 3 == 0 {
                bins[0] = next() % 5000;
            }
            let h = DensityHistogram::from_bins(bins, 1 + next() % 1000).expect("128 bins");
            let config = BurstConfig {
                gentle_slope_fraction: [0.05, 0.3, 0.9][case % 3],
                min_burst_windows: next() % 6,
                ..BurstConfig::default()
            };
            assert_matches_dense(config, &h);
        }
    }

    #[test]
    fn covert_channel_shape_yields_high_likelihood() {
        // Bus-channel-like: huge bin 0, light noise at 1–2, burst cluster
        // around density 20.
        let h = histogram_from(&[(0, 2400), (1, 12), (2, 3), (19, 40), (20, 160), (21, 30)]);
        let v = BurstDetector::default().analyze(&h);
        assert!(v.has_burst_distribution);
        assert!(v.significant);
        assert!(v.likelihood_ratio > 0.9, "lr = {}", v.likelihood_ratio);
        assert_eq!(v.burst_peak, Some(20));
        assert_eq!(v.burst_range, Some((19, 21)));
        assert!(v.nonburst_mean < 1.0);
        assert!(v.burst_mean > 1.0);
    }

    #[test]
    fn benign_decaying_shape_is_insignificant() {
        // Benign: monotonically decaying contention with no second mode.
        let h = histogram_from(&[(0, 2400), (1, 500), (2, 120), (3, 30), (4, 5)]);
        let v = BurstDetector::default().analyze(&h);
        // Threshold lands right after the decay; burst mass is tiny.
        assert!(v.likelihood_ratio < 0.5, "lr = {}", v.likelihood_ratio);
        assert!(!v.significant);
    }

    #[test]
    fn mailserver_like_second_mode_stays_below_half() {
        // Fig. 14d: a real second distribution between bins 5 and 8, but
        // the bulk of contended windows sits at densities 1–2 → LR < 0.5.
        let h = histogram_from(&[
            (0, 2300),
            (1, 600),
            (2, 250),
            (3, 40),
            (5, 60),
            (6, 90),
            (7, 70),
            (8, 30),
        ]);
        let v = BurstDetector::default().analyze(&h);
        assert!(v.has_burst_distribution);
        assert!(
            v.likelihood_ratio < 0.5,
            "benign bursty pair must stay below the decision threshold, lr = {}",
            v.likelihood_ratio
        );
        assert!(!v.significant);
    }

    #[test]
    fn quiet_histogram_yields_quiet_verdict() {
        let h = histogram_from(&[(0, 1000)]);
        let v = BurstDetector::default().analyze(&h);
        assert!(!v.has_burst_distribution);
        assert!(!v.significant);
        assert_eq!(v.likelihood_ratio, 0.0);
        assert_eq!(v.contended_windows, 0);
    }

    #[test]
    fn threshold_is_first_local_minimum() {
        let h = histogram_from(&[(0, 100), (1, 50), (2, 10), (3, 2), (4, 30), (5, 10)]);
        let v = BurstDetector::default().analyze(&h);
        assert_eq!(v.threshold_density, Some(3));
    }

    #[test]
    fn gentle_slope_fallback_when_monotone() {
        // Strictly decreasing: no local minimum; knee where drops flatten.
        let h = histogram_from(&[(0, 1000), (1, 400), (2, 100), (3, 96), (4, 93)]);
        let v = BurstDetector::default().analyze(&h);
        let t = v.threshold_density.expect("knee found");
        assert!(t >= 3, "knee after the steep region, got {t}");
    }

    #[test]
    fn pure_burst_channel_lr_approaches_one() {
        // Idealized channel with zero noise: everything contended is burst.
        let h = histogram_from(&[(0, 490_000), (96, 9_000), (97, 1_000)]);
        let v = BurstDetector::default().analyze(&h);
        assert!(v.likelihood_ratio > 0.999);
        assert_eq!(v.burst_peak, Some(96));
    }

    #[test]
    fn likelihood_ratio_omits_bin_zero() {
        let h = histogram_from(&[(0, 1_000_000), (10, 50)]);
        let v = BurstDetector::default().analyze(&h);
        assert_eq!(v.contended_windows, 50);
        assert!((v.likelihood_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn config_threshold_is_respected() {
        let h = histogram_from(&[(0, 100), (1, 40), (2, 5), (10, 50)]);
        let strict = BurstDetector::new(BurstConfig {
            likelihood_threshold: 0.99,
            ..BurstConfig::default()
        });
        let v = strict.analyze(&h);
        assert!(v.has_burst_distribution);
        assert!(
            !v.significant,
            "0.99 threshold not met by lr {}",
            v.likelihood_ratio
        );
    }
}
