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

use crate::density::{DensityHistogram, HISTOGRAM_BINS};

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
        let bins = histogram.bins();
        let contended = histogram.contended_windows();
        if contended == 0 {
            return BurstVerdict::quiet(histogram.delta_t());
        }
        let threshold = self
            .local_minimum_threshold(bins)
            .or_else(|| self.gentle_slope_threshold(bins));
        let Some(threshold) = threshold else {
            return BurstVerdict {
                contended_windows: contended,
                nonburst_mean: mean_density(bins, 0, HISTOGRAM_BINS),
                ..BurstVerdict::quiet(histogram.delta_t())
            };
        };

        // One fused pass over the bins computes everything the split
        // formulas used to re-scan for: burst mass and weighted sum, the
        // non-burst weighted sum, the peak (last-max-wins on ties, matching
        // `max_by_key`), and the first/last non-empty burst bins. All
        // accumulators are integers, so the fusion is exact. The bin counts
        // sum within `u64` (every `DensityHistogram` keeps its window total
        // there), so the counts are plain `u64`; the density-weighted sums
        // can exceed it and run in `u128`.
        let mut pre_count = 0u64;
        let mut pre_weight = 0u128;
        let mut burst_windows = 0u64;
        let mut burst_weight = 0u128;
        let mut peak_freq = 0u64;
        let mut burst_peak = None;
        let mut first = None;
        let mut last = None;
        for (i, &f) in bins.iter().enumerate().skip(1) {
            if i < threshold {
                pre_count += f;
                pre_weight += i as u128 * u128::from(f);
            } else if f > 0 {
                burst_windows += f;
                burst_weight += i as u128 * u128::from(f);
                if first.is_none() {
                    first = Some(i);
                }
                last = Some(i);
                if f >= peak_freq {
                    peak_freq = f;
                    burst_peak = Some(i);
                }
            }
        }
        let nonburst_count = bins[0] + pre_count;
        let nonburst_mean = if nonburst_count == 0 {
            0.0
        } else {
            pre_weight as f64 / nonburst_count as f64
        };
        let burst_mean = if burst_windows == 0 {
            0.0
        } else {
            burst_weight as f64 / burst_windows as f64
        };
        let likelihood_ratio = burst_windows as f64 / contended as f64;
        let coherence = match burst_peak {
            Some(peak) if burst_windows > 0 => {
                let half_width =
                    ((peak as f64 * self.config.coherence_width_fraction).round() as usize).max(2);
                let lo = peak.saturating_sub(half_width).max(threshold);
                let hi = (peak + half_width).min(HISTOGRAM_BINS - 1);
                let near: u64 = bins[lo..=hi].iter().sum();
                near as f64 / burst_windows as f64
            }
            _ => 0.0,
        };
        let has_burst = burst_windows >= self.config.min_burst_windows
            && burst_mean > 1.0
            && coherence >= self.config.min_coherence;
        let burst_range = match (first, last) {
            (Some(a), Some(b)) => Some((a, b)),
            _ => None,
        };
        BurstVerdict {
            delta_t: histogram.delta_t(),
            threshold_density: Some(threshold),
            nonburst_mean,
            burst_mean,
            burst_windows,
            contended_windows: contended,
            likelihood_ratio,
            coherence,
            has_burst_distribution: has_burst,
            significant: has_burst && likelihood_ratio > self.config.likelihood_threshold,
            burst_peak,
            burst_range,
        }
    }

    /// "From left to right in the histogram, threshold density is the first
    /// bin which is smaller than the preceding bin, and equal or smaller
    /// than the next bin."
    fn local_minimum_threshold(&self, bins: &[u64]) -> Option<usize> {
        (1..bins.len() - 1).find(|&i| bins[i] < bins[i - 1] && bins[i] <= bins[i + 1])
    }

    /// Fallback: "the bin at which the slope of the fitted curve becomes
    /// gentle". The curve is monotonically decreasing here (no local
    /// minimum exists), so the knee is the first bin whose drop from its
    /// predecessor falls below a fraction of the largest drop.
    fn gentle_slope_threshold(&self, bins: &[u64]) -> Option<usize> {
        let largest_drop = bins
            .windows(2)
            .map(|w| w[0].saturating_sub(w[1]))
            .max()
            .unwrap_or(0);
        if largest_drop == 0 {
            return None;
        }
        let gentle = (largest_drop as f64 * self.config.gentle_slope_fraction).ceil() as u64;
        for i in 1..bins.len() {
            let drop = bins[i - 1].saturating_sub(bins[i]);
            if drop <= gentle {
                return Some(i);
            }
        }
        None
    }
}

/// Frequency-weighted mean density of `bins[lo..hi]`.
fn mean_density(bins: &[u64], lo: usize, hi: usize) -> f64 {
    let (sum, count) = bins[lo..hi]
        .iter()
        .enumerate()
        .fold((0u128, 0u128), |(s, c), (i, &f)| {
            (s + (lo + i) as u128 * u128::from(f), c + u128::from(f))
        });
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
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
