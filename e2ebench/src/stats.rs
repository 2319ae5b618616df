//! Order statistics for the reported timings.

/// Nearest-rank percentile `p` (0–100) of `samples`: the value at 1-based
/// rank `ceil(p / 100 * n)`. Returns `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The median (nearest-rank p50).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The arithmetic mean, `0.0` for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// 1-based nearest rank of percentile `p` among `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    // Multiply before dividing so whole percentiles of whole counts stay exact.
    let r = (p.clamp(0.0, 100.0) * n as f64 / 100.0).ceil() as usize;
    r.clamp(1, n)
}

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// Samples of `n` that lie beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, f64::from(p))
    }
}

/// The highest whole percentile of `n` samples that leaves at least
/// [`TAIL_SAMPLES`] samples beyond it, or `None` when `n` is too small for
/// any tail (fewer than `TAIL_SAMPLES + 1` samples).
pub fn tail_percentile(n: usize) -> Option<u32> {
    (0..100u32)
        .rev()
        .find(|&p| samples_beyond(n, p) >= TAIL_SAMPLES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        assert_eq!(percentile(&samples, 100.0), Some(100.0));
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        // 100 samples: p90 sits at rank 90 with exactly 10 beyond it; p91
        // would leave only 9.
        assert_eq!(tail_percentile(100), Some(90));
        // 200 samples support p95 (rank 190, 10 beyond).
        assert_eq!(tail_percentile(200), Some(95));
        // 1000 samples support p99.
        assert_eq!(tail_percentile(1000), Some(99));
        // Too few samples for any tail with ten beyond it.
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(0), None);
        // 11 samples: p9 still sits at rank 1 with ten beyond; p10 does not.
        assert_eq!(tail_percentile(11), Some(9));
        // The rule holds for every size that has a tail at all.
        for n in 11..2_000 {
            let p = tail_percentile(n).expect("n > 10 has a tail");
            assert!(samples_beyond(n, p) >= TAIL_SAMPLES, "n={n} p={p}");
            if p < 99 {
                assert!(samples_beyond(n, p + 1) < TAIL_SAMPLES, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
