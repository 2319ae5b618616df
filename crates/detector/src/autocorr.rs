//! Oscillatory-pattern detection via autocorrelation (paper §IV-D).
//!
//! Cache covert channels modulate the *latency* of events rather than their
//! rate, producing an oscillating train of conflict misses between the
//! trojan and spy contexts. Oscillation is detected by computing the
//! autocorrelogram of the conflict-miss symbol series: a covert channel
//! shows strong periodic peaks (≈ 0.85–0.95) at lags near the number of
//! cache sets used for transmission, while benign workloads show no
//! sustained periodicity.

use crate::batch::with_planner;
use crate::events::SymbolSeries;

/// Autocorrelation coefficients for every lag `0..=max_lag` of a series —
/// the paper's autocorrelogram (Figure 8b).
#[derive(Debug, Clone, PartialEq)]
pub struct Autocorrelogram {
    coefficients: Vec<f64>,
}

impl Autocorrelogram {
    /// The autocorrelogram of an `f64` series up to `max_lag`, every
    /// coefficient from its definition
    ///
    /// r_p = Σᵢ (Xᵢ − X̄)(Xᵢ₊ₚ − X̄) / Σᵢ (Xᵢ − X̄)²
    ///
    /// by the direct O(n·max_lag) loop. It is the reference the exact
    /// symbol correlograms ([`of_symbols`](Self::of_symbols)) are tested
    /// against. Lags past n − 2, and every lag of a series shorter than two
    /// or without variance, are 0.0 (r₀ is 1.0 from two samples on).
    pub fn compute_naive(samples: &[f64], max_lag: usize) -> Self {
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n.max(1) as f64;
        let centered: Vec<f64> = samples.iter().map(|x| x - mean).collect();
        let denom: f64 = centered.iter().map(|x| x * x).sum();
        let mut computed = vec![if n < 2 { 0.0 } else { 1.0 }];
        if n >= 2 && denom > f64::EPSILON {
            let dot = |k: usize| centered.iter().zip(&centered[k..]).map(|(a, b)| a * b);
            let lags = max_lag.min(n - 2);
            computed.extend((1..=lags).map(|k| dot(k).sum::<f64>() / denom));
        }
        Self::padded(&computed, max_lag)
    }

    /// Computes the autocorrelogram of a labeled symbol series from exact
    /// integer lag sums: the same coefficients, bit for bit, whether the
    /// direct loop or the transform built them, and within 1e-9 of
    /// [`compute_naive`](Self::compute_naive) over the symbols as `f64`.
    pub fn of_symbols(series: &SymbolSeries, max_lag: usize) -> Self {
        with_planner(|p| {
            p.load_symbols(series.symbols().iter().copied());
            Self::padded(p.symbol_coefficients(max_lag), max_lag)
        })
    }

    /// `computed` followed by the exact zeros of the lags past it.
    fn padded(computed: &[f64], max_lag: usize) -> Self {
        let mut coefficients = vec![0.0; max_lag + 1];
        coefficients[..computed.len()].copy_from_slice(computed);
        Autocorrelogram { coefficients }
    }

    fn lags(&self) -> Lags<'_> {
        Lags {
            computed: &self.coefficients,
            max_lag: self.max_lag(),
        }
    }

    /// The coefficient at `lag`.
    pub fn coefficient(&self, lag: usize) -> f64 {
        self.coefficients.get(lag).copied().unwrap_or(0.0)
    }

    /// All coefficients, index = lag.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// The largest lag computed.
    pub fn max_lag(&self) -> usize {
        self.coefficients.len().saturating_sub(1)
    }

    /// The `(lag, value)` of the highest coefficient among lags in
    /// `[min_lag, max_lag]`, or `None` if the range is empty.
    pub fn peak_in(&self, min_lag: usize, max_lag: usize) -> Option<(usize, f64)> {
        self.lags().peak_in(min_lag, max_lag)
    }

    /// The dominant periodic peak: the global maximum *after* the
    /// correlogram first decays below `dip_threshold`.
    ///
    /// Autocorrelation always starts at 1.0 and decays smoothly, so small
    /// lags trivially dominate a naive arg-max. A genuinely periodic series
    /// decays (or swings negative), then *recovers* at its period — the
    /// shape visible in the paper's Figure 8b. A series that never dips has
    /// no measurable period and yields `None`.
    pub fn dominant_peak(&self, min_lag: usize, dip_threshold: f64) -> Option<(usize, f64)> {
        self.lags().dominant_peak(min_lag, dip_threshold)
    }
}

/// A correlogram up to `max_lag` whose coefficients past `computed` are
/// exact zeros (a series of n symbols has none past lag n − 2): the scans
/// read those lags as zeros without storing them.
#[derive(Debug, Clone, Copy)]
struct Lags<'a> {
    computed: &'a [f64],
    max_lag: usize,
}

impl Lags<'_> {
    fn peak_in(&self, min_lag: usize, max_lag: usize) -> Option<(usize, f64)> {
        let hi = max_lag.min(self.max_lag);
        if min_lag > hi {
            return None;
        }
        // total_cmp: a degenerate series (NaN coefficients) must yield an
        // arbitrary-but-stable peak, never panic the daemon.
        let last = hi.min(self.computed.len().saturating_sub(1));
        let peak = (min_lag..=last)
            .filter_map(|lag| Some((lag, *self.computed.get(lag)?)))
            .max_by(|a, b| a.1.total_cmp(&b.1));
        // `max_by` keeps the last of equal maxima, so zeros in range win
        // unless a computed coefficient lies above +0.0.
        match peak {
            Some((_, v)) if hi < self.computed.len() || v.total_cmp(&0.0).is_gt() => peak,
            _ => Some((hi, 0.0)),
        }
    }

    fn dominant_peak(&self, min_lag: usize, dip_threshold: f64) -> Option<(usize, f64)> {
        let zeros = self.computed.len().max(min_lag);
        let dip = (min_lag..self.computed.len())
            .find(|&lag| self.computed[lag] < dip_threshold)
            .or_else(|| (0.0 < dip_threshold && zeros <= self.max_lag).then_some(zeros))?;
        self.peak_in(dip + 1, self.max_lag)
    }
}

/// Configuration for [`OscillationDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OscillationConfig {
    /// Lags below this are ignored when searching for the decay dip and the
    /// dominant peak (adjacent events are trivially correlated).
    pub min_lag: usize,
    /// The correlogram must decay below this level before a recovery peak
    /// counts as periodic (see [`Autocorrelogram::dominant_peak`]).
    pub dip_threshold: f64,
    /// The peak autocorrelation required to call a series oscillatory.
    /// Covert cache channels exhibit ≈ 0.85–0.95; benign pairs stay well
    /// below.
    pub peak_threshold: f64,
    /// The coefficient required near the second harmonic (2 × peak lag,
    /// ± `harmonic_tolerance`) as a fraction of the peak, confirming
    /// *sustained* periodicity rather than a one-off bump.
    pub harmonic_fraction: f64,
    /// Relative half-width of the harmonic search window.
    pub harmonic_tolerance: f64,
    /// Minimum number of symbols needed for a meaningful verdict.
    pub min_samples: usize,
}

impl Default for OscillationConfig {
    fn default() -> Self {
        OscillationConfig {
            min_lag: 8,
            dip_threshold: 0.0,
            peak_threshold: 0.5,
            harmonic_fraction: 0.5,
            harmonic_tolerance: 0.15,
            min_samples: 64,
        }
    }
}

/// Outcome of oscillation analysis on one symbol series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OscillationVerdict {
    /// Number of symbols analyzed.
    pub samples: usize,
    /// The dominant peak `(lag, coefficient)` found, if any.
    pub peak: Option<(usize, f64)>,
    /// Coefficient observed near the second harmonic of the peak lag.
    pub harmonic_value: f64,
    /// Whether the series shows significant sustained periodicity — the
    /// oscillatory-pattern signature of a cache covert timing channel.
    pub oscillatory: bool,
}

/// The oscillatory-pattern detector: autocorrelogram peak + harmonic
/// confirmation.
#[derive(Debug, Clone, Copy, Default)]
pub struct OscillationDetector {
    config: OscillationConfig,
}

impl OscillationDetector {
    /// Creates a detector with the given configuration.
    pub fn new(config: OscillationConfig) -> Self {
        OscillationDetector { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &OscillationConfig {
        &self.config
    }

    /// Analyzes a symbol series, computing the autocorrelogram up to
    /// `max_lag` and judging periodicity.
    pub fn analyze(&self, series: &SymbolSeries, max_lag: usize) -> OscillationVerdict {
        self.analyze_symbols(series.symbols().iter().copied(), max_lag)
    }

    /// [`analyze`](Self::analyze) over symbols as they are produced: they
    /// go into the thread's planner scratch, and the correlogram is built
    /// and judged there, so a steady-state call allocates nothing. Series
    /// shorter than `min_samples` are not correlated at all.
    pub(crate) fn analyze_symbols(
        &self,
        symbols: impl IntoIterator<Item = u8>,
        max_lag: usize,
    ) -> OscillationVerdict {
        with_planner(|p| {
            let samples = p.load_symbols(symbols);
            let computed = if samples < self.config.min_samples {
                &[]
            } else {
                p.symbol_coefficients(max_lag)
            };
            self.judge(samples, Lags { computed, max_lag })
        })
    }

    /// Judges an already-computed autocorrelogram.
    pub fn analyze_correlogram(
        &self,
        samples: usize,
        correlogram: &Autocorrelogram,
    ) -> OscillationVerdict {
        self.judge(samples, correlogram.lags())
    }

    fn judge(&self, samples: usize, correlogram: Lags<'_>) -> OscillationVerdict {
        let no_peak = OscillationVerdict {
            samples,
            peak: None,
            harmonic_value: 0.0,
            oscillatory: false,
        };
        if samples < self.config.min_samples {
            return no_peak;
        }
        let peak = correlogram.dominant_peak(self.config.min_lag, self.config.dip_threshold);
        let Some((peak_lag, peak_value)) = peak else {
            return no_peak;
        };
        // Look for the second harmonic near 2 × peak_lag.
        let center = peak_lag * 2;
        let half_width = ((peak_lag as f64) * self.config.harmonic_tolerance).ceil() as usize;
        let lo = center.saturating_sub(half_width);
        let hi = center + half_width;
        let harmonic_value = if lo <= correlogram.max_lag {
            correlogram.peak_in(lo, hi).map(|(_, v)| v).unwrap_or(0.0)
        } else {
            0.0
        };
        let strong_peak = peak_value >= self.config.peak_threshold;
        let harmonic_ok = if center > correlogram.max_lag {
            // Cannot observe the second harmonic within the window: demand a
            // decisively strong primary peak instead.
            peak_value >= (self.config.peak_threshold + 1.0) / 2.0
        } else {
            harmonic_value >= self.config.harmonic_fraction * peak_value
        };
        OscillationVerdict {
            samples,
            peak: Some((peak_lag, peak_value)),
            harmonic_value,
            oscillatory: strong_peak && harmonic_ok,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// A square wave of `ones` ones then `zeros` zeros, repeated.
    fn square_wave(ones: usize, zeros: usize, repeats: usize) -> SymbolSeries {
        let mut s = Vec::new();
        for _ in 0..repeats {
            s.extend(std::iter::repeat_n(1u8, ones));
            s.extend(std::iter::repeat_n(0u8, zeros));
        }
        SymbolSeries::from_symbols(s)
    }

    #[test]
    fn r0_is_one() {
        let s: Vec<f64> = vec![1.0, 5.0, 2.0, 8.0];
        let c = Autocorrelogram::compute_naive(&s, 2);
        assert!((c.coefficient(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coefficients_bounded_by_one() {
        let s: Vec<f64> = (0..200).map(|i| ((i * 7919) % 13) as f64).collect();
        let c = Autocorrelogram::compute_naive(&s, 100);
        for lag in 0..=100 {
            assert!(c.coefficient(lag).abs() <= 1.0 + 1e-9, "lag {lag}");
        }
    }

    #[test]
    fn constant_series_has_zero_autocorrelation() {
        let c = Autocorrelogram::compute_naive(&[3.0; 100], 10);
        assert_eq!(c.coefficient(1), 0.0);
        assert_eq!(c.coefficient(5), 0.0);
    }

    #[test]
    fn short_series_yields_zero() {
        assert_eq!(
            Autocorrelogram::compute_naive(&[1.0], 0).coefficient(0),
            0.0
        );
        assert_eq!(
            Autocorrelogram::compute_naive(&[1.0, 2.0], 1).coefficient(1),
            0.0
        );
    }

    #[test]
    fn cache_channel_square_wave_peaks_at_full_period() {
        // 256 T→S followed by 256 S→T per bit: period 512 symbols —
        // the Figure 8 shape.
        let series = square_wave(256, 256, 8);
        let c = Autocorrelogram::of_symbols(&series, 1100);
        let (lag, value) = c.dominant_peak(8, 0.0).unwrap();
        assert!(
            (500..=524).contains(&lag),
            "peak near lag 512, got {lag} (r = {value})"
        );
        assert!(value > 0.8, "strong peak, got {value}");
        // Anti-correlation at the half period.
        assert!(c.coefficient(256) < -0.5);
    }

    #[test]
    fn oscillation_detector_flags_square_wave() {
        let series = square_wave(64, 64, 16);
        let v = OscillationDetector::default().analyze(&series, 512);
        assert!(v.oscillatory);
        let (lag, value) = v.peak.unwrap();
        assert!((120..=136).contains(&lag), "lag {lag}");
        assert!(value > 0.8);
        assert!(v.harmonic_value > 0.5);
    }

    #[test]
    fn random_series_is_not_oscillatory() {
        // Deterministic pseudo-random symbols.
        let mut x: u64 = 0x9E3779B97F4A7C15;
        let symbols: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x & 1) as u8
            })
            .collect();
        let series = SymbolSeries::from_symbols(symbols);
        let v = OscillationDetector::default().analyze(&series, 1000);
        assert!(!v.oscillatory, "random noise must not trip: {v:?}");
        if let Some((_, value)) = v.peak {
            assert!(value < 0.3, "noise peak should be weak, got {value}");
        }
    }

    #[test]
    fn one_off_bump_is_rejected_by_harmonic_check() {
        // One single block pattern, then pure alternation: correlated once,
        // never again — the webserver false-alarm shape.
        let mut symbols = vec![0u8; 600];
        for i in 0..50 {
            symbols[i] = 1;
            symbols[200 + i] = 1;
        }
        let series = SymbolSeries::from_symbols(symbols);
        let v = OscillationDetector::default().analyze(&series, 560);
        // Peak near 200 exists but no harmonic at 400.
        if let Some((lag, value)) = v.peak {
            if (150..=250).contains(&lag) && value >= 0.5 {
                assert!(!v.oscillatory, "missing harmonic must block detection");
            }
        }
    }

    #[test]
    fn too_few_samples_is_inconclusive() {
        let series = square_wave(4, 4, 4);
        let v = OscillationDetector::default().analyze(&series, 16);
        assert!(!v.oscillatory);
        assert!(v.peak.is_none());
    }

    #[test]
    fn peak_in_respects_bounds() {
        let series = square_wave(16, 16, 8);
        let c = Autocorrelogram::of_symbols(&series, 100);
        assert!(c.peak_in(200, 300).is_none() || c.max_lag() >= 200);
        let (lag, _) = c.peak_in(8, 100).unwrap();
        assert!(lag >= 8);
    }

    /// The scans read lags past the computed ones as stored `+0.0`s would
    /// read in the plain scans (the oracles below): same peaks (lag and
    /// bits), same dips, for ranges reaching into, across and past the
    /// zeros, with `±0.0` among the coefficients.
    #[test]
    fn zero_tail_scans_match_stored_zeros() {
        let mut rng = SmallRng::seed_from_u64(0x7A11_0000);
        let bits = |peak: Option<(usize, f64)>| peak.map(|(lag, v)| (lag, v.to_bits()));
        let peak_in = |c: &[f64], lo: usize, hi: usize| {
            (lo..=hi.min(c.len() - 1))
                .map(|lag| (lag, c[lag]))
                .max_by(|a, b| a.1.total_cmp(&b.1))
        };
        for case in 0..2_000 {
            let max_lag = rng.gen_range(0usize..40);
            let computed: Vec<f64> = (0..rng.gen_range(1..=max_lag + 1))
                .map(|_| match rng.gen_range(0..6) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-1.0..1.0),
                })
                .collect();
            let mut stored = computed.clone();
            stored.resize(max_lag + 1, 0.0);
            let tail = Lags {
                computed: &computed,
                max_lag,
            };
            for _ in 0..8 {
                let (lo, hi) = (rng.gen_range(0..50), rng.gen_range(0..50));
                let (a, b) = (tail.peak_in(lo, hi), peak_in(&stored, lo, hi));
                assert_eq!(bits(a), bits(b), "case {case}: [{lo}, {hi}]");
            }
            let (min_lag, dip) = (
                rng.gen_range(0..20),
                [-0.5, -0.0, 0.0, 0.3][rng.gen_range(0..4)],
            );
            let dipped = (min_lag..=max_lag).find(|&lag| stored[lag] < dip);
            let oracle = dipped.and_then(|lag| peak_in(&stored, lag + 1, max_lag));
            let found = tail.dominant_peak(min_lag, dip);
            assert_eq!(
                bits(found),
                bits(oracle),
                "case {case}: min_lag {min_lag} dip {dip}"
            );
        }
    }

    #[test]
    fn peak_in_survives_nan_coefficients() {
        // A degenerate correlogram must never panic the daemon.
        let c = Autocorrelogram {
            coefficients: vec![1.0, f64::NAN, 0.4, f64::NAN, 0.2],
        };
        let (lag, _) = c.peak_in(1, 4).expect("range is nonempty");
        assert!((1..=4).contains(&lag));
    }
}
