//! Pluggable detection indicators behind a common [`Indicator`] trait.
//!
//! CC-Hunter ships one indicator per resource class (recurrent-burst
//! likelihood for combinational hardware, autocorrelogram oscillation for
//! caches), but Yao et al. ("Towards a Better Indicator for Cache Timing
//! Channels") show the autocorrelogram is not the strongest signal, and the
//! roadmap's new channel families need an objective scoreboard. This module
//! turns "the detector" into a *family* of competing scorers:
//!
//! * [`CcHunterIndicator`] — the paper's detection stack (burst likelihood
//!   ratio + k-means recurrence for event trains, autocorrelogram peak +
//!   harmonic confirmation for conflict-miss symbol series) behind the
//!   trait. It scores nothing itself: every window goes through the
//!   fleet's own [`OnlineWindow`] core, and only the mapping of that
//!   evidence to a score is its own — so the quality gate scores the
//!   evidence the fleet convicts with.
//! * [`CusumIndicator`] — a CUSUM change-point statistic over the
//!   contention-event rate series: covert modulation drags the cumulative
//!   sum into long one-sided excursions that benign noise cannot sustain.
//! * [`SpectralIndicator`] — a Yao-style occupancy/spectral-density
//!   indicator: the autocorrelogram (the Fourier pair of the power
//!   spectrum, computed through the shared [`crate::batch`] FFT planner) of
//!   the rate trace itself, scoring the dominant periodic component.
//!
//! Every indicator consumes the same [`WindowObservation`] stream and emits
//! a calibrated likelihood in `[0, 1]` (≈0 benign, ≈1 covert channel), so
//! detectors are head-to-head comparable on the same ROC axes. All scoring
//! is sequential scalar arithmetic over deterministic inputs: a given
//! observation sequence produces bit-identical scores on every host and
//! under any `par_map` thread count (property-tested).

use crate::autocorr::Autocorrelogram;
use crate::density::DensityHistogram;
use crate::events::SymbolSeries;
use crate::online::{unit_weight, Harvest, OnlineStatus, OnlineWindow, PairKind};
use crate::pipeline::CcHunterConfig;

/// Everything one scoring window exposes to an indicator.
///
/// A *scoring window* is the indicator-facing unit of observation — a fixed
/// span of cycles (the quality harness uses a few bit periods; the online
/// daemons use one OS quantum). Not every field is populated for every
/// resource: combinational audits (bus, divider) carry a density histogram
/// and a rate trace, cache audits carry the conflict-miss symbol series.
/// Indicators score whatever subset they understand and ignore the rest.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowObservation {
    /// Event-density histogram of the window (combinational resources).
    pub histogram: Option<DensityHistogram>,
    /// Conflict-miss symbol series of the window (memory resources).
    pub symbols: Option<SymbolSeries>,
    /// Contention-event counts per equal sub-slot of the window, in time
    /// order — the rate trace CUSUM and spectral indicators score.
    pub rates: Vec<f64>,
    /// Fraction of the window actually observed: 1.0 for a complete
    /// harvest, `1 - lost_fraction` for a partial one, 0.0 for a missed
    /// quantum (an indicator must not grow *more* confident on a gap).
    pub weight: f64,
}

impl WindowObservation {
    /// An observation carrying only a density histogram.
    pub fn from_histogram(histogram: DensityHistogram) -> Self {
        WindowObservation {
            histogram: Some(histogram),
            symbols: None,
            rates: Vec::new(),
            weight: 1.0,
        }
    }

    /// An observation carrying only a conflict-miss symbol series.
    pub fn from_symbols(symbols: SymbolSeries) -> Self {
        WindowObservation {
            histogram: None,
            symbols: Some(symbols),
            rates: Vec::new(),
            weight: 1.0,
        }
    }

    /// An observation built from a fault-injected [`Harvest`]: the
    /// histogram when one survived, weighted by the observed fraction.
    pub fn from_harvest(harvest: &Harvest) -> Self {
        WindowObservation {
            histogram: harvest.histogram().cloned(),
            symbols: None,
            rates: Vec::new(),
            weight: harvest.observed_weight(),
        }
    }

    /// A fully missed window (gap): nothing observed, zero weight.
    pub fn missed() -> Self {
        WindowObservation {
            histogram: None,
            symbols: None,
            rates: Vec::new(),
            weight: 0.0,
        }
    }

    /// Attaches the sub-slot rate trace.
    pub fn with_rates(mut self, rates: Vec<f64>) -> Self {
        self.rates = rates;
        self
    }

    /// Overrides the observed-fraction weight (clamped to `[0, 1]`; a
    /// non-finite weight is an unknown loss and counts as total).
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = unit_weight(weight);
        self
    }
}

/// A pluggable covert-channel indicator: an online scorer mapping a stream
/// of [`WindowObservation`]s to a calibrated likelihood in `[0, 1]`.
///
/// The contract every implementation (and the shared property tests) holds:
///
/// * **Calibrated range** — [`score`](Indicator::score) stays in `[0, 1]`,
///   low for benign workloads, high for covert channels, so scores from
///   different indicators live on the same ROC axes.
/// * **Deterministic** — the same observation sequence yields bit-identical
///   scores, regardless of host, thread count, or scoring batch shape.
/// * **Replay-consistent** — incremental [`push`](Indicator::push)ing is
///   exactly equivalent to [`reset`](Indicator::reset) followed by
///   replaying the sequence from scratch: online state is a pure function
///   of the observations consumed since the last reset.
pub trait Indicator: Send {
    /// Short stable identifier (used in artifact cell keys, so renaming one
    /// invalidates quality baselines).
    fn name(&self) -> &'static str;

    /// Consumes one observation and returns the updated score — the online
    /// entry point.
    fn push(&mut self, obs: &WindowObservation) -> f64;

    /// The current calibrated likelihood in `[0, 1]` (0.0 before any
    /// observation).
    fn score(&self) -> f64;

    /// Clears all online state back to the freshly-constructed indicator.
    fn reset(&mut self);

    /// Scores a whole window sequence from scratch: [`reset`](Indicator::reset), replay every
    /// observation, return the final score. The default is definitionally
    /// the replay side of the replay-consistency contract; implementations
    /// may override it only with something bit-identical.
    fn score_sequence(&mut self, window: &[WindowObservation]) -> f64 {
        self.reset();
        let mut s = 0.0;
        for obs in window {
            s = self.push(obs);
        }
        s
    }
}

/// The standard competitor field: one of each built-in indicator, the set
/// the quality harness sweeps by default.
pub fn standard_indicators() -> Vec<Box<dyn Indicator>> {
    vec![
        Box::new(CcHunterIndicator::default()),
        Box::new(CusumIndicator::default()),
        Box::new(SpectralIndicator::default()),
    ]
}

/// Instantiates a built-in indicator by its [`Indicator::name`].
pub fn indicator_by_name(name: &str) -> Option<Box<dyn Indicator>> {
    match name {
        "cchunter" => Some(Box::new(CcHunterIndicator::default())),
        "cusum" => Some(Box::new(CusumIndicator::default())),
        "spectral" => Some(Box::new(SpectralIndicator::default())),
        _ => None,
    }
}

/// Scores many independent observation sequences, one fresh indicator per
/// sequence, fanned out over `pool`. Per-sequence scoring is sequential
/// scalar arithmetic and sequences share no state, so the result is
/// bit-identical for every thread count — the same contract as the rest of
/// the batched analysis engine.
pub fn score_sequences_in(
    pool: &mut threadpool::Pool,
    make: &(dyn Fn() -> Box<dyn Indicator> + Sync),
    sequences: &[Vec<WindowObservation>],
) -> Vec<f64> {
    threadpool::par_map_in(pool, sequences, |seq| make().score_sequence(seq))
}

/// [`score_sequences_in`] on the global analysis pool.
pub fn score_sequences(
    make: &(dyn Fn() -> Box<dyn Indicator> + Sync),
    sequences: &[Vec<WindowObservation>],
) -> Vec<f64> {
    threadpool::par_map(sequences, |seq| make().score_sequence(seq))
}

/// EWMA smoothing factor shared by the built-in indicators: new windows
/// carry 35% of the updated estimate, so a channel must sustain its signal
/// for a few windows before the score commits (and one noisy benign window
/// cannot spike it).
const EWMA_ALPHA: f64 = 0.35;

/// Weighted EWMA step: a window observed at fractional `weight` moves the
/// estimate proportionally less, and a missed window (weight 0) leaves it
/// unchanged — gaps never *raise* confidence.
fn ewma(current: f64, sample: f64, weight: f64) -> f64 {
    let a = EWMA_ALPHA * unit_weight(weight);
    current * (1.0 - a) + sample * a
}

// ---------------------------------------------------------------------------
// CC-Hunter (the paper's detector, behind the trait)
// ---------------------------------------------------------------------------

/// The paper's two-algorithm detection stack as a pluggable indicator.
///
/// Each scoring window is one quantum of two fleet-default
/// [`OnlineWindow`]s (512 quanta, autocorrelograms to the fleet's
/// `max_lag`): its histogram (or a gap) goes into the contention window,
/// its symbol series (or a gap) into the oscillation window. The score
/// blends the smoothed per-window statistic the windows report with how
/// *sustained* the pattern is — the trait-shaped equivalent of the paper's
/// "likelihood ratio ≥ 0.9 and the burst pattern recurs" decision rule.
#[derive(Debug)]
pub struct CcHunterIndicator {
    contention: OnlineWindow,
    oscillation: OnlineWindow,
    contention_status: Option<OnlineStatus>,
    oscillation_status: Option<OnlineStatus>,
    lr_ewma: f64,
    osc_ewma: f64,
}

impl Default for CcHunterIndicator {
    fn default() -> Self {
        let window = |kind| {
            OnlineWindow::new(kind, CcHunterConfig::default(), 512)
                .expect("the default configuration is valid")
        };
        CcHunterIndicator {
            contention: window(PairKind::Contention),
            oscillation: window(PairKind::Oscillation),
            contention_status: None,
            oscillation_status: None,
            lr_ewma: 0.0,
            osc_ewma: 0.0,
        }
    }
}

impl CcHunterIndicator {
    /// The `kind` window's status after the last push (`None` before the
    /// first): the evidence that kind's score maps.
    pub fn evidence(&self, kind: PairKind) -> Option<&OnlineStatus> {
        match kind {
            PairKind::Contention => self.contention_status.as_ref(),
            PairKind::Oscillation => self.oscillation_status.as_ref(),
        }
    }

    fn contention_score(&self) -> f64 {
        let Some(status) = &self.contention_status else {
            return 0.0;
        };
        if status.observed_in_window == 0 {
            return 0.0;
        }
        // The paper's conjunction: significant bursts alone must not alarm
        // (benign workloads burst too — Figure 14), so the likelihood-ratio
        // term is gated by pattern recurrence rather than merely added to
        // it. Recurrence is the *fraction* of observed windows sharing the
        // dominant burst cluster — a covert channel modulates in half its
        // windows or more, while benign bursts recur sporadically — with
        // the denominator floored so the first couple of windows can't
        // saturate the factor on their own. Without recurrence the score
        // caps at 0.35, under the 0.5 decision threshold.
        let largest = status
            .recurrence
            .as_ref()
            .map_or(0, |r| r.largest_burst_cluster);
        let min_recurring = CcHunterConfig::default().cluster.min_recurring;
        let denom = status.observed_in_window.max(2 * min_recurring) as f64;
        let recur = (2.0 * largest as f64 / denom).min(1.0);
        self.lr_ewma.clamp(0.0, 1.0) * (0.35 + 0.65 * recur)
    }

    fn cache_score(&self) -> f64 {
        let Some(status) = &self.oscillation_status else {
            return 0.0;
        };
        if status.observed_in_window == 0 {
            return 0.0;
        }
        let sustained = status.oscillatory_in_window as f64 / status.observed_in_window as f64;
        0.65 * self.osc_ewma.clamp(0.0, 1.0) + 0.35 * sustained
    }
}

impl Indicator for CcHunterIndicator {
    fn name(&self) -> &'static str {
        "cchunter"
    }

    fn push(&mut self, obs: &WindowObservation) -> f64 {
        let burst = match &obs.histogram {
            Some(h) => Some(self.contention.ingest_histogram(h, obs.weight)),
            None => {
                self.contention.ingest_gap();
                None
            }
        };
        if let Some(verdict) = burst {
            // A window without a significant burst distribution is no
            // evidence of contention at all (its raw likelihood ratio is
            // meaningless — benign traffic scores ~1.0 too): it pulls the
            // EWMA toward zero instead of contributing its ratio.
            let lr_sample = if verdict.significant {
                verdict.likelihood_ratio
            } else {
                0.0
            };
            self.lr_ewma = ewma(self.lr_ewma, lr_sample, obs.weight);
        }
        self.contention_status = Some(self.contention.status(burst, None));

        let oscillation = match &obs.symbols {
            Some(s) => Some(
                self.oscillation
                    .ingest_symbols(s.symbols().iter().copied(), obs.weight),
            ),
            None => {
                self.oscillation.ingest_gap();
                None
            }
        };
        if let Some(verdict) = oscillation {
            let raw = match verdict.peak {
                // An oscillatory window scores its full peak; a mere peak
                // without harmonic confirmation scores half credit.
                Some((_, v)) if verdict.oscillatory => v.clamp(0.0, 1.0),
                Some((_, v)) => 0.5 * v.clamp(0.0, 1.0),
                None => 0.0,
            };
            self.osc_ewma = ewma(self.osc_ewma, raw, obs.weight);
        }
        self.oscillation_status = Some(self.oscillation.status(None, oscillation));
        self.score()
    }

    fn score(&self) -> f64 {
        self.contention_score()
            .max(self.cache_score())
            .clamp(0.0, 1.0)
    }

    fn reset(&mut self) {
        *self = CcHunterIndicator::default();
    }
}

// ---------------------------------------------------------------------------
// CUSUM change-point indicator
// ---------------------------------------------------------------------------

/// Two-sided CUSUM change-point indicator (Page's test with restart) over
/// the contention-event rate trace.
///
/// Within each window the sub-slot rates are standardized against the
/// window's own mean and deviation, then accumulated into the classic
/// tabular CUSUM pair `S⁺ᵢ = max(0, S⁺ᵢ₋₁ + zᵢ − k)` /
/// `S⁻ᵢ = max(0, S⁻ᵢ₋₁ − zᵢ − k)`; whenever either side crosses the
/// decision threshold `h` it raises an *alarm* and restarts at zero. A
/// covert channel shifts the rate up and back down once per transmitted
/// bit, so the restarted statistic re-alarms every bit period and the
/// alarm rate tracks the signalling rate; benign noise mean-reverts, the
/// drift term `k` bleeds the sums back toward zero, and alarms stay rare
/// (the in-control ARL of Page's test at `h = 3σ, k = 0.5σ` is hundreds of
/// samples). The per-sample alarm rate becomes the window score; windows
/// are EWMA-blended.
///
/// Falls back to the conflict-miss symbol series as the trace for cache
/// windows with no explicit rate trace (the symbol values alternate between
/// trojan→spy and spy→trojan replacements, which is exactly a two-level
/// rate signal).
#[derive(Debug)]
pub struct CusumIndicator {
    /// Drift (allowance) in σ units: excursions accrue only past this.
    drift: f64,
    /// Decision threshold in σ units: crossing it alarms and restarts.
    threshold: f64,
    /// Per-sample alarm rate that scores 0.5.
    half_score_rate: f64,
    /// Minimum trace length for a meaningful window statistic.
    min_samples: usize,
    score_ewma: f64,
    windows_seen: usize,
}

impl Default for CusumIndicator {
    fn default() -> Self {
        CusumIndicator {
            drift: 0.5,
            threshold: 3.0,
            half_score_rate: 0.04,
            min_samples: 16,
            score_ewma: 0.0,
            windows_seen: 0,
        }
    }
}

impl CusumIndicator {
    /// The normalized alarm-rate statistic of one rate trace, in `[0, 1]`.
    fn window_statistic(&self, trace: &[f64]) -> f64 {
        let n = trace.len();
        if n < self.min_samples {
            return 0.0;
        }
        let mean = trace.iter().sum::<f64>() / n as f64;
        let var = trace.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        if var <= f64::EPSILON {
            // A perfectly flat trace has no change-point to find.
            return 0.0;
        }
        let sd = var.sqrt();
        let mut s_hi = 0.0f64;
        let mut s_lo = 0.0f64;
        let mut alarms = 0u32;
        for &x in trace {
            let z = (x - mean) / sd;
            s_hi = (s_hi + z - self.drift).max(0.0);
            s_lo = (s_lo - z - self.drift).max(0.0);
            if s_hi >= self.threshold {
                alarms += 1;
                s_hi = 0.0;
            }
            if s_lo >= self.threshold {
                alarms += 1;
                s_lo = 0.0;
            }
        }
        // x/(x+c) maps the alarm rate to [0, 1) with c scoring 0.5.
        let rate = f64::from(alarms) / n as f64;
        rate / (rate + self.half_score_rate)
    }
}

impl Indicator for CusumIndicator {
    fn name(&self) -> &'static str {
        "cusum"
    }

    fn push(&mut self, obs: &WindowObservation) -> f64 {
        self.windows_seen += 1;
        let stat = if !obs.rates.is_empty() {
            self.window_statistic(&obs.rates)
        } else if let Some(s) = &obs.symbols {
            self.window_statistic(&s.as_f64())
        } else {
            // Histogram-only observation: bins lose time order, so CUSUM
            // has nothing to accumulate — treat as an unobserved window.
            return self.score();
        };
        self.score_ewma = ewma(self.score_ewma, stat, obs.weight);
        self.score()
    }

    fn score(&self) -> f64 {
        self.score_ewma.clamp(0.0, 1.0)
    }

    fn reset(&mut self) {
        *self = CusumIndicator::default();
    }
}

// ---------------------------------------------------------------------------
// Spectral-density (Yao-style occupancy) indicator
// ---------------------------------------------------------------------------

/// Dominant-periodicity score of the occupancy/rate trace itself.
///
/// Yao et al. score cache channels by the periodic structure of the cache
/// *occupancy* trace rather than the conflict-miss symbols. The analogous
/// signal here is the sub-slot rate trace (occupancy proxy for every
/// resource class): its autocorrelogram — computed through the shared
/// [`crate::batch`] FFT planner, i.e. the Wiener–Khinchin transform of the
/// power spectral density — must show a decay-then-recover dominant peak
/// for any bit-clocked modulation. The window score is that peak's
/// coefficient (half credit without second-harmonic confirmation), blended
/// across windows with the sustained-periodicity fraction.
#[derive(Debug)]
pub struct SpectralIndicator {
    /// Lags below this are ignored (adjacent sub-slots are trivially
    /// correlated).
    min_lag: usize,
    /// Minimum trace length for a meaningful correlogram.
    min_samples: usize,
    /// Peak coefficient at which a window counts as periodic.
    peak_threshold: f64,
    score_ewma: f64,
    windows_seen: usize,
    periodic_windows: usize,
}

impl Default for SpectralIndicator {
    fn default() -> Self {
        SpectralIndicator {
            min_lag: 4,
            min_samples: 32,
            peak_threshold: 0.5,
            score_ewma: 0.0,
            windows_seen: 0,
            periodic_windows: 0,
        }
    }
}

impl SpectralIndicator {
    /// `(score, periodic)` of one trace window.
    fn window_statistic(&self, trace: &[f64]) -> (f64, bool) {
        let n = trace.len();
        if n < self.min_samples {
            return (0.0, false);
        }
        let max_lag = (n / 2).max(self.min_lag + 1);
        let correlogram = Autocorrelogram::compute(trace, max_lag);
        let Some((peak_lag, peak)) = correlogram.dominant_peak(self.min_lag, 0.0) else {
            // Never decays below zero: monotone drift, not periodicity.
            return (0.0, false);
        };
        let peak = peak.clamp(0.0, 1.0);
        // Second-harmonic confirmation when it fits in the lag budget.
        let confirmed = match peak_lag.checked_mul(2) {
            Some(h) if h <= correlogram.max_lag() => {
                let half_width = (peak_lag as f64 * 0.15).ceil() as usize;
                correlogram
                    .peak_in(h.saturating_sub(half_width), h + half_width)
                    .map(|(_, v)| v >= 0.5 * peak)
                    .unwrap_or(false)
            }
            _ => peak >= 0.75,
        };
        let score = if confirmed { peak } else { 0.5 * peak };
        (score, score >= self.peak_threshold)
    }
}

impl Indicator for SpectralIndicator {
    fn name(&self) -> &'static str {
        "spectral"
    }

    fn push(&mut self, obs: &WindowObservation) -> f64 {
        self.windows_seen += 1;
        // Prefer the conflict-symbol series when present: symbol-indexed
        // oscillation (period 2 for an alternating trojan/spy) survives
        // timing jitter that smears the wall-clock rate trace.
        let trace;
        let (stat, periodic) = if let Some(s) = &obs.symbols {
            trace = s.as_f64();
            self.window_statistic(&trace)
        } else if !obs.rates.is_empty() {
            self.window_statistic(&obs.rates)
        } else {
            return self.score();
        };
        self.score_ewma = ewma(self.score_ewma, stat, obs.weight);
        if periodic {
            self.periodic_windows += 1;
        }
        self.score()
    }

    fn score(&self) -> f64 {
        if self.windows_seen == 0 {
            return 0.0;
        }
        let sustained = self.periodic_windows as f64 / self.windows_seen as f64;
        (0.7 * self.score_ewma + 0.3 * sustained).clamp(0.0, 1.0)
    }

    fn reset(&mut self) {
        *self = SpectralIndicator::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventTrain;

    /// A bursty covert-style histogram: dense bursts every 4th window.
    fn covert_histogram() -> DensityHistogram {
        let mut train = EventTrain::new();
        for burst in 0..50u64 {
            for i in 0..30u64 {
                train.push(burst * 400 + i * 3, 1);
            }
        }
        DensityHistogram::from_train(&train, 100, 0, 50 * 400).unwrap()
    }

    /// A sparse benign histogram: a few scattered events.
    fn benign_histogram() -> DensityHistogram {
        let mut train = EventTrain::new();
        for i in 0..40u64 {
            train.push(i * 497, 1);
        }
        DensityHistogram::from_train(&train, 100, 0, 20_000).unwrap()
    }

    /// A covert-style rate trace: the bit clock's square wave.
    fn covert_rates() -> Vec<f64> {
        (0..128)
            .map(|i| if (i / 8) % 2 == 0 { 24.0 } else { 2.0 })
            .collect()
    }

    /// A benign rate trace: deterministic aperiodic jitter.
    fn benign_rates() -> Vec<f64> {
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        (0..128)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 7) as f64
            })
            .collect()
    }

    fn covert_symbols() -> SymbolSeries {
        let mut s = Vec::new();
        for _ in 0..8 {
            s.extend(std::iter::repeat_n(1u8, 64));
            s.extend(std::iter::repeat_n(2u8, 64));
        }
        SymbolSeries::from_symbols(s)
    }

    fn benign_symbols() -> SymbolSeries {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        SymbolSeries::from_symbols(
            (0..1024)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x % 3) as u8
                })
                .collect(),
        )
    }

    fn covert_sequence() -> Vec<WindowObservation> {
        (0..6)
            .map(|_| {
                WindowObservation::from_histogram(covert_histogram()).with_rates(covert_rates())
            })
            .collect()
    }

    fn benign_sequence() -> Vec<WindowObservation> {
        (0..6)
            .map(|_| {
                WindowObservation::from_histogram(benign_histogram()).with_rates(benign_rates())
            })
            .collect()
    }

    #[test]
    fn every_indicator_separates_covert_from_benign_rates() {
        for mut ind in standard_indicators() {
            let covert = ind.score_sequence(&covert_sequence());
            let benign = ind.score_sequence(&benign_sequence());
            assert!(
                covert > benign + 0.2,
                "{}: covert {covert:.3} vs benign {benign:.3}",
                ind.name()
            );
            assert!((0.0..=1.0).contains(&covert), "{}", ind.name());
            assert!((0.0..=1.0).contains(&benign), "{}", ind.name());
        }
    }

    #[test]
    fn cchunter_indicator_separates_cache_symbols() {
        let mut ind = CcHunterIndicator::default();
        let covert: Vec<WindowObservation> = (0..4)
            .map(|_| WindowObservation::from_symbols(covert_symbols()))
            .collect();
        let benign: Vec<WindowObservation> = (0..4)
            .map(|_| WindowObservation::from_symbols(benign_symbols()))
            .collect();
        let hot = ind.score_sequence(&covert);
        let cold = ind.score_sequence(&benign);
        assert!(hot > 0.6, "covert cache score {hot:.3}");
        assert!(cold < 0.3, "benign cache score {cold:.3}");
    }

    #[test]
    fn missed_windows_never_raise_the_score() {
        for mut ind in standard_indicators() {
            let with_gap = {
                let mut seq = covert_sequence();
                let score_before = ind.score_sequence(&seq);
                seq.push(WindowObservation::missed());
                let score_after = ind.score_sequence(&seq);
                (score_before, score_after)
            };
            assert!(
                with_gap.1 <= with_gap.0 + 1e-12,
                "{}: gap raised score {} -> {}",
                ind.name(),
                with_gap.0,
                with_gap.1
            );
        }
    }

    #[test]
    fn reset_restores_the_fresh_state() {
        for mut ind in standard_indicators() {
            let fresh = ind.score();
            ind.score_sequence(&covert_sequence());
            assert!(ind.score() > 0.0);
            ind.reset();
            assert_eq!(ind.score(), fresh);
            assert_eq!(ind.score(), 0.0);
        }
    }

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let names: Vec<&'static str> = standard_indicators().iter().map(|i| i.name()).collect();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "duplicate indicator name");
        for name in names {
            let ind = indicator_by_name(name).expect("registry name resolves");
            assert_eq!(ind.name(), name);
        }
        assert!(indicator_by_name("no-such-indicator").is_none());
    }

    #[test]
    fn batch_scoring_matches_serial_scoring() {
        let sequences = vec![covert_sequence(), benign_sequence(), covert_sequence()];
        let make: &(dyn Fn() -> Box<dyn Indicator> + Sync) =
            &|| Box::new(CusumIndicator::default());
        let serial: Vec<f64> = sequences.iter().map(|s| make().score_sequence(s)).collect();
        let batched = score_sequences(make, &sequences);
        assert_eq!(serial, batched);
    }
}
