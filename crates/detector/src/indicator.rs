//! The paper's detection stack as one windowed scorer for the quality
//! harness.
//!
//! [`CcHunterIndicator`] maps a stream of [`WindowObservation`]s to a
//! calibrated likelihood in `[0, 1]` (≈0 benign, ≈1 covert channel): burst
//! likelihood ratio plus k-means recurrence for event trains, and
//! autocorrelogram peak plus harmonic confirmation for conflict-miss
//! symbol series. It scores nothing itself: every window goes through the
//! fleet's own [`OnlineWindow`] core, and only the mapping of that evidence
//! to a score is its own, so the quality gate scores the evidence the fleet
//! convicts with. Scoring is sequential scalar arithmetic over
//! deterministic inputs: a given observation sequence produces
//! bit-identical scores on every host.

use crate::density::DensityHistogram;
use crate::events::SymbolSeries;
use crate::online::{unit_weight, Harvest, OnlineStatus, OnlineWindow, PairKind};
use crate::pipeline::CcHunterConfig;

/// Everything one scoring window exposes to the indicator.
///
/// A *scoring window* is a fixed span of cycles (the quality harness uses
/// a few bit periods). Combinational audits (bus, divider) carry a density
/// histogram, cache audits carry the conflict-miss symbol series.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowObservation {
    /// Event-density histogram of the window (combinational resources).
    pub histogram: Option<DensityHistogram>,
    /// Conflict-miss symbol series of the window (memory resources).
    pub symbols: Option<SymbolSeries>,
    /// Fraction of the window actually observed: 1.0 for a complete
    /// harvest, `1 - lost_fraction` for a partial one, 0.0 for a missed
    /// quantum (the indicator must not grow *more* confident on a gap).
    pub weight: f64,
}

impl WindowObservation {
    /// An observation carrying only a density histogram.
    pub fn from_histogram(histogram: DensityHistogram) -> Self {
        WindowObservation {
            histogram: Some(histogram),
            symbols: None,
            weight: 1.0,
        }
    }

    /// An observation carrying only a conflict-miss symbol series.
    pub fn from_symbols(symbols: SymbolSeries) -> Self {
        WindowObservation {
            histogram: None,
            symbols: Some(symbols),
            weight: 1.0,
        }
    }

    /// An observation built from a fault-injected [`Harvest`]: the
    /// histogram when one survived, weighted by the observed fraction.
    pub fn from_harvest(harvest: &Harvest) -> Self {
        WindowObservation {
            histogram: harvest.histogram().cloned(),
            symbols: None,
            weight: harvest.observed_weight(),
        }
    }

    /// A fully missed window (gap): nothing observed, zero weight.
    pub fn missed() -> Self {
        WindowObservation {
            histogram: None,
            symbols: None,
            weight: 0.0,
        }
    }

    /// Overrides the observed-fraction weight (clamped to `[0, 1]`; a
    /// non-finite weight is an unknown loss and counts as total).
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = unit_weight(weight);
        self
    }
}

/// EWMA smoothing factor: new windows carry 35% of the updated estimate,
/// so a channel must sustain its signal for a few windows before the score
/// commits (and one noisy benign window cannot spike it).
const EWMA_ALPHA: f64 = 0.35;

/// Weighted EWMA step: a window observed at fractional `weight` moves the
/// estimate proportionally less, and a missed window (weight 0) leaves it
/// unchanged — gaps never *raise* confidence.
fn ewma(current: f64, sample: f64, weight: f64) -> f64 {
    let a = EWMA_ALPHA * unit_weight(weight);
    current * (1.0 - a) + sample * a
}

/// The paper's two-algorithm detection stack as a windowed scorer.
///
/// Each scoring window is one quantum of two fleet-default
/// [`OnlineWindow`]s (512 quanta, autocorrelograms to the fleet's
/// `max_lag`): its histogram (or a gap) goes into the contention window,
/// its symbol series (or a gap) into the oscillation window. The score
/// blends the smoothed per-window statistic the windows report with how
/// *sustained* the pattern is — the scoring equivalent of the paper's
/// "likelihood ratio ≥ 0.9 and the burst pattern recurs" decision rule.
///
/// Replay-consistent: incremental [`push`](Self::push)ing is exactly
/// [`reset`](Self::reset) followed by replaying the sequence from scratch
/// ([`score_sequence`](Self::score_sequence)).
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

    /// Consumes one observation and returns the updated score.
    pub fn push(&mut self, obs: &WindowObservation) -> f64 {
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

    /// The current calibrated likelihood in `[0, 1]` (0.0 before any
    /// observation).
    pub fn score(&self) -> f64 {
        self.contention_score()
            .max(self.cache_score())
            .clamp(0.0, 1.0)
    }

    /// Clears all online state back to the freshly-constructed indicator.
    pub fn reset(&mut self) {
        *self = CcHunterIndicator::default();
    }

    /// Scores a whole window sequence from scratch: [`reset`](Self::reset),
    /// replay every observation, return the final score.
    pub fn score_sequence(&mut self, window: &[WindowObservation]) -> f64 {
        self.reset();
        let mut s = 0.0;
        for obs in window {
            s = self.push(obs);
        }
        s
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
            .map(|_| WindowObservation::from_histogram(covert_histogram()))
            .collect()
    }

    fn benign_sequence() -> Vec<WindowObservation> {
        (0..6)
            .map(|_| WindowObservation::from_histogram(benign_histogram()))
            .collect()
    }

    #[test]
    fn every_indicator_separates_covert_from_benign_rates() {
        let mut ind = CcHunterIndicator::default();
        let covert = ind.score_sequence(&covert_sequence());
        let benign = ind.score_sequence(&benign_sequence());
        assert!(
            covert > benign + 0.2,
            "covert {covert:.3} vs benign {benign:.3}"
        );
        assert!((0.0..=1.0).contains(&covert));
        assert!((0.0..=1.0).contains(&benign));
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
        let mut ind = CcHunterIndicator::default();
        let mut seq = covert_sequence();
        let before = ind.score_sequence(&seq);
        seq.push(WindowObservation::missed());
        let after = ind.score_sequence(&seq);
        assert!(
            after <= before + 1e-12,
            "gap raised score {before} -> {after}"
        );
    }

    #[test]
    fn reset_restores_the_fresh_state() {
        let mut ind = CcHunterIndicator::default();
        let fresh = ind.score();
        ind.score_sequence(&covert_sequence());
        assert!(ind.score() > 0.0);
        ind.reset();
        assert_eq!(ind.score(), fresh);
        assert_eq!(ind.score(), 0.0);
    }
}
