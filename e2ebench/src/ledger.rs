//! The verdict ledger: every workload declares which pairs are covert, and
//! the ledger checks each reported verdict against that planted truth.

use cc_hunter::detector::supervisor::PairOutcome;
use cc_hunter::detector::{FleetPairStatus, FleetTickReport, Verdict};

/// Global pair index from a benchmark pair label, which always starts
/// with the zero-padded index (`"00042 bus-covert"`).
pub fn pair_of_label(label: &str) -> Option<usize> {
    label.split(' ').next()?.parse().ok()
}

/// The benchmark's label for global pair `pair` of class `class`.
pub fn label(pair: usize, class: &str) -> String {
    format!("{pair:05} {class}")
}

/// Planted truth plus everything observed against it.
#[derive(Debug, Clone)]
pub struct VerdictLedger {
    covert: Vec<bool>,
    /// First 1-based tick at which each pair was reported covert.
    first_conviction: Vec<Option<u64>>,
    /// Benign pairs reported covert at some tick.
    false_alarms: Vec<bool>,
    /// Reports whose label named no known pair.
    unknown_reports: u64,
}

/// Outcome tallies of one tick, for the failed-fraction numerator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickTally {
    /// Pair reports in the tick.
    pub reported: u64,
    /// Of those, reports whose outcome was not `Analyzed`.
    pub not_analyzed: u64,
}

impl VerdictLedger {
    /// A ledger for pairs whose planted truth is `covert[pair]`.
    pub fn new(covert: Vec<bool>) -> Self {
        let n = covert.len();
        VerdictLedger {
            covert,
            first_conviction: vec![None; n],
            false_alarms: vec![false; n],
            unknown_reports: 0,
        }
    }

    /// Records pair `pair`'s verdict at 0-based tick `tick`.
    pub fn observe(&mut self, pair: usize, tick: u64, verdict: Verdict) {
        let Some(&covert) = self.covert.get(pair) else {
            self.unknown_reports += 1;
            return;
        };
        if verdict.is_covert() {
            if covert {
                self.first_conviction[pair].get_or_insert(tick + 1);
            } else {
                self.false_alarms[pair] = true;
            }
        }
    }

    /// Records every pair verdict in one fleet tick and tallies outcomes.
    pub fn observe_tick(&mut self, report: &FleetTickReport) -> TickTally {
        let mut tally = TickTally::default();
        for shard in report.shard_reports.iter().flatten() {
            for pair_report in &shard.reports {
                tally.reported += 1;
                let verdict = match &pair_report.outcome {
                    PairOutcome::Analyzed(status) => Some(status.verdict),
                    PairOutcome::Degraded { status, .. } => {
                        tally.not_analyzed += 1;
                        Some(status.verdict)
                    }
                    PairOutcome::Skipped { .. } | PairOutcome::Failed { .. } => {
                        tally.not_analyzed += 1;
                        None
                    }
                };
                match (pair_of_label(&pair_report.label), verdict) {
                    (Some(pair), Some(verdict)) => self.observe(pair, report.tick, verdict),
                    (Some(_), None) => {}
                    (None, _) => self.unknown_reports += 1,
                }
            }
        }
        tally
    }

    /// Pairs whose verdict contradicts the planted truth: a benign pair
    /// reported covert at any observed tick, or a covert pair not covert
    /// in `final_statuses`.
    pub fn wrong_pairs(&self, final_statuses: &[FleetPairStatus]) -> Vec<usize> {
        let mut final_covert = vec![false; self.covert.len()];
        for status in final_statuses {
            if let Some(slot) = pair_of_label(&status.label).and_then(|p| final_covert.get_mut(p)) {
                *slot = status.verdict.is_covert();
            }
        }
        (0..self.covert.len())
            .filter(|&p| {
                if self.covert[p] {
                    !final_covert[p]
                } else {
                    self.false_alarms[p] || final_covert[p]
                }
            })
            .collect()
    }

    /// [`VerdictLedger::wrong_pairs`], plus reports and statuses naming no
    /// pair.
    pub fn wrong_verdicts(&self, final_statuses: &[FleetPairStatus]) -> u64 {
        let unknown = final_statuses
            .iter()
            .filter(|s| pair_of_label(&s.label).is_none_or(|p| p >= self.covert.len()))
            .count() as u64;
        self.wrong_pairs(final_statuses).len() as u64 + unknown + self.unknown_reports
    }

    /// Median over covert pairs of the 1-based tick of first conviction;
    /// `None` when a covert pair was never convicted (or there are none).
    pub fn detect_ticks(&self) -> Option<u64> {
        let mut ticks: Vec<u64> = Vec::new();
        for (&covert, first) in self.covert.iter().zip(&self.first_conviction) {
            if covert {
                ticks.push((*first)?);
            }
        }
        ticks.sort_unstable();
        // Lower median, so the value is always an observed tick.
        ticks.get((ticks.len().checked_sub(1)?) / 2).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_hunter::detector::supervisor::PairKind;
    use cc_hunter::detector::ContainmentState;

    fn status(pair: usize, verdict: Verdict) -> FleetPairStatus {
        FleetPairStatus {
            pair,
            label: label(pair, "test"),
            kind: PairKind::Contention,
            shard: Some(0),
            verdict,
            degraded: false,
            containment: ContainmentState::Inactive,
            health: None,
            restored_from: None,
        }
    }

    #[test]
    fn labels_round_trip() {
        assert_eq!(pair_of_label(&label(42, "bus-covert")), Some(42));
        assert_eq!(pair_of_label("garbage"), None);
    }

    #[test]
    fn correct_verdicts_pass_and_detect_ticks_is_the_median() {
        let mut ledger = VerdictLedger::new(vec![true, false, true, true]);
        ledger.observe(0, 1, Verdict::CovertTimingChannel); // tick 2
        ledger.observe(2, 4, Verdict::CovertTimingChannel); // tick 5
        ledger.observe(3, 2, Verdict::CovertTimingChannel); // tick 3
        ledger.observe(3, 6, Verdict::CovertTimingChannel); // later: ignored
        ledger.observe(1, 6, Verdict::Inconclusive);
        let finals = [
            status(0, Verdict::CovertTimingChannel),
            status(1, Verdict::Clean),
            status(2, Verdict::CovertTimingChannel),
            status(3, Verdict::CovertTimingChannel),
        ];
        assert_eq!(ledger.wrong_verdicts(&finals), 0);
        assert_eq!(ledger.detect_ticks(), Some(3));
    }

    #[test]
    fn planted_mislabel_fails_the_check() {
        // The fleet behaves the same; only the declared truth is wrong:
        // pair 1 is declared covert although it was never convicted, and
        // pair 0 is declared benign although it was.
        let mut ledger = VerdictLedger::new(vec![false, true]);
        ledger.observe(0, 0, Verdict::CovertTimingChannel);
        let finals = [
            status(0, Verdict::CovertTimingChannel),
            status(1, Verdict::Clean),
        ];
        assert_eq!(ledger.wrong_verdicts(&finals), 2);
        assert_eq!(ledger.wrong_pairs(&finals), vec![0, 1]);
        assert_eq!(ledger.detect_ticks(), None);
    }

    #[test]
    fn transient_false_alarm_counts_even_if_cleared() {
        let mut ledger = VerdictLedger::new(vec![false]);
        ledger.observe(0, 3, Verdict::CovertTimingChannel);
        assert_eq!(ledger.wrong_verdicts(&[status(0, Verdict::Clean)]), 1);
    }
}
