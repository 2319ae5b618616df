//! The probe side of a workload: the [`Workload`] trait each workload
//! implements, and the [`Harness`] that adapts it to the fleet's
//! [`ProbeSource`] while counting calls, recording spans and keeping the
//! inputs the traced run replays.

use crate::alloc;
use crate::trace::SpanLog;
use cc_hunter::detector::supervisor::{PairInput, ProbeFault, ProbeSource};
use std::collections::BTreeMap;

/// Counters a workload's probe keeps about the layers it calls. Reset at
/// the start of the measured ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounts {
    /// Simulated quanta run (`Machine::run_until` calls).
    pub sim_quanta: u64,
    /// Engine events those quanta dispatched.
    pub sim_events: u64,
    /// Cache quanta drained.
    pub cache_quanta: u64,
    /// Conflict records drained from the auditor.
    pub conflicts: u64,
    /// Raw events offered to ingest pipelines.
    pub ingest_offered: u64,
    /// Raw events offered while spans were recorded (the denominator of
    /// the per-offer time).
    pub ingest_offered_traced: u64,
    /// Events shed by admission queues.
    pub ingest_shed: u64,
    /// Events the sanitizers dropped.
    pub ingest_dropped: u64,
}

/// Per-call context handed to [`Workload::probe`].
pub struct ProbeCx<'a> {
    /// Span log; open spans around calls into a layer.
    pub spans: &'a mut SpanLog,
    /// Layer counters.
    pub layers: &'a mut LayerCounts,
}

/// One benchmark workload's probe: produces pair `pair`'s input for fleet
/// tick `tick`. Implementations do their layer work (simulation, harvest,
/// ingest) inside the call, so it is part of the measured tick.
pub trait Workload {
    /// The probe callback behind [`ProbeSource::probe`].
    ///
    /// # Errors
    ///
    /// A [`ProbeFault`] for a transient failure the fleet retries.
    fn probe(
        &mut self,
        pair: usize,
        tick: u64,
        attempt: u32,
        cx: ProbeCx<'_>,
    ) -> Result<PairInput, ProbeFault>;

    /// Probe deliveries the audited hardware refused (must stay 0).
    fn probe_faults(&self) -> u64 {
        0
    }

    /// `(conflict misses, total misses)` seen by cache audits.
    fn cache_miss_counts(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Inputs of a few sampled pairs, one per fleet tick, for the traced
/// run's kernel replays.
#[derive(Debug, Default)]
pub struct Recording {
    sampled: BTreeMap<usize, Vec<PairInput>>,
}

impl Recording {
    /// Records the inputs of `pairs`.
    pub fn sampling(pairs: impl IntoIterator<Item = usize>) -> Self {
        Recording {
            sampled: pairs.into_iter().map(|p| (p, Vec::new())).collect(),
        }
    }

    /// Records the inputs of the first `per_class` pairs of every distinct
    /// class in `classes` (one entry per pair, in pair order).
    pub fn first_of_each<K: PartialEq>(
        classes: impl IntoIterator<Item = K>,
        per_class: usize,
    ) -> Self {
        let mut seen: Vec<(K, usize)> = Vec::new();
        let mut picked = Vec::new();
        for (pair, class) in classes.into_iter().enumerate() {
            match seen.iter_mut().find(|(k, _)| *k == class) {
                Some((_, n)) if *n >= per_class => {}
                Some((_, n)) => {
                    *n += 1;
                    picked.push(pair);
                }
                None => {
                    seen.push((class, 1));
                    picked.push(pair);
                }
            }
        }
        Self::sampling(picked)
    }

    fn record(&mut self, pair: usize, tick: u64, input: &PairInput) {
        let Some(seq) = self.sampled.get_mut(&pair) else {
            return;
        };
        let tick = usize::try_from(tick).expect("tick fits in usize");
        // A retried probe replaces the tick's earlier input; a tick the
        // fleet skipped for this pair reads as missed.
        seq.truncate(tick);
        seq.resize(tick, PairInput::Missed);
        seq.push(input.clone());
    }

    /// Every sampled pair's input sequence, indexed by tick.
    pub fn sequences(&self) -> impl Iterator<Item = &[PairInput]> {
        self.sampled.values().map(Vec::as_slice)
    }
}

/// Probe-call counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeCounts {
    /// Every probe call, retries included.
    pub calls: u64,
    /// Calls with `attempt > 0`.
    pub retries: u64,
}

/// Adapts a [`Workload`] to the fleet's [`ProbeSource`].
pub struct Harness<W> {
    /// The workload.
    pub workload: W,
    /// Spans of the benchmark's own calls (enabled on traced ticks).
    pub spans: SpanLog,
    /// Layer counters kept by the workload.
    pub layers: LayerCounts,
    /// Probe-call counters.
    pub probes: ProbeCounts,
    /// Inputs kept for replay (empty unless the run is traced).
    pub recording: Recording,
}

impl<W> Harness<W> {
    /// A harness around `workload` that records nothing yet.
    pub fn new(workload: W) -> Self {
        Harness {
            workload,
            spans: SpanLog::new(),
            layers: LayerCounts::default(),
            probes: ProbeCounts::default(),
            recording: Recording::default(),
        }
    }
}

impl<W: Workload> ProbeSource for Harness<W> {
    fn probe(&mut self, pair: usize, tick: u64, attempt: u32) -> Result<PairInput, ProbeFault> {
        self.probes.calls += 1;
        if attempt > 0 {
            self.probes.retries += 1;
        }
        let span = self.spans.open("fleet.probe");
        let result = self.workload.probe(
            pair,
            tick,
            attempt,
            ProbeCx {
                spans: &mut self.spans,
                layers: &mut self.layers,
            },
        );
        self.spans.close(span);
        if let Ok(input) = &result {
            // The copy kept for replay is the benchmark's allocation, not
            // the program's: keep it out of the allocation counts.
            let counting = alloc::pause();
            self.recording.record(pair, tick, input);
            alloc::set_counting(counting);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_of_each_samples_every_class() {
        let rec = Recording::first_of_each(["a", "b", "a", "a", "c", "b"], 2);
        assert_eq!(
            rec.sampled.keys().copied().collect::<Vec<_>>(),
            vec![0, 1, 2, 4, 5]
        );
    }

    #[test]
    fn recording_keeps_the_last_input_per_tick_and_fills_gaps() {
        let mut rec = Recording::sampling([3]);
        let conflicts = |n: usize| PairInput::Conflicts {
            records: Vec::new(),
            lost_fraction: n as f64,
        };
        rec.record(3, 0, &conflicts(0));
        rec.record(3, 0, &conflicts(1)); // retry replaces
        rec.record(3, 2, &conflicts(2)); // tick 1 skipped
        rec.record(4, 0, &conflicts(9)); // not sampled
        let seqs: Vec<&[PairInput]> = rec.sequences().collect();
        assert_eq!(seqs.len(), 1);
        assert_eq!(seqs[0], &[conflicts(1), PairInput::Missed, conflicts(2)]);
    }
}
