//! `fleet_10k`: a large sharded fleet fed pre-generated harvests, so the
//! fleet layers (shard, supervisor, online scoring, per-pair metrics) do
//! nearly all the work.

use crate::bench::{Plan, Scenario};
use crate::harness::{Harness, ProbeCx, Recording, Workload};
use crate::inputs;
use crate::ledger::label;
use cc_hunter::detector::auditor::ConflictRecord;
use cc_hunter::detector::supervisor::{PairInput, ProbeFault, SupervisorConfig};
use cc_hunter::detector::{DensityHistogram, Harvest, ShardedFleet, ShardedFleetConfig};
use cchunter_bench::quantum_conflicts;
use rand::Rng;

/// Fleet dimensions.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Audited pairs.
    pub pairs: usize,
    /// Shards.
    pub shards: usize,
    /// Online window, in quanta.
    pub window: usize,
}

/// The benchmark's size: 10 240 pairs × 8 shards at window 64.
pub const FULL: Size = Size {
    pairs: 10_240,
    shards: 8,
    window: 64,
};

/// Conflict records per oscillation quantum (≈128, small batches).
const CONFLICTS_PER_QUANTUM: usize = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    BenignContention,
    CovertContention { peak: usize },
    BenignOscillation,
    CovertOscillation { variant: usize },
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::BenignContention => "contention-benign",
            Class::CovertContention { .. } => "contention-covert",
            Class::BenignOscillation => "oscillation-benign",
            Class::CovertOscillation { .. } => "oscillation-covert",
        }
    }

    fn is_covert(self) -> bool {
        matches!(
            self,
            Class::CovertContention { .. } | Class::CovertOscillation { .. }
        )
    }
}

/// Pre-generated input pools and the per-pair class table.
pub struct Fleet10k {
    seed: u64,
    classes: Vec<Class>,
    benign: Vec<DensityHistogram>,
    /// `covert[peak - PEAK_MIN]` holds jittered variants of one shape.
    covert: Vec<Vec<DensityHistogram>>,
    benign_conflicts: Vec<Vec<ConflictRecord>>,
    covert_conflicts: Vec<Vec<ConflictRecord>>,
}

const PEAK_MIN: usize = 14;
const PEAK_MAX: usize = 40;
const VARIANTS: usize = 8;

impl Fleet10k {
    /// Generates the class table and input pools for `size` from `seed`.
    /// Classes follow the pair index (1/64 covert contention, 1/16
    /// oscillation, half of it covert), so shard placement, which hashes
    /// the labels, is the same for every seed; shapes come from the seed.
    pub fn generate(seed: u64, size: Size) -> Self {
        let mut rng = inputs::rng(seed, 10);
        let classes = (0..size.pairs)
            .map(|i| match (i % 64, i % 16) {
                (0, _) => Class::CovertContention {
                    peak: rng.gen_range(PEAK_MIN..=PEAK_MAX),
                },
                (_, 8) if i % 32 == 8 => Class::CovertOscillation {
                    variant: rng.gen_range(0..VARIANTS),
                },
                (_, 8) => Class::BenignOscillation,
                _ => Class::BenignContention,
            })
            .collect();
        let benign = (0..512)
            .map(|_| inputs::benign_histogram(&mut rng))
            .collect();
        let covert = (PEAK_MIN..=PEAK_MAX)
            .map(|peak| {
                (0..VARIANTS)
                    .map(|_| inputs::covert_quantum(&mut rng, peak))
                    .collect()
            })
            .collect();
        let benign_conflicts = (0..64)
            .map(|_| inputs::benign_conflicts(&mut rng, CONFLICTS_PER_QUANTUM))
            .collect();
        // Group sizes 8..=15 sets: periods 16..=30 records, four or more
        // periods per 128-record quantum.
        let covert_conflicts = (0..VARIANTS as u64)
            .map(|v| {
                let sets = 8 + v;
                let bits = CONFLICTS_PER_QUANTUM / (2 * sets as usize);
                quantum_conflicts(bits, sets)
            })
            .collect();
        Fleet10k {
            seed,
            classes,
            benign,
            covert,
            benign_conflicts,
            covert_conflicts,
        }
    }

    /// Planted truth, by pair.
    pub fn truth(&self) -> Vec<bool> {
        self.classes.iter().map(|c| c.is_covert()).collect()
    }

    fn pick(&self, pair: usize, tick: u64, len: usize) -> usize {
        (inputs::mix(self.seed, pair as u64, tick) % len as u64) as usize
    }
}

impl Workload for Fleet10k {
    fn probe(
        &mut self,
        pair: usize,
        tick: u64,
        _attempt: u32,
        _cx: ProbeCx<'_>,
    ) -> Result<PairInput, ProbeFault> {
        let class = *self.classes.get(pair).ok_or_else(|| ProbeFault {
            reason: format!("unknown pair {pair}"),
        })?;
        Ok(match class {
            Class::BenignContention => {
                let h = &self.benign[self.pick(pair, tick, self.benign.len())];
                PairInput::Harvest(Harvest::Complete(h.clone()))
            }
            Class::CovertContention { peak } => {
                let pool = &self.covert[peak - PEAK_MIN];
                PairInput::Harvest(Harvest::Complete(
                    pool[self.pick(pair, tick, pool.len())].clone(),
                ))
            }
            Class::BenignOscillation => PairInput::Conflicts {
                records: self.benign_conflicts[self.pick(pair, tick, self.benign_conflicts.len())]
                    .clone(),
                lost_fraction: 0.0,
            },
            Class::CovertOscillation { variant } => PairInput::Conflicts {
                records: self.covert_conflicts[variant].clone(),
                lost_fraction: 0.0,
            },
        })
    }
}

/// Builds the fleet: inputs, fleet, and pair registration.
pub fn build(seed: u64, size: Size, record: bool) -> Result<Scenario<Fleet10k>, String> {
    let workload = Fleet10k::generate(seed, size);
    let config = ShardedFleetConfig {
        shards: size.shards,
        base: SupervisorConfig {
            window_quanta: size.window,
            seed: inputs::mix(seed, 0xF1EE7, 0),
            ..SupervisorConfig::default()
        },
        ..ShardedFleetConfig::default()
    };
    let mut fleet = ShardedFleet::new(config).map_err(|e| e.to_string())?;
    for (pair, class) in workload.classes.iter().enumerate() {
        let name = label(pair, class.name());
        match class {
            Class::BenignContention | Class::CovertContention { .. } => {
                fleet.add_contention_pair(name)
            }
            Class::BenignOscillation | Class::CovertOscillation { .. } => {
                fleet.add_oscillation_pair(name)
            }
        }
        .map_err(|e| e.to_string())?;
    }
    let truth = workload.truth();
    let mut harness = Harness::new(workload);
    if record {
        let classes = harness.workload.classes.iter().map(|c| c.name());
        harness.recording = Recording::first_of_each(classes, 4);
    }
    Ok(Scenario {
        fleet,
        harness,
        truth,
        store_root: None,
    })
}

/// Ticks per second of `--seconds`. A full-size tick takes 28–36 ms on a
/// 2-vCPU Xeon host, so the measured ticks take about `--seconds`; the
/// count is fixed so that every run does the same work.
pub const TICKS_PER_SECOND: u64 = 36;

/// The measurement plan for `size`: warm up one full window, then measure
/// `ticks` ticks back to back.
pub fn plan(size: Size, ticks: u64) -> Plan {
    Plan {
        warmup_ticks: size.window as u64,
        measured_ticks: ticks,
        scrapes: 8,
        checkpoint_every: 0,
        kill_at: Vec::new(),
        shards: size.shards,
        window: size.window,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::{measure, RunConfig, Samples};
    use std::path::Path;
    use std::time::Instant;

    const SMALL: Size = Size {
        pairs: 256,
        shards: 2,
        window: 8,
    };

    fn run(seed: u64, mislabel: bool) -> Samples {
        let config = RunConfig {
            seed,
            trace: false,
            start: Instant::now(),
        };
        let out = Path::new(".bench_run");
        let (samples, _) = measure(&plan(SMALL, 24), config, out, "fleet_10k", || {
            let mut sc = build(seed, SMALL, false)?;
            if mislabel {
                // Declare one benign pair covert; the fleet never convicts it.
                let benign = sc.truth.iter().position(|&c| !c).expect("benign pairs");
                sc.truth[benign] = true;
            }
            Ok(sc)
        })
        .expect("the small fleet runs");
        samples
    }

    #[test]
    fn planted_mislabel_fails_the_run() {
        let honest = run(5, false);
        assert!(honest.correct(), "{:?}", honest.problems);
        let planted = run(5, true);
        assert!(!planted.correct());
        assert_eq!(planted.wrong_verdicts, 1);
    }

    #[test]
    fn inputs_and_counts_repeat_for_a_seed() {
        let (a, b) = (Fleet10k::generate(9, SMALL), Fleet10k::generate(9, SMALL));
        assert_eq!(a.classes, b.classes);
        assert_eq!(a.benign, b.benign);
        assert_eq!(a.covert, b.covert);
        assert_eq!(a.benign_conflicts, b.benign_conflicts);
        assert_eq!(a.covert_conflicts, b.covert_conflicts);
        let (x, y) = (run(9, false), run(9, false));
        assert_eq!(x.detect_ticks, y.detect_ticks);
        assert_eq!(x.failed_fraction, y.failed_fraction);
    }
}
