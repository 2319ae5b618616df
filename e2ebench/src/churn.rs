//! `churn_1k`: a mid-sized fleet with writes beside reads. A quarter of the
//! pairs are fed raw event streams through benchmark-owned ingest
//! pipelines (a flood that forces reservoir shedding, hostile trains the
//! sanitizer drops), a fault injector drops and truncates the other
//! contention harvests (so the fleet retries and scores partial
//! harvests), oscillation pairs carry full ≈4k-record conflict trains, two
//! pairs are simulated machines running the bus and cache channels (the
//! hardware-in-the-loop slice), and the benchmark checkpoints and
//! kills/revives shards between ticks.

use crate::bench::{Plan, Scenario};
use crate::channels::{self, SimPair, Unit};
use crate::harness::{Harness, ProbeCx, Recording, Workload};
use crate::inputs;
use crate::ledger::label;
use cc_hunter::detector::auditor::ConflictRecord;
use cc_hunter::detector::supervisor::{PairInput, ProbeFault, SupervisorConfig};
use cc_hunter::detector::{
    AdmissionConfig, DensityHistogram, FaultClass, FaultConfig, FaultInjector, IngestConfig,
    IngestPipeline, RawEvent, ShardedFleet, ShardedFleetConfig, ShedPolicy,
};
use cchunter_bench::quantum_conflicts;
use rand::Rng;
use std::path::PathBuf;

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

/// The benchmark's size: 1 024 pairs × 4 shards at window 32.
pub const FULL: Size = Size {
    pairs: 1_024,
    shards: 4,
    window: 32,
};

/// Cycles per ingest quantum: the paper's 0.1 s quantum, 2 500 Δt windows.
const INGEST_QUANTUM: u64 = inputs::DELTA_T * inputs::WINDOWS;
/// Conflict records per oscillation quantum.
const TRAIN_RECORDS: usize = 4_096;
/// Admission capacity of the flooded pipelines (floods offer 1 500 events).
const FLOOD_CAPACITY: usize = 1_024;
const FLOOD_EVENTS: usize = 1_500;
/// Pool variants per input class.
const VARIANTS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    IngestCovert,
    IngestFlood,
    IngestHostile,
    OscillationCovert { variant: usize },
    OscillationBenign,
    ContentionCovert { peak: usize },
    ContentionBenign,
    SimBus,
    SimCache,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::IngestCovert => "ingest-covert",
            Class::IngestFlood => "ingest-flood",
            Class::IngestHostile => "ingest-hostile",
            Class::OscillationCovert { .. } => "oscillation-covert",
            Class::OscillationBenign => "oscillation-benign",
            Class::ContentionCovert { .. } => "contention-covert",
            Class::ContentionBenign => "contention-benign",
            Class::SimBus => "sim-bus-covert",
            Class::SimCache => "sim-cache-covert",
        }
    }

    fn is_covert(self) -> bool {
        matches!(
            self,
            Class::IngestCovert
                | Class::OscillationCovert { .. }
                | Class::ContentionCovert { .. }
                | Class::SimBus
                | Class::SimCache
        )
    }

    fn is_oscillation(self) -> bool {
        matches!(
            self,
            Class::OscillationCovert { .. } | Class::OscillationBenign | Class::SimCache
        )
    }
}

const PEAK_MIN: usize = 14;
const PEAK_MAX: usize = 40;

/// Input pools, per-pair pipelines and the fault injector.
pub struct Churn {
    seed: u64,
    classes: Vec<Class>,
    /// One pipeline per ingest pair.
    pipelines: Vec<Option<IngestPipeline>>,
    covert_events: Vec<Vec<RawEvent>>,
    flood_events: Vec<Vec<RawEvent>>,
    hostile_events: Vec<Vec<RawEvent>>,
    covert_trains: Vec<Vec<ConflictRecord>>,
    benign_trains: Vec<Vec<ConflictRecord>>,
    covert: Vec<Vec<DensityHistogram>>,
    benign: Vec<DensityHistogram>,
    injector: FaultInjector,
    /// The simulated bus and cache channel machines.
    sim_bus: SimPair,
    sim_cache: SimPair,
}

fn ingest_config(capacity: usize, seed: u64) -> IngestConfig {
    IngestConfig {
        admission: AdmissionConfig {
            capacity,
            policy: ShedPolicy::Reservoir { seed },
        },
        delta_t: inputs::DELTA_T,
        ..IngestConfig::default()
    }
}

impl Churn {
    /// Generates the class table, pipelines and input pools from `seed`.
    /// Classes follow the pair index, so shard placement, which hashes the
    /// labels, is the same for every seed; shapes come from the seed. Of
    /// every 64 pairs: 16 ingest pairs (one covert, the rest alternating
    /// flood and hostile), four oscillation pairs (one covert), and 44
    /// contention pairs (two covert: one in every 32 pairs). The last two
    /// pairs are the simulated machines, whose channel messages last
    /// `ticks` ticks.
    pub fn generate(seed: u64, size: Size, ticks: u64) -> Result<Self, String> {
        let mut rng = inputs::rng(seed, 60);
        let classes: Vec<Class> = (0..size.pairs)
            .map(|i| match (i % 4, i % 16, i % 64) {
                _ if i + 2 == size.pairs => Class::SimBus,
                _ if i + 1 == size.pairs => Class::SimCache,
                (1, _, 1) => Class::IngestCovert,
                (1, _, _) if i % 8 == 1 => Class::IngestFlood,
                (1, _, _) => Class::IngestHostile,
                (_, 2, 2) => Class::OscillationCovert {
                    variant: rng.gen_range(0..VARIANTS),
                },
                (_, 2, _) => Class::OscillationBenign,
                _ if i % 32 == 0 => Class::ContentionCovert {
                    peak: rng.gen_range(PEAK_MIN..=PEAK_MAX),
                },
                _ => Class::ContentionBenign,
            })
            .collect();

        let pipelines = classes
            .iter()
            .enumerate()
            .map(|(pair, class)| {
                let capacity = match class {
                    Class::IngestFlood => FLOOD_CAPACITY,
                    Class::IngestCovert | Class::IngestHostile => 1 << 14,
                    _ => return Ok(None),
                };
                IngestPipeline::new(ingest_config(capacity, inputs::mix(seed, 61, pair as u64)))
                    .map(Some)
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, String>>()?;

        let q = INGEST_QUANTUM;
        let covert_events = (0..VARIANTS as u64)
            .map(|v| {
                let clean = inputs::covert_events(0, q, 60 + 4 * v, 20);
                inputs::with_hostile(&mut rng, clean, q)
            })
            .collect();
        let flood_events = (0..VARIANTS)
            .map(|_| inputs::flood_events(&mut rng, 0, q, FLOOD_EVENTS))
            .collect();
        let hostile_events = (0..VARIANTS)
            .map(|_| inputs::hostile_events(&mut rng, 0, q, 600))
            .collect();
        // Group sizes 96..=208 sets: periods up to 416 records, nine or more
        // periods per ≈4k-record train.
        let covert_trains = (0..VARIANTS as u64)
            .map(|v| {
                let sets = 96 + 16 * v;
                quantum_conflicts(TRAIN_RECORDS / (2 * sets as usize), sets)
            })
            .collect();
        let benign_trains = (0..16)
            .map(|_| inputs::benign_conflicts(&mut rng, TRAIN_RECORDS))
            .collect();
        let covert = (PEAK_MIN..=PEAK_MAX)
            .map(|peak| {
                (0..VARIANTS)
                    .map(|_| inputs::covert_quantum(&mut rng, peak))
                    .collect()
            })
            .collect();
        let benign = (0..256)
            .map(|_| inputs::benign_histogram(&mut rng))
            .collect();
        let faults = FaultConfig::none()
            .with_rate(FaultClass::DroppedQuantum, 0.2)
            .with_rate(FaultClass::TruncatedHistogram, 0.1);
        Ok(Churn {
            seed,
            classes,
            pipelines,
            covert_events,
            flood_events,
            hostile_events,
            covert_trains,
            benign_trains,
            covert,
            benign,
            injector: FaultInjector::new(faults, inputs::mix(seed, 62, 0)),
            sim_bus: channels::covert(Unit::Bus, seed, ticks)?,
            sim_cache: channels::covert(Unit::Cache, seed, ticks)?,
        })
    }

    fn pick(&self, pair: usize, tick: u64, len: usize) -> usize {
        (inputs::mix(self.seed, pair as u64, tick) % len as u64) as usize
    }

    fn ingest(
        &mut self,
        pair: usize,
        tick: u64,
        class: Class,
        cx: ProbeCx<'_>,
    ) -> Result<PairInput, ProbeFault> {
        let pick = self.pick(pair, tick, VARIANTS);
        let events = match class {
            Class::IngestCovert => &self.covert_events[pick],
            Class::IngestFlood => &self.flood_events[pick],
            _ => &self.hostile_events[pick],
        };
        let pipeline = self
            .pipelines
            .get_mut(pair)
            .and_then(Option::as_mut)
            .ok_or_else(|| ProbeFault {
                reason: format!("pair {pair} has no ingest pipeline"),
            })?;
        let start = tick * INGEST_QUANTUM;
        let span = cx.spans.open("ingest.offer");
        for e in events {
            pipeline.offer(RawEvent {
                time: start + e.time,
                ..*e
            });
        }
        cx.spans.close(span);
        let offered = events.len() as u64;
        cx.layers.ingest_offered += offered;
        if cx.spans.is_enabled() {
            cx.layers.ingest_offered_traced += offered;
        }
        let span = cx.spans.open("ingest.end_quantum");
        let (harvest, report) = pipeline.end_quantum(start, start + INGEST_QUANTUM);
        cx.spans.close(span);
        cx.layers.ingest_shed += report.shed;
        cx.layers.ingest_dropped += report.sanitize.dropped();
        Ok(PairInput::Harvest(harvest))
    }
}

impl Workload for Churn {
    fn probe(
        &mut self,
        pair: usize,
        tick: u64,
        attempt: u32,
        cx: ProbeCx<'_>,
    ) -> Result<PairInput, ProbeFault> {
        let class = *self.classes.get(pair).ok_or_else(|| ProbeFault {
            reason: format!("unknown pair {pair}"),
        })?;
        Ok(match class {
            Class::IngestCovert | Class::IngestFlood | Class::IngestHostile => {
                if attempt > 0 {
                    // The quantum's events were consumed by the first try.
                    return Ok(PairInput::Missed);
                }
                return self.ingest(pair, tick, class, cx);
            }
            Class::OscillationCovert { variant } => PairInput::Conflicts {
                records: self.covert_trains[variant].clone(),
                lost_fraction: 0.0,
            },
            Class::OscillationBenign => PairInput::Conflicts {
                records: self.benign_trains[self.pick(pair, tick, self.benign_trains.len())]
                    .clone(),
                lost_fraction: 0.0,
            },
            Class::ContentionCovert { peak } => {
                let pool = &self.covert[peak - PEAK_MIN];
                let h = pool[self.pick(pair, tick, pool.len())].clone();
                PairInput::Harvest(self.injector.perturb_harvest(h))
            }
            Class::ContentionBenign => {
                let h = self.benign[self.pick(pair, tick, self.benign.len())].clone();
                PairInput::Harvest(self.injector.perturb_harvest(h))
            }
            Class::SimBus => return self.sim_bus.step(attempt, cx),
            Class::SimCache => return self.sim_cache.step(attempt, cx),
        })
    }

    fn probe_faults(&self) -> u64 {
        self.sim_bus.probe_faults() + self.sim_cache.probe_faults()
    }

    fn cache_miss_counts(&self) -> (u64, u64) {
        self.sim_cache.cache_miss_counts()
    }
}

/// Builds the fleet over a fresh store at `root`: inputs, pipelines,
/// simulated machines (their messages last `ticks` ticks), fleet, and pair
/// registration.
pub fn build(
    seed: u64,
    size: Size,
    root: PathBuf,
    ticks: u64,
    record: bool,
) -> Result<Scenario<Churn>, String> {
    let workload = Churn::generate(seed, size, ticks)?;
    let _ = std::fs::remove_dir_all(&root);
    let config = ShardedFleetConfig {
        shards: size.shards,
        base: SupervisorConfig {
            window_quanta: size.window,
            seed: inputs::mix(seed, 0xC4, 0),
            ..SupervisorConfig::default()
        },
        keep_generations: 2,
        rebalance_per_tick: 64,
        ..ShardedFleetConfig::default()
    };
    let mut fleet = ShardedFleet::with_store_root(config, &root).map_err(|e| e.to_string())?;
    for (pair, class) in workload.classes.iter().enumerate() {
        let name = label(pair, class.name());
        if class.is_oscillation() {
            fleet.add_oscillation_pair(name)
        } else {
            fleet.add_contention_pair(name)
        }
        .map_err(|e| e.to_string())?;
    }
    let truth = workload.classes.iter().map(|c| c.is_covert()).collect();
    let mut harness = Harness::new(workload);
    if record {
        let classes = harness.workload.classes.iter().map(|c| c.name());
        harness.recording = Recording::first_of_each(classes, 4);
    }
    Ok(Scenario {
        fleet,
        harness,
        truth,
        store_root: Some(root),
    })
}

/// Ticks per second of `--seconds`. A tick takes 30–35 ms on a 2-vCPU Xeon
/// host, so the measured ticks take somewhat longer than `--seconds`; the
/// count is fixed so that every run does the same work.
pub const TICKS_PER_SECOND: u64 = 40;

/// The measurement plan: warm up one window, then measure `ticks` ticks
/// with a checkpoint every 150 ticks and a kill → revive cycle ten ticks
/// after every other checkpoint, starting with the first.
pub fn plan(size: Size, ticks: u64) -> Plan {
    Plan {
        warmup_ticks: size.window as u64,
        measured_ticks: ticks,
        scrapes: 8,
        checkpoint_every: 150,
        kill_at: (160..ticks).step_by(300).collect(),
        shards: size.shards,
        window: size.window,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::{measure, RunConfig, Samples};
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Instant;

    const SMALL: Size = Size {
        pairs: 128,
        shards: 2,
        window: 8,
    };

    fn run(seed: u64) -> Samples {
        // Tests run in parallel: every run gets its own store directory.
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let n = RUNS.fetch_add(1, Ordering::Relaxed);
        let out = Path::new(".bench_run");
        let root = out.join(format!("test-churn-{}-{n}", std::process::id()));
        let config = RunConfig {
            seed,
            trace: false,
            start: Instant::now(),
        };
        let plan = plan(SMALL, 170);
        let ticks = plan.warmup_ticks + plan.measured_ticks;
        let (samples, _) = measure(&plan, config, out, "churn_1k", || {
            build(seed, SMALL, root, ticks, false)
        })
        .expect("the small churn fleet runs");
        samples
    }

    #[test]
    fn counts_repeat_exactly_for_a_seed() {
        let (a, b) = (run(3), run(3));
        assert!(a.correct(), "{:?}", a.problems);
        // One checkpoint (tick 150) and one kill → revive cycle (tick 160).
        assert_eq!((a.checkpoint_ms.len(), a.recovery_ms.len()), (1, 1));
        assert_eq!(a.detect_ticks, b.detect_ticks);
        assert_eq!(a.failed_fraction, b.failed_fraction);
        assert_eq!(a.attempted, 128 * 170);
    }
}
