//! The observability drill: a supervised (one-shard) fleet under injected faults — a
//! contained analysis panic, a wedged (quarantined) monitor, a crash with a
//! corrupted newest checkpoint generation, a storage brownout that flips
//! the fleet to durability-degraded (shadow-only) checkpointing and heals
//! — with the full metrics and tracing surface on display: the fleet's
//! numeric digest, a Prometheus-format scrape of the fleet's registries
//! plus the process-wide one (simulator counters included), the "why"
//! behind the verdicts (the scrape's top-k suspicious pairs, and an
//! Inconclusive pair's standing and verdict flips from the pair table and
//! the trace), the structured trace timeline, and a measured
//! instrumentation-overhead figure for the fleet tick loop.
//!
//! ```sh
//! cargo run --example observed_audit
//! ```

use cc_hunter::audit::{AuditSession, QuantumRunner};
use cc_hunter::channels::{BitClock, BusChannelConfig, BusSpy, BusTrojan, Message, SpyLog};
use cc_hunter::detector::density::{DensityHistogram, HISTOGRAM_BINS};
use cc_hunter::detector::metrics::{default_registry, parse_prometheus};
use cc_hunter::detector::online::Harvest;
use cc_hunter::detector::policy::{BreakerState, QuarantineConfig};
use cc_hunter::detector::shard::{ShardedFleet, ShardedFleetConfig};
use cc_hunter::detector::span::{self, Tracer};
use cc_hunter::detector::store::{CheckpointStore, StorageMedium};
use cc_hunter::detector::supervisor::{PairInput, ProbeFault, SupervisorConfig};
use cc_hunter::detector::{
    CcHunterConfig, DeltaTPolicy, FleetFault, StorageFaultClass, StorageFaultConfig,
    StorageFaultInjector, Verdict,
};
use cc_hunter::sim::{Machine, MachineConfig};
use cc_hunter::{FaultClass, FaultConfig, FaultInjector};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const QUANTUM: u64 = 2_500_000;
const TICKS: u64 = 24;
const CRASH_AT: u64 = 12;
const PANIC_AT: u64 = 7;
const WEDGED_UNTIL: u64 = 20;

/// A covert-looking synthetic bus/divider histogram.
fn covert_histogram(tick: u64) -> DensityHistogram {
    let mut bins = vec![0u64; HISTOGRAM_BINS];
    bins[0] = 2_400 + (tick % 7) * 3;
    bins[19] = 20;
    bins[20] = 150 + (tick % 5);
    bins[21] = 25;
    DensityHistogram::from_bins(bins, 100_000).expect("valid bins")
}

/// A benign synthetic histogram.
fn quiet_histogram(tick: u64) -> DensityHistogram {
    let mut bins = vec![0u64; HISTOGRAM_BINS];
    bins[0] = 2_490 + (tick % 9);
    bins[1] = 5;
    DensityHistogram::from_bins(bins, 100_000).expect("valid bins")
}

/// A strongly periodic covert conflict batch.
fn covert_conflicts(tick: u64) -> Vec<cc_hunter::detector::auditor::ConflictRecord> {
    (0..128u64)
        .map(|i| cc_hunter::detector::auditor::ConflictRecord {
            cycle: tick * QUANTUM + i * 700,
            replacer: if i % 2 == 0 { 2 } else { 5 },
            victim: if i % 2 == 0 { 5 } else { 2 },
        })
        .collect()
}

/// Pair 0's hardware: a simulated machine running a real bus covert
/// channel, stepped one quantum per fleet tick through the
/// instrumented [`QuantumRunner`] (so `cchunter_sim_*` counters show up in
/// the scrape), with dropped-quantum fault injection on the read-out path.
struct BusRig {
    machine: Machine,
    session: AuditSession,
    runner: QuantumRunner,
    injector: FaultInjector,
    last_clean: Option<DensityHistogram>,
}

impl BusRig {
    fn new() -> Self {
        let config = MachineConfig::builder()
            .quantum_cycles(QUANTUM)
            .build()
            .expect("valid config");
        let mut machine = Machine::new(config);
        let message = Message::alternating(TICKS as usize * 10);
        let clock = BitClock::new(0, 250_000);
        let channel = BusChannelConfig::new(message, clock);
        let log = SpyLog::new_handle();
        machine.spawn(
            Box::new(BusTrojan::new(channel.clone(), 0x1000_0000)),
            machine.config().context_id(0, 0),
        );
        machine.spawn(
            Box::new(BusSpy::new(channel, 0x4000_0000, log)),
            machine.config().context_id(1, 0),
        );
        let mut session = AuditSession::new();
        session.audit_bus(100_000).expect("bus audit");
        session.attach(&mut machine);
        BusRig {
            machine,
            session,
            runner: QuantumRunner::new(QUANTUM).expect("nonzero quantum"),
            injector: FaultInjector::new(
                FaultConfig::only(FaultClass::DroppedQuantum)
                    .with_rate(FaultClass::DroppedQuantum, 0.15),
                0x0B5E_0001,
            ),
            last_clean: None,
        }
    }

    fn probe(&mut self, attempt: u32) -> PairInput {
        if attempt > 0 {
            if let Some(h) = self.last_clean.take() {
                return PairInput::Harvest(Harvest::Complete(h));
            }
            return PairInput::Missed;
        }
        let quantum = self
            .runner
            .run_quantum_with_injector(&mut self.machine, &mut self.session, &mut self.injector)
            .expect("audit harvest");
        match quantum.bus.expect("bus is audited") {
            Harvest::Missed => {
                self.last_clean = self
                    .session
                    .harvest_bus_histogram(quantum.boundary)
                    .ok()
                    .or_else(|| Some(quiet_histogram(0)));
                PairInput::Missed
            }
            harvest => PairInput::Harvest(harvest),
        }
    }
}

fn fleet_config() -> ShardedFleetConfig {
    let base = SupervisorConfig {
        hunter: CcHunterConfig {
            quantum_cycles: QUANTUM,
            delta_t: DeltaTPolicy::Fixed(100_000),
            ..CcHunterConfig::default()
        },
        window_quanta: 8,
        deadline_us: 0,
        checkpoint_every: 5,
        quarantine: QuarantineConfig {
            failure_window: 6,
            trip_threshold: 0.5,
            min_observations: 4,
            probe_interval: 4,
            recovery_successes: 2,
            confidence_decay: 0.7,
        },
        ..SupervisorConfig::default()
    };
    ShardedFleetConfig {
        shards: 1,
        base,
        ..ShardedFleetConfig::default()
    }
}

/// Opens the fleet over `store_root` (writing through `medium`) and names
/// its 5 pairs; over a root holding checkpoints this is the restart.
fn open_fleet(store_root: &Path, medium: Arc<dyn StorageMedium>) -> ShardedFleet {
    let mut fleet = ShardedFleet::with_store_root_and_medium(fleet_config(), store_root, medium)
        .expect("store root opens");
    fleet
        .add_contention_pair("memory-bus: pid 17 <-> pid 23 (simulated hardware)")
        .expect("valid pair");
    fleet
        .add_contention_pair("divider: pid 4 <-> pid 9 (flaky collector)")
        .expect("valid pair");
    fleet
        .add_oscillation_pair("l2-cache: pid 17 <-> pid 23")
        .expect("valid pair");
    fleet
        .add_contention_pair("multiplier: pid 5 <-> pid 12 (injected panic)")
        .expect("valid pair");
    fleet
        .add_contention_pair("memory-bus: pid 50 <-> pid 51 (wedged monitor)")
        .expect("valid pair");
    fleet
}

/// Times `ticks` fleet quanta at the bench suite's working size
/// (8 pairs, 64-quanta windows, covert inputs — the
/// `sharded_tick_8_pairs_1_shard` shape), with the given tracer, in a
/// separate fleet (with its own registries) so the drill's own numbers
/// stay untouched. Returns the total wall time.
fn tick_loop_duration(tracer: Tracer, ticks: u64) -> std::time::Duration {
    let mut fleet = ShardedFleet::new(ShardedFleetConfig {
        shards: 1,
        base: SupervisorConfig {
            window_quanta: 64,
            ..SupervisorConfig::default()
        },
        ..ShardedFleetConfig::default()
    })
    .expect("valid config")
    .with_tracer(tracer);
    for i in 0..8 {
        fleet
            .add_contention_pair(format!("bench-pair-{i}"))
            .expect("valid pair");
    }
    let started = Instant::now();
    for _ in 0..ticks {
        fleet.tick(&mut |_pair: usize, tick: u64, _attempt: u32| {
            Ok::<PairInput, ProbeFault>(PairInput::Harvest(Harvest::Complete(covert_histogram(
                tick,
            ))))
        });
    }
    started.elapsed()
}

fn main() {
    // Force tracing on for the drill regardless of CCHUNTER_TRACE: the
    // fleet, pipeline, and sim quantum loop all record into this
    // process-wide ring.
    let tracer = span::global();
    tracer.set_enabled(true);

    let store_dir =
        std::env::temp_dir().join(format!("cchunter-observed-audit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);

    let mut rig = BusRig::new();
    let mut flaky_injector = FaultInjector::new(
        FaultConfig::only(FaultClass::TruncatedHistogram)
            .with_rate(FaultClass::TruncatedHistogram, 0.4),
        0x0B5E_0002,
    );
    let mut probe = move |pair: usize, tick: u64, attempt: u32| -> Result<PairInput, ProbeFault> {
        Ok(match pair {
            0 => rig.probe(attempt),
            1 => PairInput::Harvest(flaky_injector.perturb_harvest(quiet_histogram(tick))),
            2 => PairInput::Conflicts {
                records: covert_conflicts(tick),
                lost_fraction: 0.0,
            },
            3 => PairInput::Harvest(Harvest::Complete(covert_histogram(tick))),
            _ if tick < WEDGED_UNTIL => {
                return Err(ProbeFault {
                    reason: "hardware interface wedged".to_string(),
                })
            }
            _ => PairInput::Harvest(Harvest::Complete(covert_histogram(tick))),
        })
    };

    // The injected analysis panic is contained by the fleet's watchdog;
    // keep the default hook for anything else.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let expected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("injected fleet fault"));
        if !expected {
            default_hook(info);
        }
    }));

    println!("observability drill: 5 pairs under fault injection, checkpoint every 5 quanta");
    println!("store: {}", store_dir.display());
    println!();

    // The fleet writes through a storage-fault injector so the drill can
    // brown out the medium mid-run: checkpoints fall back to in-memory
    // shadows (durability: degraded) and the first successful write after
    // the heal is a full re-persist.
    let storage_injector = StorageFaultInjector::new(StorageFaultConfig::none(), 0x0B5E_0003);
    let medium: Arc<dyn StorageMedium> = Arc::new(storage_injector.clone());
    let mut fleet = open_fleet(&store_dir, Arc::clone(&medium));
    // Pair 3's analysis panics at quantum PANIC_AT, and again when the
    // rollback below replays that quantum.
    let arm_panic = |fleet: &mut ShardedFleet| {
        if fleet.tick_count() == PANIC_AT {
            fleet
                .arm(FleetFault::PairPanic(3, 1))
                .expect("the panicking pair is hosted");
        }
    };
    for _ in 0..CRASH_AT {
        arm_panic(&mut fleet);
        fleet.tick(&mut probe);
    }

    // --- Crash with a corrupted newest checkpoint generation: the restore
    // rolls the shard back a generation and the rollback becomes a metric.
    println!("*** crash at quantum {CRASH_AT}; newest checkpoint generation is corrupt ***");
    drop(fleet);
    let shard_dir = store_dir.join("shard-00");
    let probe_store = CheckpointStore::open(&shard_dir, 3).expect("store reopens");
    // The shard's one entry: its manifest and every pair's window.
    let newest = *probe_store
        .generations("supervisor")
        .expect("entry has generations")
        .last()
        .expect("at least one generation");
    let path = shard_dir.join(format!("supervisor.g{newest:08}.ckpt"));
    let mut bytes = std::fs::read(&path).expect("checkpoint readable");
    let mid = bytes.len() / 2;
    let end = (mid + 16).min(bytes.len());
    for b in &mut bytes[mid..end] {
        *b ^= 0xA5;
    }
    std::fs::write(&path, &bytes).expect("checkpoint writable");
    drop(probe_store);
    let mut fleet = open_fleet(&store_dir, medium);
    println!(
        "restored at quantum {} — {} corrupt generation(s) rolled over",
        fleet.tick_count(),
        fleet.metrics_snapshot().restore_rollbacks
    );
    println!();

    for _ in fleet.tick_count()..TICKS {
        // Brown out stable storage across quantum 15's checkpoint and heal
        // before quantum 20's: the digest below must show the round trip.
        if fleet.tick_count() == 14 {
            println!("*** storage brownout (ENOSPC on every write) before quantum 15 ***");
            storage_injector
                .set_config(StorageFaultConfig::none().with_rate(StorageFaultClass::NoSpace, 1.0));
        }
        if fleet.tick_count() == 17 {
            println!("*** storage healed before quantum 20 ***");
            storage_injector.set_config(StorageFaultConfig::none());
        }
        arm_panic(&mut fleet);
        fleet.tick(&mut probe);
        if fleet.tick_count() == 16 {
            println!("durability after quantum 15: {}", fleet.durability());
        }
    }
    println!("durability at end of run:   {}", fleet.durability());
    println!();

    // --- The fleet digest a monitoring page would poll. ---
    let status = fleet.fleet_status();
    println!("{}", status.metrics);
    println!();

    // --- The Prometheus scrape (histogram bucket lines elided here for
    // readability; the full exposition is what checkpoint dumps carry). ---
    // The fleet's registries (coordinator and shard) plus the process-wide
    // one the simulator and pipeline instruments live in.
    let scrape = format!(
        "{}{}",
        fleet.render_prometheus(),
        default_registry().render_prometheus()
    );
    println!("Prometheus scrape of the fleet and process registries (bucket lines elided):");
    for line in scrape.lines() {
        if !line.contains("_bucket{") {
            println!("  {line}");
        }
    }
    println!();

    // --- Why is a pair convicted? The scrape's one pair-labelled family
    // ranks the fleet's most suspicious pairs by evidence share: the
    // fraction of the window in the largest burst cluster (contention) or
    // oscillating (oscillation). ---
    let verdict_of = |label: &str| {
        status
            .pairs
            .iter()
            .find(|p| p.label == label)
            .map_or(Verdict::Inconclusive, |p| p.verdict)
    };
    let mut ranked: Vec<(String, f64)> = parse_prometheus(&scrape)
        .samples
        .into_iter()
        .filter(|s| s.name == "cchunter_suspicious_pair")
        .filter_map(|s| Some((s.labels.into_iter().find(|(k, _)| k == "pair")?.1, s.value)))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    println!("most suspicious pairs (cchunter_suspicious_pair, evidence share of the window):");
    for (rank, (label, share)) in ranked.iter().enumerate() {
        println!(
            "  {}. {share:.3}  {label}  [{}]",
            rank + 1,
            verdict_of(label)
        );
    }
    println!();

    // --- Why is a pair Inconclusive? Its standing in the pair table, and
    // its verdict flips in the trace. ---
    let inconclusive = status
        .pairs
        .iter()
        .find(|p| p.verdict == Verdict::Inconclusive)
        .expect("the wedged monitor ends Inconclusive");
    println!("why is {:?} Inconclusive?", inconclusive.label);
    println!(
        "  confidence {:.3} (observed fraction of its window), health {:?}, degraded {}, restored from {:?}",
        inconclusive.confidence,
        inconclusive.health,
        inconclusive.degraded,
        inconclusive.restored_from
    );
    // A pair's trace events lead with its label.
    let trace_of = |label: &str, name: &str| -> Vec<String> {
        let events = tracer.events().into_iter();
        let named = events.filter(|e| e.scope == "supervisor" && e.name == name);
        let own = named.filter_map(|e| Some(e.detail.strip_prefix(label)?.to_string()));
        own.map(|rest| rest.trim_start_matches(": ").to_string())
            .collect()
    };
    let flips = trace_of(inconclusive.label.as_str(), "verdict-flip");
    println!("  verdict flips in the trace: {flips:?}");
    let transitions = trace_of(inconclusive.label.as_str(), "breaker-transition");
    println!("  breaker transitions in the trace: {transitions:?}");
    assert!(
        !transitions.is_empty(),
        "the wedged monitor's breaker transitions are traced under its label"
    );
    println!();

    // --- The structured trace timeline (newest events). ---
    println!("trace timeline (last 25 of {} events):", tracer.recorded());
    print!("{}", tracer.render_timeline(25));
    println!();

    // --- Instrumentation overhead on the tick loop: the same synthetic
    // fleet, traced vs. untraced, against private registries. ---
    const OVERHEAD_TICKS: u64 = 300;
    let untraced = tick_loop_duration(Tracer::disabled(), OVERHEAD_TICKS);
    let traced = tick_loop_duration(Tracer::new(4096), OVERHEAD_TICKS);
    let overhead_pct = if untraced.as_nanos() > 0 {
        (traced.as_secs_f64() / untraced.as_secs_f64() - 1.0) * 100.0
    } else {
        0.0
    };
    println!(
        "tick-loop instrumentation overhead: {OVERHEAD_TICKS} ticks untraced {:?}, traced {:?} ({overhead_pct:+.1}%)",
        untraced, traced
    );
    println!();

    // The story the drill must tell, every time.
    let snap = &status.metrics;
    assert!(snap.quarantine_skips > 0, "wedged pair was quarantined");
    assert!(snap.restore_rollbacks > 0, "corrupt generation rolled back");
    assert!(snap.panics >= 1, "injected panic contained");
    assert!(snap.checkpoints > 0, "periodic checkpoints ran");
    assert!(
        snap.shadow_checkpoints > 0,
        "brownout forced shadow checkpoints"
    );
    assert!(
        snap.durability_heals >= 1,
        "healed medium triggered a re-persist"
    );
    assert!(!snap.durability_degraded, "durable again at end of run");
    assert!(
        snap.audit_latency.count > 0,
        "audit latency histogram populated"
    );
    assert!(snap.covert_pairs >= 2, "covert channels detected");
    assert!(
        verdict_of(&ranked[0].0).is_covert(),
        "a convicted pair ranks first: {ranked:?}"
    );
    let rank_of = |label: &str| ranked.iter().position(|(l, _)| l == label);
    assert!(
        rank_of(&inconclusive.label) > rank_of(&ranked[0].0),
        "the Inconclusive pair ranks below the convicted one"
    );
    assert!(
        inconclusive.confidence < 1.0 && inconclusive.health != Some(BreakerState::Closed),
        "the Inconclusive pair's window is thin and its breaker not yet closed"
    );
    assert!(tracer.recorded() > 0, "trace ring saw events");
    for needle in [
        "cchunter_pairs_quarantine_skips_total",
        "cchunter_suspicious_pair{",
        "cchunter_restore_rollbacks_total",
        "cchunter_durability_degraded",
        "cchunter_shadow_checkpoints_total",
        "cchunter_audit_latency_us_count",
        "cchunter_sim_quanta_total",
    ] {
        assert!(scrape.contains(needle), "scrape exposes {needle}");
    }
    println!(
        "drill complete: {} quanta audited, {} trace events, metrics dump alongside checkpoints in {}",
        fleet.tick_count(),
        tracer.recorded(),
        store_dir.display()
    );

    let _ = std::fs::remove_dir_all(&store_dir);
}
