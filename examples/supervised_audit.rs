//! The audit service view: a one-shard fleet driving 8 pairs through
//! fault injection, a contained analysis panic, a simulated daemon crash
//! (drop, then reopen the store root and name the pairs again), and the
//! quarantine and recovery of a wedged monitor — ending with the per-pair
//! status table an operator would read.
//!
//! ```sh
//! cargo run --example supervised_audit
//! ```

use cc_hunter::audit::{AuditSession, QuantumRunner};
use cc_hunter::channels::{BitClock, BusChannelConfig, BusSpy, BusTrojan, Message, SpyLog};
use cc_hunter::detector::density::{DensityHistogram, HISTOGRAM_BINS};
use cc_hunter::detector::online::Harvest;
use cc_hunter::detector::policy::{BreakerState, QuarantineConfig};
use cc_hunter::detector::shard::{FleetTickReport, ShardedFleet, ShardedFleetConfig};
use cc_hunter::detector::supervisor::{PairInput, PairOutcome, ProbeFault, SupervisorConfig};
use cc_hunter::detector::{CcHunterConfig, DeltaTPolicy, FleetFault, Verdict};
use cc_hunter::sim::{Machine, MachineConfig};
use cc_hunter::{FaultClass, FaultConfig, FaultInjector};
use std::path::Path;

const QUANTUM: u64 = 2_500_000;
const TICKS: u64 = 40;
const CRASH_AT: u64 = 20;
const PANIC_AT: u64 = 12;
const WEDGED_UNTIL: u64 = 28;

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

/// A sparse, aperiodic (benign) conflict batch.
fn quiet_conflicts(tick: u64) -> Vec<cc_hunter::detector::auditor::ConflictRecord> {
    (0..12u64)
        .map(|i| cc_hunter::detector::auditor::ConflictRecord {
            cycle: tick * QUANTUM + i * i * 3_517 + (tick % 11) * 101,
            replacer: ((i * 5 + tick) % 7) as u8,
            victim: ((i * 3 + tick / 2) % 7) as u8,
        })
        .collect()
}

/// The hardware half of pair 0: a simulated machine with a real bus covert
/// channel, audited by the CC-auditor model and stepped one quantum per
/// fleet tick. The machine (the "hardware") keeps running when the audit
/// service crashes; only the fleet's in-memory state is lost.
struct BusRig {
    machine: Machine,
    session: AuditSession,
    runner: QuantumRunner,
    injector: FaultInjector,
    /// Last clean harvest, so a retried probe can model a successful
    /// buffer re-read instead of advancing the hardware again.
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
                0xB5_0001,
            ),
            last_clean: None,
        }
    }

    fn probe(&mut self, attempt: u32) -> PairInput {
        if attempt > 0 {
            // Retry: the auditor's buffer is still there — re-read it.
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
                // The injector dropped the read-out; keep the clean
                // histogram around for the retry path. (A real collector
                // would re-issue the harvest instruction.)
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

/// Opens the fleet over `store_root` and names its 8 pairs. Over a root
/// that already holds checkpoints this is the restart: the tick resumes
/// and every named pair comes back from the store.
fn open_fleet(store_root: &Path) -> ShardedFleet {
    let mut fleet =
        ShardedFleet::with_store_root(fleet_config(), store_root).expect("store root opens");
    for label in [
        "memory-bus: pid 17 <-> pid 23 (simulated hardware)",
        "memory-bus: pid 8 <-> pid 31",
        "divider: pid 4 <-> pid 9",
        "multiplier: pid 5 <-> pid 12",
    ] {
        fleet.add_contention_pair(label).expect("valid pair");
    }
    fleet
        .add_oscillation_pair("l2-cache: pid 17 <-> pid 23")
        .expect("valid pair");
    fleet
        .add_oscillation_pair("l1-cache: pid 2 <-> pid 6")
        .expect("valid pair");
    fleet
        .add_contention_pair("divider: pid 40 <-> pid 41 (flaky analysis)")
        .expect("valid pair");
    fleet
        .add_contention_pair("memory-bus: pid 50 <-> pid 51 (wedged monitor)")
        .expect("valid pair");
    fleet
}

fn main() {
    let store_dir =
        std::env::temp_dir().join(format!("cchunter-supervised-audit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);

    let mut rig = BusRig::new();
    // Pair 5's collector is degraded but functional: partial harvests.
    let mut flaky_injector = FaultInjector::new(
        FaultConfig::only(FaultClass::TruncatedHistogram)
            .with_rate(FaultClass::TruncatedHistogram, 0.4),
        0xB5_0002,
    );

    // One probe closure drives all 8 pairs; it is a pure function of
    // (pair, tick, attempt) except for the simulated hardware, which
    // outlives the audit service on purpose.
    let mut probe = move |pair: usize, tick: u64, attempt: u32| -> Result<PairInput, ProbeFault> {
        Ok(match pair {
            0 => rig.probe(attempt),
            1 => PairInput::Harvest(Harvest::Complete(covert_histogram(tick))),
            2 => PairInput::Harvest(Harvest::Complete(quiet_histogram(tick))),
            3 => PairInput::Harvest(flaky_injector.perturb_harvest(quiet_histogram(tick))),
            4 => PairInput::Conflicts {
                records: covert_conflicts(tick),
                lost_fraction: 0.0,
            },
            5 => PairInput::Conflicts {
                records: quiet_conflicts(tick),
                lost_fraction: 0.0,
            },
            6 => PairInput::Harvest(Harvest::Complete(covert_histogram(tick))),
            _ if tick < WEDGED_UNTIL => {
                return Err(ProbeFault {
                    reason: "hardware interface wedged".to_string(),
                })
            }
            _ => PairInput::Harvest(Harvest::Complete(covert_histogram(tick))),
        })
    };

    // The injected analysis panic is caught by the supervisor's watchdog, but
    // the default panic hook would still splat a backtrace over the demo;
    // keep the hook for everything except that expected panic.
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

    let mut fleet = open_fleet(&store_dir);
    println!("supervised audit service: 8 pairs, checkpoint every 5 quanta");
    println!("store: {}", store_dir.display());
    println!();

    let log_tick = |fleet_report: &FleetTickReport| {
        let Some(report) = &fleet_report.shard_reports[0] else {
            return;
        };
        for r in &report.reports {
            match &r.outcome {
                PairOutcome::Failed { error, recovery } => {
                    println!(
                        "tick {:>2}: pair {} PANIC contained ({error}); recovery: {recovery:?}",
                        report.tick, r.pair
                    );
                }
                PairOutcome::Skipped { confidence } if report.tick.is_multiple_of(4) => {
                    println!(
                        "tick {:>2}: pair {} quarantined (reported confidence {confidence:.2})",
                        report.tick, r.pair
                    );
                }
                _ => {}
            }
            if matches!(r.health, BreakerState::Open { .. }) && r.retries > 0 {
                println!(
                    "tick {:>2}: pair {} tripped its breaker",
                    report.tick, r.pair
                );
            }
        }
        if let Some(generation) = report.checkpoint_generation {
            println!(
                "tick {:>2}: fleet checkpointed (generation {generation})",
                report.tick
            );
        }
    };

    for tick in 0..CRASH_AT {
        if tick == PANIC_AT {
            fleet
                .arm(FleetFault::PairPanic(6, 1))
                .expect("the panicking pair is hosted");
        }
        let report = fleet.tick(&mut probe);
        log_tick(&report);
    }

    // --- Simulated crash: the service dies with all in-memory state. ---
    println!();
    println!("*** audit service crashed at quantum {CRASH_AT} — restarting from the store ***");
    drop(fleet);
    let mut fleet = open_fleet(&store_dir);
    let restored_from = fleet.pair_statuses()[0]
        .restored_from
        .expect("pair 0 restored from the store");
    println!(
        "restored 8 pairs at quantum {} from checkpoint generation {} ({} corrupt generations rolled over)",
        fleet.tick_count(),
        restored_from.generation,
        fleet.metrics_snapshot().restore_rollbacks
    );
    println!();
    assert_eq!(
        fleet.tick_count(),
        CRASH_AT,
        "auto-checkpoint at quantum 20"
    );

    for _ in fleet.tick_count()..TICKS {
        let report = fleet.tick(&mut probe);
        log_tick(&report);
    }

    // --- The operator's status table. ---
    println!();
    println!("pair | health     | fail% | verdict | panics | retries | restored | label");
    println!("-----+------------+-------+---------+--------+---------+----------+------");
    let statuses = fleet.pair_statuses();
    assert_eq!(statuses.len(), 8);
    assert!(
        statuses.iter().all(|s| s.shard.is_some()),
        "every pair is hosted"
    );
    for s in &statuses {
        println!(
            "{:>4} | {:<10} | {:>5.1} | {:<7} | {:>6} | {:>7} | {:<8} | {}",
            s.pair,
            s.health.map_or_else(|| "-".to_string(), |h| h.to_string()),
            s.failure_rate * 100.0,
            s.verdict.to_string(),
            s.panics,
            s.retries,
            s.restored_from
                .map(|r| format!("gen {}", r.generation))
                .unwrap_or_else(|| "-".to_string()),
            s.label
        );
    }

    // The story the run must tell, every time.
    assert!(
        statuses[0].verdict.is_covert(),
        "simulated bus channel caught"
    );
    assert!(
        statuses[1].verdict.is_covert(),
        "synthetic bus channel caught"
    );
    assert_eq!(
        statuses[2].verdict,
        Verdict::Clean,
        "clean divider stays clean"
    );
    assert_eq!(
        statuses[3].verdict,
        Verdict::Clean,
        "flaky-but-benign multiplier stays clean"
    );
    assert!(statuses[4].verdict.is_covert(), "cache oscillation caught");
    assert_eq!(
        statuses[5].verdict,
        Verdict::Clean,
        "benign cache stays clean"
    );
    assert!(
        statuses[6].verdict.is_covert(),
        "pair recovers after contained panic"
    );
    assert_eq!(statuses[6].panics, 1, "exactly one contained panic");
    assert!(
        statuses[7].failures >= 4,
        "wedged monitor accumulated failures"
    );
    assert!(
        statuses.iter().all(|s| s.restored_from.is_some()),
        "every pair carries restore provenance after the crash"
    );
    println!();
    println!(
        "fleet survived a crash, {} contained panic(s), and a wedged monitor — {} quanta audited",
        statuses.iter().map(|s| s.panics).sum::<u64>(),
        fleet.tick_count()
    );

    let _ = std::fs::remove_dir_all(&store_dir);
}
