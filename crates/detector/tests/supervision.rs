//! Integration tests for the supervised audit service — a one-shard
//! [`ShardedFleet`]: crash-safe checkpointing and restart, rollback over
//! corrupt generations, and quarantine isolation, driven end to end across
//! the bus / divider / cache pair kinds the paper audits.

use cchunter_detector::auditor::ConflictRecord;
use cchunter_detector::density::{DensityHistogram, HISTOGRAM_BINS};
use cchunter_detector::mitigation::MitigationConfig;
use cchunter_detector::online::Harvest;
use cchunter_detector::policy::{BreakerState, QuarantineConfig};
use cchunter_detector::shard::{ShardedFleet, ShardedFleetConfig};
use cchunter_detector::span::{self, Tracer};
use cchunter_detector::store::CheckpointStore;
use cchunter_detector::supervisor::{
    PairInput, PairKind, PairOutcome, ProbeFault, SupervisorConfig,
};
use cchunter_detector::{DetectorError, Verdict};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::mem::discriminant;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cchunter-supervision-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cleanup(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// A covert-looking per-quantum bus/divider histogram, varied by tick.
fn covert_histogram(tick: u64) -> DensityHistogram {
    let mut bins = vec![0u64; HISTOGRAM_BINS];
    bins[0] = 2_400 + (tick % 7) * 3;
    bins[19] = 20;
    bins[20] = 150 + (tick % 5);
    bins[21] = 25;
    DensityHistogram::from_bins(bins, 100_000).unwrap()
}

/// A benign per-quantum histogram.
fn quiet_histogram(tick: u64) -> DensityHistogram {
    let mut bins = vec![0u64; HISTOGRAM_BINS];
    bins[0] = 2_490 + (tick % 9);
    bins[1] = 5;
    DensityHistogram::from_bins(bins, 100_000).unwrap()
}

/// A strongly periodic conflict-record batch (a covert cache channel).
fn covert_conflicts(tick: u64) -> Vec<ConflictRecord> {
    (0..128u64)
        .map(|i| ConflictRecord {
            cycle: tick * 100_000 + i * 700,
            replacer: if i % 2 == 0 { 2 } else { 5 },
            victim: if i % 2 == 0 { 5 } else { 2 },
        })
        .collect()
}

/// The deterministic fleet input: pair 0 = covert bus, pair 1 = clean
/// divider, pair 2 = covert cache. A seeded per-(pair, tick) hash injects
/// transiently missed probes that resolve on retry, so the retry/backoff
/// path is exercised throughout.
fn probe(pair: usize, tick: u64, attempt: u32) -> Result<PairInput, ProbeFault> {
    let h = cchunter_detector::policy::mix_seed(0xFEED, pair as u64, tick);
    if attempt == 0 && h.is_multiple_of(11) {
        return Err(ProbeFault {
            reason: "transient harvest slip".to_string(),
        });
    }
    Ok(match pair {
        0 => PairInput::Harvest(Harvest::Complete(covert_histogram(tick))),
        1 => PairInput::Harvest(Harvest::Complete(quiet_histogram(tick))),
        _ => PairInput::Conflicts {
            records: covert_conflicts(tick),
            lost_fraction: if h.is_multiple_of(13) { 0.2 } else { 0.0 },
        },
    })
}

fn fleet_config() -> SupervisorConfig {
    SupervisorConfig {
        window_quanta: 16,
        ..SupervisorConfig::default()
    }
}

fn one_shard(config: SupervisorConfig) -> ShardedFleetConfig {
    ShardedFleetConfig {
        shards: 1,
        base: config,
        ..ShardedFleetConfig::default()
    }
}

/// Names the three audited pairs; on a fleet reopened over a store root
/// this is also what restores them.
fn add_pairs(mut fleet: ShardedFleet) -> ShardedFleet {
    fleet
        .add_contention_pair("memory-bus: pid 17 <-> pid 23")
        .unwrap();
    fleet
        .add_contention_pair("divider: pid 4 <-> pid 9")
        .unwrap();
    fleet
        .add_oscillation_pair("l2-cache: pid 17 <-> pid 23")
        .unwrap();
    fleet
}

fn build_fleet(config: SupervisorConfig) -> ShardedFleet {
    add_pairs(ShardedFleet::new(one_shard(config)).unwrap())
}

fn final_verdicts(fleet: &ShardedFleet) -> Vec<Verdict> {
    fleet.pair_statuses().iter().map(|s| s.verdict).collect()
}

/// Kill-and-restore property: restarting the service from its checkpoint
/// store at an arbitrary quantum yields the same final verdicts as an
/// uninterrupted run.
#[test]
fn restart_at_arbitrary_quantum_preserves_final_verdicts() {
    const TICKS: u64 = 40;

    // The uninterrupted reference run.
    let mut reference = build_fleet(fleet_config());
    for _ in 0..TICKS {
        reference.tick(&mut probe);
    }
    let expected = final_verdicts(&reference);
    assert!(expected[0].is_covert(), "bus pair must read covert");
    assert_eq!(expected[1], Verdict::Clean, "divider pair must read clean");
    assert!(expected[2].is_covert(), "cache pair must read covert");

    let mut rng = SmallRng::seed_from_u64(0x04E5_70A7);
    for trial in 0..8 {
        let kill_at = rng.gen_range(1..TICKS);
        let dir = temp_dir(&format!("restart-{trial}"));
        let open = || ShardedFleet::with_store_root(one_shard(fleet_config()), &dir).unwrap();
        let mut fleet = add_pairs(open());
        for _ in 0..kill_at {
            fleet.tick(&mut probe);
        }
        fleet.checkpoint().unwrap();
        // Simulated crash: the fleet is dropped with all in-memory state;
        // a new process restores from the store alone.
        drop(fleet);
        let mut restored = add_pairs(open());
        assert_eq!(restored.tick_count(), kill_at, "trial {trial}");
        assert_eq!(
            restored.metrics_snapshot().restore_rollbacks,
            0,
            "trial {trial}"
        );
        for _ in kill_at..TICKS {
            restored.tick(&mut probe);
        }
        assert_eq!(
            final_verdicts(&restored),
            expected,
            "trial {trial}: restart at quantum {kill_at} diverged"
        );
        drop(restored);
        cleanup(&dir);
    }
}

/// Corrupting the newest on-disk generation is survived by rolling back
/// to the previous one, and the rollback is visible in the status — no
/// panic anywhere on the recovery path.
#[test]
fn corrupt_newest_generation_rolls_back_and_is_surfaced() {
    let dir = temp_dir("rollback");
    let open = || ShardedFleet::with_store_root(one_shard(fleet_config()), &dir).unwrap();
    let mut fleet = add_pairs(open());
    for _ in 0..10 {
        fleet.tick(&mut probe);
    }
    fleet.checkpoint().unwrap();
    for _ in 0..5 {
        fleet.tick(&mut probe);
    }
    fleet.checkpoint().unwrap();
    drop(fleet);

    // Trash the newest generation: the shard's one entry, its manifest
    // and every pair's window.
    let shard_dir = dir.join("shard-00");
    let probe_store = CheckpointStore::open(&shard_dir, 3).unwrap();
    let newest = *probe_store
        .generations("supervisor")
        .unwrap()
        .last()
        .unwrap();
    let path = shard_dir.join(format!("supervisor.g{newest:08}.ckpt"));
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    let end = (mid + 16).min(bytes.len());
    for b in &mut bytes[mid..end] {
        *b ^= 0xA5;
    }
    std::fs::write(&path, &bytes).unwrap();

    let restored = add_pairs(open());
    assert_eq!(
        restored.tick_count(),
        10,
        "must land on the older generation"
    );
    // One rolled-over shard generation.
    assert_eq!(restored.metrics_snapshot().restore_rollbacks, 1);
    for status in restored.pair_statuses() {
        let from = status
            .restored_from
            .expect("every pair carries its restore provenance");
        assert_eq!(
            from.rolled_back, 1,
            "pair {} must surface its rollback",
            status.pair
        );
    }
    drop(restored);
    cleanup(&dir);
}

/// A pair whose probes fail 100% of the time is quarantined within the
/// failure window while every other pair's verdict stream is unchanged.
/// A store whose every manifest generation is corrupt cannot say which
/// pairs it held or how they stood: reopening it is a typed error, never a
/// fresh start that would let a convicted pair read Clean. Moving the
/// shard directory aside is the deliberate way to start over.
#[test]
fn unreadable_store_refuses_to_reopen() {
    let dir = temp_dir("unreadable");
    let open = || ShardedFleet::with_store_root(one_shard(fleet_config()), &dir);
    let mut fleet = add_pairs(open().unwrap());
    for _ in 0..12 {
        fleet.tick(&mut probe);
    }
    fleet.checkpoint().unwrap();
    assert!(fleet.pair_statuses()[0].verdict.is_covert());
    drop(fleet);

    let shard_dir = dir.join("shard-00");
    let probe_store = CheckpointStore::open(&shard_dir, 3).unwrap();
    for generation in probe_store.generations("supervisor").unwrap() {
        let path = shard_dir.join(format!("supervisor.g{generation:08}.ckpt"));
        let mut bytes = std::fs::read(&path).unwrap();
        for b in &mut bytes {
            *b ^= 0xA5;
        }
        std::fs::write(&path, &bytes).unwrap();
    }
    drop(probe_store);

    let err = open().unwrap_err();
    assert!(
        matches!(err, DetectorError::CorruptCheckpoint(_)),
        "typed refusal, got {err:?}"
    );
    // The failed open released its claim on the directory.
    std::fs::rename(&shard_dir, dir.join("shard-00.unreadable")).unwrap();
    let fresh = add_pairs(open().unwrap());
    assert_eq!(fresh.tick_count(), 0);
    drop(fresh);
    cleanup(&dir);
}

#[test]
fn fully_faulty_pair_is_quarantined_without_collateral() {
    let quarantine = QuarantineConfig {
        failure_window: 6,
        trip_threshold: 0.5,
        min_observations: 4,
        probe_interval: 16,
        recovery_successes: 2,
        confidence_decay: 0.7,
    };
    let config = SupervisorConfig {
        quarantine,
        ..fleet_config()
    };
    let run = |with_faulty: bool| {
        let mut fleet = ShardedFleet::new(one_shard(config)).unwrap();
        fleet.add_contention_pair("memory-bus").unwrap();
        let faulty = if with_faulty {
            Some(fleet.add_contention_pair("dead-monitor").unwrap())
        } else {
            None
        };
        fleet.add_oscillation_pair("l2-cache").unwrap();
        let healthy: Vec<usize> = (0..fleet.len()).filter(|&i| Some(i) != faulty).collect();
        let mut verdict_stream: Vec<Vec<Verdict>> = Vec::new();
        for _ in 0..20 {
            fleet.tick(&mut |pair: usize, tick: u64, _attempt: u32| {
                if Some(pair) == faulty {
                    Err(ProbeFault {
                        reason: "hardware interface wedged".to_string(),
                    })
                } else if pair == healthy[0] {
                    Ok(PairInput::Harvest(Harvest::Complete(covert_histogram(
                        tick,
                    ))))
                } else {
                    Ok(PairInput::Conflicts {
                        records: covert_conflicts(tick),
                        lost_fraction: 0.0,
                    })
                }
            });
            let statuses = fleet.pair_statuses();
            verdict_stream.push(healthy.iter().map(|&i| statuses[i].verdict).collect());
        }
        (fleet.pair_statuses(), verdict_stream, faulty, healthy)
    };

    let (with_statuses, with_stream, faulty, healthy) = run(true);
    let (_, without_stream, _, _) = run(false);
    let faulty = faulty.unwrap();

    assert_ne!(
        with_statuses[faulty].health,
        Some(BreakerState::Closed),
        "100%-faulty pair must trip its breaker: {with_statuses:?}"
    );
    assert!(with_statuses[faulty].failures >= 4);
    assert_eq!(with_statuses[faulty].kind, PairKind::Contention);
    // Healthy pairs: identical verdict streams with or without the faulty
    // neighbor, and the expected detections.
    assert_eq!(with_stream, without_stream);
    assert!(with_statuses[healthy[0]].verdict.is_covert());
    assert!(with_statuses[healthy[1]].verdict.is_covert());
    assert_eq!(with_statuses[healthy[0]].health, Some(BreakerState::Closed));
    assert_eq!(with_statuses[healthy[1]].health, Some(BreakerState::Closed));
}

/// A pair that is both contained (convicted covert channel) and then
/// quarantined (wedged probe) must come back cleanly when its recovery
/// probes succeed: the breaker closes, full auditing resumes with
/// `Analyzed` outcomes, the containment state survives the quarantine
/// intact (no leaked or stuck state), the decayed confidence is restored
/// to the detector-reported value (no double decay), and every health
/// counter stays consistent between the per-pair status and the fleet
/// metrics snapshot.
#[test]
fn quarantined_pair_recovery_resumes_full_auditing_with_consistent_counters() {
    let quarantine = QuarantineConfig {
        failure_window: 6,
        trip_threshold: 0.5,
        min_observations: 4,
        probe_interval: 3,
        recovery_successes: 2,
        confidence_decay: 0.7,
    };
    let mitigation = MitigationConfig {
        convict_streak: 2,
        ..MitigationConfig::default()
    };
    let config = SupervisorConfig {
        quarantine,
        mitigation,
        ..fleet_config()
    };
    let mut fleet = ShardedFleet::new(one_shard(config)).unwrap();
    fleet
        .add_contention_pair("memory-bus: pid 17 <-> pid 23")
        .unwrap();
    let mut covert_probe = |_pair: usize, tick: u64, _attempt: u32| {
        Ok::<_, ProbeFault>(PairInput::Harvest(Harvest::Complete(covert_histogram(
            tick,
        ))))
    };

    // Phase A: the channel is detected and contained.
    for _ in 0..12 {
        fleet.tick(&mut covert_probe);
    }
    let pre = &fleet.pair_statuses()[0];
    assert!(pre.verdict.is_covert());
    assert!(pre.containment.is_active(), "{:?}", pre.containment);
    let containment_before_quarantine = pre.containment;

    // Phase B: the probe wedges; the breaker trips and confidence decays.
    let mut wedged = |_pair: usize, _tick: u64, _attempt: u32| {
        Err::<PairInput, _>(ProbeFault {
            reason: "hardware interface wedged".to_string(),
        })
    };
    let mut decayed_confidence = f64::INFINITY;
    for _ in 0..12 {
        let report = fleet.tick(&mut wedged);
        let shard = report.shard_reports[0].as_ref().expect("shard 0 is live");
        if let PairOutcome::Skipped { confidence } = shard.reports[0].outcome {
            decayed_confidence = decayed_confidence.min(confidence);
        }
    }
    let during = fleet.pair_statuses();
    assert_ne!(
        during[0].health,
        Some(BreakerState::Closed),
        "breaker tripped"
    );
    assert!(
        decayed_confidence < 0.5,
        "quarantine skipped ticks and decayed confidence, got {decayed_confidence}"
    );
    assert_eq!(
        during[0].containment, containment_before_quarantine,
        "containment is frozen, not leaked, while quarantined"
    );

    // Phase C: the probe heals; recovery probes succeed and the breaker
    // closes again.
    let mut recovered_at = None;
    for i in 0..40 {
        fleet.tick(&mut covert_probe);
        if fleet.pair_statuses()[0].health == Some(BreakerState::Closed) {
            recovered_at = Some(i);
            break;
        }
    }
    assert!(recovered_at.is_some(), "breaker must close after recovery");

    // Full auditing resumes: every subsequent tick analyzes cleanly.
    for _ in 0..4 {
        let report = fleet.tick(&mut covert_probe);
        let shard = report.shard_reports[0].as_ref().expect("shard 0 is live");
        assert!(
            matches!(shard.reports[0].outcome, PairOutcome::Analyzed(_)),
            "{:?}",
            shard.reports[0].outcome
        );
    }

    let after = fleet.pair_statuses();
    let snapshot = fleet.metrics_snapshot();
    assert_eq!(after[0].health, Some(BreakerState::Closed));
    assert_eq!(snapshot.quarantined_pairs, 0);
    assert!(after[0].verdict.is_covert(), "auditing is really back");
    // No double decay: the reported confidence snapped back to the
    // detector-reported value instead of continuing from the decayed floor.
    assert!(
        snapshot.mean_confidence > decayed_confidence + 0.2,
        "confidence restored after recovery: {} vs decayed {}",
        snapshot.mean_confidence,
        decayed_confidence
    );
    // The containment state is still active and never regressed below its
    // pre-quarantine rung (covert evidence continued, so it may have
    // escalated — but it must not have been dropped or wedged).
    assert!(after[0].containment.is_active());
    assert!(after[0].containment.level() >= containment_before_quarantine.level());
    assert_eq!(snapshot.contained_pairs, 1);
    // Health counters are consistent between the status table and the
    // fleet snapshot (single pair, so they must match exactly).
    assert_eq!(snapshot.failures, after[0].failures);
    assert_eq!(snapshot.panics, after[0].panics);
    assert_eq!(snapshot.deadline_misses, after[0].deadline_misses);
    assert_eq!(snapshot.retries, after[0].retries);
    assert!(snapshot.failures >= u64::from(quarantine.min_observations as u32));
    assert!(snapshot.quarantine_skips > 0);
    assert!(
        snapshot.breaker_transitions >= 2,
        "tripped and recovered: {}",
        snapshot.breaker_transitions
    );
    // The recovery is also visible in the Prometheus rendering.
    let prom = fleet.render_prometheus();
    assert!(
        prom.contains("cchunter_pairs_quarantined{shard=\"0\"} 0"),
        "{prom}"
    );
}

/// A fleet built `with_tracer(t)` traces each pair change once, on `t`,
/// under the pair's label: every breaker transition the pair table shows
/// between ticks, as `"<label>: closed -> open at tick N"`, and every
/// verdict flip. Nothing of the fleet's reaches the process-wide tracer,
/// even while that one records.
#[test]
fn a_fleet_traces_each_pair_change_once_on_its_own_tracer() {
    let global = span::global();
    let global_was_enabled = global.is_enabled();
    global.set_enabled(true);
    let tracer = Tracer::new(4096);
    let config = SupervisorConfig {
        quarantine: QuarantineConfig {
            failure_window: 4,
            trip_threshold: 0.5,
            min_observations: 2,
            probe_interval: 2,
            recovery_successes: 2,
            confidence_decay: 0.5,
        },
        ..fleet_config()
    };
    let mut fleet = ShardedFleet::new(one_shard(config))
        .unwrap()
        .with_tracer(tracer.clone());
    fleet.add_contention_pair("own-tracer: wedged bus").unwrap();
    fleet.add_contention_pair("own-tracer: covert bus").unwrap();
    // The wedged pair fails ticks 0 to 3: its breaker opens at tick 1, a
    // recovery probe fails at tick 3, and probes succeed from tick 5.
    let mut source = |pair: usize, tick: u64, _attempt: u32| match (pair, tick) {
        (0, 0..=3) => Err(ProbeFault {
            reason: "hardware interface wedged".to_string(),
        }),
        _ => Ok(PairInput::Harvest(Harvest::Complete(covert_histogram(
            tick,
        )))),
    };
    let (mut transitions, mut flips) = (Vec::new(), Vec::new());
    let mut before = fleet.pair_statuses();
    for tick in 0..12u64 {
        fleet.tick(&mut source);
        let after = fleet.pair_statuses();
        for (was, now) in before.iter().zip(&after) {
            let (from, to) = (was.health.unwrap(), now.health.unwrap());
            if discriminant(&from) != discriminant(&to) {
                let (from, to) = (from.name(), to.name());
                transitions.push(format!("{}: {from} -> {to} at tick {tick}", now.label));
            }
            if was.verdict != now.verdict {
                let (from, to) = (was.verdict, now.verdict);
                flips.push(format!("{}: {from} -> {to} at tick {tick}", now.label));
            }
        }
        before = after;
    }
    let traced = |name: &str| -> Vec<String> {
        let events = tracer.events().into_iter().filter(|e| e.name == name);
        // A flip's detail goes on with the confidence it was made at.
        let details = events.map(|e| e.detail.split(" (confidence").next().map(str::to_string));
        details.map(Option::unwrap).collect()
    };
    assert_eq!(
        transitions,
        [
            "own-tracer: wedged bus: closed -> open at tick 1",
            "own-tracer: wedged bus: open -> half-open at tick 5",
            "own-tracer: wedged bus: half-open -> closed at tick 6",
        ]
    );
    assert_eq!(traced("breaker-transition"), transitions);
    assert!(flips.len() >= 2, "{flips:?}");
    assert_eq!(traced("verdict-flip"), flips);
    // A residual reading is traced when it is reported, before any tick.
    fleet.report_residual(1, 0.02, 0.01).unwrap();
    assert_eq!(
        traced("residual"),
        ["own-tracer: covert bus: residual 0.020 of baseline, overhead 0.010"]
    );
    let leaked: Vec<_> = global
        .events()
        .into_iter()
        .filter(|e| {
            let library =
                e.scope == "online" || e.scope == "policy" && e.name == "breaker-transition";
            library || e.detail.contains("own-tracer:")
        })
        .collect();
    global.set_enabled(global_was_enabled);
    assert!(leaked.is_empty(), "{leaked:?}");
}
