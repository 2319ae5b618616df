//! Integration tests for the sharded fleet: a shard killed mid-checkpoint
//! rolls back to its last good generation on a survivor, active containment
//! re-asserts through the adoptive shard's enforcer, the rendezvous
//! placement is stable and minimal under shard-count-preserving restarts,
//! the coordinator's one retry loop spares quarantined pairs and reports
//! per-pair retries, one tick clock keeps migrated quarantines honest, a
//! restarted pair reads exactly like a migrated one, a pair's events
//! count in whichever shard hosts it, and a slow probe is not charged to
//! the shards stepping beside it.

use cchunter_detector::density::{DensityHistogram, HISTOGRAM_BINS};
use cchunter_detector::fault::FleetFault;
use cchunter_detector::mitigation::{ApplyError, MitigationEnforcer, MitigationLevel};
use cchunter_detector::online::Harvest;
use cchunter_detector::policy::{BackoffConfig, BreakerState, QuarantineConfig};
use cchunter_detector::shard::{
    pair_key, rendezvous_shard, FleetPairStatus, ShardHealth, ShardedFleet, ShardedFleetConfig,
};
use cchunter_detector::supervisor::{
    PairInput, PairOutcome, ProbeFault, RestoredFrom, SupervisorConfig,
};
use cchunter_detector::{DetectorError, Verdict};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cchunter-sharding-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cleanup(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// A covert-looking per-quantum histogram, varied by tick.
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

/// An enforcer whose actuation log is shared with the test: each shard
/// gets one, so the test can see *which* failure domain asserted a rung.
type EnforcerLog = Arc<Mutex<Vec<(usize, MitigationLevel)>>>;

#[derive(Clone)]
struct SharedEnforcer {
    log: EnforcerLog,
}

impl SharedEnforcer {
    fn new() -> (Self, EnforcerLog) {
        let log = Arc::new(Mutex::new(Vec::new()));
        (SharedEnforcer { log: log.clone() }, log)
    }
}

impl MitigationEnforcer for SharedEnforcer {
    fn apply(&mut self, pair: usize, level: MitigationLevel) -> Result<(), ApplyError> {
        self.log.lock().unwrap().push((pair, level));
        Ok(())
    }

    fn release(&mut self, _pair: usize, _level: MitigationLevel) -> Result<(), ApplyError> {
        Ok(())
    }
}

fn fleet_config(shards: usize) -> ShardedFleetConfig {
    ShardedFleetConfig {
        shards,
        base: SupervisorConfig {
            window_quanta: 8,
            ..SupervisorConfig::default()
        },
        ..ShardedFleetConfig::default()
    }
}

/// Pair 0 carries a covert channel; everything else is quiet.
fn probe(pair: usize, tick: u64, _attempt: u32) -> Result<PairInput, ProbeFault> {
    Ok(PairInput::Harvest(Harvest::Complete(if pair == 0 {
        covert_histogram(tick)
    } else {
        quiet_histogram(tick)
    })))
}

/// Every checkpoint file in `dir` as `(entry name, generation, path)`.
fn checkpoint_files(dir: &Path) -> Vec<(String, u64, PathBuf)> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let Some(stem) = name.strip_suffix(".ckpt") else {
            continue;
        };
        let Some(pos) = stem.rfind(".g") else {
            continue;
        };
        let Ok(generation) = stem[pos + 2..].parse::<u64>() else {
            continue;
        };
        files.push((stem[..pos].to_string(), generation, path));
    }
    files
}

fn flip_middle_byte(path: &Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(path, bytes).unwrap();
}

/// Flips one payload byte in every checkpoint file of the newest
/// generation in `dir` — a shard that died mid-checkpoint-write, leaving
/// the whole newest generation torn. Returns how many files were hit.
fn corrupt_newest_generation(dir: &Path) -> usize {
    let files = checkpoint_files(dir);
    let newest = files.iter().map(|(_, generation, _)| *generation).max();
    let mut hit = 0;
    for (_, generation, path) in &files {
        if Some(*generation) == newest {
            flip_middle_byte(path);
            hit += 1;
        }
    }
    assert!(hit > 0, "no newest-generation files found in {dir:?}");
    hit
}

/// Flips one payload byte in the newest generation of every entry in
/// `dir`, however the store names and numbers its entries: each entry's
/// last write is torn.
fn corrupt_each_entrys_newest_generation(dir: &Path) {
    let files = checkpoint_files(dir);
    for (name, generation, path) in &files {
        let newer = |(other, g, _): &(String, u64, PathBuf)| other == name && g > generation;
        if !files.iter().any(newer) {
            flip_middle_byte(path);
        }
    }
}

/// Satellite 3: kill a shard mid-checkpoint-write (newest generation torn
/// across every entry), and the survivor restores the last good generation
/// via rollback; the contained covert pair re-asserts its containment
/// through the adoptive shard's enforcer.
#[test]
fn shard_death_mid_checkpoint_rolls_back_and_reasserts_containment() {
    let root = temp_dir("midwrite");
    let mut fleet = ShardedFleet::with_store_root(fleet_config(2), &root).unwrap();
    let mut logs = Vec::new();
    for shard in 0..fleet.shard_count() {
        let (enforcer, log) = SharedEnforcer::new();
        fleet.set_enforcer(shard, Box::new(enforcer)).unwrap();
        logs.push(log);
    }
    let covert = fleet
        .add_contention_pair("memory-bus: pid 17 <-> pid 23")
        .unwrap();
    assert_eq!(covert, 0);
    for pair in 1..6 {
        fleet
            .add_contention_pair(format!("divider: pid {pair} <-> pid {}", pair + 40))
            .unwrap();
    }

    // Convict and contain the covert pair on its home shard.
    for _ in 0..24 {
        fleet.tick(&mut probe);
    }
    let home = fleet.shard_of(covert).expect("pair is assigned");
    assert!(
        fleet.containment(covert).unwrap().is_active(),
        "covert pair should be contained before the kill: {:?}",
        fleet.containment(covert)
    );
    assert!(
        !logs[home].lock().unwrap().is_empty(),
        "the home shard's enforcer must have asserted the rung"
    );

    // A good checkpoint, some more progress, then a torn one: every entry
    // of the newest generation is corrupt, as if the shard died with the
    // write in flight.
    fleet.checkpoint().unwrap();
    for _ in 0..4 {
        fleet.tick(&mut probe);
    }
    fleet.checkpoint().unwrap();
    corrupt_newest_generation(&root.join(format!("shard-{home:02}")));

    let survivor = 1 - home;
    let survivor_log_before = logs[survivor].lock().unwrap().len();
    let report = fleet.kill_shard(home).unwrap();
    assert!(report.migrated > 0, "{report:?}");
    assert_eq!(report.orphaned, 0, "{report:?}");

    // The covert pair landed on the survivor, restored from the rolled-back
    // generation — not degraded, provenance recorded.
    let status = &fleet.pair_statuses()[covert];
    assert_eq!(status.shard, Some(survivor));
    let restored = status
        .restored_from
        .expect("migrated pair must carry restore provenance");
    assert!(
        restored.rolled_back >= 1,
        "the torn newest generation must be rolled over: {restored:?}"
    );
    assert!(
        !status.degraded,
        "a good prior generation existed, the pair must not degrade"
    );
    // Until the survivor's first analysis the pair stands Inconclusive —
    // a migration must never read as an acquittal.
    assert_ne!(status.verdict, Verdict::Clean);

    // The restored containment re-asserts through the *survivor's*
    // enforcer on the next tick — active containment never silently lapses
    // across a migration.
    assert!(fleet.containment(covert).unwrap().is_active());
    fleet.tick(&mut probe);
    assert!(
        logs[survivor].lock().unwrap().len() > survivor_log_before,
        "adoptive shard's enforcer must re-assert the restored rung"
    );
    assert_eq!(fleet.shard_health(home), Some(ShardHealth::Dead));

    // And the channel keeps being convicted after the move.
    for _ in 0..8 {
        fleet.tick(&mut probe);
    }
    assert_eq!(
        fleet.pair_statuses()[covert].verdict,
        Verdict::CovertTimingChannel
    );
    cleanup(&root);
}

/// A shard checkpoint is one store entry, so however many pairs and
/// checkpoints, a shard directory holds its kept generations of that
/// entry and the metrics sidecar, and nothing else.
#[test]
fn a_shard_directory_holds_only_its_kept_generations() {
    let root = temp_dir("one-entry");
    let config = ShardedFleetConfig {
        keep_generations: 2,
        ..fleet_config(2)
    };
    let mut fleet = ShardedFleet::with_store_root(config, &root).unwrap();
    for pair in 0..12 {
        fleet
            .add_contention_pair(format!("divider: pid {pair} <-> pid {}", pair + 40))
            .unwrap();
    }
    for _ in 0..5 {
        fleet.tick(&mut probe);
        fleet.checkpoint().unwrap();
    }
    for shard in 0..2 {
        let dir = root.join(format!("shard-{shard:02}"));
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(
            names,
            [
                "metrics.prom",
                "supervisor.g00000003.ckpt",
                "supervisor.g00000004.ckpt"
            ],
            "shard {shard}"
        );
    }
    drop(fleet);
    cleanup(&root);
}

/// A pair's window is read back from the shard generation whose manifest
/// lists it. The covert pair A checkpoints at slot 0 of shard 0 and is
/// then rebalanced away, so the shard's last pair, the quiet B, takes slot
/// 0 and the shard checkpoints again. With the newest generation of every
/// entry in that store torn, a panicked B rolls back to the older
/// generation and must restore its own quiet window from there: never the
/// covert one A left at slot 0, and never an empty one.
#[test]
fn rollback_after_a_move_restores_the_pairs_own_window() {
    let root = temp_dir("rollback-move");
    let mut fleet = ShardedFleet::with_store_root(fleet_config(2), &root).unwrap();
    let home = |label: &String| rendezvous_shard(pair_key(label), &[0, 1]);
    let mut labels = (0..).map(|i| format!("divider: pid {i} <-> pid {}", i + 40));
    let a_label = labels.by_ref().find(|l| home(l) == Some(1)).unwrap();
    let quiet: Vec<String> = labels.filter(|l| home(l) == Some(0)).take(2).collect();
    // With shard 1 down, every pair starts on shard 0 in admission order:
    // A (pair 0, covert) at slot 0, B (pair 2) last.
    fleet.kill_shard(1).unwrap();
    let a = fleet.add_contention_pair(a_label).unwrap();
    assert_eq!(a, 0, "the probe makes pair 0 covert");
    for label in quiet {
        fleet.add_contention_pair(label).unwrap();
    }
    let b = 2;
    for _ in 0..6 {
        fleet.tick(&mut probe);
    }
    assert!(fleet.pair_statuses()[a].verdict.is_covert());
    assert_eq!(fleet.pair_statuses()[b].verdict, Verdict::Clean);
    fleet.checkpoint().unwrap();

    fleet.revive_shard(1).unwrap();
    fleet.tick(&mut probe);
    assert_eq!(fleet.shard_of(a), Some(1), "A rebalanced home");
    assert_eq!(fleet.shard_of(b), Some(0));
    fleet.checkpoint().unwrap();
    corrupt_each_entrys_newest_generation(&root.join("shard-00"));

    fleet.arm(FleetFault::PairPanic(b, 1)).unwrap();
    fleet.tick(&mut probe);
    let status = &fleet.pair_statuses()[b];
    assert!(!status.degraded, "B's window was lost: {status:?}");
    assert_eq!(
        status.restored_from,
        Some(RestoredFrom {
            generation: 0,
            rolled_back: 1
        })
    );
    for _ in 0..4 {
        fleet.tick(&mut probe);
        let status = &fleet.pair_statuses()[b];
        assert_eq!(status.verdict, Verdict::Clean, "{status:?}");
    }
    assert!(fleet.pair_statuses()[a].verdict.is_covert());
    drop(fleet);
    cleanup(&root);
}

/// Two fleets must not interleave generations in one store root: the
/// second open fails with the typed busy error naming the owner.
#[test]
fn second_fleet_on_same_store_root_is_refused() {
    let root = temp_dir("busy");
    let fleet = ShardedFleet::with_store_root(fleet_config(2), &root).unwrap();
    let err = ShardedFleet::with_store_root(fleet_config(2), &root).unwrap_err();
    match err {
        DetectorError::StoreBusy { owner, .. } => assert_eq!(owner, "shard-00"),
        other => panic!("expected StoreBusy, got {other:?}"),
    }
    drop(fleet);
    // Releasing the first fleet releases the claims.
    let fleet = ShardedFleet::with_store_root(fleet_config(2), &root).unwrap();
    drop(fleet);
    cleanup(&root);
}

/// Satellite 4a: pair→shard assignment is a pure function of (label,
/// shard set) — a restart with the same shard count reproduces it exactly,
/// whatever order the pairs are added in.
#[test]
fn assignment_is_stable_across_shard_count_preserving_restarts() {
    let labels: Vec<String> = (0..96)
        .map(|i| format!("memory-bus: pid {i} <-> pid {}", i + 100))
        .collect();
    let mut first = ShardedFleet::new(fleet_config(8)).unwrap();
    for label in &labels {
        first.add_contention_pair(label.clone()).unwrap();
    }
    let homes: Vec<Option<usize>> = (0..labels.len()).map(|p| first.shard_of(p)).collect();
    drop(first);

    // Same shard count, reversed insertion order: same homes.
    let mut second = ShardedFleet::new(fleet_config(8)).unwrap();
    for label in labels.iter().rev() {
        second.add_contention_pair(label.clone()).unwrap();
    }
    for (i, label) in labels.iter().enumerate() {
        let rev_index = labels.len() - 1 - i;
        assert_eq!(
            second.shard_of(rev_index),
            homes[labels.len() - 1 - rev_index],
            "{label} moved across a restart"
        );
    }
}

/// Satellite 4b: removing one shard re-homes exactly that shard's pairs —
/// zero survivor churn for every choice of victim — and the per-death
/// movement averages to ≤ ⌈pairs/N⌉ across victims.
#[test]
fn removal_moves_only_the_victims_pairs() {
    const PAIRS: usize = 1_000;
    const SHARDS: usize = 8;
    let shards: Vec<usize> = (0..SHARDS).collect();
    let keys: Vec<u64> = (0..PAIRS)
        .map(|i| pair_key(&format!("l2-cache: pid {i} <-> pid {}", i * 7 + 3)))
        .collect();
    let full: Vec<usize> = keys
        .iter()
        .map(|&k| rendezvous_shard(k, &shards).unwrap())
        .collect();

    let mut total_moved = 0usize;
    for victim in 0..SHARDS {
        let remaining: Vec<usize> = shards.iter().copied().filter(|&s| s != victim).collect();
        let mut moved = 0usize;
        for (i, &k) in keys.iter().enumerate() {
            let new_home = rendezvous_shard(k, &remaining).unwrap();
            if full[i] == victim {
                moved += 1;
            } else {
                assert_eq!(
                    new_home, full[i],
                    "pair {i} moved although its shard survived"
                );
            }
        }
        assert_eq!(
            moved,
            full.iter().filter(|&&s| s == victim).count(),
            "movement must equal the victim's population"
        );
        total_moved += moved;
    }
    let ceil_share = PAIRS.div_ceil(SHARDS);
    assert!(
        total_moved / SHARDS <= ceil_share,
        "average movement per death {} exceeds the fair share {ceil_share}",
        total_moved / SHARDS
    );
}

/// End to end: the same property holds inside a live fleet — killing one
/// shard leaves every surviving pair exactly where it was.
#[test]
fn live_kill_causes_zero_survivor_churn() {
    let mut fleet = ShardedFleet::new(fleet_config(4)).unwrap();
    for i in 0..64 {
        fleet
            .add_contention_pair(format!("memory-bus: pid {i} <-> pid {}", i + 100))
            .unwrap();
    }
    let before: Vec<Option<usize>> = (0..64).map(|p| fleet.shard_of(p)).collect();
    let victim = before[0].unwrap();
    fleet.kill_shard(victim).unwrap();
    for (pair, home) in before.iter().enumerate() {
        let home = home.unwrap();
        if home != victim {
            assert_eq!(
                fleet.shard_of(pair),
                Some(home),
                "pair {pair} churned although shard {home} survived"
            );
        } else {
            let new_home = fleet.shard_of(pair).expect("migrated, not orphaned");
            assert_ne!(new_home, victim);
        }
    }
}

/// A one-pair-kind fleet whose breaker trips after two failures and then
/// probes every 4 ticks, with a 2-retry budget.
fn quarantine_config(shards: usize) -> ShardedFleetConfig {
    let mut config = fleet_config(shards);
    config.base.backoff = BackoffConfig {
        max_retries: 2,
        ..BackoffConfig::default()
    };
    config.base.quarantine = QuarantineConfig {
        failure_window: 4,
        trip_threshold: 0.5,
        min_observations: 2,
        probe_interval: PROBE_INTERVAL,
        recovery_successes: 1,
        confidence_decay: 0.5,
    };
    config
}

const PROBE_INTERVAL: u64 = 4;

/// Ticks `fleet` once with every probe failing; returns the probe calls
/// made for `pair` (first attempts and retries).
fn failing_tick(fleet: &mut ShardedFleet, pair: usize) -> usize {
    let mut calls = 0;
    fleet.tick(&mut |p: usize, _tick: u64, _attempt: u32| {
        calls += usize::from(p == pair);
        Err::<PairInput, _>(ProbeFault {
            reason: "hardware interface wedged".to_string(),
        })
    });
    calls
}

fn is_open(fleet: &ShardedFleet, pair: usize) -> bool {
    matches!(
        fleet.pair_statuses()[pair].health,
        Some(BreakerState::Open { .. })
    )
}

/// A quarantined pair costs one probe (plus its retries) per probe
/// interval — the coordinator asks the breaker before probing instead of
/// probing every tick and throwing the input away.
#[test]
fn quarantined_pair_is_probed_only_on_recovery_ticks() {
    let mut fleet = ShardedFleet::new(quarantine_config(1)).unwrap();
    let pair = fleet
        .add_contention_pair("memory-bus: wedged monitor")
        .unwrap();
    for _ in 0..4 {
        failing_tick(&mut fleet, pair);
    }
    assert!(is_open(&fleet, pair), "the breaker must have tripped");
    let calls: Vec<usize> = (0..20).map(|_| failing_tick(&mut fleet, pair)).collect();
    for window in calls.chunks(PROBE_INTERVAL as usize) {
        assert!(
            window.iter().sum::<usize>() <= 3,
            "at most one probe plus two retries per probe interval: {calls:?}"
        );
    }
    assert!(
        calls.iter().sum::<usize>() >= 3 * (20 / PROBE_INTERVAL as usize - 1),
        "recovery probes must keep coming: {calls:?}"
    );
}

/// A quarantined pair rebalanced onto a revived shard keeps its recovery
/// schedule: breaker ticks share the coordinator's clock, so the revived
/// shard's fresh life does not blind the pair.
#[test]
fn quarantined_pair_migrated_onto_revived_shard_is_reprobed_within_probe_interval() {
    let mut fleet = ShardedFleet::new(quarantine_config(2)).unwrap();
    let pair = fleet
        .add_contention_pair("memory-bus: wedged monitor")
        .unwrap();
    let home = fleet.shard_of(pair).unwrap();
    fleet.kill_shard(home).unwrap();
    assert_ne!(fleet.shard_of(pair), Some(home));
    for _ in 0..60 {
        failing_tick(&mut fleet, pair);
    }
    assert!(is_open(&fleet, pair), "quarantined on the survivor");
    fleet.revive_shard(home).unwrap();
    // The next tick's rebalance pass walks the pair home, still open.
    failing_tick(&mut fleet, pair);
    assert_eq!(fleet.shard_of(pair), Some(home));
    assert!(is_open(&fleet, pair));
    let reprobed = (0..PROBE_INTERVAL).any(|_| {
        let report = fleet.tick(&mut |_pair: usize, _tick: u64, _attempt: u32| {
            Err::<PairInput, _>(ProbeFault {
                reason: "hardware interface wedged".to_string(),
            })
        });
        report
            .shard_reports
            .iter()
            .flatten()
            .flat_map(|shard| &shard.reports)
            .any(|r| {
                &*r.label == "memory-bus: wedged monitor"
                    && !matches!(r.outcome, PairOutcome::Skipped { .. })
            })
    });
    assert!(reprobed, "re-probed within {PROBE_INTERVAL} ticks");
}

/// Per-pair retries survive sharding: the coordinator hands each pair's
/// retry count to its shard, which reports it in the tick report, the
/// pair status, the digest and the scrape.
#[test]
fn sharded_fleet_reports_per_pair_retries() {
    let mut fleet = ShardedFleet::new(quarantine_config(2)).unwrap();
    for pair in 0..4 {
        fleet
            .add_contention_pair(format!("memory-bus: pair {pair}"))
            .unwrap();
    }
    let slipping = 1usize;
    let mut source = |pair: usize, tick: u64, attempt: u32| {
        if pair == slipping && attempt == 0 {
            return Err(ProbeFault {
                reason: "transient slip".to_string(),
            });
        }
        probe(pair, tick, attempt)
    };
    for _ in 0..3 {
        let report = fleet.tick(&mut source);
        let slipped = report
            .shard_reports
            .iter()
            .flatten()
            .flat_map(|shard| &shard.reports)
            .find(|r| &*r.label == "memory-bus: pair 1")
            .expect("the pair was analyzed");
        assert_eq!(slipped.retries, 1);
        assert!(slipped.backoff_us > 0);
    }
    let statuses = fleet.pair_statuses();
    assert_eq!(statuses[slipping].retries, 3);
    assert_eq!(statuses[0].retries, 0);
    assert_eq!(fleet.metrics_snapshot().retries, 3);
    let scrape = fleet.render_prometheus();
    assert!(
        scrape.contains("cchunter_fleet_probe_retries_total 3"),
        "{scrape}"
    );
}

/// Restart and migration are one path: a pair restored by reopening the
/// store root reads exactly like the same pair migrated off a dead shard —
/// Inconclusive until fresh evidence, containment carried for
/// re-assertion, counters and provenance intact.
#[test]
fn restored_and_migrated_pairs_report_identical_status() {
    let run = |dir: &Path| {
        let mut fleet = ShardedFleet::with_store_root(fleet_config(2), dir).unwrap();
        for pair in 0..6 {
            fleet
                .add_contention_pair(format!("memory-bus: pair {pair}"))
                .unwrap();
        }
        for _ in 0..12 {
            fleet.tick(&mut probe);
        }
        assert!(fleet.containment(0).unwrap().is_active());
        fleet.checkpoint().unwrap();
        fleet
    };
    let dir_migrated = temp_dir("identical-migrated");
    let dir_restored = temp_dir("identical-restored");

    let mut migrated = run(&dir_migrated);
    let victim = migrated.shard_of(0).unwrap();
    migrated.kill_shard(victim).unwrap();
    assert_ne!(migrated.shard_of(0), Some(victim));

    drop(run(&dir_restored));
    let mut restored = ShardedFleet::with_store_root(fleet_config(2), &dir_restored).unwrap();
    assert_eq!(restored.tick_count(), 12);
    for pair in 0..6 {
        restored
            .add_contention_pair(format!("memory-bus: pair {pair}"))
            .unwrap();
    }

    // Everything but the hosting shard matches.
    let status = |fleet: &ShardedFleet| FleetPairStatus {
        shard: None,
        ..fleet.pair_statuses().swap_remove(0)
    };
    let (a, b) = (status(&migrated), status(&restored));
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_eq!(
        a.verdict,
        Verdict::Inconclusive,
        "no acquittal, no conviction"
    );
    assert!(a.containment.is_active());
    assert!(a.restored_from.is_some());
    drop((migrated, restored));
    cleanup(&dir_migrated);
    cleanup(&dir_restored);
}

/// A recovered label is claimed only under the kind it was saved as, and
/// until it is claimed it is held, not lost: it counts as an orphan (held
/// but unmonitored) and the fleet's accounting still balances.
#[test]
fn unclaimed_and_mismatched_recovered_pairs_are_visible() {
    let dir = temp_dir("unclaimed");
    let label = |pair: usize| format!("memory-bus: pair {pair}");
    let mut fleet = ShardedFleet::with_store_root(fleet_config(2), &dir).unwrap();
    for pair in 0..6 {
        fleet.add_contention_pair(label(pair)).unwrap();
    }
    for _ in 0..12 {
        fleet.tick(&mut probe);
    }
    assert!(fleet.containment(0).unwrap().is_active());
    fleet.checkpoint().unwrap();
    drop(fleet);

    let orphans = |fleet: &ShardedFleet| {
        let scrape = fleet.render_prometheus();
        scrape
            .lines()
            .find_map(|l| l.strip_prefix("cchunter_fleet_orphaned_pairs "))
            .map(|v| v.parse::<f64>().unwrap())
            .unwrap()
    };
    let mut restored = ShardedFleet::with_store_root(fleet_config(2), &dir).unwrap();
    assert_eq!(orphans(&restored), 6.0);
    restored.verify_accounting().unwrap();

    let err = restored.add_oscillation_pair(label(0)).unwrap_err();
    assert!(
        matches!(err, DetectorError::CheckpointMismatch { .. }),
        "{err:?}"
    );
    assert!(restored.is_empty(), "a refused claim adds nothing");
    assert_eq!(orphans(&restored), 6.0, "the snapshot is still held");

    for pair in 0..4 {
        restored.add_contention_pair(label(pair)).unwrap();
    }
    assert_eq!(orphans(&restored), 2.0, "pairs 4 and 5 still unclaimed");
    restored.verify_accounting().unwrap();
    let contained = &restored.pair_statuses()[0];
    assert_eq!(contained.verdict, Verdict::Inconclusive);
    assert!(contained.containment.is_active());
    drop(restored);
    cleanup(&dir);
}

/// One unlabelled sample from `shard`'s registry.
fn shard_sample(fleet: &ShardedFleet, shard: usize, name: &str) -> f64 {
    fleet
        .shard_registry(shard)
        .unwrap()
        .samples()
        .into_iter()
        .find(|s| s.name == name)
        .map(|s| s.value)
        .unwrap_or_else(|| panic!("shard {shard} exports no {name}"))
}

/// A pair's events count in whichever shard hosts it: a migrated pair's
/// quarantine skips and a migrated healthy pair's analyses advance the
/// adoptive shard's counters, and after a revive the pairs walked home
/// advance the revived shard's new registry while the adoptive shard's
/// counters stop.
#[test]
fn shard_counters_follow_the_pair_across_kill_and_revive() {
    const ANALYZED: &str = "cchunter_pairs_analyzed_total";
    const LATENCY: &str = "cchunter_audit_latency_us_count";
    const SKIPS: &str = "cchunter_pairs_quarantine_skips_total";
    let dir = temp_dir("series");
    let mut config = quarantine_config(2);
    // Once open, the wedged pair stays quarantined for the whole test.
    config.base.quarantine.probe_interval = 1_000;
    config.base.checkpoint_every = 1;
    config.rebalance_per_tick = 8;
    let mut fleet = ShardedFleet::with_store_root(config, &dir).unwrap();
    let wedged = "memory-bus: wedged monitor";
    fleet.add_contention_pair(wedged).unwrap();
    let home = fleet.shard_of(0).unwrap();
    let healthy = (0..)
        .map(|i| format!("memory-bus: healthy {i}"))
        .find(|l| rendezvous_shard(pair_key(l), &[0, 1]) == Some(home))
        .unwrap();
    fleet.add_contention_pair(healthy.as_str()).unwrap();
    assert_eq!(fleet.shard_of(1), Some(home));
    let mut probe = |pair: usize, tick: u64, _attempt: u32| {
        if pair == 0 {
            Err(ProbeFault {
                reason: "hardware interface wedged".to_string(),
            })
        } else {
            Ok(PairInput::Harvest(Harvest::Complete(quiet_histogram(tick))))
        }
    };
    for _ in 0..4 {
        fleet.tick(&mut probe);
    }
    assert!(is_open(&fleet, 0), "the wedged pair must be quarantined");
    assert!(
        !fleet
            .render_prometheus()
            .contains("cchunter_shard_heartbeat_misses_total{"),
        "no shard has missed a heartbeat"
    );

    fleet.kill_shard(home).unwrap();
    let adoptive = fleet.shard_of(0).unwrap();
    assert_ne!(adoptive, home);
    assert_eq!(fleet.shard_of(1), Some(adoptive));
    // Both pairs lived on `home` so far: the adoptive shard counted nothing.
    assert_eq!(shard_sample(&fleet, adoptive, ANALYZED), 0.0);
    assert_eq!(shard_sample(&fleet, adoptive, SKIPS), 0.0);
    for _ in 0..3 {
        fleet.tick(&mut probe);
    }
    assert!(is_open(&fleet, 0), "the quarantine migrated with the pair");
    let series = |name| shard_sample(&fleet, adoptive, name);
    assert_eq!(series(SKIPS), 3.0, "the wedged pair's skips");
    assert_eq!(series(ANALYZED), 3.0, "the healthy pair's analyses");
    assert_eq!(series(LATENCY), 3.0, "only the healthy pair was analyzed");

    fleet.revive_shard(home).unwrap();
    // The first tick after the revive runs both pairs on the adoptive
    // shard, then its rebalance pass walks them home.
    fleet.tick(&mut probe);
    assert_eq!(fleet.shard_of(0), Some(home));
    assert_eq!(fleet.shard_of(1), Some(home));
    for _ in 0..2 {
        fleet.tick(&mut probe);
    }
    let series = |name| shard_sample(&fleet, home, name);
    assert_eq!(series(ANALYZED), 2.0);
    assert_eq!(series(LATENCY), 2.0);
    assert_eq!(series(SKIPS), 2.0);
    // The adoptive shard's counters stopped advancing when the pairs left.
    assert_eq!(shard_sample(&fleet, adoptive, ANALYZED), 4.0);
    assert_eq!(shard_sample(&fleet, adoptive, SKIPS), 4.0);
    // No scrape series names a pair but the fleet's top-k gauge.
    let scrape = fleet.render_prometheus();
    for line in scrape.lines().filter(|l| l.contains("pair=\"")) {
        assert!(line.starts_with("cchunter_suspicious_pair{"), "{line}");
    }
    let statuses = fleet.pair_statuses();
    assert_eq!(statuses[0].shard, Some(home));
    assert_eq!(statuses[1].shard, Some(home));
    fleet.verify_accounting().unwrap();
    drop(fleet);
    cleanup(&dir);
}

/// A slow probe holds the coordinator, not the shards: a shard's tick
/// time is its busy time summed over its chunks, so a probe that sleeps
/// twice the shard deadline late in the tick, after earlier chunks were
/// stepped (inline with one thread, beside it on the pool), makes no
/// shard miss its heartbeat.
#[test]
fn a_slow_probe_does_not_make_a_shard_miss_its_deadline() {
    const PAIRS: usize = 256;
    const DEADLINE_US: u64 = 150_000;
    let mut fleet = ShardedFleet::new(ShardedFleetConfig {
        shard_deadline_us: DEADLINE_US,
        ..fleet_config(2)
    })
    .unwrap();
    for pair in 0..PAIRS {
        fleet
            .add_contention_pair(format!("memory-bus: pair {pair}"))
            .unwrap();
    }
    let stall = Duration::from_micros(2 * DEADLINE_US);
    let mut slow = |pair: usize, tick: u64, attempt: u32| {
        if pair == PAIRS - 1 {
            std::thread::sleep(stall);
        }
        probe(pair, tick, attempt)
    };
    for tick in 0..3 {
        let started = Instant::now();
        let report = fleet.tick(&mut slow);
        assert!(started.elapsed() > stall);
        assert!(report.heartbeat_misses.is_empty(), "tick {tick}");
        for status in fleet.shard_statuses() {
            assert_eq!(status.tick_deadline_misses, 0, "tick {tick}");
            assert!(status.last_tick_us < DEADLINE_US, "tick {tick}");
        }
    }
}
