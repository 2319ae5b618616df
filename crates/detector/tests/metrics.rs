//! Property tests for the observability layer: counter exactness under the
//! worker-pool concurrency the audit engine actually uses, Prometheus
//! exposition round-tripping through a parser, fleet kill-and-restore
//! preserving monotonic counters from the persisted snapshot, scrapes
//! and ticks carrying on over a poisoned family lock, `metrics_snapshot`
//! totals pinned across a scripted fault run, and a scrape whose size is
//! bounded by configuration rather than by the pair count.

use cchunter_detector::density::{DensityHistogram, HISTOGRAM_BINS};
use cchunter_detector::fault::FleetFault;
use cchunter_detector::metrics::{parse_prometheus, Registry, LATENCY_BUCKETS_US};
use cchunter_detector::mitigation::{
    ApplyError, MitigationConfig, MitigationEnforcer, MitigationLevel,
};
use cchunter_detector::online::Harvest;
use cchunter_detector::policy::{BackoffConfig, QuarantineConfig};
use cchunter_detector::shard::{ShardedFleet, ShardedFleetConfig, TOP_SUSPICIOUS};
use cchunter_detector::span::Tracer;
use cchunter_detector::supervisor::{PairInput, ProbeFault, SupervisorConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cchunter-metrics-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cleanup(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Counters and histograms are exact (no lost updates) under `par_map` —
/// the same worker-pool fan-out `try_audit_pairs` uses — for arbitrary
/// seeded increment schedules.
#[test]
fn counters_are_exact_under_par_map_concurrency() {
    let mut rng = SmallRng::seed_from_u64(0xC0FF_EE00);
    for trial in 0..4 {
        let registry = Registry::new();
        let counter = registry.counter("test_hits_total", "test");
        let hist = registry.histogram("test_latency_us", "test", &LATENCY_BUCKETS_US);
        let family = registry.counter_family("test_pair_hits_total", "test", "pair");
        let jobs: Vec<(u64, usize)> = (0..64)
            .map(|_| (rng.gen_range(1..200u64), rng.gen_range(0..5usize)))
            .collect();
        let expected_total: u64 = jobs.iter().map(|(n, _)| n).sum();
        let counter = Arc::new(counter);
        let hist = Arc::new(hist);
        let family = Arc::new(family);
        let results = threadpool::par_map(&jobs, {
            let counter = Arc::clone(&counter);
            let hist = Arc::clone(&hist);
            let family = Arc::clone(&family);
            move |&(n, pair)| {
                for i in 0..n {
                    counter.inc();
                    hist.observe((i % 97) as f64);
                    family.with_label(&format!("pair-{pair}")).inc();
                }
                n
            }
        });
        assert_eq!(results.iter().sum::<u64>(), expected_total, "trial {trial}");
        assert_eq!(counter.get(), expected_total, "trial {trial}");
        assert_eq!(hist.count(), expected_total, "trial {trial}");
        let per_pair: u64 = family.snapshot().iter().map(|(_, c)| c.get()).sum();
        assert_eq!(per_pair, expected_total, "trial {trial}");
    }
}

/// Counter exactness holds through `par_catch_map` even when a fraction of
/// jobs panic mid-increment: completed increments are never lost, and the
/// total matches exactly what ran.
#[test]
fn counters_survive_contained_panics_under_par_catch_map() {
    let registry = Registry::new();
    let counter = Arc::new(registry.counter("test_survivor_total", "test"));
    let jobs: Vec<u64> = (0..48).collect();
    let results = threadpool::par_catch_map(&jobs, {
        let counter = Arc::clone(&counter);
        move |&job| {
            // Increment first, then panic on every 7th job: the increment
            // must still be visible (counters are atomics, not
            // transactional).
            counter.inc();
            if job % 7 == 0 {
                panic!("chaos job {job}");
            }
            job
        }
    });
    let panicked = results.iter().filter(|r| r.is_err()).count();
    assert_eq!(panicked, 7, "jobs 0,7,..,42 panic");
    assert_eq!(counter.get(), jobs.len() as u64);
}

/// Prometheus text exposition round-trips through the parser: every
/// instrument kind (counter, gauge, histogram, labeled families) comes
/// back with its exact value, for arbitrary seeded contents.
#[test]
fn prometheus_exposition_round_trips_through_parser() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_CAFE);
    for trial in 0..8 {
        let registry = Registry::new();
        let counter = registry.counter("rt_ops_total", "ops");
        let gauge = registry.gauge("rt_level", "level");
        let hist = registry.histogram("rt_latency_us", "latency", &LATENCY_BUCKETS_US);
        let family = registry.counter_family("rt_pair_ops_total", "per-pair ops", "pair");

        let n = rng.gen_range(1..500u64);
        counter.inc_by(n);
        let level = rng.gen_range(-50.0..50.0f64);
        gauge.set(level);
        let observations = rng.gen_range(1..100usize);
        for _ in 0..observations {
            hist.observe(rng.gen_range(0.0..5_000.0));
        }
        let pairs = rng.gen_range(1..6usize);
        let mut per_pair = Vec::new();
        for p in 0..pairs {
            let hits = rng.gen_range(1..50u64);
            family.with_label(&format!("p{p}")).inc_by(hits);
            per_pair.push(hits);
        }

        let text = registry.render_prometheus();
        let scrape = parse_prometheus(&text);
        assert!(scrape.is_clean(), "trial {trial}: {:?}", scrape.skipped);
        let parsed = scrape.samples;
        let find = |name: &str, labels: &[(&str, &str)]| -> f64 {
            parsed
                .iter()
                .find(|s| {
                    s.name == name
                        && s.labels.len() == labels.len()
                        && labels
                            .iter()
                            .all(|(k, v)| s.labels.iter().any(|(pk, pv)| pk == k && pv == v))
                })
                .unwrap_or_else(|| panic!("trial {trial}: sample {name} {labels:?} missing"))
                .value
        };

        assert_eq!(find("rt_ops_total", &[]) as u64, n, "trial {trial}");
        assert!(
            (find("rt_level", &[]) - level).abs() < 1e-9,
            "trial {trial}"
        );
        assert_eq!(
            find("rt_latency_us_count", &[]) as u64,
            observations as u64,
            "trial {trial}"
        );
        assert!(
            (find("rt_latency_us_sum", &[]) - hist.sum()).abs() < 1e-6,
            "trial {trial}"
        );
        // The +Inf bucket always equals the count.
        assert_eq!(
            find("rt_latency_us_bucket", &[("le", "+Inf")]) as u64,
            observations as u64,
            "trial {trial}"
        );
        for (p, hits) in per_pair.iter().enumerate() {
            let label = format!("p{p}");
            assert_eq!(
                find("rt_pair_ops_total", &[("pair", label.as_str())]) as u64,
                *hits,
                "trial {trial}"
            );
        }
    }
}

/// Kill-and-restore property for fleet metrics: after a crash, restoring
/// from the persisted snapshot re-seeds the monotonic counters (ticks,
/// per-pair failures/retries) so they never move backwards, at arbitrary
/// kill points.
#[test]
fn restore_reseeds_monotonic_counters_at_arbitrary_kill_points() {
    let mut probe = |pair: usize, tick: u64, attempt: u32| -> Result<PairInput, ProbeFault> {
        // Pair 0 fails every attempt on each 5th tick (a hard failure) and
        // misses only its first attempt on each 3rd (a retried slip), so
        // the failure AND retry counters both advance.
        if pair == 0 && tick.is_multiple_of(5) {
            return Err(ProbeFault {
                reason: "hard probe fault".to_string(),
            });
        }
        if pair == 0 && attempt == 0 && tick.is_multiple_of(3) {
            return Err(ProbeFault {
                reason: "transient slip".to_string(),
            });
        }
        let mut bins = vec![0u64; HISTOGRAM_BINS];
        bins[0] = 2_400 + tick % 7;
        bins[20] = 150;
        let hist = DensityHistogram::from_bins(bins, 100_000).unwrap();
        Ok(PairInput::Harvest(Harvest::Complete(hist)))
    };
    let config = ShardedFleetConfig {
        shards: 1,
        base: SupervisorConfig {
            window_quanta: 16,
            ..SupervisorConfig::default()
        },
        ..ShardedFleetConfig::default()
    };
    // Every fleet process owns fresh registries; reopening the store root
    // and naming the pairs again is the restart.
    let build = |dir: &Path| {
        let mut fleet = ShardedFleet::with_store_root(config.clone(), dir)
            .unwrap()
            .with_tracer(Tracer::disabled());
        fleet.add_contention_pair("flaky-bus").unwrap();
        fleet.add_contention_pair("steady-bus").unwrap();
        fleet
    };

    let mut rng = SmallRng::seed_from_u64(0xDEAD_1E55);
    for trial in 0..4 {
        let kill_at = rng.gen_range(3..20u64);
        let dir = temp_dir(&format!("reseed-{trial}"));
        let mut fleet = build(&dir);
        for _ in 0..kill_at {
            fleet.tick(&mut probe);
        }
        fleet.checkpoint().unwrap();
        let before = fleet.metrics_snapshot();
        assert!(before.failures > 0, "trial {trial}: probe plan must fail");
        drop(fleet);

        // A "new process": fresh registries, state only from the store.
        let mut restored = build(&dir);
        let after = restored.metrics_snapshot();
        assert_eq!(after.ticks, before.ticks, "trial {trial}");
        assert_eq!(after.failures, before.failures, "trial {trial}");
        assert_eq!(after.retries, before.retries, "trial {trial}");

        // The persisted counters are visible in the fresh registry's
        // exposition, and keep counting monotonically from there.
        let text = restored.render_prometheus();
        let scrape = parse_prometheus(&text);
        assert!(scrape.is_clean(), "trial {trial}: {:?}", scrape.skipped);
        let ticks_sample = scrape
            .samples
            .iter()
            .find(|s| s.name == "cchunter_fleet_ticks_total")
            .expect("seeded tick counter is exposed");
        assert_eq!(ticks_sample.value as u64, kill_at, "trial {trial}");
        let shard_ticks = scrape
            .samples
            .iter()
            .find(|s| s.name == "cchunter_supervisor_ticks_total")
            .expect("seeded shard tick counter is exposed");
        assert_eq!(shard_ticks.value as u64, kill_at, "trial {trial}");

        for _ in 0..5 {
            restored.tick(&mut probe);
        }
        let later = restored.metrics_snapshot();
        assert_eq!(later.ticks, kill_at + 5, "trial {trial}");
        assert!(later.failures >= after.failures, "trial {trial}");
        // 5 post-restore ticks x 2 pairs, minus at most one failing tick
        // for the flaky pair.
        assert!(
            later.analyzed >= 9,
            "trial {trial}: post-restore audits must be counted"
        );
        drop(restored);
        cleanup(&dir);
    }
}

/// A formatting sink that panics on the first write containing `trigger`:
/// formatting a registry into it panics while a family lock is held.
struct PanickingSink {
    trigger: &'static str,
}

impl std::fmt::Write for PanickingSink {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        assert!(!s.contains(self.trigger), "sink refused {s:?}");
        Ok(())
    }
}

/// A panic while a family (and registry) lock is held poisons the lock;
/// later scrapes, pair additions and ticks must carry on over the poison
/// instead of panicking in library code.
#[test]
fn poisoned_family_lock_still_scrapes_and_ticks() {
    let mut fleet = ShardedFleet::new(ShardedFleetConfig {
        shards: 1,
        base: SupervisorConfig {
            window_quanta: 8,
            ..SupervisorConfig::default()
        },
        ..ShardedFleetConfig::default()
    })
    .unwrap()
    .with_tracer(Tracer::disabled());
    fleet.add_contention_pair("poisoned-bus").unwrap();
    let mut probe = |_pair: usize, tick: u64, _attempt: u32| -> Result<PairInput, ProbeFault> {
        let mut bins = vec![0u64; HISTOGRAM_BINS];
        bins[0] = 2_400 + tick % 7;
        bins[1] = 5;
        Ok(PairInput::Harvest(Harvest::Complete(
            DensityHistogram::from_bins(bins, 100_000).unwrap(),
        )))
    };
    for _ in 0..3 {
        fleet.tick(&mut probe);
    }

    // The scrape fills the coordinator's top-k family; the sink panics
    // while that family prints its member labels, i.e. under the family
    // lock.
    let _ = fleet.render_prometheus();
    let registry = fleet.registry().clone();
    let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut sink = PanickingSink {
            trigger: "poisoned-bus",
        };
        let _ = std::fmt::write(&mut sink, format_args!("{registry:?}"));
    }));
    assert!(poisoned.is_err(), "the sink must have panicked mid-format");

    // A new pair joins, and the next scrapes refill the poisoned family.
    fleet.add_contention_pair("late-bus").unwrap();
    for _ in 0..4 {
        fleet.tick(&mut probe);
    }
    let scrape = parse_prometheus(&fleet.render_prometheus());
    assert!(scrape.is_clean(), "{:?}", scrape.skipped);
    let ranked = |pair: &str| {
        scrape.samples.iter().any(|s| {
            s.name == "cchunter_suspicious_pair"
                && s.labels.iter().any(|(k, v)| k == "pair" && v == pair)
        })
    };
    assert!(ranked("poisoned-bus") && ranked("late-bus"));
    let analyzed = scrape
        .samples
        .iter()
        .find(|s| s.name == "cchunter_pairs_analyzed_total")
        .map(|s| s.value as u64);
    assert_eq!(analyzed, Some(11));
    assert_eq!(fleet.metrics_snapshot().analyzed, 11);
    assert!(format!("{:?}", registry).contains("late-bus"));
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

/// A benign per-quantum histogram, varied by tick.
fn quiet_histogram(tick: u64) -> DensityHistogram {
    let mut bins = vec![0u64; HISTOGRAM_BINS];
    bins[0] = 2_490 + (tick % 9);
    bins[1] = 5;
    DensityHistogram::from_bins(bins, 100_000).unwrap()
}

/// Refuses every flush-on-switch rung, so containment must escalate.
struct RefuseFlush;

impl MitigationEnforcer for RefuseFlush {
    fn apply(&mut self, _pair: usize, level: MitigationLevel) -> Result<(), ApplyError> {
        if level == MitigationLevel::FlushOnSwitch {
            return Err(ApplyError {
                reason: "flush-on-switch unsupported".to_string(),
            });
        }
        Ok(())
    }

    fn release(&mut self, _pair: usize, _level: MitigationLevel) -> Result<(), ApplyError> {
        Ok(())
    }
}

/// `metrics_snapshot()` totals do not depend on how the scrape is laid
/// out: one scripted run with probe retries, a quarantine, a contained
/// panic, containment with a step-down and a migration reproduces the
/// totals recorded from the per-pair-series implementation it replaced.
#[test]
fn metrics_snapshot_totals_are_pinned_across_a_scripted_run() {
    let dir = temp_dir("pinned-totals");
    let config = ShardedFleetConfig {
        shards: 2,
        base: SupervisorConfig {
            window_quanta: 8,
            checkpoint_every: 1,
            backoff: BackoffConfig {
                max_retries: 2,
                ..BackoffConfig::default()
            },
            quarantine: QuarantineConfig {
                failure_window: 4,
                trip_threshold: 0.5,
                min_observations: 2,
                probe_interval: 3,
                recovery_successes: 1,
                confidence_decay: 0.5,
            },
            mitigation: MitigationConfig {
                step_down_streak: 2,
                ..MitigationConfig::default()
            },
            ..SupervisorConfig::default()
        },
        rebalance_per_tick: 8,
        ..ShardedFleetConfig::default()
    };
    let mut fleet = ShardedFleet::with_store_root(config, &dir)
        .unwrap()
        .with_tracer(Tracer::disabled());
    for pair in 0..8 {
        fleet
            .add_contention_pair(format!("memory-bus: pair {pair}"))
            .unwrap();
    }
    for shard in 0..2 {
        fleet.set_enforcer(shard, Box::new(RefuseFlush)).unwrap();
    }
    // Pair 0 is covert until tick 16, pair 1 slips its first probe every
    // other tick, pair 2 is wedged until tick 14, and one pair on the shard
    // that survives the kill panics once at tick 2.
    let victim = fleet.shard_of(2).unwrap();
    let chaotic = (3..8).find(|&p| fleet.shard_of(p) != Some(victim)).unwrap();
    let mut probe = |pair: usize, tick: u64, attempt: u32| -> Result<PairInput, ProbeFault> {
        match pair {
            1 if tick % 2 == 1 && attempt == 0 => Err(ProbeFault {
                reason: "transient slip".to_string(),
            }),
            2 if tick < 14 => Err(ProbeFault {
                reason: "hardware interface wedged".to_string(),
            }),
            0 if tick < 16 => Ok(PairInput::Harvest(Harvest::Complete(covert_histogram(
                tick,
            )))),
            _ => Ok(PairInput::Harvest(Harvest::Complete(quiet_histogram(tick)))),
        }
    };
    for tick in 0..10 {
        if tick == 2 {
            fleet.arm(FleetFault::PairPanic(chaotic, 1)).unwrap();
        }
        fleet.tick(&mut probe);
    }
    assert!(fleet.containment(0).unwrap().is_active());
    fleet.report_residual(0, 0.01, 0.0).unwrap();
    assert_eq!(fleet.shard_of(2), Some(victim));
    fleet.kill_shard(victim).unwrap();
    for _ in 0..4 {
        fleet.tick(&mut probe);
    }
    fleet.revive_shard(victim).unwrap();
    for _ in 0..12 {
        fleet.tick(&mut probe);
    }
    fleet.verify_accounting().unwrap();
    let s = fleet.metrics_snapshot();
    let totals = [
        s.analyzed,
        s.degraded,
        s.quarantine_skips,
        s.verdict_flips,
        s.breaker_transitions,
        s.recoveries,
        s.failures,
        s.retries,
        s.panics,
        s.mitigations_applied,
        s.mitigation_failures,
        s.mitigation_escalations,
        s.mitigation_stepdowns,
    ];
    // Recorded from the per-pair-series implementation (one `pair`-labelled
    // family per counter) on this exact script: analyzed, degraded,
    // quarantine skips, verdict flips, breaker transitions, recoveries,
    // failures, retries, panics, then mitigations applied, refused,
    // escalated and stepped down.
    assert_eq!(totals, [171, 2, 4, 7, 1, 1, 7, 25, 1, 5, 4, 3, 2], "{s:?}");
    drop(fleet);
    cleanup(&dir);
}

/// Non-comment, non-blank lines of a Prometheus exposition.
fn series_count(scrape: &str) -> usize {
    scrape
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .count()
}

/// Asserts that no shard-labelled series names a pair the shard does not
/// host right now.
fn assert_no_stale_pair_series(fleet: &ShardedFleet) {
    let statuses = fleet.pair_statuses();
    let scrape = parse_prometheus(&fleet.render_prometheus());
    for sample in &scrape.samples {
        let label = |name: &str| {
            sample
                .labels
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.as_str())
        };
        let (Some(shard), Some(pair)) = (label("shard"), label("pair")) else {
            continue;
        };
        let host = statuses
            .iter()
            .find(|s| s.label == pair)
            .and_then(|s| s.shard);
        assert_eq!(
            host.map(|h| h.to_string()).as_deref(),
            Some(shard),
            "{} names {pair:?} on shard {shard}",
            sample.name
        );
    }
}

/// A fleet of `pairs` quiet contention pairs over 4 shards.
fn quiet_fleet(pairs: usize, store: Option<&Path>) -> ShardedFleet {
    let config = ShardedFleetConfig {
        shards: 4,
        base: SupervisorConfig {
            window_quanta: 8,
            checkpoint_every: 1,
            ..SupervisorConfig::default()
        },
        rebalance_per_tick: pairs,
        ..ShardedFleetConfig::default()
    };
    let fleet = match store {
        Some(dir) => ShardedFleet::with_store_root(config, dir).unwrap(),
        None => ShardedFleet::new(config).unwrap(),
    };
    let mut fleet = fleet.with_tracer(Tracer::disabled());
    for pair in 0..pairs {
        fleet
            .add_contention_pair(format!("memory-bus: pair {pair}"))
            .unwrap();
    }
    fleet
}

fn quiet_probe(_pair: usize, tick: u64, _attempt: u32) -> Result<PairInput, ProbeFault> {
    Ok(PairInput::Harvest(Harvest::Complete(quiet_histogram(tick))))
}

/// A scrape's size is bounded by configuration, never by data: a 2 048-pair
/// fleet exports at most [`TOP_SUSPICIOUS`] more series than a 64-pair one
/// on the same shards, and kill → migrate → revive → rebalance neither
/// grows the scrape nor leaves a pair's series behind on a shard it left.
#[test]
fn scrape_cardinality_is_bounded_by_configuration() {
    let mut small = quiet_fleet(64, None);
    let mut large = quiet_fleet(2_048, None);
    for _ in 0..3 {
        small.tick(&mut quiet_probe);
        large.tick(&mut quiet_probe);
    }
    let (a, b) = (
        series_count(&small.render_prometheus()),
        series_count(&large.render_prometheus()),
    );
    assert!(
        a.abs_diff(b) <= TOP_SUSPICIOUS,
        "64 pairs: {a} series, 2048 pairs: {b}"
    );
    drop((small, large));

    let dir = temp_dir("cardinality");
    let mut fleet = quiet_fleet(64, Some(&dir));
    for _ in 0..3 {
        fleet.tick(&mut quiet_probe);
    }
    let before = series_count(&fleet.render_prometheus());
    let victim = fleet.shard_of(0).unwrap();
    let homes: Vec<Option<usize>> = (0..64).map(|p| fleet.shard_of(p)).collect();

    let migration = fleet.kill_shard(victim).unwrap();
    assert!(migration.migrated > 0);
    assert_eq!(
        series_count(&fleet.render_prometheus()),
        before,
        "after kill"
    );
    assert_no_stale_pair_series(&fleet);
    for _ in 0..2 {
        fleet.tick(&mut quiet_probe);
    }
    assert_eq!(
        series_count(&fleet.render_prometheus()),
        before,
        "after migration"
    );
    assert_no_stale_pair_series(&fleet);

    fleet.revive_shard(victim).unwrap();
    fleet.tick(&mut quiet_probe);
    let now: Vec<Option<usize>> = (0..64).map(|p| fleet.shard_of(p)).collect();
    assert_eq!(now, homes, "the rebalance walked every pair home");
    for _ in 0..2 {
        fleet.tick(&mut quiet_probe);
    }
    assert_eq!(
        series_count(&fleet.render_prometheus()),
        before,
        "after rebalance"
    );
    assert_no_stale_pair_series(&fleet);
    fleet.verify_accounting().unwrap();
    drop(fleet);
    cleanup(&dir);
}
