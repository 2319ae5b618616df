//! Property tests for the observability layer: counter exactness under the
//! worker-pool concurrency the audit engine actually uses, Prometheus
//! exposition round-tripping through a parser, fleet kill-and-restore
//! preserving monotonic counters from the persisted snapshot, and scrapes
//! and ticks carrying on over a poisoned family lock.

use cchunter_detector::density::{DensityHistogram, HISTOGRAM_BINS};
use cchunter_detector::metrics::{parse_prometheus, Registry, LATENCY_BUCKETS_US};
use cchunter_detector::online::Harvest;
use cchunter_detector::shard::{ShardedFleet, ShardedFleetConfig};
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

    // The sink panics while the shard registry's pair families print
    // their member labels, i.e. under the family locks.
    let registry = fleet.shard_registry(0).unwrap().clone();
    let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut sink = PanickingSink {
            trigger: "poisoned-bus",
        };
        let _ = std::fmt::write(&mut sink, format_args!("{registry:?}"));
    }));
    assert!(poisoned.is_err(), "the sink must have panicked mid-format");

    // A new pair resolves its handles from the poisoned families.
    fleet.add_contention_pair("late-bus").unwrap();
    for _ in 0..4 {
        fleet.tick(&mut probe);
    }
    let scrape = parse_prometheus(&fleet.render_prometheus());
    assert!(scrape.is_clean(), "{:?}", scrape.skipped);
    let analyzed = |pair: &str| {
        scrape
            .samples
            .iter()
            .find(|s| {
                s.name == "cchunter_pair_analyzed_total"
                    && s.labels.iter().any(|(k, v)| k == "pair" && v == pair)
            })
            .map(|s| s.value as u64)
    };
    assert_eq!(analyzed("poisoned-bus"), Some(7));
    assert_eq!(analyzed("late-bus"), Some(4));
    assert_eq!(fleet.metrics_snapshot().analyzed, 11);
    assert!(format!("{:?}", registry).contains("late-bus"));
}
