//! The detector benchmark suite, callable both from the `cargo bench`
//! harness (`benches/detector.rs`) and from the bench-runner binary
//! (`cargo run -p cchunter-bench --release`), which serializes the results
//! to `BENCH_detector.json`.

use crate::{bursty_train, covert_histogram, hostile_events, quantum_conflicts, random_blocks};
use cchunter_detector::auditor::ConflictRecord;
use cchunter_detector::autocorr::Autocorrelogram;
use cchunter_detector::burst::BurstDetector;
use cchunter_detector::cluster::{discretize, kmeans, LevelString};
use cchunter_detector::conflict::{GenerationTracker, IdealLruTracker, MissClassifier};
use cchunter_detector::density::{DensityHistogram, HISTOGRAM_BINS};
use cchunter_detector::ingest::{
    AdmissionConfig, IngestConfig, IngestPipeline, RawEvent, ShedPolicy,
};
use cchunter_detector::mitigation::MitigationConfig;
use cchunter_detector::online::{
    encode_slot, Harvest, OnlineContentionDetector, OnlineOscillationDetector,
};
use cchunter_detector::pipeline::symbol_series;
use cchunter_detector::shard::{ShardedFleet, ShardedFleetConfig};
use cchunter_detector::supervisor::{PairInput, ProbeFault, SupervisorConfig};
use cchunter_detector::{BloomFilter, CcHunter, CcHunterConfig, PairAudit, PairEvidence};
use criterion::{black_box, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Runs every detector benchmark against `c`.
pub fn detector_suite(c: &mut Criterion) {
    bench_autocorrelation(c);
    bench_symbol_autocorrelation(c);
    bench_batched_autocorrelation(c);
    bench_density(c);
    bench_arena_ingest(c);
    bench_hostile_ingest(c);
    bench_burst(c);
    bench_clustering(c);
    bench_online_push(c);
    bench_encode_slot(c);
    bench_oscillation_push(c);
    bench_audit_pairs(c);
    bench_sharded_tick(c);
    bench_mitigation_tick(c);
    bench_bloom(c);
    bench_trackers(c);
}

fn bench_autocorrelation(c: &mut Criterion) {
    let records = quantum_conflicts(10, 256);
    let series = symbol_series(&records, 0, u64::MAX);
    let samples = series.as_f64();
    c.bench_function("autocorrelogram_5120_events_1000_lags", |b| {
        b.iter(|| Autocorrelogram::compute(black_box(&samples), 1000))
    });
    // The direct lag-product reference the FFT path replaced; kept so the
    // speedup stays visible in every BENCH_detector.json.
    c.bench_function("autocorrelogram_5120_events_1000_lags_naive", |b| {
        b.iter(|| Autocorrelogram::compute_naive(black_box(&samples), 1000))
    });
}

fn bench_symbol_autocorrelation(c: &mut Criterion) {
    // The two production shapes of the oscillation push, through the exact
    // integer path: churn_1k's 4 032-symbol two-value train at 1 000 lags
    // (the transform), and a batch of fleet_10k's 128-symbol quanta
    // (periods 16..=30, the direct loop).
    let churn = symbol_series(&quantum_conflicts(21, 96), 0, u64::MAX);
    c.bench_function("autocorrelogram_churn_4032_symbols_1000_lags", |b| {
        b.iter(|| Autocorrelogram::of_symbols(black_box(&churn), 1000))
    });
    let fleet: Vec<_> = (8..16)
        .map(|sets| symbol_series(&quantum_conflicts(64 / sets as usize, sets), 0, u64::MAX))
        .collect();
    c.bench_function("autocorrelogram_fleet_8x128_symbols_1000_lags", |b| {
        b.iter(|| {
            for series in &fleet {
                black_box(Autocorrelogram::of_symbols(black_box(series), 1000));
            }
        })
    });
}

fn bench_batched_autocorrelation(c: &mut Criterion) {
    // Eight pairs' symbol series correlated in one batch: the planner reuses
    // one FFT plan (twiddles + scratch) across all eight same-length series.
    let records = quantum_conflicts(10, 256);
    let series = symbol_series(&records, 0, u64::MAX);
    let samples = series.as_f64();
    let batch: Vec<Vec<f64>> = (0..8).map(|_| samples.clone()).collect();
    c.bench_function("batched_autocorrelogram_8x5120", |b| {
        b.iter(|| Autocorrelogram::compute_batch(black_box(&batch), 1000))
    });
}

fn bench_arena_ingest(c: &mut Criterion) {
    // One full hardened-ingest quantum: offer 4096 clean, time-sorted
    // events with weighted runs under the default drop-oldest queue, then
    // the one-pass harvest. Steady state reuses the queue and windowing
    // scratch, so this measures the path end to end. It never sheds.
    let mut pipeline = IngestPipeline::new(IngestConfig {
        delta_t: 1_000,
        ..IngestConfig::default()
    })
    .expect("valid ingest config");
    let events: Vec<RawEvent> = (0..4_096u64)
        .map(|i| RawEvent {
            time: i * 100,
            weight: 1 + (i % 3) as u32,
            context: (i % 4) as u8,
        })
        .collect();
    c.bench_function("arena_ingest_quantum_4096_events", |b| {
        b.iter(|| {
            for &e in &events {
                pipeline.offer(e);
            }
            black_box(pipeline.end_quantum(0, 409_600))
        })
    });
}

fn bench_hostile_ingest(c: &mut Criterion) {
    // One quantum of churn_1k's hostile ingest pairs: 1 050 offers (600
    // clean, 450 the sanitizer drops, time travel among them) into a
    // 16 384-slot reservoir, over a 0.1 s quantum of 2 500 Δt windows.
    const QUANTUM: u64 = 250_000_000;
    let mut pipeline = IngestPipeline::new(IngestConfig {
        admission: AdmissionConfig {
            capacity: 1 << 14,
            policy: ShedPolicy::Reservoir { seed: 61 },
        },
        delta_t: 100_000,
        ..IngestConfig::default()
    })
    .expect("valid ingest config");
    let events = hostile_events(600, QUANTUM, 60);
    c.bench_function("ingest_quantum_hostile_reservoir", |b| {
        b.iter(|| {
            for &e in &events {
                pipeline.offer(e);
            }
            black_box(pipeline.end_quantum(0, QUANTUM))
        })
    });
}

fn bench_density(c: &mut Criterion) {
    let train = bursty_train(100, 25, 100_000);
    c.bench_function("density_histogram_2500_events", |b| {
        b.iter(|| {
            DensityHistogram::from_train(black_box(&train), 100_000, 0, 10_000_000)
                .expect("nonzero Δt")
        })
    });
}

fn bench_burst(c: &mut Criterion) {
    let histogram = covert_histogram(20, 2_500);
    let detector = BurstDetector::default();
    c.bench_function("burst_analyze", |b| {
        b.iter(|| detector.analyze(black_box(&histogram)))
    });
}

/// `n` pairwise-distinct bursty level strings, seeded: a heavy bin 0, light
/// contention at bins 1–3 and a burst cluster at bins 17–23, each of their
/// levels drawn at random. No string repeats: the worst case for k-means
/// over distinct strings.
fn distinct_level_strings(n: usize) -> Vec<LevelString> {
    let mut rng = SmallRng::seed_from_u64(0xD157_1AC7);
    let mut strings: Vec<LevelString> = Vec::with_capacity(n);
    while strings.len() < n {
        let mut s = [0; HISTOGRAM_BINS];
        s[0] = 12;
        for bin in (1..4).chain(17..24) {
            s[bin] = rng.gen_range(0..12);
        }
        if !strings.contains(&s) {
            strings.push(s);
        }
    }
    strings
}

fn bench_clustering(c: &mut Criterion) {
    // 512 quanta of discretized histograms: the paper's clustering window,
    // five distinct strings as a recurring channel produces.
    let strings: Vec<LevelString> = (0..512)
        .map(|i| discretize(&covert_histogram(18 + (i % 5), 2_500)))
        .collect();
    c.bench_function("kmeans_512_quanta_window", |b| {
        b.iter(|| kmeans(black_box(&strings), 3, 42, 50))
    });
    let distinct = distinct_level_strings(512);
    c.bench_function("kmeans_512_distinct_strings", |b| {
        b.iter(|| kmeans(black_box(&distinct), 3, 42, 50))
    });
}

fn bench_online_push(c: &mut Criterion) {
    // Steady state of the streaming daemon: a full 512-quantum window with
    // every push evicting the oldest slot.
    let mut daemon = OnlineContentionDetector::new(CcHunterConfig::default(), 512)
        .expect("512-quantum window is valid");
    let histograms: Vec<DensityHistogram> =
        (0..8).map(|i| covert_histogram(16 + i, 2_500)).collect();
    for i in 0..512usize {
        daemon.push_quantum(histograms[i % histograms.len()].clone());
    }
    let mut i = 0usize;
    c.bench_function("online_contention_push_512_window", |b| {
        b.iter(|| {
            i += 1;
            daemon.push_quantum(black_box(histograms[i % histograms.len()].clone()))
        })
    });
}

fn bench_encode_slot(c: &mut Criterion) {
    // The coordinator's per-harvest encoding at the probe, appended to a
    // batch cleared every 1 024 quanta as a tick clears it: a fleet_10k
    // benign quantum, idle windows with a decaying tail over bins 1–7.
    let mut bins = vec![0u64; HISTOGRAM_BINS];
    let mut level = 100.0f64;
    for bin in &mut bins[1..8] {
        *bin = level as u64;
        level *= 0.35;
    }
    bins[0] = 2_480 - bins.iter().sum::<u64>();
    let benign = DensityHistogram::from_bins(bins, 100_000).expect("128 bins, nonzero Δt");
    let mut batch = Vec::new();
    let mut filed = 0usize;
    c.bench_function("encode_slot_benign_quantum", |b| {
        b.iter(|| {
            filed += 1;
            if filed.is_multiple_of(1_024) {
                batch.clear();
            }
            encode_slot(black_box(&benign), &mut batch);
        })
    });
}

fn bench_oscillation_push(c: &mut Criterion) {
    // Steady state of a fleet_10k oscillation pair: a full 64-quantum
    // window fed 128-record quanta in turn, four periodic (groups of 2 to
    // 16 sets) and four of unpatterned contexts (about 96 symbols each
    // once same-context records drop).
    let mut rng = SmallRng::seed_from_u64(128);
    let mut quanta: Vec<Vec<ConflictRecord>> = [2u64, 4, 8, 16]
        .map(|sets| quantum_conflicts(64 / sets as usize, sets))
        .into();
    quanta.extend((0..4).map(|_| {
        let mut cycle = 0u64;
        (0..128)
            .map(|_| {
                cycle += rng.gen_range(50..400u64);
                ConflictRecord {
                    cycle,
                    replacer: rng.gen_range(0..4u8),
                    victim: rng.gen_range(0..4u8),
                }
            })
            .collect()
    }));
    let mut daemon = OnlineOscillationDetector::new(CcHunterConfig::default(), 64)
        .expect("64-quantum window is valid");
    for i in 0..64usize {
        daemon.push_quantum(&quanta[i % quanta.len()]);
    }
    let mut i = 0usize;
    c.bench_function("online_oscillation_push_128_records", |b| {
        b.iter(|| {
            i += 1;
            daemon.push_quantum(black_box(&quanta[i % quanta.len()]))
        })
    });
}

fn bench_audit_pairs(c: &mut Criterion) {
    // Eight principal pairs with 64-quantum contention windows each: the
    // multi-pair fan-out the parallel audit engine targets.
    let hunter = CcHunter::new(CcHunterConfig::default());
    let audits: Vec<PairAudit> = (0..8)
        .map(|pair| PairAudit {
            label: format!("memory-bus: pair {pair}"),
            evidence: PairEvidence::Contention(
                (0..64)
                    .map(|q| Harvest::Complete(covert_histogram(14 + ((pair + q) % 7), 2_500)))
                    .collect(),
            ),
        })
        .collect();
    c.bench_function("audit_8_pairs_serial", |b| {
        b.iter(|| {
            audits
                .iter()
                .map(|a| hunter.audit_pair(black_box(a)))
                .collect::<Vec<_>>()
        })
    });
    c.bench_function("audit_8_pairs_parallel", |b| {
        b.iter(|| hunter.audit_pairs(black_box(&audits)))
    });

    // A wider fan-out through the batch engine: 64 pairs with 16-quantum
    // windows each, stressing planner/scratch reuse across many pairs
    // rather than depth within one.
    let wide: Vec<PairAudit> = (0..64)
        .map(|pair| PairAudit {
            label: format!("memory-bus: pair {pair}"),
            evidence: PairEvidence::Contention(
                (0..16)
                    .map(|q| Harvest::Complete(covert_histogram(14 + ((pair + q) % 7), 2_500)))
                    .collect(),
            ),
        })
        .collect();
    c.bench_function("audit_64_pairs_batched", |b| {
        b.iter(|| hunter.audit_pairs(black_box(&wide)))
    });
}

fn bench_sharded_tick(c: &mut Criterion) {
    // One tick of an 8-pair fleet at steady state (full 64-quantum
    // windows) on a single shard: the per-quantum cost of the whole
    // supervision layer — breaker-gated probe dispatch, watchdogged
    // parallel analysis, breaker bookkeeping, heartbeat settle — on top of
    // the raw per-pair pushes. The second shape spreads 64 pairs across 8
    // failure domains — the per-tick cost of a realistically partitioned
    // fleet.
    let histograms: Vec<DensityHistogram> = (0..8)
        .map(|i| covert_histogram(14 + (i % 7), 2_500))
        .collect();
    for (pairs, shards) in [(8usize, 1usize), (64, 8)] {
        let config = ShardedFleetConfig {
            shards,
            base: SupervisorConfig {
                window_quanta: 64,
                ..SupervisorConfig::default()
            },
            ..ShardedFleetConfig::default()
        };
        let mut fleet = ShardedFleet::new(config).expect("valid fleet config");
        for pair in 0..pairs {
            fleet
                .add_contention_pair(format!("memory-bus: pair {pair}"))
                .expect("valid pair config");
        }
        let mut source = |pair: usize, tick: u64, _attempt: u32| {
            Ok::<_, ProbeFault>(PairInput::Harvest(Harvest::Complete(
                histograms[(pair + tick as usize) % histograms.len()].clone(),
            )))
        };
        for _ in 0..64 {
            fleet.tick(&mut source);
        }
        let name = format!(
            "sharded_tick_{pairs}_pairs_{shards}_shard{}",
            if shards == 1 { "" } else { "s" }
        );
        c.bench_function(&name, |b| b.iter(|| black_box(fleet.tick(&mut source))));
    }
}

fn bench_mitigation_tick(c: &mut Criterion) {
    // The one-shard fleet tick with the containment layer fully engaged:
    // every pair convicted, its ladder driven each tick (streak
    // bookkeeping, enforcement calls, metrics) — the marginal cost of
    // closed-loop mitigation over plain supervision.
    let config = ShardedFleetConfig {
        shards: 1,
        base: SupervisorConfig {
            window_quanta: 64,
            mitigation: MitigationConfig {
                convict_streak: 2,
                ..MitigationConfig::default()
            },
            ..SupervisorConfig::default()
        },
        ..ShardedFleetConfig::default()
    };
    let mut fleet = ShardedFleet::new(config).expect("valid fleet config");
    for pair in 0..8 {
        fleet
            .add_contention_pair(format!("memory-bus: pair {pair}"))
            .expect("valid pair config");
    }
    let histograms: Vec<DensityHistogram> = (0..8)
        .map(|i| covert_histogram(14 + (i % 7), 2_500))
        .collect();
    let mut source = |pair: usize, tick: u64, _attempt: u32| {
        Ok::<_, ProbeFault>(PairInput::Harvest(Harvest::Complete(
            histograms[(pair + tick as usize) % histograms.len()].clone(),
        )))
    };
    // Warm past conviction so every pair holds an active containment.
    for _ in 0..64 {
        fleet.tick(&mut source);
    }
    assert!(fleet.metrics_snapshot().contained_pairs > 0);
    c.bench_function("mitigation_tick_8_pairs_contained", |b| {
        b.iter(|| black_box(fleet.tick(&mut source)))
    });
}

fn bench_bloom(c: &mut Criterion) {
    let blocks = random_blocks(4_096, 4_096, 7);
    c.bench_function("bloom_insert_4096", |b| {
        b.iter(|| {
            let mut f = BloomFilter::new(4_096, 3).expect("nonzero bits and hashes");
            for &k in &blocks {
                f.insert(k);
            }
            f
        })
    });
    let mut filter = BloomFilter::new(4_096, 3).expect("nonzero bits and hashes");
    for &k in &blocks[..1024] {
        filter.insert(k);
    }
    c.bench_function("bloom_query", |b| {
        b.iter(|| {
            blocks
                .iter()
                .filter(|&&k| filter.contains(black_box(k)))
                .count()
        })
    });
}

fn bench_trackers(c: &mut Criterion) {
    let accesses = random_blocks(100_000, 8_192, 11);
    c.bench_function("generation_tracker_100k_accesses", |b| {
        b.iter(|| {
            let mut t = GenerationTracker::for_cache(4_096).expect("at least 4 blocks");
            for &block in &accesses {
                if t.classify_miss(block).is_conflict() {
                    black_box(());
                }
                t.record_access(block);
            }
            t
        })
    });
    c.bench_function("ideal_lru_tracker_100k_accesses", |b| {
        b.iter(|| {
            let mut t = IdealLruTracker::new(4_096).expect("nonzero capacity");
            for &block in &accesses {
                if t.classify_miss(block).is_conflict() {
                    black_box(());
                }
                t.record_access(block);
            }
            t
        })
    });
}
