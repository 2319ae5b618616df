//! Property-based tests for the detector's core data structures and
//! invariants.
//!
//! The properties are exercised by a hand-rolled deterministic harness (the
//! build environment has no crates.io access for proptest): each property
//! runs over `CASES` seeded random inputs, and every assertion message
//! carries the case seed so a failure reproduces directly.

use cchunter_detector::auditor::{AuditorConfig, CcAuditor, HardwareUnit, Privilege};
use cchunter_detector::autocorr::Autocorrelogram;
use cchunter_detector::cluster::{discretize, kmeans, LevelString};
use cchunter_detector::conflict::{
    ConflictClass, GenerationTracker, IdealLruTracker, MissClassifier,
};
use cchunter_detector::density::{DensityHistogram, HISTOGRAM_BINS};
use cchunter_detector::events::{EventTrain, SymbolSeries};
use cchunter_detector::indicator::{
    indicator_by_name, score_sequences_in, Indicator, WindowObservation,
};
use cchunter_detector::BloomFilter;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

// The `f64` k-means oracle of the crate's own tests reaches `batch` and
// `cluster` through this root.
use cchunter_detector::{batch, cluster};
#[path = "../src/kmeans_f64.rs"]
mod kmeans_f64;

const CASES: u64 = 48;

/// Sorted event times within a bounded horizon.
fn times(rng: &mut SmallRng, max_len: usize, horizon: u64) -> Vec<u64> {
    let len = rng.gen_range(0..max_len);
    let mut v: Vec<u64> = (0..len).map(|_| rng.gen_range(0..horizon)).collect();
    v.sort_unstable();
    v
}

#[test]
fn autocorrelation_is_bounded_and_one_at_lag_zero() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xA070_0000 + case);
        let n = rng.gen_range(3usize..200);
        let samples: Vec<f64> = (0..n).map(|_| rng.gen_range(-100.0..100.0)).collect();
        let max_lag = rng.gen_range(1usize..64);
        let c = Autocorrelogram::compute(&samples, max_lag);
        let variance: f64 = {
            let mean = samples.iter().sum::<f64>() / samples.len() as f64;
            samples.iter().map(|x| (x - mean) * (x - mean)).sum()
        };
        if variance > 1e-9 {
            assert!((c.coefficient(0) - 1.0).abs() < 1e-9, "case {case}");
        }
        for lag in 0..=max_lag {
            assert!(
                c.coefficient(lag).abs() <= 1.0 + 1e-9,
                "case {case} lag {lag}"
            );
        }
    }
}

#[test]
fn histogram_window_count_is_exact() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xB170_0000 + case);
        let train = EventTrain::from_times(times(&mut rng, 300, 1_000_000));
        let delta_t = rng.gen_range(1u64..10_000);
        let h = DensityHistogram::from_train(&train, delta_t, 0, 1_000_000).unwrap();
        assert_eq!(
            h.total_windows(),
            1_000_000u64.div_ceil(delta_t),
            "case {case}"
        );
        assert_eq!(
            h.bins().iter().sum::<u64>(),
            h.total_windows(),
            "case {case}"
        );
    }
}

#[test]
fn histogram_preserves_unsaturated_event_mass() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xC270_0000 + case);
        // With ≤120 events, saturation at bin 127 cannot occur, so every
        // event lands in a bin at its exact density.
        let times: Vec<u64> = times(&mut rng, 200, 100_000)
            .into_iter()
            .take(120)
            .collect();
        let delta_t = rng.gen_range(1_000u64..50_000);
        let train = EventTrain::from_times(times);
        let h = DensityHistogram::from_train(&train, delta_t, 0, 100_000).unwrap();
        let mass: u64 = h
            .bins()
            .iter()
            .enumerate()
            .map(|(bin, &f)| bin as u64 * f)
            .sum();
        assert_eq!(mass, train.total_events(), "case {case}");
    }
}

#[test]
fn histogram_merge_equals_concatenated_accumulation() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD370_0000 + case);
        let a = times(&mut rng, 150, 50_000);
        let b = times(&mut rng, 150, 50_000);
        let delta_t = rng.gen_range(100u64..5_000);
        let ta = EventTrain::from_times(a);
        let tb = EventTrain::from_times(b.iter().map(|t| t + 50_000).collect());
        let mut merged = DensityHistogram::from_train(&ta, delta_t, 0, 50_000).unwrap();
        merged
            .merge(&DensityHistogram::from_train(&tb, delta_t, 50_000, 100_000).unwrap())
            .unwrap();
        let mut joined = DensityHistogram::empty(delta_t).unwrap();
        joined.accumulate(&ta, 0, 50_000);
        joined.accumulate(&tb, 50_000, 100_000);
        assert_eq!(merged.bins(), joined.bins(), "case {case}");
    }
}

#[test]
fn event_train_windows_partition_events() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xE470_0000 + case);
        let train = EventTrain::from_times(times(&mut rng, 300, 1_000_000));
        let window = std::num::NonZeroU64::new(rng.gen_range(1_000u64..200_000)).unwrap();
        let windows = train.windows(0, 1_000_000, window);
        let total: u64 = windows.iter().map(|w| w.total_events()).sum();
        assert_eq!(total, train.total_events(), "case {case}");
    }
}

#[test]
fn bloom_has_no_false_negatives() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xF570_0000 + case);
        let n = rng.gen_range(1usize..200);
        let keys: std::collections::HashSet<u64> =
            (0..n).map(|_| rng.gen_range(0..u64::MAX)).collect();
        let bits = rng.gen_range(64usize..8_192);
        let hashes = rng.gen_range(1u32..6);
        let mut filter = BloomFilter::new(bits, hashes).unwrap();
        for &k in &keys {
            filter.insert(k);
        }
        for &k in &keys {
            assert!(filter.contains(k), "case {case} key {k:#x}");
        }
    }
}

#[test]
fn kmeans_assignments_are_consistent() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1670_0000 + case);
        let n = rng.gen_range(1usize..60);
        let features: Vec<LevelString> = (0..n)
            .map(|_| std::array::from_fn(|_| rng.gen_range(0u8..16)))
            .collect();
        let k = rng.gen_range(1usize..6);
        let clusters = kmeans(&features, k, 99, 30).unwrap();
        assert_eq!(clusters.assignments.len(), features.len(), "case {case}");
        let k_eff = k.min(features.len());
        for &a in &clusters.assignments {
            assert!(a < k_eff, "case {case}");
        }
        assert_eq!(
            clusters.sizes.iter().sum::<usize>(),
            features.len(),
            "case {case}"
        );
        // Determinism.
        let again = kmeans(&features, k, 99, 30).unwrap();
        assert_eq!(clusters.assignments, again.assignments, "case {case}");
    }
}

#[test]
fn discretize_is_monotone_per_bin() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x2770_0000 + case);
        let freqs: Vec<u64> = (0..HISTOGRAM_BINS)
            .map(|_| rng.gen_range(0u64..100_000))
            .collect();
        let total: u64 = freqs.iter().sum();
        if total == 0 {
            continue;
        }
        let h = DensityHistogram::from_bins(freqs.clone(), 1_000).expect("128 bins, Δt > 0");
        let s = discretize(&h);
        assert_eq!(s.len(), HISTOGRAM_BINS, "case {case}");
        for (bin, &f) in freqs.iter().enumerate() {
            if f == 0 {
                assert_eq!(s[bin], 0, "case {case} bin {bin}");
            } else {
                assert!(s[bin] >= 1, "case {case} bin {bin}");
            }
        }
    }
}

#[test]
fn practical_tracker_never_misses_recent_conflicts() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x3870_0000 + case);
        let working_set = rng.gen_range(4u64..40);
        let rounds = rng.gen_range(1usize..20);
        // Blocks evicted and promptly re-accessed within a working set far
        // below the tracker window must always classify as conflicts.
        let mut tracker = GenerationTracker::for_cache(4_096).unwrap();
        let blocks: Vec<u64> = (0..working_set).map(|i| i * 64).collect();
        for &b in &blocks {
            tracker.record_access(b);
        }
        for _ in 0..rounds {
            for &b in &blocks {
                tracker.record_replacement(b);
                assert_eq!(
                    tracker.classify_miss(b),
                    ConflictClass::Conflict,
                    "case {case} block {b:#x}"
                );
                tracker.record_access(b);
            }
        }
    }
}

#[test]
fn ideal_tracker_matches_reference_recency_model() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x4970_0000 + case);
        let n = rng.gen_range(1usize..300);
        let accesses: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..64)).collect();
        let capacity = rng.gen_range(4usize..32);
        let mut tracker = IdealLruTracker::new(capacity).unwrap();
        let mut reference: Vec<u64> = Vec::new(); // recency list, MRU front
        for &a in &accesses {
            let block = a * 64;
            let expected = if reference.contains(&block) {
                ConflictClass::Conflict
            } else {
                ConflictClass::NonConflict
            };
            assert_eq!(tracker.classify_miss(block), expected, "case {case}");
            tracker.record_access(block);
            reference.retain(|&b| b != block);
            reference.insert(0, block);
            reference.truncate(capacity);
        }
    }
}

#[test]
fn auditor_signal_path_matches_offline_histogram() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5A70_0000 + case);
        let times = times(&mut rng, 200, 400_000);
        let delta_t = rng.gen_range(500u64..20_000);
        // The hardware Δt/accumulator datapath must agree with the offline
        // DensityHistogram construction. The hardware only finalizes
        // *complete* Δt windows at harvest (a partial window carries into
        // the next quantum), so compare over an aligned horizon.
        let horizon = (400_000 / delta_t) * delta_t;
        let mut auditor = CcAuditor::new(AuditorConfig::default());
        let slot = auditor
            .program(HardwareUnit::MemoryBus, delta_t, Privilege::Supervisor)
            .unwrap();
        let train = EventTrain::from_times(times.into_iter().filter(|&t| t < horizon).collect());
        for (t, w) in train.iter() {
            auditor.signal(slot, t, w).unwrap();
        }
        let hw = auditor.harvest_histogram(slot, horizon).unwrap();
        let sw = DensityHistogram::from_train(&train, delta_t, 0, horizon).unwrap();
        assert_eq!(hw.bins(), sw.bins(), "case {case}");
    }
}

#[test]
fn bin_zero_saturation_never_corrupts_neighboring_bins() {
    // Paper-strict sizing: 16-bit histogram entries clamp at u16::MAX.
    // Driving far more empty Δt windows than the entry cap must saturate
    // bin 0 exactly at the cap while every occupied bin keeps its exact
    // count — saturation may lose mass, never move it.
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD370_0000 + case);
        let delta_t = 10u64;
        let horizon = 1_000_000u64; // 100_000 windows >> u16::MAX empties
        let n_occupied = rng.gen_range(20usize..60);
        let mut windows: Vec<u64> = (0..n_occupied)
            .map(|_| rng.gen_range(0..horizon / delta_t))
            .collect();
        windows.sort_unstable();
        windows.dedup();
        let mut expected = [0u64; HISTOGRAM_BINS];
        let mut auditor = CcAuditor::new(AuditorConfig::paper_strict());
        let slot = auditor
            .program(HardwareUnit::MemoryBus, delta_t, Privilege::Supervisor)
            .unwrap();
        for &w in &windows {
            let density = rng.gen_range(1u64..6);
            for k in 0..density {
                auditor.signal(slot, w * delta_t + k, 1).unwrap();
            }
            expected[density as usize] += 1;
        }
        let h = auditor.harvest_histogram(slot, horizon).unwrap();
        assert_eq!(
            h.frequency(0),
            u64::from(u16::MAX),
            "case {case}: bin 0 must clamp exactly at the 16-bit cap"
        );
        for (bin, &want) in expected.iter().enumerate().skip(1) {
            assert_eq!(
                h.frequency(bin),
                want,
                "case {case} bin {bin}: saturation of bin 0 leaked into a neighbor"
            );
        }
    }
}

#[test]
fn online_detector_survives_any_fault_sequence() {
    // For any seeded fault-injector sequence over any harvest stream,
    // push_quantum never panics, the sliding window never exceeds its
    // capacity, and confidence stays within [0, 1].
    use cchunter_detector::online::OnlineContentionDetector;
    use cchunter_detector::{CcHunterConfig, FaultClass, FaultConfig, FaultInjector};
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xE470_0000 + case);
        let mut config = FaultConfig::none();
        for class in FaultClass::ALL {
            config.set_rate(class, rng.gen_range(0.0..1.0));
        }
        config.jitter_cycles = rng.gen_range(0..5_000);
        let mut injector = FaultInjector::new(config, 0xFA17 + case);
        let capacity = rng.gen_range(1usize..16);
        let quantum = 100_000u64;
        let hunter = CcHunterConfig {
            quantum_cycles: quantum,
            ..CcHunterConfig::default()
        };
        let mut daemon = OnlineContentionDetector::new(hunter, capacity).unwrap();
        for _ in 0..rng.gen_range(1usize..40) {
            let train = EventTrain::from_times(times(&mut rng, 120, quantum));
            let histogram = DensityHistogram::from_train(&train, 1_000, 0, quantum).unwrap();
            let status = daemon.push_quantum(injector.perturb_harvest(histogram));
            assert!(status.window_len <= capacity, "case {case}");
            assert!(
                status.observed_in_window <= status.window_len,
                "case {case}"
            );
            assert!(
                (0.0..=1.0).contains(&status.confidence),
                "case {case}: confidence {} out of range",
                status.confidence
            );
        }
    }
}

#[test]
fn fft_autocorrelogram_matches_naive_for_any_length() {
    // The FFT (Wiener–Khinchin) path and the direct lag-product path are
    // the same mathematical object; agreement must hold for arbitrary —
    // in particular non-power-of-two — series lengths and lag depths.
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xFF70_0000 + case);
        let n = rng.gen_range(64usize..3000);
        let samples: Vec<f64> = (0..n).map(|_| rng.gen_range(-50.0..50.0)).collect();
        let max_lag = rng.gen_range(32usize..1200);
        let fast = Autocorrelogram::compute(&samples, max_lag);
        let naive = Autocorrelogram::compute_naive(&samples, max_lag);
        for lag in 0..=max_lag {
            assert!(
                (fast.coefficient(lag) - naive.coefficient(lag)).abs() < 1e-9,
                "case {case} n {n} lag {lag}: fft {} vs naive {}",
                fast.coefficient(lag),
                naive.coefficient(lag)
            );
        }
    }
}

/// One seeded quantum of `kind`: complete, partial (a NaN loss among
/// them) or missed, with covert-shaped evidence about half the time.
fn random_quantum(
    rng: &mut SmallRng,
    kind: cchunter_detector::online::PairKind,
    quantum: u64,
) -> cchunter_detector::supervisor::PairInput {
    use cchunter_detector::auditor::ConflictRecord;
    use cchunter_detector::online::{Harvest, PairKind};
    use cchunter_detector::supervisor::PairInput;
    let loss = match rng.gen_range(0u32..5) {
        0 => {
            return match kind {
                PairKind::Contention => PairInput::Harvest(Harvest::Missed),
                PairKind::Oscillation => PairInput::Missed,
            }
        }
        1 => Some(f64::NAN),
        2 => Some(rng.gen_range(0.0..1.0)),
        _ => None,
    };
    let covert = rng.gen_bool(0.5);
    match kind {
        PairKind::Contention => {
            let histogram = if covert {
                let mut bins = vec![0u64; HISTOGRAM_BINS];
                bins[0] = 2_400;
                let peak = rng.gen_range(16usize..24);
                bins[peak] = rng.gen_range(80..160);
                bins[peak + 1] = rng.gen_range(5..30);
                DensityHistogram::from_bins(bins, 1_000).unwrap()
            } else {
                let train = EventTrain::from_times(times(rng, 120, quantum));
                DensityHistogram::from_train(&train, 1_000, 0, quantum).unwrap()
            };
            PairInput::Harvest(match loss {
                None => Harvest::Complete(histogram),
                Some(lost_fraction) => Harvest::Partial {
                    histogram,
                    lost_fraction,
                },
            })
        }
        PairKind::Oscillation => {
            let mut records = Vec::new();
            if covert {
                // The square wave of a cache channel: 8 bits of
                // [T→S × G][S→T × G].
                let group = rng.gen_range(32..96);
                let mut cycle = 0;
                for _ in 0..8 {
                    for (replacer, victim) in [(0, 1), (1, 0)] {
                        for _ in 0..group {
                            records.push(ConflictRecord {
                                cycle,
                                replacer,
                                victim,
                            });
                            cycle += 50;
                        }
                    }
                }
            } else {
                for cycle in times(rng, 400, quantum) {
                    records.push(ConflictRecord {
                        cycle,
                        replacer: rng.gen_range(0..4),
                        victim: rng.gen_range(0..4),
                    });
                }
            }
            PairInput::Conflicts {
                records,
                lost_fraction: loss.unwrap_or(0.0),
            }
        }
    }
}

#[test]
fn incremental_window_state_matches_from_scratch_replay() {
    // One scoring core, every view of it. Over seeded schedules of
    // complete, partial (NaN loss included) and missed quanta of both
    // kinds:
    // * the window's running aggregates (weight sum, observed and covert
    //   counts, memoized clustering) are indistinguishable from a window
    //   that replays only the retained quanta from scratch;
    // * a one-shard fleet pair reports the window's status every tick;
    // * the batch report over the retained quanta is the replay's status;
    // * the `cchunter` quality indicator's per-window evidence is the
    //   status of a 512-quantum window fed the same schedule.
    use cchunter_detector::indicator::CcHunterIndicator;
    use cchunter_detector::online::{Harvest, OnlineStatus, OnlineWindow, PairKind};
    use cchunter_detector::pipeline::{symbol_series, CcHunter};
    use cchunter_detector::policy::QuarantineConfig;
    use cchunter_detector::shard::{ShardedFleet, ShardedFleetConfig};
    use cchunter_detector::supervisor::{PairInput, PairOutcome, ProbeFault, SupervisorConfig};
    use cchunter_detector::CcHunterConfig;

    fn push(window: &mut OnlineWindow, input: &PairInput) -> OnlineStatus {
        match input {
            PairInput::Harvest(h) => window.push_harvest(h.clone()),
            PairInput::Conflicts {
                records,
                lost_fraction,
            } => window.push_conflicts(records, *lost_fraction),
            _ => Ok(window.push_missed()),
        }
        .unwrap()
    }
    /// Everything a status says but its confidence.
    fn evidence(s: &OnlineStatus) -> impl PartialEq + std::fmt::Debug {
        (
            s.verdict,
            s.window_len,
            s.observed_in_window,
            s.oscillatory_in_window,
            s.recurrence.clone(),
            s.quantum_burst,
            s.quantum_oscillation,
        )
    }

    let quantum = 100_000u64;
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x17C0_0000 + case);
        let kind = if case % 2 == 0 {
            PairKind::Contention
        } else {
            PairKind::Oscillation
        };
        let capacity = rng.gen_range(1usize..24);
        let steps = rng.gen_range(1usize..60);
        let config = CcHunterConfig {
            quantum_cycles: quantum,
            ..CcHunterConfig::default()
        };
        let schedule: Vec<PairInput> = (0..steps)
            .map(|_| random_quantum(&mut rng, kind, quantum))
            .collect();

        let mut window = OnlineWindow::new(kind, config, capacity).unwrap();
        let mut fleet = ShardedFleet::new(ShardedFleetConfig {
            shards: 1,
            base: SupervisorConfig {
                hunter: config,
                window_quanta: capacity,
                // Gaps must not quarantine the pair: every tick is analysed.
                quarantine: QuarantineConfig {
                    min_observations: usize::MAX,
                    ..QuarantineConfig::default()
                },
                ..SupervisorConfig::default()
            },
            ..ShardedFleetConfig::default()
        })
        .unwrap();
        match kind {
            PairKind::Contention => fleet.add_contention_pair("pair"),
            PairKind::Oscillation => fleet.add_oscillation_pair("pair"),
        }
        .unwrap();
        let mut probe = |_pair: usize, tick: u64, _attempt: u32| -> Result<PairInput, ProbeFault> {
            Ok(schedule[tick as usize].clone())
        };
        let mut wide = OnlineWindow::new(kind, CcHunterConfig::default(), 512).unwrap();
        let mut indicator = CcHunterIndicator::default();
        let mut incremental = None;
        for (step, input) in schedule.iter().enumerate() {
            let status = push(&mut window, input);

            let report = fleet.tick(&mut probe);
            let fleet_status = match &report.shard_reports[0].as_ref().unwrap().reports[0].outcome {
                PairOutcome::Analyzed(s) | PairOutcome::Degraded { status: s, .. } => s.clone(),
                other => panic!("case {case} step {step}: {other:?}"),
            };
            assert_eq!(
                evidence(&fleet_status),
                evidence(&status),
                "case {case} step {step}"
            );
            assert_eq!(
                fleet_status.confidence.to_bits(),
                status.confidence.to_bits(),
                "case {case} step {step}"
            );

            let observation = match input {
                PairInput::Harvest(h) => WindowObservation::from_harvest(h),
                PairInput::Conflicts {
                    records,
                    lost_fraction,
                } => WindowObservation::from_symbols(symbol_series(records, 0, u64::MAX))
                    .with_weight(1.0 - lost_fraction),
                _ => WindowObservation::missed(),
            };
            indicator.push(&observation);
            let expected = push(&mut wide, input);
            let scored = indicator.evidence(kind).unwrap();
            assert_eq!(
                evidence(scored),
                evidence(&expected),
                "case {case} step {step}"
            );
            assert_eq!(
                scored.confidence.to_bits(),
                expected.confidence.to_bits(),
                "case {case} step {step}"
            );
            incremental = Some(status);
        }
        let incremental = incremental.unwrap();

        let tail = &schedule[steps.saturating_sub(capacity)..];
        let mut fresh = OnlineWindow::new(kind, config, capacity).unwrap();
        let replay = tail.iter().map(|i| push(&mut fresh, i)).last().unwrap();
        assert_eq!(evidence(&incremental), evidence(&replay), "case {case}");
        assert!(
            (incremental.confidence - replay.confidence).abs() < 1e-12,
            "case {case}: incremental confidence {} vs replay {}",
            incremental.confidence,
            replay.confidence
        );

        let hunter = CcHunter::new(config);
        match kind {
            PairKind::Contention => {
                let harvests: Vec<Harvest> = tail
                    .iter()
                    .map(|i| match i {
                        PairInput::Harvest(h) => h.clone(),
                        other => panic!("case {case}: {other:?}"),
                    })
                    .collect();
                let batch = hunter.analyze_contention_slice(&harvests);
                assert_eq!(batch.verdict, replay.verdict, "case {case}");
                assert_eq!(batch.confidence.to_bits(), replay.confidence.to_bits());
                assert_eq!(Some(batch.recurrence), replay.recurrence, "case {case}");
            }
            PairKind::Oscillation => {
                // The batch path takes a time-ordered drain, which carries
                // no loss: compare it with the lossless twin of the tail,
                // one quantum per window.
                let mut records = Vec::new();
                let mut twin = OnlineWindow::new(kind, config, capacity).unwrap();
                let mut expected = Vec::new();
                for (q, input) in tail.iter().enumerate() {
                    let drained = match input {
                        PairInput::Conflicts { records, .. } => records.clone(),
                        _ => Vec::new(),
                    };
                    expected.push(push(
                        &mut twin,
                        &PairInput::Conflicts {
                            records: drained.clone(),
                            lost_fraction: 0.0,
                        },
                    ));
                    records.extend(drained.into_iter().map(|mut r| {
                        r.cycle += q as u64 * quantum;
                        r
                    }));
                }
                let batch = hunter
                    .analyze_oscillation(&records, 0, tail.len() as u64 * quantum)
                    .unwrap();
                let last = expected.last().unwrap();
                assert_eq!(batch.verdict, last.verdict, "case {case}");
                assert_eq!(batch.oscillatory_windows, last.oscillatory_in_window);
                let per_window: Vec<_> = expected.iter().map(|s| s.quantum_oscillation).collect();
                let batch_windows: Vec<_> = batch.window_verdicts.into_iter().map(Some).collect();
                assert_eq!(batch_windows, per_window, "case {case}");
            }
        }
    }
}

#[test]
fn stored_levels_recluster_like_f64_features() {
    // The window stores each bursty quantum's level string and clusters
    // its distinct strings. The oracle keeps the `f64` features itself —
    // `discretized_features` of every bursty histogram in the current
    // window, bursty as `BurstDetector` calls it — and clusters every one
    // with the textbook `f64` k-means.
    use cchunter_detector::burst::BurstDetector;
    use cchunter_detector::cluster::discretized_features;
    use cchunter_detector::online::{OnlineWindow, PairKind};
    use cchunter_detector::supervisor::PairInput;
    use cchunter_detector::CcHunterConfig;
    use std::collections::VecDeque;

    let quantum = 100_000u64;
    let config = CcHunterConfig::default();
    let (mut recurrent, mut widest) = (0, 0);
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1E7E_0000 + case);
        // Wide windows cluster 64 and more bursty strings (the parallel
        // assignment, keyed on 64 *distinct* strings, is checked against
        // the same oracle in `cluster`'s unit tests).
        let capacity = if case % 4 == 0 {
            rng.gen_range(64usize..160)
        } else {
            rng.gen_range(1usize..40)
        };
        let steps = rng.gen_range(1..2 * capacity + 8);
        let mut window = OnlineWindow::new(PairKind::Contention, config, capacity).unwrap();
        // Per slot of the window: `None` if missed, else the features of a
        // bursty histogram (`Some(None)` if not bursty).
        let mut slots: VecDeque<Option<Option<Vec<f64>>>> = VecDeque::new();
        for step in 0..steps {
            let PairInput::Harvest(harvest) =
                random_quantum(&mut rng, PairKind::Contention, quantum)
            else {
                unreachable!("contention quanta are harvests")
            };
            let slot = harvest.histogram().map(|h| {
                let bursty = BurstDetector::new(config.burst).analyze(h).significant;
                bursty.then(|| discretized_features(h))
            });
            if slots.len() == capacity {
                slots.pop_front();
            }
            slots.push_back(slot);
            let status = window.push_harvest(harvest).unwrap();

            let observed = slots.iter().flatten().count();
            let bursty: Vec<&Vec<f64>> = slots.iter().flatten().flatten().collect();
            let expected = kmeans_f64::recurrence_f64(observed, &bursty, &config.cluster);
            recurrent += usize::from(expected.recurrent);
            widest = widest.max(bursty.len());
            assert_eq!(
                status.recurrence,
                Some(expected),
                "case {case} step {step}: capacity {capacity}"
            );
        }
    }
    assert!(recurrent > 0, "some windows recur");
    assert!(
        widest >= 64,
        "some window clusters {widest} >= 64 bursty quanta"
    );
}

#[test]
fn par_map_is_thread_count_invariant() {
    // The determinism contract of the vendored pool: par_map output is
    // bit-identical to a serial map for any thread count.
    let mut pools: Vec<threadpool::Pool> = [1usize, 2, 7].map(threadpool::Pool::new).into();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x9A40_0000 + case);
        let n = rng.gen_range(0usize..300);
        let items: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e6..1e6)).collect();
        let f = |x: &f64| (x * 1.000_001).sin() + x / 3.0;
        let serial: Vec<f64> = items.iter().map(f).collect();
        for pool in &mut pools {
            let got = threadpool::par_map_in(pool, &items, f);
            assert_eq!(got.len(), serial.len(), "case {case}");
            for (i, (a, b)) in got.iter().zip(&serial).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "case {case} item {i} with {} threads",
                    pool.threads()
                );
            }
        }
    }
}

/// A seeded random observation: histogram, rate trace, and/or symbols with
/// a random weight, covering every field combination an indicator can see.
fn random_observation(rng: &mut SmallRng) -> WindowObservation {
    let mut obs = WindowObservation::missed().with_weight(rng.gen_range(0.0..=1.0));
    if rng.gen_bool(0.7) {
        let train = EventTrain::from_times(times(rng, 400, 40_000));
        obs.histogram = Some(DensityHistogram::from_train(&train, 100, 0, 40_000).unwrap());
    }
    if rng.gen_bool(0.7) {
        let n = rng.gen_range(0usize..200);
        obs.rates = (0..n).map(|_| rng.gen_range(0.0..50.0)).collect();
    }
    if rng.gen_bool(0.5) {
        let n = rng.gen_range(0usize..300);
        let symbols: Vec<u8> = (0..n).map(|_| rng.gen_range(0u8..56)).collect();
        obs.symbols = Some(SymbolSeries::from_symbols(symbols));
    }
    obs
}

#[test]
fn indicator_scores_are_thread_count_invariant() {
    // Batched indicator scoring is bit-identical to serial scoring for any
    // pool size — the same contract the FFT batch engine holds, extended to
    // every Indicator implementation.
    let mut pools: Vec<threadpool::Pool> = [1usize, 2, 7].map(threadpool::Pool::new).into();
    for name in ["cchunter", "cusum", "spectral"] {
        let mut rng = SmallRng::seed_from_u64(0x1D1C_0000);
        let sequences: Vec<Vec<WindowObservation>> = (0..12)
            .map(|_| {
                let len = rng.gen_range(1usize..8);
                (0..len).map(|_| random_observation(&mut rng)).collect()
            })
            .collect();
        let make: &(dyn Fn() -> Box<dyn Indicator> + Sync) =
            &move || indicator_by_name(name).expect("built-in name");
        let serial: Vec<f64> = sequences.iter().map(|s| make().score_sequence(s)).collect();
        for pool in &mut pools {
            let got = score_sequences_in(pool, make, &sequences);
            for (i, (a, b)) in got.iter().zip(&serial).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{name} sequence {i} with {} threads",
                    pool.threads()
                );
            }
        }
    }
}

#[test]
fn indicator_online_push_equals_replay_from_scratch() {
    // The replay-consistency contract: after pushing any prefix of an
    // observation stream, the online score is bit-identical to a fresh
    // indicator replaying that prefix — the Indicator-trait analogue of the
    // sliding-window incremental-vs-scratch property.
    for name in ["cchunter", "cusum", "spectral"] {
        for case in 0..CASES / 4 {
            let mut rng = SmallRng::seed_from_u64(0x0E71_0000 + case);
            let stream: Vec<WindowObservation> = (0..rng.gen_range(1usize..10))
                .map(|_| random_observation(&mut rng))
                .collect();
            let mut online = indicator_by_name(name).expect("built-in name");
            for (k, obs) in stream.iter().enumerate() {
                let pushed = online.push(obs);
                assert_eq!(
                    pushed.to_bits(),
                    online.score().to_bits(),
                    "{name} case {case}: push return differs from score()"
                );
                let replayed = indicator_by_name(name)
                    .expect("built-in name")
                    .score_sequence(&stream[..=k]);
                assert_eq!(
                    pushed.to_bits(),
                    replayed.to_bits(),
                    "{name} case {case} prefix {}: online {pushed} vs replay {replayed}",
                    k + 1
                );
                assert!((0.0..=1.0).contains(&pushed), "{name} case {case}");
            }
        }
    }
}

/// The detector judges a correlogram whose lags past n − 2 are implicit
/// zeros exactly as it judges the same correlogram with those zeros
/// stored: same flag, same peak lag and value, same harmonic value.
#[test]
fn oscillation_verdicts_ignore_how_the_zero_tail_is_kept() {
    use cchunter_detector::autocorr::{OscillationConfig, OscillationDetector};
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x2E40_0000 + case);
        let n = rng.gen_range(0usize..700);
        let period = rng.gen_range(2usize..160);
        let noisy = rng.gen_range(0..3) == 0;
        let symbols: Vec<u8> = (0..n)
            .map(|i| {
                let level = if (i / period) % 2 == 0 { 1 } else { 8 };
                if noisy && rng.gen_range(0..4) == 0 {
                    rng.gen_range(0..64)
                } else {
                    level
                }
            })
            .collect();
        let series = SymbolSeries::from_symbols(symbols);
        let detector = OscillationDetector::new(OscillationConfig {
            min_lag: rng.gen_range(0usize..16),
            dip_threshold: [0.0, 0.2, -0.2][rng.gen_range(0..3)],
            min_samples: rng.gen_range(0usize..80),
            ..OscillationConfig::default()
        });
        let max_lag = rng.gen_range(0usize..1_200);
        let stored = Autocorrelogram::of_symbols(&series, max_lag);
        assert_eq!(
            detector.analyze(&series, max_lag),
            detector.analyze_correlogram(series.len(), &stored),
            "case {case}: n {n} period {period} max_lag {max_lag}"
        );
    }
}
