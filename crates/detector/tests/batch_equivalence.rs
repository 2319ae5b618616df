//! Equivalence properties for the batched analysis engine (PR 7).
//!
//! The batch paths — lane-accumulator distance kernels, the arena/view
//! zero-copy train storage, and the run-length density fast path — all
//! promise *identical or ≤1e-9* results versus the simple scalar/owned
//! formulations. These tests hold them to it across seeded random shapes,
//! so any future "optimization" that changes numerics fails loudly.

use cchunter_detector::batch::{sq_dist, sq_dist_scalar};
use cchunter_detector::cluster::{kmeans, LevelString};
use cchunter_detector::density::{DensityHistogram, HISTOGRAM_BINS};
use cchunter_detector::events::{EventTrain, EventTrainArena};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 32;

/// A random well-formed (sorted) weighted train.
fn random_train(rng: &mut SmallRng, max_len: usize, horizon: u64, max_weight: u32) -> EventTrain {
    let len = rng.gen_range(0..max_len);
    let mut times: Vec<u64> = (0..len).map(|_| rng.gen_range(0..horizon)).collect();
    times.sort_unstable();
    let mut train = EventTrain::new();
    for t in times {
        train.push(t, rng.gen_range(1..=max_weight));
    }
    train
}

#[test]
fn lane_distance_kernel_matches_scalar_oracle() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD157_0000 + case);
        let dim = rng.gen_range(0usize..300);
        let a: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1000.0..1000.0)).collect();
        let b: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1000.0..1000.0)).collect();
        let fast = sq_dist(&a, &b);
        let slow = sq_dist_scalar(&a, &b);
        let scale = slow.abs().max(1.0);
        assert!(
            (fast - slow).abs() <= 1e-9 * scale,
            "case {case} dim {dim}: lanes {fast} vs scalar {slow}"
        );
    }
}

#[test]
fn batched_kmeans_assignments_are_nearest_by_scalar_distance() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x6B3A_0000 + case);
        let n = rng.gen_range(2usize..60);
        let k = rng.gen_range(1usize..6);
        // Strings from a few templates, so equal strings group.
        let templates: Vec<LevelString> = (0..rng.gen_range(1usize..n))
            .map(|_| std::array::from_fn(|_| rng.gen_range(0u8..16)))
            .collect();
        let strings: Vec<LevelString> = (0..n)
            .map(|_| templates[rng.gen_range(0..templates.len())])
            .collect();
        let features: Vec<Vec<f64>> = strings
            .iter()
            .map(|s| s.iter().map(|&l| f64::from(l)).collect())
            .collect();
        let clustering = kmeans(&strings, k, 0x5EED ^ case, 30).unwrap();
        for (i, f) in features.iter().enumerate() {
            let assigned = clustering.assignments[i];
            let d_assigned = sq_dist_scalar(f, &clustering.centroids[assigned]);
            for centroid in &clustering.centroids {
                let d = sq_dist_scalar(f, centroid);
                assert!(
                    d_assigned <= d + 1e-9 * d.abs().max(1.0),
                    "case {case} point {i}: assigned dist {d_assigned} beats {d}"
                );
            }
        }
    }
}

/// Naive per-window density reference: spread each weighted run over
/// consecutive cycles, count per window in a map, bin with saturation.
fn naive_histogram(train: &EventTrain, delta_t: u64, start: u64, end: u64) -> Vec<u64> {
    let mut counts: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for (time, weight) in train.iter() {
        if time < start || time >= end {
            continue;
        }
        for c in 0..weight as u64 {
            let t = time + c;
            if t >= end {
                break;
            }
            *counts.entry((t - start) / delta_t).or_insert(0) += 1;
        }
    }
    let total_windows = (end - start).div_ceil(delta_t);
    let mut bins = vec![0u64; HISTOGRAM_BINS];
    let mut counted = 0u64;
    for (_, &c) in counts.iter() {
        bins[(c as usize).min(HISTOGRAM_BINS - 1)] += 1;
        counted += 1;
    }
    bins[0] += total_windows - counted;
    bins
}

#[test]
fn density_view_paths_match_naive_reference() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xDE45_0000 + case);
        // Half the cases all-unit weights (run-length fast path), half
        // weighted runs (dense/sparse slow path).
        let max_weight = if case % 2 == 0 { 1 } else { 40 };
        let train = random_train(&mut rng, 200, 20_000, max_weight);
        let delta_t = rng.gen_range(1u64..500);
        let start = rng.gen_range(0u64..5_000);
        let end = start + rng.gen_range(1u64..20_000);
        let expected = naive_histogram(&train, delta_t, start, end);
        let owned = DensityHistogram::from_train(&train, delta_t, start, end).unwrap();
        let viewed = DensityHistogram::from_view(train.as_view(), delta_t, start, end).unwrap();
        assert_eq!(owned.bins(), &expected[..], "case {case} owned path");
        assert_eq!(viewed.bins(), &expected[..], "case {case} view path");
        assert_eq!(
            owned.total_windows(),
            (end - start).div_ceil(delta_t),
            "case {case}"
        );
    }
}

#[test]
fn arena_views_match_owned_trains() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xA5E4_0000 + case);
        let trains: Vec<EventTrain> = (0..rng.gen_range(1usize..8))
            .map(|_| random_train(&mut rng, 120, 50_000, 8))
            .collect();
        let mut arena = EventTrainArena::new();
        for t in &trains {
            arena.push_train(t);
        }
        assert_eq!(arena.trains(), trains.len(), "case {case}");
        for (i, owned) in trains.iter().enumerate() {
            let view = arena.view(i);
            assert_eq!(view.times(), owned.times(), "case {case} train {i}");
            assert_eq!(view.weights(), owned.weights(), "case {case} train {i}");
            assert_eq!(view.total_events(), owned.total_events(), "case {case}");
            assert_eq!(view.span(), owned.span(), "case {case}");

            // window(): the borrowed window must materialize to the exact
            // owned window, and mean_rate must agree bit-for-bit.
            for _ in 0..4 {
                let a = rng.gen_range(0u64..60_000);
                let b = rng.gen_range(0u64..60_000);
                let (lo, hi) = (a.min(b), a.max(b));
                assert_eq!(
                    view.window(lo, hi).to_owned(),
                    owned.window(lo, hi),
                    "case {case} train {i} window [{lo},{hi})"
                );
                assert_eq!(
                    view.mean_rate(lo, hi).to_bits(),
                    owned.mean_rate(lo, hi).to_bits(),
                    "case {case} train {i} mean_rate [{lo},{hi})"
                );
            }

            // windows(): same partition, zero-copy.
            let span_end = owned.span().map_or(1_000, |(_, last)| last + 1);
            let w = std::num::NonZeroU64::new(rng.gen_range(1u64..10_000)).unwrap();
            let borrowed = view.windows(0, span_end, w);
            let cloned = owned.windows(0, span_end, w);
            assert_eq!(borrowed.len(), cloned.len(), "case {case} train {i}");
            for (bv, cv) in borrowed.iter().zip(&cloned) {
                assert_eq!(&bv.to_owned(), cv, "case {case} train {i}");
            }
        }
    }
}

#[test]
fn arena_incremental_push_matches_event_train_push() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xA9C4_0000 + case);
        let mut arena = EventTrainArena::new();
        let idx = arena.begin_train();
        let mut owned = EventTrain::new();
        let mut t = 0u64;
        for _ in 0..rng.gen_range(0usize..200) {
            t += rng.gen_range(0u64..100);
            let w = rng.gen_range(1u32..6);
            arena.push(t, w).expect("monotonic push");
            owned.push(t, w);
        }
        let view = arena.view(idx);
        assert_eq!(view.times(), owned.times(), "case {case}");
        assert_eq!(view.total_events(), owned.total_events(), "case {case}");

        // Backwards time within a train is rejected exactly like
        // EventTrain::try_push; other trains are unaffected.
        if !view.is_empty() {
            let last = view.times()[view.len() - 1];
            if last > 0 {
                assert!(arena.push(last - 1, 1).is_err(), "case {case}");
            }
        }
        let second = arena.begin_train();
        arena.push(0, 1).expect("fresh train restarts the clock");
        assert_eq!(arena.view(second).times(), &[0], "case {case}");
        assert_eq!(arena.view(idx).times(), owned.times(), "case {case}");
    }
}
