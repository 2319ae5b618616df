//! Shared input generators for the CC-Hunter benchmarks, plus the
//! [`suites`] module holding the benchmark bodies shared by the `cargo
//! bench` harnesses and the bench-runner binary.

pub mod check;
pub mod suites;

use cchunter_detector::auditor::ConflictRecord;
use cchunter_detector::density::{DensityHistogram, HISTOGRAM_BINS};
use cchunter_detector::events::EventTrain;
use cchunter_detector::ingest::RawEvent;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A covert-channel-shaped event train: `bursts` bursts of `events_per_burst`
/// events, `spacing` cycles apart.
pub fn bursty_train(bursts: u64, events_per_burst: u64, spacing: u64) -> EventTrain {
    let mut train = EventTrain::new();
    for b in 0..bursts {
        let base = b * spacing;
        for e in 0..events_per_burst {
            train.push(base + e * 50, 1);
        }
    }
    train
}

/// A covert-channel-shaped density histogram (bin 0 heavy + compact burst
/// cluster).
pub fn covert_histogram(peak: usize, windows: u64) -> DensityHistogram {
    let mut bins = vec![0u64; HISTOGRAM_BINS];
    bins[0] = windows * 9 / 10;
    bins[peak.saturating_sub(1)] = windows / 50;
    bins[peak] = windows / 15;
    bins[peak + 1] = windows / 60;
    let used: u64 = bins.iter().sum();
    bins[0] += windows.saturating_sub(used);
    DensityHistogram::from_bins(bins, 100_000).expect("synthetic bins are 128 long")
}

/// One OS quantum's worth of cache-channel conflict records (the paper's
/// per-quantum autocorrelation input).
pub fn quantum_conflicts(bits: usize, sets_per_group: u64) -> Vec<ConflictRecord> {
    let mut records = Vec::new();
    let mut cycle = 0u64;
    for _ in 0..bits {
        for _ in 0..sets_per_group {
            records.push(ConflictRecord {
                cycle,
                replacer: 0,
                victim: 1,
            });
            cycle += 120;
        }
        for _ in 0..sets_per_group {
            records.push(ConflictRecord {
                cycle,
                replacer: 1,
                victim: 0,
            });
            cycle += 200;
        }
    }
    records
}

/// Uniform random block addresses for tracker benchmarks.
pub fn random_blocks(count: usize, distinct: u64, seed: u64) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| rng.gen_range(0..distinct) * 64)
        .collect()
}

/// One quantum of hostile ingest traffic in the shape of the end-to-end
/// `churn_1k` workload's hostile pairs: `clean` time-sorted events over
/// `[0, quantum)`, and after three of every four an extra copy the
/// sanitizer must drop — an impossible context id, a time-travel copy
/// more than `quantum / 2` cycles back, or an exact duplicate.
pub fn hostile_events(clean: usize, quantum: u64, seed: u64) -> Vec<RawEvent> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut times: Vec<u64> = (0..clean).map(|_| rng.gen_range(0..quantum)).collect();
    times.sort_unstable();
    let mut out = Vec::with_capacity(clean * 7 / 4 + 1);
    for (i, time) in times.into_iter().enumerate() {
        let e = RawEvent {
            time,
            weight: 1,
            context: rng.gen_range(0..4u8),
        };
        out.push(e);
        match i % 4 {
            0 => out.push(RawEvent {
                context: 8 + rng.gen_range(0..8u8),
                ..e
            }),
            1 => out.push(RawEvent {
                time: time.saturating_sub(quantum / 2 + 1),
                ..e
            }),
            2 => out.push(e),
            _ => {}
        }
    }
    out
}
