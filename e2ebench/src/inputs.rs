//! Seeded input generators. Covert shapes come from the repository's
//! shared bench generators (`cchunter_bench`); benign shapes are drawn
//! here. Everything is a pure function of the seed.

use cc_hunter::detector::auditor::ConflictRecord;
use cc_hunter::detector::{DensityHistogram, RawEvent, HISTOGRAM_BINS};
use cchunter_bench::{bursty_train, covert_histogram};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Δt (cycles) of every pre-generated density histogram.
pub const DELTA_T: u64 = 100_000;

/// Δt windows in one pre-generated quantum (the paper's 0.1 s quantum at
/// Δt = 100k cycles).
pub const WINDOWS: u64 = 2_500;

/// splitmix64 finalizer: an independent, reproducible draw per key.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fresh RNG for the generator stream `stream` of `seed`.
pub fn rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(mix(seed, stream, 0x5EED))
}

/// A benign contention quantum: mostly idle windows with a geometrically
/// decaying tail of low densities (no second, bursty distribution).
pub fn benign_histogram(rng: &mut SmallRng) -> DensityHistogram {
    let windows = WINDOWS - rng.gen_range(0..50u64);
    let mut bins = vec![0u64; HISTOGRAM_BINS];
    let mut level = windows as f64 * rng.gen_range(0.01..0.06);
    for bin in bins.iter_mut().take(8).skip(1) {
        *bin = level as u64;
        level *= rng.gen_range(0.2..0.5);
    }
    let used: u64 = bins.iter().sum();
    bins[0] = windows.saturating_sub(used);
    DensityHistogram::from_bins(bins, DELTA_T).expect("128 bins, nonzero Δt")
}

/// A covert contention quantum whose burst distribution peaks at density
/// `peak` (the repository's shared covert shape, window count jittered).
pub fn covert_quantum(rng: &mut SmallRng, peak: usize) -> DensityHistogram {
    covert_histogram(peak, WINDOWS - rng.gen_range(0..50u64))
}

/// A benign cache quantum of `len` conflict records with unpatterned
/// replacer/victim contexts.
pub fn benign_conflicts(rng: &mut SmallRng, len: usize) -> Vec<ConflictRecord> {
    let mut cycle = 0u64;
    (0..len)
        .map(|_| {
            cycle += rng.gen_range(50..400u64);
            ConflictRecord {
                cycle,
                replacer: rng.gen_range(0..4u8),
                victim: rng.gen_range(0..4u8),
            }
        })
        .collect()
}

/// A covert raw event stream for one quantum starting at `start`: `bursts`
/// bursts of `per_burst` events (the repository's shared bursty train),
/// spread over the quantum.
pub fn covert_events(start: u64, quantum: u64, bursts: u64, per_burst: u64) -> Vec<RawEvent> {
    let spacing = quantum / bursts.max(1);
    bursty_train(bursts, per_burst, spacing)
        .iter()
        .map(|(time, weight)| RawEvent {
            time: start + time,
            weight,
            context: 0,
        })
        .collect()
}

/// `count` uniformly scattered raw events in `[start, start + quantum)`, in
/// time order.
pub fn flood_events(rng: &mut SmallRng, start: u64, quantum: u64, count: usize) -> Vec<RawEvent> {
    let mut times: Vec<u64> = (0..count).map(|_| rng.gen_range(0..quantum)).collect();
    times.sort_unstable();
    times
        .into_iter()
        .map(|t| RawEvent {
            time: start + t,
            weight: 1,
            context: rng.gen_range(0..4u8),
        })
        .collect()
}

/// `events` with hostile copies interleaved that the sanitizer must drop:
/// events claiming impossible context ids, time-travelling far backwards
/// (more than `quantum / 2` cycles), and exact duplicates.
pub fn with_hostile(rng: &mut SmallRng, events: Vec<RawEvent>, quantum: u64) -> Vec<RawEvent> {
    let mut out = Vec::with_capacity(events.len() * 2);
    for (i, e) in events.into_iter().enumerate() {
        out.push(e);
        match i % 4 {
            0 => out.push(RawEvent {
                context: 8 + rng.gen_range(0..8u8),
                ..e
            }),
            1 => out.push(RawEvent {
                time: e.time.saturating_sub(quantum / 2 + 1),
                ..e
            }),
            2 => out.push(e),
            _ => {}
        }
    }
    out
}

/// A benign hostile stream: `clean` scattered events with
/// [`with_hostile`] garbage interleaved.
pub fn hostile_events(rng: &mut SmallRng, start: u64, quantum: u64, clean: usize) -> Vec<RawEvent> {
    let events = flood_events(rng, start, quantum, clean);
    with_hostile(rng, events, quantum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_hunter::detector::{BurstDetector, CcHunterConfig};

    #[test]
    fn generators_are_seed_deterministic() {
        let draw = |seed: u64| {
            let mut r = rng(seed, 1);
            (
                benign_histogram(&mut r),
                covert_quantum(&mut r, 20),
                benign_conflicts(&mut r, 64),
                flood_events(&mut r, 0, 1_000_000, 32),
                hostile_events(&mut r, 0, 1_000_000, 32),
            )
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7).0, draw(8).0);
        assert_eq!(mix(1, 2, 3), mix(1, 2, 3));
        assert_ne!(mix(1, 2, 3), mix(1, 3, 2));
    }

    #[test]
    fn shapes_have_the_planted_burst_verdicts() {
        let detector = BurstDetector::new(CcHunterConfig::default().burst);
        let mut r = rng(3, 0);
        for _ in 0..200 {
            assert!(!detector.analyze(&benign_histogram(&mut r)).significant);
        }
        for peak in 12..40 {
            assert!(detector.analyze(&covert_quantum(&mut r, peak)).significant);
        }
    }
}
