//! Golden contention checkpoint: the `cchunter-checkpoint,v1` bytes a
//! contention daemon writes for a fixed, seeded push sequence are pinned in
//! `golden/contention_window_v1.txt`, so a change to how the daemon keeps its
//! window cannot silently change what it writes (or what an older daemon's
//! checkpoint restores to).
//!
//! The sequence covers complete, partial and missed quanta, an all-zero
//! histogram and an all-128-bins-nonzero one on both sides of the eviction
//! point, and a window that has wrapped and keeps evicting. The fixture was
//! written by the dense-histogram window that preceded the compact bin
//! arena; regenerate it only for a deliberate format change.

use cchunter_detector::density::{DensityHistogram, HISTOGRAM_BINS};
use cchunter_detector::online::{Harvest, OnlineContentionDetector};
use cchunter_detector::pipeline::CcHunterConfig;

const GOLDEN: &str = include_str!("golden/contention_window_v1.txt");
const WINDOW: usize = 16;
const PUSHED: usize = 40;
const CONTINUED: usize = 40;

/// SplitMix64: a self-contained generator, so the fixture never depends on
/// another crate's random stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The histogram shape of quantum `index`: the all-zero and fully dense
/// shapes are pinned to fixed positions (some evicted, some retained), the
/// rest drawn from covert-, quiet- and scattered-looking shapes.
fn histogram(rng: &mut SplitMix, index: usize) -> DensityHistogram {
    let mut bins = vec![0u64; HISTOGRAM_BINS];
    let delta_t = if rng.below(4) == 0 { 100_000 } else { 1_000 };
    match index {
        5 | 30 => {}
        3 | 33 | 47 => {
            for (i, b) in bins.iter_mut().enumerate() {
                *b = 1 + rng.below(1 + 4_000 / (i as u64 + 1));
            }
        }
        _ => match rng.below(3) {
            0 => {
                bins[0] = 2_400 + rng.below(50);
                for b in &mut bins[18..=22] {
                    *b = 15 + rng.below(15);
                }
            }
            1 => {
                bins[0] = 2_450 + rng.below(50);
                bins[1] = 30 + rng.below(20);
                bins[2] = rng.below(12);
            }
            _ => {
                bins[0] = 2_000 + rng.below(500);
                for _ in 0..1 + rng.below(12) {
                    bins[rng.below(HISTOGRAM_BINS as u64) as usize] += 1 + rng.below(300);
                }
            }
        },
    }
    DensityHistogram::from_bins(bins, delta_t).expect("valid histogram")
}

fn harvest(rng: &mut SplitMix, index: usize) -> Harvest {
    let h = histogram(rng, index);
    match (index, rng.below(20)) {
        // The pinned shapes arrive complete and partial alike.
        (3 | 5 | 47, _) => Harvest::Complete(h),
        (30 | 33, _) => Harvest::Partial {
            histogram: h,
            lost_fraction: 0.25,
        },
        (_, 0..=2) => Harvest::Missed,
        (_, 3..=7) => Harvest::Partial {
            histogram: h,
            lost_fraction: rng.below(1_000) as f64 / 1_000.0,
        },
        _ => Harvest::Complete(h),
    }
}

/// The daemon after the pinned sequence, and the generator positioned for
/// the continuation.
fn pushed_daemon() -> (OnlineContentionDetector, SplitMix) {
    let mut rng = SplitMix(0x601D_E2C4);
    let mut daemon = OnlineContentionDetector::new(CcHunterConfig::default(), WINDOW).unwrap();
    for index in 0..PUSHED {
        daemon.push_quantum(harvest(&mut rng, index));
    }
    (daemon, rng)
}

fn checkpoint_text(daemon: &OnlineContentionDetector) -> String {
    let mut buf = Vec::new();
    daemon.checkpoint(&mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

#[test]
fn contention_checkpoint_matches_golden_bytes() {
    let (daemon, _) = pushed_daemon();
    assert_eq!(daemon.window_len(), WINDOW, "the window has wrapped");
    assert_eq!(checkpoint_text(&daemon), GOLDEN);
}

#[test]
fn golden_checkpoint_round_trips() {
    let restored = OnlineContentionDetector::restore(CcHunterConfig::default(), GOLDEN.as_bytes())
        .expect("the golden checkpoint restores");
    assert_eq!(restored.window_len(), WINDOW);
    assert_eq!(checkpoint_text(&restored), GOLDEN);
}

#[test]
fn restored_golden_daemon_continues_the_verdict_sequence() {
    let (mut live, mut rng) = pushed_daemon();
    let mut restored =
        OnlineContentionDetector::restore(CcHunterConfig::default(), GOLDEN.as_bytes()).unwrap();
    let mut covert = 0;
    for index in PUSHED..PUSHED + CONTINUED {
        let h = harvest(&mut rng, index);
        let a = live.push_quantum(h.clone());
        let b = restored.push_quantum(h);
        assert_eq!(a.verdict, b.verdict, "quantum {index}");
        // The running weight sums were rebased at different pushes, so
        // they may differ in the last ulp.
        assert!(
            (a.confidence - b.confidence).abs() < 1e-12,
            "quantum {index}"
        );
        assert_eq!(a.window_len, b.window_len, "quantum {index}");
        assert_eq!(
            a.observed_in_window, b.observed_in_window,
            "quantum {index}"
        );
        assert_eq!(a.quantum_burst, b.quantum_burst, "quantum {index}");
        assert_eq!(a.recurrence, b.recurrence, "quantum {index}");
        covert += usize::from(a.verdict.is_covert());
    }
    assert!(covert > 0, "the continuation exercises a covert verdict");
    assert_eq!(checkpoint_text(&live), checkpoint_text(&restored));
}
