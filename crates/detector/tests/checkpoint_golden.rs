//! Golden checkpoints: the `cchunter-checkpoint,v1` bytes the online
//! daemons write for fixed, seeded push sequences are pinned under
//! `golden/`, so a change to how a daemon keeps its window cannot silently
//! change what it writes (or what an older daemon's checkpoint restores to).
//!
//! * `contention_window_v1.txt`: complete, partial and missed quanta, an
//!   all-zero histogram and an all-128-bins-nonzero one on both sides of the
//!   eviction point, and a window that has wrapped and keeps evicting. It
//!   was written by the dense-histogram window that preceded the compact
//!   bin arena.
//! * `contention_varint_v1.txt`: frequencies and Δt on every LEB128 length
//!   boundary up to `u64::MAX`, written by the two-queue `(u8, u64)` arena
//!   that preceded the varint byte queue.
//! * `oscillation_window_v1.txt`: square-wave, random, partial (NaN loss
//!   included) and missed quanta in a wrapped oscillation window.
//!
//! Regenerate a fixture only for a deliberate format change.

use cchunter_detector::auditor::ConflictRecord;
use cchunter_detector::density::{DensityHistogram, HISTOGRAM_BINS};
use cchunter_detector::online::{
    Harvest, OnlineContentionDetector, OnlineOscillationDetector, OnlineWindow,
};
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

fn checkpoint_text(daemon: &OnlineWindow) -> String {
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

const VARINT_GOLDEN: &str = include_str!("golden/contention_varint_v1.txt");

/// Frequencies on both sides of every LEB128 length boundary the fleet can
/// meet, plus one far past the 16-bit hardware register.
const BOUNDARY_FREQUENCIES: [u64; 8] = [1, 127, 128, 16_383, 16_384, 65_535, 65_536, 1 << 32];

fn bins_from(entries: &[(usize, u64)]) -> Vec<u64> {
    let mut bins = vec![0u64; HISTOGRAM_BINS];
    for &(bin, f) in entries {
        bins[bin] = f;
    }
    bins
}

/// A covert-shaped histogram with Δt `delta_t`.
fn covert(delta_t: u64) -> DensityHistogram {
    let bins = bins_from(&[(0, 2_400), (19, 20), (20, 150), (21, 25)]);
    DensityHistogram::from_bins(bins, delta_t).unwrap()
}

/// A window of 8 after 10 pushes: two evicted slots (a dense one with
/// multi-byte frequencies, a bursty one), then the boundary slots.
fn varint_daemon() -> OnlineContentionDetector {
    // Every bin nonzero, frequencies of one to six varint bytes; the
    // largest bin-weighted sum stays far below `u64::MAX`.
    let dense = (0..HISTOGRAM_BINS).map(|i| 1u64 << (i % 40)).collect();
    let dense = DensityHistogram::from_bins(dense, 16_384).unwrap();
    let mut boundary = vec![(0, 2_400)];
    boundary.extend(
        BOUNDARY_FREQUENCIES
            .iter()
            .enumerate()
            .map(|(i, &f)| (1 + i, f)),
    );
    let boundary = DensityHistogram::from_bins(bins_from(&boundary), 1).unwrap();
    // `u64::MAX` as a frequency (in bin 0, so the burst test's sums stay
    // in range) and as a Δt.
    let extreme = DensityHistogram::from_bins(bins_from(&[(0, u64::MAX)]), u64::MAX).unwrap();
    let empty = DensityHistogram::from_bins(vec![0; HISTOGRAM_BINS], 100_000).unwrap();
    let mut daemon = OnlineContentionDetector::new(CcHunterConfig::default(), 8).unwrap();
    for harvest in [
        Harvest::Complete(dense.clone()),
        Harvest::Complete(covert(127)),
        Harvest::Complete(boundary),
        Harvest::Complete(extreme),
        Harvest::Partial {
            histogram: dense,
            lost_fraction: 0.5,
        },
        Harvest::Complete(empty),
        Harvest::Missed,
        Harvest::Complete(covert(128)),
        Harvest::Complete(covert(16_383)),
        Harvest::Partial {
            histogram: covert(16_384),
            lost_fraction: 0.125,
        },
    ] {
        daemon.push_quantum(harvest);
    }
    daemon
}

#[test]
fn varint_boundary_checkpoint_matches_golden_bytes() {
    let mut daemon = varint_daemon();
    assert_eq!(daemon.window_len(), 8, "two slots were evicted");
    assert!(daemon.push_quantum(Harvest::Missed).verdict.is_covert());
    let daemon = varint_daemon();
    let text = checkpoint_text(&daemon);
    assert_eq!(text, VARINT_GOLDEN);
    for f in BOUNDARY_FREQUENCIES.iter().chain(&[u64::MAX]) {
        assert!(text.contains(&format!(":{f}")), "{f} is pinned");
    }
    let restored =
        OnlineContentionDetector::restore(CcHunterConfig::default(), VARINT_GOLDEN.as_bytes())
            .expect("the varint golden checkpoint restores");
    assert_eq!(checkpoint_text(&restored), VARINT_GOLDEN);
}

const OSCILLATION_GOLDEN: &str = include_str!("golden/oscillation_window_v1.txt");
const OSC_WINDOW: usize = 12;

/// Oscillation quantum `index`'s drained records and lost fraction, or
/// `None` for a missed quantum.
fn conflicts(rng: &mut SplitMix) -> Option<(Vec<ConflictRecord>, f64)> {
    let lost_fraction = match rng.below(10) {
        0..=1 => return None,
        2 => f64::NAN,
        3..=4 => rng.below(1_000) as f64 / 1_000.0,
        _ => 0.0,
    };
    let mut records = Vec::new();
    let mut cycle = 0;
    if rng.below(2) == 0 {
        // The square wave of a cache channel: 8 bits of [T→S × G][S→T × G].
        let group = 32 + rng.below(64);
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
        for _ in 0..rng.below(400) {
            cycle += 1 + rng.below(250);
            records.push(ConflictRecord {
                cycle,
                replacer: rng.below(4) as u8,
                victim: rng.below(4) as u8,
            });
        }
    }
    Some((records, lost_fraction))
}

fn push_conflicts(
    daemon: &mut OnlineOscillationDetector,
    quantum: Option<(Vec<ConflictRecord>, f64)>,
) -> cchunter_detector::online::OnlineStatus {
    match quantum {
        Some((records, lost_fraction)) => daemon.push_quantum_degraded(&records, lost_fraction),
        None => daemon.push_missed(),
    }
}

fn pushed_oscillation_daemon() -> (OnlineOscillationDetector, SplitMix) {
    let mut rng = SplitMix(0x05C1_11A7);
    let mut daemon = OnlineOscillationDetector::new(CcHunterConfig::default(), OSC_WINDOW).unwrap();
    for _ in 0..30 {
        let quantum = conflicts(&mut rng);
        push_conflicts(&mut daemon, quantum);
    }
    (daemon, rng)
}

#[test]
fn oscillation_checkpoint_matches_golden_bytes_and_resumes() {
    let (mut live, mut rng) = pushed_oscillation_daemon();
    assert_eq!(live.window_len(), OSC_WINDOW, "the window has wrapped");
    assert_eq!(checkpoint_text(&live), OSCILLATION_GOLDEN);
    let mut restored = OnlineOscillationDetector::restore(
        CcHunterConfig::default(),
        OSCILLATION_GOLDEN.as_bytes(),
    )
    .expect("the oscillation golden checkpoint restores");
    assert_eq!(checkpoint_text(&restored), OSCILLATION_GOLDEN);
    let mut covert = 0;
    for index in 0..20 {
        let quantum = conflicts(&mut rng);
        let a = push_conflicts(&mut live, quantum.clone());
        let b = push_conflicts(&mut restored, quantum);
        assert_eq!(a.verdict, b.verdict, "quantum {index}");
        assert!(
            (a.confidence - b.confidence).abs() < 1e-12,
            "quantum {index}"
        );
        assert_eq!(a.oscillatory_in_window, b.oscillatory_in_window);
        assert_eq!(a.observed_in_window, b.observed_in_window);
        covert += usize::from(a.verdict.is_covert());
    }
    assert!(covert > 0, "the continuation exercises a covert verdict");
    assert_eq!(checkpoint_text(&live), checkpoint_text(&restored));
}
