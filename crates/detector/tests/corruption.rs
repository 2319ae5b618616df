//! Corruption-robustness fuzzing for every persistence reader.
//!
//! A checkpoint or trace that survived a crash, a torn write, or a bad
//! disk must never panic the recovery path: every reader has to return a
//! typed error (or, rarely, a still-valid parse) on arbitrary corruption,
//! with allocation bounded by the input size.
//!
//! The harness is a hand-rolled deterministic generator (no crates.io
//! access for proptest/cargo-fuzz): each case seeds a PRNG, picks a valid
//! artifact, applies a random corruption (truncation, bit flips, absurd
//! values, emptying, garbage splices), and feeds it to the reader under
//! `catch_unwind`. Assertion messages carry the case seed so failures
//! reproduce directly. `CCHUNTER_FUZZ_QUICK=1` trims the case count for
//! CI smoke runs; the nightly job runs the full corpus.

use cchunter_detector::auditor::ConflictRecord;
use cchunter_detector::online::{Harvest, OnlineContentionDetector, OnlineOscillationDetector};
use cchunter_detector::shard::{ShardedFleet, ShardedFleetConfig};
use cchunter_detector::store::CheckpointStore;
use cchunter_detector::supervisor::{PairInput, ProbeFault, SupervisorConfig};
use cchunter_detector::trace::{
    read_checkpoint, read_conflicts, read_event_train, write_checkpoint, write_conflicts,
    write_event_train, Checkpoint, CheckpointSlot,
};
use cchunter_detector::{
    CcHunterConfig, DensityHistogram, DetectorError, EventTrain, HISTOGRAM_BINS,
};
use cchunter_detector::{StorageFaultClass, StorageFaultConfig, StorageFaultInjector};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Full corpus size; CI smoke mode trims it.
fn cases() -> u64 {
    if std::env::var("CCHUNTER_FUZZ_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        50
    } else {
        200
    }
}

// ---------------------------------------------------------------------
// Valid artifacts to corrupt.
// ---------------------------------------------------------------------

fn contention_checkpoint_text(rng: &mut SmallRng) -> Vec<u8> {
    let mut daemon = OnlineContentionDetector::new(CcHunterConfig::default(), 16).unwrap();
    for _ in 0..rng.gen_range(1usize..20) {
        let mut bins = vec![0u64; HISTOGRAM_BINS];
        bins[0] = rng.gen_range(1_000u64..3_000);
        bins[rng.gen_range(10usize..HISTOGRAM_BINS)] = rng.gen_range(1u64..200);
        let histogram = DensityHistogram::from_bins(bins, 100_000).unwrap();
        match rng.gen_range(0u32..3) {
            0 => daemon.push_quantum(Harvest::Complete(histogram)),
            1 => daemon.push_quantum(Harvest::Partial {
                histogram,
                lost_fraction: rng.gen_range(0.0..0.9),
            }),
            _ => daemon.push_quantum(Harvest::Missed),
        };
    }
    let mut out = Vec::new();
    daemon.checkpoint(&mut out).unwrap();
    out
}

fn oscillation_checkpoint_text(rng: &mut SmallRng) -> Vec<u8> {
    let capacity = rng.gen_range(4usize..32);
    let slots = (0..rng.gen_range(1usize..capacity))
        .map(|_| CheckpointSlot {
            weight: rng.gen_range(0.0..=1.0),
            histogram: None,
            oscillatory: if rng.gen_bool(0.2) {
                None
            } else {
                Some(rng.gen_bool(0.5))
            },
        })
        .collect();
    let checkpoint = Checkpoint {
        kind: "oscillation".to_string(),
        capacity,
        slots,
    };
    let mut out = Vec::new();
    write_checkpoint(&checkpoint, &mut out).unwrap();
    out
}

fn event_train_text(rng: &mut SmallRng) -> Vec<u8> {
    let mut t = 0u64;
    let mut train = EventTrain::new();
    for _ in 0..rng.gen_range(0usize..64) {
        t += rng.gen_range(1u64..10_000);
        train.push(t, rng.gen_range(1u32..4));
    }
    let mut out = Vec::new();
    write_event_train(&train, &mut out).unwrap();
    out
}

fn conflicts_text(rng: &mut SmallRng) -> Vec<u8> {
    let mut cycle = 0u64;
    let records: Vec<_> = (0..rng.gen_range(0usize..64))
        .map(|_| {
            cycle += rng.gen_range(1u64..5_000);
            ConflictRecord {
                cycle,
                replacer: rng.gen_range(0u32..8) as u8,
                victim: rng.gen_range(0u32..8) as u8,
            }
        })
        .collect();
    let mut out = Vec::new();
    write_conflicts(&records, &mut out).unwrap();
    out
}

// ---------------------------------------------------------------------
// Corruptions.
// ---------------------------------------------------------------------

/// Applies one random corruption; returns a short label for diagnostics.
fn corrupt(rng: &mut SmallRng, bytes: &mut Vec<u8>) -> &'static str {
    match rng.gen_range(0u32..6) {
        0 => {
            bytes.clear();
            "emptied"
        }
        1 => {
            let keep = rng.gen_range(0..=bytes.len());
            bytes.truncate(keep);
            "truncated"
        }
        2 => {
            if !bytes.is_empty() {
                for _ in 0..rng.gen_range(1u32..9) {
                    let i = rng.gen_range(0..bytes.len());
                    let bit = rng.gen_range(0u32..8);
                    bytes[i] ^= 1 << bit;
                }
            }
            "bit-flipped"
        }
        3 => {
            // Splice an absurd numeric value over a random digit run.
            let absurd: &[u8] = match rng.gen_range(0u32..4) {
                0 => b"99999999999999999999999999",
                1 => b"18446744073709551615",
                2 => b"-1",
                _ => b"1e308",
            };
            if let Some(pos) = bytes.iter().position(|b| b.is_ascii_digit()) {
                let end = bytes[pos..]
                    .iter()
                    .position(|b| !b.is_ascii_digit())
                    .map(|off| pos + off)
                    .unwrap_or(bytes.len());
                bytes.splice(pos..end, absurd.iter().copied());
            }
            "absurd-value"
        }
        4 => {
            // Random garbage inserted at a random offset.
            let at = rng.gen_range(0..=bytes.len());
            let garbage: Vec<u8> = (0..rng.gen_range(1usize..40))
                .map(|_| rng.gen_range(0u32..256) as u8)
                .collect();
            bytes.splice(at..at, garbage);
            "garbage-spliced"
        }
        _ => {
            // Duplicate a random span (repeated lines, torn rewrites).
            if !bytes.is_empty() {
                let a = rng.gen_range(0..bytes.len());
                let b = rng.gen_range(a..=bytes.len());
                let span: Vec<u8> = bytes[a..b].to_vec();
                let at = rng.gen_range(0..=bytes.len());
                bytes.splice(at..at, span);
            }
            "span-duplicated"
        }
    }
}

/// Runs `parse` on the corrupted bytes and asserts it neither panics nor
/// allocates unboundedly (completion within the harness is the proxy:
/// none of the readers pre-allocate from parsed values).
fn assert_total<T, E: std::fmt::Debug>(
    label: &str,
    case: u64,
    what: &'static str,
    bytes: &[u8],
    parse: impl FnOnce(&[u8]) -> Result<T, E>,
) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let _ = parse(bytes);
    }));
    assert!(
        outcome.is_ok(),
        "case {case}: {what} reader panicked on {label} input ({} bytes)",
        bytes.len()
    );
}

#[test]
fn corrupted_checkpoints_never_panic() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0xC0_44F7 + case);
        let mut bytes = if rng.gen_bool(0.5) {
            contention_checkpoint_text(&mut rng)
        } else {
            oscillation_checkpoint_text(&mut rng)
        };
        let label = corrupt(&mut rng, &mut bytes);
        assert_total(label, case, "read_checkpoint", &bytes, |b| {
            read_checkpoint(b)
        });
        assert_total(label, case, "contention restore", &bytes, |b| {
            OnlineContentionDetector::restore(CcHunterConfig::default(), b)
        });
        assert_total(label, case, "oscillation restore", &bytes, |b| {
            OnlineOscillationDetector::restore(CcHunterConfig::default(), b)
        });
    }
}

#[test]
fn corrupted_event_trains_never_panic() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0xE7_0441 + case);
        let mut bytes = event_train_text(&mut rng);
        let label = corrupt(&mut rng, &mut bytes);
        assert_total(label, case, "read_event_train", &bytes, |b| {
            read_event_train(b)
        });
    }
}

#[test]
fn corrupted_conflict_traces_never_panic() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0xC0_4F11 + case);
        let mut bytes = conflicts_text(&mut rng);
        let label = corrupt(&mut rng, &mut bytes);
        assert_total(label, case, "read_conflicts", &bytes, |b| read_conflicts(b));
    }
}

/// A writer dying *mid-frame* leaves the newest generation truncated or
/// bit-flipped at an arbitrary byte offset — header, length field, CRC,
/// or payload, wherever the crash landed. With an older generation kept,
/// the store must roll back to the last durable one: never panic, never
/// serve a half-written frame as current state, never lose the durable
/// predecessor. One third of the corpus tears the write *through the
/// storage-fault injector* instead of editing bytes after the fact — the
/// injected torn write reports success to the caller, which is exactly
/// the failure the CRC envelope exists to catch.
#[test]
fn midwrite_corruption_at_any_offset_rolls_back_to_durable_generation() {
    let dir = std::env::temp_dir().join(format!(
        "cchunter-midwrite-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let injector = StorageFaultInjector::new(StorageFaultConfig::none(), 0x70_44);
    let store =
        CheckpointStore::open_with_medium(&dir, 3, std::sync::Arc::new(injector.clone())).unwrap();
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0x41D_F0F5 + case);
        let name = format!("pair-{case}");
        let durable = contention_checkpoint_text(&mut rng);
        let durable_generation = store.save(&name, &durable).unwrap();
        let newer = contention_checkpoint_text(&mut rng);
        let (newer_generation, label, offset) = match rng.gen_range(0u32..3) {
            0 => {
                // The nastiest path: the medium itself tears the write to
                // a prefix and still reports success.
                injector.set_config(
                    StorageFaultConfig::none().with_rate(StorageFaultClass::TornWrite, 1.0),
                );
                let generation = store.save(&name, &newer).unwrap();
                injector.set_config(StorageFaultConfig::none());
                (generation, "injector-torn", 0usize)
            }
            kind => {
                let generation = store.save(&name, &newer).unwrap();
                let path = store.dir().join(format!("{name}.g{generation:08}.ckpt"));
                let mut bytes = std::fs::read(&path).unwrap();
                let offset = rng.gen_range(0..bytes.len());
                let label = if kind == 1 {
                    bytes.truncate(offset);
                    "torn-at-offset"
                } else {
                    let bit = rng.gen_range(0u32..8);
                    bytes[offset] ^= 1 << bit;
                    "flipped-at-offset"
                };
                std::fs::write(&path, &bytes).unwrap();
                (generation, label, offset)
            }
        };
        assert!(newer_generation > durable_generation);
        let loaded = catch_unwind(AssertUnwindSafe(|| store.load_latest(&name)))
            .unwrap_or_else(|_| {
                panic!("case {case}: store panicked on {label} frame (byte {offset})")
            })
            .unwrap_or_else(|e| {
                panic!("case {case}: {label} at byte {offset} was fatal, not rolled back: {e}")
            })
            .unwrap_or_else(|| {
                panic!("case {case}: {label} at byte {offset} lost the durable generation")
            });
        assert_eq!(
            loaded.generation, durable_generation,
            "case {case}: {label} at byte {offset} must roll back to the durable generation"
        );
        assert_eq!(
            loaded.rolled_back, 1,
            "case {case}: the rollback must be surfaced, not silent"
        );
        assert_eq!(
            loaded.payload, durable,
            "case {case}: the durable payload must survive byte-exact"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_store_frames_are_typed_not_fatal() {
    let dir = std::env::temp_dir().join(format!(
        "cchunter-corruption-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    // keep=1: no older generation to roll back to, so corruption must be
    // reported, not silently absorbed.
    let store = CheckpointStore::open(&dir, 1).unwrap();
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0x57_04E5 + case);
        let payload = contention_checkpoint_text(&mut rng);
        let name = format!("fuzz-{case}");
        let generation = store.save(&name, &payload).unwrap();
        let path = store.dir().join(format!("{name}.g{generation:08}.ckpt"));
        let mut bytes = std::fs::read(&path).unwrap();
        let before = bytes.clone();
        let label = corrupt(&mut rng, &mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        let outcome = catch_unwind(AssertUnwindSafe(|| store.load_latest(&name)));
        match outcome {
            Err(_) => panic!("case {case}: store reader panicked on {label} frame"),
            Ok(Ok(Some(loaded))) => {
                // The corruption missed the frame's invariants (e.g. a
                // no-op splice): the payload must then be byte-exact.
                assert_eq!(
                    loaded.payload, payload,
                    "case {case}: {label} frame decoded to altered payload"
                );
                assert!(bytes == before, "case {case}: altered bytes passed CRC");
            }
            Ok(Ok(None)) => {
                // Unrecognizable file name after corruption of the dir
                // scan path cannot happen (we corrupt contents, not the
                // name); an empty result would mean the store lost a
                // generation it just wrote.
                panic!("case {case}: store silently dropped the {label} generation");
            }
            Ok(Err(e)) => {
                assert!(
                    matches!(e, DetectorError::CorruptCheckpoint(_)),
                    "case {case}: {label} frame produced untyped error {e}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpointed one-shard fleet's store directory: two contention pairs
/// (one covert, so contained; one label with commas) and an oscillation
/// pair.
fn checkpointed_shard(root: &std::path::Path) -> std::path::PathBuf {
    let config = ShardedFleetConfig {
        shards: 1,
        base: SupervisorConfig {
            window_quanta: 8,
            ..SupervisorConfig::default()
        },
        ..ShardedFleetConfig::default()
    };
    let mut fleet = ShardedFleet::with_store_root(config, root).unwrap();
    fleet.add_contention_pair("bus: t <-> s").unwrap();
    fleet
        .add_contention_pair("divider, core 1: a <-> b")
        .unwrap();
    fleet.add_oscillation_pair("l2: t <-> s").unwrap();
    let mut source = |pair: usize, tick: u64, _attempt: u32| {
        let mut bins = vec![0u64; HISTOGRAM_BINS];
        bins[0] = 2_400;
        bins[20] = if pair == 0 { 150 } else { (tick % 3) * 2 };
        let histogram = DensityHistogram::from_bins(bins, 100_000).unwrap();
        Ok::<_, ProbeFault>(match pair {
            2 => PairInput::Missed,
            _ => PairInput::Harvest(Harvest::Complete(histogram)),
        })
    };
    for _ in 0..8 {
        fleet.tick(&mut source);
    }
    assert!(fleet.containment(0).unwrap().is_active());
    fleet.checkpoint().unwrap();
    root.join("shard-00")
}

/// The supervisor manifest a restart reads first: corrupted with every
/// corruption kind and re-framed with a valid CRC (so the manifest parser,
/// not the frame check, sees the damage), reopening the store root gives
/// a typed error or a valid open — never a panic — and a valid open keeps
/// its books balanced through re-adding the labels and ticking. The corpus
/// holds both outcomes.
#[test]
fn corrupted_manifests_reopen_typed_or_valid() {
    let base = std::env::temp_dir().join(format!(
        "cchunter-corrupt-manifest-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&base);
    let shard = checkpointed_shard(&base.join("clean"));
    let manifest = CheckpointStore::open(&shard, 4)
        .unwrap()
        .load_latest("supervisor")
        .unwrap()
        .unwrap()
        .payload;
    let config = ShardedFleetConfig {
        shards: 1,
        base: SupervisorConfig {
            window_quanta: 8,
            ..SupervisorConfig::default()
        },
        ..ShardedFleetConfig::default()
    };
    let (mut opened, mut refused) = (0, 0);
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0x3A_41F7 + case);
        let root = base.join(format!("case-{case}"));
        let copy = root.join("shard-00");
        std::fs::create_dir_all(&copy).unwrap();
        for entry in std::fs::read_dir(&shard).unwrap() {
            let path = entry.unwrap().path();
            std::fs::copy(&path, copy.join(path.file_name().unwrap())).unwrap();
        }
        let mut bytes = manifest.clone();
        let label = corrupt(&mut rng, &mut bytes);
        CheckpointStore::open(&copy, 4)
            .unwrap()
            .save("supervisor", &bytes)
            .unwrap();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut fleet = ShardedFleet::with_store_root(config.clone(), &root).ok()?;
            for name in ["bus: t <-> s", "divider, core 1: a <-> b"] {
                let _ = fleet.add_contention_pair(name);
            }
            let _ = fleet.add_oscillation_pair("l2: t <-> s");
            fleet.tick(&mut |_pair: usize, _tick: u64, _attempt: u32| {
                Ok::<_, ProbeFault>(PairInput::Missed)
            });
            Some(fleet.verify_accounting())
        }));
        match outcome {
            Err(_) => panic!("case {case}: reopening a {label} manifest panicked"),
            Ok(Some(Err(e))) => panic!("case {case}: {label} manifest unbalanced the books: {e}"),
            Ok(Some(Ok(()))) => opened += 1,
            Ok(None) => refused += 1,
        }
        let _ = std::fs::remove_dir_all(&root);
    }
    assert!(
        opened > 0 && refused > 0,
        "{opened} opened, {refused} refused"
    );
    let _ = std::fs::remove_dir_all(&base);
}
