//! Golden store layout: a one-shard store written in the per-pair layout,
//! one `pair-NNNN` entry per slot beside a `supervisor` manifest that
//! carries no window section, is pinned under
//! `golden/per_pair_store/shard-00`. Stores written before a shard kept
//! its windows inside the manifest entry look like this, and a restart
//! over one must still read each pair's window back.
//!
//! The fixture holds one checkpoint (generation 0, coordinator tick 12) of
//! three pairs fed by [`probe`] for twelve ticks: a covert bus pair and a
//! covert cache pair, both contained, and a clean divider pair. The test
//! reopens it, pins the re-added pairs' statuses, one `{:?}` line per pair,
//! under `golden/per_pair_store_statuses.txt`, checks that no pair came
//! back degraded, and ticks once: a restored window convicts (or acquits)
//! on that one quantum, where an empty one could not. A second test
//! checkpoints the reopened store until the fixture's generation leaves
//! `keep`, and checks that its `pair-NNNN` entries go with it.
//!
//! Regenerate the fixture only for a deliberate format change.

use cchunter_detector::auditor::ConflictRecord;
use cchunter_detector::density::{DensityHistogram, HISTOGRAM_BINS};
use cchunter_detector::online::Harvest;
use cchunter_detector::shard::{ShardedFleet, ShardedFleetConfig};
use cchunter_detector::supervisor::{PairInput, ProbeFault, SupervisorConfig};
use cchunter_detector::Verdict;
use std::path::{Path, PathBuf};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/per_pair_store/shard-00"
);

/// The three stored pairs' labels, in slot order, with whether each is a
/// contention pair.
const PAIRS: [(&str, bool); 3] = [
    ("memory-bus: pid 17 <-> pid 23", true),
    ("divider: pid 4 <-> pid 9", true),
    ("l2-cache: pid 17 <-> pid 23", false),
];

fn covert_histogram(tick: u64) -> DensityHistogram {
    let mut bins = vec![0u64; HISTOGRAM_BINS];
    bins[0] = 2_400 + (tick % 7) * 3;
    bins[19] = 20;
    bins[20] = 150 + (tick % 5);
    bins[21] = 25;
    DensityHistogram::from_bins(bins, 100_000).unwrap()
}

fn quiet_histogram(tick: u64) -> DensityHistogram {
    let mut bins = vec![0u64; HISTOGRAM_BINS];
    bins[0] = 2_490 + (tick % 9);
    bins[1] = 5;
    DensityHistogram::from_bins(bins, 100_000).unwrap()
}

fn covert_conflicts(tick: u64) -> Vec<ConflictRecord> {
    (0..128u64)
        .map(|i| ConflictRecord {
            cycle: tick * 100_000 + i * 700,
            replacer: if i % 2 == 0 { 2 } else { 5 },
            victim: if i % 2 == 0 { 5 } else { 2 },
        })
        .collect()
}

/// The input the fixture was written from: pair 0 covert bus, pair 1
/// clean divider, pair 2 covert cache, with seeded transient probe slips.
fn probe(pair: usize, tick: u64, attempt: u32) -> Result<PairInput, ProbeFault> {
    let h = cchunter_detector::policy::mix_seed(0xFEED, pair as u64, tick);
    if attempt == 0 && h.is_multiple_of(11) {
        return Err(ProbeFault {
            reason: "transient harvest slip".to_string(),
        });
    }
    Ok(match pair {
        0 => PairInput::Harvest(Harvest::Complete(covert_histogram(tick))),
        1 => PairInput::Harvest(Harvest::Complete(quiet_histogram(tick))),
        _ => PairInput::Conflicts {
            records: covert_conflicts(tick),
            lost_fraction: if h.is_multiple_of(13) { 0.2 } else { 0.0 },
        },
    })
}

fn config() -> ShardedFleetConfig {
    ShardedFleetConfig {
        shards: 1,
        base: SupervisorConfig {
            window_quanta: 16,
            ..SupervisorConfig::default()
        },
        ..ShardedFleetConfig::default()
    }
}

/// A scratch store root, named after `tag`, whose `shard-00` is a copy
/// of the fixture.
fn fixture_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "cchunter-store-layout-golden-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let shard = root.join("shard-00");
    std::fs::create_dir_all(&shard).unwrap();
    for entry in std::fs::read_dir(Path::new(FIXTURE)).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), shard.join(entry.file_name())).unwrap();
    }
    root
}

/// Reopens `root` and re-adds the stored pairs.
fn reopen(root: &Path) -> ShardedFleet {
    let mut fleet = ShardedFleet::with_store_root(config(), root).unwrap();
    assert_eq!(fleet.tick_count(), 12);
    for (label, contention) in PAIRS {
        if contention {
            fleet.add_contention_pair(label).unwrap();
        } else {
            fleet.add_oscillation_pair(label).unwrap();
        }
    }
    fleet.verify_accounting().unwrap();
    fleet
}

/// The reopened pairs' statuses, one `{:?}` line per pair.
fn rendered_statuses(fleet: &ShardedFleet) -> String {
    fleet
        .pair_statuses()
        .iter()
        .map(|s| format!("{s:?}\n"))
        .collect()
}

/// The names of the `pair-NNNN` files in `root`'s shard store.
fn pair_files(root: &Path) -> Vec<String> {
    std::fs::read_dir(root.join("shard-00"))
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("pair-"))
        .collect()
}

#[test]
fn per_pair_store_reopens_with_its_windows() {
    let root = fixture_root("reopen");
    let mut fleet = reopen(&root);
    let statuses = fleet.pair_statuses();
    let rendered = rendered_statuses(&fleet);
    assert_eq!(rendered, include_str!("golden/per_pair_store_statuses.txt"));
    for status in &statuses {
        assert!(!status.degraded, "{}: window lost", status.label);
        assert!(status.restored_from.is_some(), "{}", status.label);
    }

    fleet.tick(&mut probe);
    let verdicts: Vec<Verdict> = fleet.pair_statuses().iter().map(|s| s.verdict).collect();
    assert_eq!(
        verdicts,
        [
            Verdict::CovertTimingChannel,
            Verdict::Clean,
            Verdict::CovertTimingChannel
        ]
    );
    drop(fleet);
    let _ = std::fs::remove_dir_all(&root);
}

/// The per-slot entries stay while a kept `supervisor` generation has no
/// window section of its own (a rollback to it reads them), and are
/// deleted by the checkpoint that pushes the last such generation out of
/// the store's `keep`. The store then reopens to the same statuses, each
/// window read from the manifest entry.
#[test]
fn per_pair_entries_are_pruned_once_no_kept_manifest_reaches_them() {
    let root = fixture_root("prune");
    let fleet = reopen(&root);
    assert_eq!(pair_files(&root).len(), 3);
    let keep = config().keep_generations as u64;
    for generation in 1..=keep {
        assert_eq!(fleet.checkpoint().unwrap(), [(0, generation)]);
        let expected = if generation < keep { 3 } else { 0 };
        assert_eq!(
            pair_files(&root).len(),
            expected,
            "after generation {generation}"
        );
    }
    drop(fleet);

    let fleet = reopen(&root);
    let golden = include_str!("golden/per_pair_store_statuses.txt");
    let moved = format!("RestoredFrom {{ generation: {keep}, rolled_back: 0 }}");
    assert_eq!(
        rendered_statuses(&fleet),
        golden.replace("RestoredFrom { generation: 0, rolled_back: 0 }", &moved)
    );
    drop(fleet);
    let _ = std::fs::remove_dir_all(&root);
}
