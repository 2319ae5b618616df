//! Golden supervisor manifests: the `cchunter-supervisor,v1` roster a
//! shard writes beside its window checkpoints is pinned under `golden/`,
//! so a change to how a pair's record is kept cannot silently change what
//! a restart reads back.
//!
//! * `supervisor_manifest_v1.txt`: one shard of six pairs, with every
//!   breaker state (closed, open, half-open), every containment state
//!   (inactive, applying, contained), a degraded pair (`deg,` line) and
//!   labels that contain commas.
//! * `supervisor_manifest_v1_no_mit.txt`: the same roster in the older
//!   form, without `mit,` and `deg,` lines: pairs come back with an idle
//!   containment policy and undegraded records.
//!
//! Each test reopens a store that holds only the manifest (so every
//! window is lost and every pair comes back degraded) and pins the
//! statuses of the re-added pairs, one `{:?}` line per pair, under
//! `golden/*_statuses.txt`. The unit tests of `supervisor.rs` check that
//! the writer re-emits the first manifest byte for byte.
//!
//! Regenerate a fixture only for a deliberate format change.

use cchunter_detector::shard::{ShardedFleet, ShardedFleetConfig};
use cchunter_detector::store::CheckpointStore;
use cchunter_detector::supervisor::SupervisorConfig;
use std::path::PathBuf;

/// The roster's labels, in slot order, with whether each is a contention
/// pair.
const PAIRS: [(&str, bool); 6] = [
    ("bus, core 0 <-> core 1", true),
    ("divider: t <-> s", true),
    ("l2, set 7: t <-> s", false),
    ("mul: t <-> s", true),
    ("quiet: a <-> b", true),
    ("cache: x <-> y", false),
];

fn config() -> ShardedFleetConfig {
    ShardedFleetConfig {
        shards: 1,
        base: SupervisorConfig {
            window_quanta: 8,
            ..SupervisorConfig::default()
        },
        ..ShardedFleetConfig::default()
    }
}

/// Reopens a store root whose one shard holds `manifest`, re-adds every
/// label and renders the pair statuses, one line per pair.
fn reopened_statuses(tag: &str, manifest: &str) -> String {
    let root: PathBuf = std::env::temp_dir().join(format!(
        "cchunter-manifest-golden-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let store = CheckpointStore::open(root.join("shard-00"), 4).unwrap();
    store.save("supervisor", manifest.as_bytes()).unwrap();
    drop(store);
    let mut fleet = ShardedFleet::with_store_root(config(), &root).unwrap();
    assert_eq!(fleet.tick_count(), 12);
    for (label, contention) in PAIRS {
        if contention {
            fleet.add_contention_pair(label).unwrap();
        } else {
            fleet.add_oscillation_pair(label).unwrap();
        }
    }
    fleet.verify_accounting().unwrap();
    let rendered = fleet
        .pair_statuses()
        .iter()
        .map(|status| format!("{status:?}\n"))
        .collect();
    drop(fleet);
    let _ = std::fs::remove_dir_all(&root);
    rendered
}

#[test]
fn full_manifest_reopens_to_pinned_statuses() {
    let statuses = reopened_statuses("full", include_str!("golden/supervisor_manifest_v1.txt"));
    assert_eq!(
        statuses,
        include_str!("golden/supervisor_manifest_v1_statuses.txt")
    );
}

#[test]
fn manifest_without_mitigation_lines_reopens_to_pinned_statuses() {
    let statuses = reopened_statuses(
        "no-mit",
        include_str!("golden/supervisor_manifest_v1_no_mit.txt"),
    );
    assert_eq!(
        statuses,
        include_str!("golden/supervisor_manifest_v1_no_mit_statuses.txt")
    );
}
