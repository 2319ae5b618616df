//! Retained-memory budget of a steady-state contention pair: the heap a
//! fleet keeps per pair once every window is full, for sparse inputs (a few
//! nonzero bins per quantum, the end-to-end `fleet_10k` shape) and for
//! fully dense ones (all 128 bins nonzero).
//!
//! This file holds exactly one test, because the counting allocator below
//! sees every thread of the test binary.

use cchunter_detector::density::{DensityHistogram, HISTOGRAM_BINS};
use cchunter_detector::online::Harvest;
use cchunter_detector::shard::{ShardedFleet, ShardedFleetConfig};
use cchunter_detector::supervisor::{PairInput, ProbeFault, SupervisorConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

/// The system allocator plus a count of live requested bytes.
struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter touches no allocated memory.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds `realloc`'s contract for `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

const PAIRS: usize = 256;
const WINDOW: usize = 32;
/// One pair in 64 carries a covert channel, as in `fleet_10k`.
const COVERT_EVERY: usize = 64;

/// Retained bytes per pair, x86-64, requested sizes (allocator slack is not
/// counted), on sparse and on fully dense inputs:
///
/// | window layout                                      | sparse | dense  |
/// |----------------------------------------------------|--------|--------|
/// | a 1 KiB `u64` histogram per slot                   | 40 020 | 37 695 |
/// | `(u8, u64)` bin queues, 24 B slots, `f64` features | 5 389  | 39 058 |
/// | one varint byte queue, 16 B slots, `u8` levels     | 4 303  | 10 339 |
///
/// The budgets sit a few percent above the last row; the layout before it
/// fails both.
const SPARSE_BUDGET: f64 = 4_400.0;
const DENSE_BUDGET: f64 = 11_000.0;

/// A `fleet_10k`-shaped quantum: 4 or 5 nonzero bins.
fn sparse(covert: bool, tick: usize) -> DensityHistogram {
    let mut bins = vec![0u64; HISTOGRAM_BINS];
    bins[0] = 2_400;
    if covert {
        bins[19] = 20;
        bins[20] = 25 + (tick % 3) as u64;
        bins[21] = 20;
    } else {
        bins[1] = 40 + (tick % 5) as u64;
        bins[2] = 8;
    }
    DensityHistogram::from_bins(bins, 1_000).expect("valid histogram")
}

/// The worst case for the compact window: the sparse shape with every
/// other bin raised to one window.
fn dense(covert: bool, tick: usize) -> DensityHistogram {
    let sparse = sparse(covert, tick);
    let bins = sparse.bins().iter().map(|&f| f.max(1)).collect();
    DensityHistogram::from_bins(bins, 1_000).expect("valid histogram")
}

/// Live heap a fleet of `PAIRS` contention pairs retains per pair after
/// every window has filled and verdicts have settled, and whether every
/// covert pair was convicted.
fn retained_per_pair(shape: fn(bool, usize) -> DensityHistogram) -> (f64, bool) {
    let inputs: Vec<Vec<PairInput>> = [false, true]
        .iter()
        .map(|&covert| {
            (0..8)
                .map(|t| PairInput::Harvest(Harvest::Complete(shape(covert, t))))
                .collect()
        })
        .collect();
    let mut probe = |pair: usize, tick: u64, _attempt: u32| -> Result<PairInput, ProbeFault> {
        let covert = usize::from(pair.is_multiple_of(COVERT_EVERY));
        Ok(inputs[covert][tick as usize % 8].clone())
    };
    let before = LIVE.load(Ordering::Relaxed);
    let mut fleet = ShardedFleet::new(ShardedFleetConfig {
        shards: 2,
        base: SupervisorConfig {
            window_quanta: WINDOW,
            seed: 0x3E30,
            ..SupervisorConfig::default()
        },
        ..ShardedFleetConfig::default()
    })
    .expect("valid fleet");
    for pair in 0..PAIRS {
        fleet
            .add_contention_pair(format!(
                "memory-bus: pid {} <-> pid {}",
                2 * pair,
                2 * pair + 1
            ))
            .expect("pair added");
    }
    for _ in 0..3 * WINDOW {
        let report = fleet.tick(&mut probe);
        assert!(report.deaths.is_empty());
    }
    let retained = LIVE.load(Ordering::Relaxed) - before;
    let convicted = fleet
        .pair_statuses()
        .iter()
        .filter(|s| s.pair.is_multiple_of(COVERT_EVERY))
        .all(|s| s.verdict.is_covert());
    drop(fleet);
    (retained as f64 / PAIRS as f64, convicted)
}

/// Per pair, the compact window stays within its budget on sparse and on
/// fully dense inputs (see the table above). The sparse figure includes
/// the covert pairs' bursty levels and containment state.
#[test]
fn contention_window_memory_stays_within_budget() {
    let (sparse_bytes, convicted) = retained_per_pair(sparse);
    // Dense noise in every bin masks the burst, so only the sparse mix
    // reaches containment; the dense one measures the window alone.
    assert!(convicted, "the sparse mix convicts its covert pairs");
    let (dense_bytes, _) = retained_per_pair(dense);
    assert!(
        sparse_bytes <= SPARSE_BUDGET,
        "sparse inputs: {sparse_bytes:.0} B retained per pair (budget {SPARSE_BUDGET} B)"
    );
    assert!(
        dense_bytes <= DENSE_BUDGET,
        "dense inputs: {dense_bytes:.0} B retained per pair (budget {DENSE_BUDGET} B)"
    );
}
