//! Allocation budget of the hardened ingest path: after one warm quantum,
//! `offer` never allocates and `end_quantum` allocates only the returned
//! harvest's bins, under every shedding policy; and what a pipeline keeps
//! between quanta stays within the admission queue's documented bound.
//!
//! This file holds exactly one test, because the counting allocator below
//! sees every thread of the test binary.

use cchunter_detector::ingest::{
    AdmissionConfig, IngestConfig, IngestPipeline, RawEvent, ShedPolicy,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// The system allocator plus an allocation counter that runs only while
/// switched on, and a live-byte balance that always runs.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

fn count(delta: i64) {
    LIVE_BYTES.fetch_add(delta, Ordering::Relaxed);
    if delta > 0 && COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters touch no allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: forwarded verbatim.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        count(new_size as i64);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made by `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCATIONS.load(Ordering::Relaxed))
}

const EVENT_BYTES: i64 = std::mem::size_of::<RawEvent>() as i64;
/// The pipeline's fixed heap: counter handles and the windowing scratch.
const FIXED_BYTES: i64 = 8 * 1024;

/// One quantum's events: `count` offers over `[0, count × 100)` with
/// weights 1–3, so runs cross Δt windows; every fifth offer backdated.
fn events(count: u64) -> Vec<RawEvent> {
    (0..count)
        .map(|i| RawEvent {
            time: if i % 5 == 4 { i * 100 - 350 } else { i * 100 },
            weight: 1 + (i % 3) as u32,
            context: (i % 4) as u8,
        })
        .collect()
}

#[test]
fn warm_quantum_offers_without_allocating_and_harvests_with_one() {
    let default_capacity = AdmissionConfig::default().capacity;
    assert_eq!(default_capacity, 1 << 16);
    let cases = [
        // The default drop-oldest ring, wrapped by an overfull quantum.
        (ShedPolicy::DropOldest, default_capacity, 70_000),
        (ShedPolicy::DropOldest, 1_024, 800),
        (ShedPolicy::DropNewest, 1_024, 1_500),
        (ShedPolicy::Reservoir { seed: 7 }, 1_024, 1_500),
        // churn_1k's hostile pipelines: a large reservoir that never sheds.
        (ShedPolicy::Reservoir { seed: 7 }, 1 << 14, 1_050),
    ];
    // Process-wide counters register on the first quantum ever; keep that
    // out of the per-pipeline balance.
    let mut first = IngestPipeline::new(IngestConfig::default()).unwrap();
    first.offer(events(1)[0]);
    drop(first.end_quantum(0, 100));

    for (policy, capacity, count) in cases {
        let label = format!("{policy} capacity {capacity}, {count} offers");
        let stream = events(count);
        let (start, end) = (0, count * 100);
        let before = LIVE_BYTES.load(Ordering::Relaxed);
        let mut pipeline = IngestPipeline::new(IngestConfig {
            admission: AdmissionConfig { capacity, policy },
            delta_t: 1_000,
            ..IngestConfig::default()
        })
        .unwrap();
        for _ in 0..2 {
            stream.iter().for_each(|&e| pipeline.offer(e));
            drop(pipeline.end_quantum(start, end));
        }

        // Memory bound: the queue's slots, plus a reservoir's arrival index
        // (a log of at most 2 × capacity 8 B slot numbers and one bit per
        // slot) once it has replaced a slot.
        let retained = LIVE_BYTES.load(Ordering::Relaxed) - before;
        let sheds = count as usize > capacity;
        let index = if sheds && !policy.is_biased() {
            capacity as i64 * 2 * 8 + capacity.div_ceil(64) as i64 * 8
        } else {
            0
        };
        let bound = capacity as i64 * EVENT_BYTES + index + FIXED_BYTES;
        assert!(
            retained <= bound,
            "{label}: retains {retained} B, bound {bound} B"
        );
        let slots = (count as usize).min(capacity) as i64 * EVENT_BYTES;
        assert!(
            retained >= slots,
            "{label}: retains {retained} B < {slots} B"
        );

        let ((), offers) = allocations(|| stream.iter().for_each(|&e| pipeline.offer(e)));
        assert_eq!(offers, 0, "{label}: offer allocated");
        let ((harvest, report), harvests) = allocations(|| pipeline.end_quantum(start, end));
        assert!(
            harvests <= 1,
            "{label}: end_quantum allocated {harvests} times"
        );
        assert_eq!(report.shed > 0, sheds, "{label}");
        assert!(report.sanitize.time_travel > 0 || report.sanitize.repaired_reorder > 0);
        drop(harvest);
    }
}
