//! Deterministic fault injection for degraded-harvest testing.
//!
//! A deployed CC-Hunter daemon does not see the pristine measurement
//! stream the batch experiments enjoy: quanta are missed when the daemon is
//! descheduled past a harvest deadline, histogram read-outs race the
//! hardware and come back truncated, 16-bit accumulators saturate under
//! bursty load (§V-A sizes them deliberately small), conflict records are
//! duplicated or reordered by the vector-register swap machinery, the
//! practical conflict tracker's Bloom filter aliases under pressure
//! (Figure 9), and the Δt clock itself jitters.
//!
//! [`FaultInjector`] reproduces each of those degradations *deterministically*
//! (seedable, per-class toggleable rates) so robustness tests can replay an
//! exact fault sequence. It sits between a harvest source (the
//! [`crate::auditor::CcAuditor`] or the simulator) and the online daemon,
//! turning clean histograms into [`Harvest`]es and clean conflict drains
//! into degraded ones.
//!
//! The same philosophy extends below the detector: [`StorageFaultInjector`]
//! is a [`StorageMedium`] that wraps the real disk (or any other medium)
//! and injects the *gray* storage failures a sick disk produces — ENOSPC,
//! EIO, failed fsyncs, silently torn writes, stalled writes — again
//! seedable and per-class toggleable, so checkpoint-durability soak
//! scenarios replay exactly.

use crate::auditor::ConflictRecord;
use crate::density::{DensityHistogram, HISTOGRAM_BINS};
use crate::online::Harvest;
use crate::store::{DiskMedium, StorageMedium};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// The individually toggleable fault classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// A quantum's harvest never arrives ([`Harvest::Missed`]).
    DroppedQuantum,
    /// A histogram read-out is cut short: a suffix of the bins is lost.
    TruncatedHistogram,
    /// The 16-bit accumulator tops out: windows above a saturation density
    /// collapse into that density's bin.
    AccumulatorSaturation,
    /// Adjacent conflict records swap places (vector-register swap races).
    OutOfOrderConflicts,
    /// Conflict records are delivered twice (re-drained register).
    DuplicatedConflicts,
    /// A burst of conflict records gets its replacer/victim contexts
    /// rewritten to one aliased pair (Bloom-filter aliasing, Figure 9).
    BloomAliasing,
    /// Timestamps (and the Δt grid they are binned on) jitter.
    ClockJitter,
}

impl FaultClass {
    /// Every fault class, in a fixed order.
    pub const ALL: [FaultClass; 7] = [
        FaultClass::DroppedQuantum,
        FaultClass::TruncatedHistogram,
        FaultClass::AccumulatorSaturation,
        FaultClass::OutOfOrderConflicts,
        FaultClass::DuplicatedConflicts,
        FaultClass::BloomAliasing,
        FaultClass::ClockJitter,
    ];

    fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&c| c == self)
            .expect("ALL is exhaustive")
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FaultClass::DroppedQuantum => "dropped-quantum",
            FaultClass::TruncatedHistogram => "truncated-histogram",
            FaultClass::AccumulatorSaturation => "accumulator-saturation",
            FaultClass::OutOfOrderConflicts => "out-of-order-conflicts",
            FaultClass::DuplicatedConflicts => "duplicated-conflicts",
            FaultClass::BloomAliasing => "bloom-aliasing",
            FaultClass::ClockJitter => "clock-jitter",
        };
        f.write_str(name)
    }
}

/// Per-class fault rates. All rates are probabilities in `[0, 1]`;
/// quantum-scoped classes (drop, truncate, saturate, aliasing) are rolled
/// once per quantum, record-scoped classes (reorder, duplicate, jitter)
/// once per conflict record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability a quantum's harvest is dropped entirely.
    pub dropped_quantum: f64,
    /// Probability a histogram read-out is truncated.
    pub truncated_histogram: f64,
    /// Probability a quantum suffers accumulator saturation.
    pub accumulator_saturation: f64,
    /// Per-record probability of swapping with its successor.
    pub out_of_order_conflicts: f64,
    /// Per-record probability of being delivered twice.
    pub duplicated_conflicts: f64,
    /// Probability a quantum suffers a Bloom-aliasing burst.
    pub bloom_aliasing: f64,
    /// Per-record (and per-harvest) probability of clock jitter.
    pub clock_jitter: f64,
    /// Maximum timestamp displacement applied by clock jitter, in cycles.
    pub jitter_cycles: u64,
}

impl Default for FaultConfig {
    /// Every class enabled at its default rate — the "hostile deployment"
    /// profile the acceptance tests run under.
    fn default() -> Self {
        FaultConfig {
            dropped_quantum: 0.1,
            truncated_histogram: 0.1,
            accumulator_saturation: 0.1,
            out_of_order_conflicts: 0.05,
            duplicated_conflicts: 0.05,
            bloom_aliasing: 0.1,
            clock_jitter: 0.1,
            jitter_cycles: 1_000,
        }
    }
}

impl FaultConfig {
    /// No faults at all (the injector becomes a pass-through).
    pub fn none() -> Self {
        FaultConfig {
            dropped_quantum: 0.0,
            truncated_histogram: 0.0,
            accumulator_saturation: 0.0,
            out_of_order_conflicts: 0.0,
            duplicated_conflicts: 0.0,
            bloom_aliasing: 0.0,
            clock_jitter: 0.0,
            jitter_cycles: 1_000,
        }
    }

    /// Exactly one class enabled, at its default rate.
    pub fn only(class: FaultClass) -> Self {
        let mut config = FaultConfig::none();
        config.set_rate(class, FaultConfig::default().rate(class));
        config
    }

    /// The configured rate for `class`.
    pub fn rate(&self, class: FaultClass) -> f64 {
        match class {
            FaultClass::DroppedQuantum => self.dropped_quantum,
            FaultClass::TruncatedHistogram => self.truncated_histogram,
            FaultClass::AccumulatorSaturation => self.accumulator_saturation,
            FaultClass::OutOfOrderConflicts => self.out_of_order_conflicts,
            FaultClass::DuplicatedConflicts => self.duplicated_conflicts,
            FaultClass::BloomAliasing => self.bloom_aliasing,
            FaultClass::ClockJitter => self.clock_jitter,
        }
    }

    /// Sets the rate for `class` (clamped to `[0, 1]`), builder-style.
    pub fn set_rate(&mut self, class: FaultClass, rate: f64) -> &mut Self {
        let rate = rate.clamp(0.0, 1.0);
        match class {
            FaultClass::DroppedQuantum => self.dropped_quantum = rate,
            FaultClass::TruncatedHistogram => self.truncated_histogram = rate,
            FaultClass::AccumulatorSaturation => self.accumulator_saturation = rate,
            FaultClass::OutOfOrderConflicts => self.out_of_order_conflicts = rate,
            FaultClass::DuplicatedConflicts => self.duplicated_conflicts = rate,
            FaultClass::BloomAliasing => self.bloom_aliasing = rate,
            FaultClass::ClockJitter => self.clock_jitter = rate,
        }
        self
    }

    /// With a different rate for `class`, consuming-builder style.
    pub fn with_rate(mut self, class: FaultClass, rate: f64) -> Self {
        self.set_rate(class, rate);
        self
    }
}

/// Deterministic, seedable fault injector.
///
/// ```
/// use cchunter_detector::density::{DensityHistogram, HISTOGRAM_BINS};
/// use cchunter_detector::fault::{FaultClass, FaultConfig, FaultInjector};
/// use cchunter_detector::online::Harvest;
///
/// let mut injector = FaultInjector::new(FaultConfig::only(FaultClass::DroppedQuantum), 42);
/// let mut dropped = 0;
/// for _ in 0..100 {
///     let clean = DensityHistogram::from_bins(vec![1; HISTOGRAM_BINS], 100_000).unwrap();
///     if matches!(injector.perturb_harvest(clean), Harvest::Missed) {
///         dropped += 1;
///     }
/// }
/// assert_eq!(dropped, injector.injected(FaultClass::DroppedQuantum));
/// assert!(dropped > 0, "default 10% drop rate fires within 100 quanta");
/// ```
#[derive(Debug)]
pub struct FaultInjector {
    config: FaultConfig,
    rng: SmallRng,
    injected: [u64; FaultClass::ALL.len()],
}

impl FaultInjector {
    /// Creates an injector replaying the fault sequence determined by
    /// `seed`.
    pub fn new(config: FaultConfig, seed: u64) -> Self {
        FaultInjector {
            config,
            rng: SmallRng::seed_from_u64(seed),
            injected: [0; FaultClass::ALL.len()],
        }
    }

    /// The active fault rates.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// How many faults of `class` have been injected so far.
    pub fn injected(&self, class: FaultClass) -> u64 {
        self.injected[class.index()]
    }

    /// Total faults injected across all classes.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }

    fn roll(&mut self, class: FaultClass) -> bool {
        let rate = self.config.rate(class);
        if rate > 0.0 && self.rng.gen_bool(rate) {
            self.injected[class.index()] += 1;
            true
        } else {
            false
        }
    }

    /// Degrades one quantum's harvested histogram according to the
    /// configured rates, returning what the daemon would actually receive.
    ///
    /// The returned [`Harvest::Partial`] `lost_fraction` accounts the
    /// windows that were lost (truncation) or distorted (saturation,
    /// jitter) relative to the quantum's total, so downstream confidence
    /// reflects the injected damage.
    pub fn perturb_harvest(&mut self, histogram: DensityHistogram) -> Harvest {
        if self.roll(FaultClass::DroppedQuantum) {
            return Harvest::Missed;
        }
        let delta_t = histogram.delta_t();
        let total = histogram.total_windows();
        let mut bins = histogram.bins().to_vec();
        let mut damaged: u64 = 0;

        if self.roll(FaultClass::TruncatedHistogram) {
            // The read-out stops partway through the buffer: everything
            // past the cut is lost.
            let cut = self.rng.gen_range(1..HISTOGRAM_BINS);
            for f in &mut bins[cut..] {
                damaged += *f;
                *f = 0;
            }
        }
        if self.roll(FaultClass::AccumulatorSaturation) {
            // A 16-bit accumulator effectively caps the countable density:
            // windows denser than the cap all report the cap.
            let cap = self.rng.gen_range(4..HISTOGRAM_BINS - 1);
            let mut moved: u64 = 0;
            for f in &mut bins[cap + 1..] {
                moved += *f;
                *f = 0;
            }
            bins[cap] += moved;
            damaged += moved;
        }
        if self.roll(FaultClass::ClockJitter) {
            // Δt-grid jitter blurs window boundaries: part of each bin's
            // population straddles into the neighboring density.
            let mut displaced: u64 = 0;
            for bin in (1..HISTOGRAM_BINS).rev() {
                let shift = bins[bin] / 8;
                if shift > 0 {
                    bins[bin] -= shift;
                    bins[bin - 1] += shift;
                    displaced += shift;
                }
            }
            damaged += displaced;
        }

        // Invariant: bins was cloned from a valid histogram (128 entries,
        // Δt > 0) and only mutated element-wise.
        let degraded =
            DensityHistogram::from_bins(bins, delta_t).expect("perturbed bins keep their shape");
        if damaged == 0 {
            Harvest::Complete(degraded)
        } else {
            Harvest::Partial {
                histogram: degraded,
                lost_fraction: (damaged as f64 / total.max(1) as f64).min(1.0),
            }
        }
    }

    /// Degrades one quantum's drained conflict records, returning the
    /// records the daemon would actually receive and the fraction of them
    /// that were corrupted (for
    /// [`crate::online::OnlineOscillationDetector::push_quantum_degraded`]).
    pub fn perturb_conflicts(
        &mut self,
        records: Vec<ConflictRecord>,
    ) -> (Vec<ConflictRecord>, f64) {
        let mut out = records;
        let original = out.len();
        let mut corrupted: usize = 0;

        if self.roll(FaultClass::BloomAliasing) && !out.is_empty() {
            // An aliasing burst: a run of records all report the same
            // (false) replacer/victim pair.
            let start = self.rng.gen_range(0..out.len());
            let len = self.rng.gen_range(1..=32.min(out.len() - start));
            let replacer = self.rng.gen_range(0u8..8);
            let victim = self.rng.gen_range(0u8..8);
            for r in &mut out[start..start + len] {
                r.replacer = replacer;
                r.victim = victim;
            }
            corrupted += len;
        }
        // Per-record faults. Duplication first (a re-drained register
        // replays records in place), then jitter, then reordering.
        let mut duplicated = Vec::with_capacity(out.len());
        for r in out {
            duplicated.push(r);
            if self.roll(FaultClass::DuplicatedConflicts) {
                duplicated.push(r);
                corrupted += 1;
            }
        }
        let mut out = duplicated;
        for r in &mut out {
            if self.roll(FaultClass::ClockJitter) {
                let jitter = self.rng.gen_range(0..=self.config.jitter_cycles.max(1));
                r.cycle = if self.rng.gen_bool(0.5) {
                    r.cycle.saturating_add(jitter)
                } else {
                    r.cycle.saturating_sub(jitter)
                };
                corrupted += 1;
            }
        }
        let mut i = 0;
        while i + 1 < out.len() {
            if self.roll(FaultClass::OutOfOrderConflicts) {
                out.swap(i, i + 1);
                corrupted += 2;
                i += 2; // don't double-perturb the swapped-in record
            } else {
                i += 1;
            }
        }
        let lost_fraction = (corrupted as f64 / original.max(1) as f64).min(1.0);
        (out, lost_fraction)
    }
}

/// The individually toggleable storage fault classes a gray-failing disk
/// produces (injected by [`StorageFaultInjector`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageFaultClass {
    /// A write or rename fails with `ENOSPC` (the disk-brownout staple).
    NoSpace,
    /// A read fails with a medium error (`EIO`).
    ReadError,
    /// A write or rename fails with a medium error (`EIO`).
    WriteError,
    /// `sync_all` on a file or directory fails: the write may sit in the
    /// page cache but is not durable.
    SyncFailure,
    /// A write is silently torn: only a prefix of the bytes reaches the
    /// medium, and the call still reports success — the nastiest gray
    /// failure, detectable only by the CRC envelope at load time.
    TornWrite,
    /// A write fails with a timeout after stalling.
    StalledWrite,
}

impl StorageFaultClass {
    /// Every storage fault class, in a fixed order.
    pub const ALL: [StorageFaultClass; 6] = [
        StorageFaultClass::NoSpace,
        StorageFaultClass::ReadError,
        StorageFaultClass::WriteError,
        StorageFaultClass::SyncFailure,
        StorageFaultClass::TornWrite,
        StorageFaultClass::StalledWrite,
    ];

    fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&c| c == self)
            .expect("ALL is exhaustive")
    }
}

impl fmt::Display for StorageFaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            StorageFaultClass::NoSpace => "no-space",
            StorageFaultClass::ReadError => "read-error",
            StorageFaultClass::WriteError => "write-error",
            StorageFaultClass::SyncFailure => "sync-failure",
            StorageFaultClass::TornWrite => "torn-write",
            StorageFaultClass::StalledWrite => "stalled-write",
        };
        f.write_str(name)
    }
}

/// Per-class storage fault rates, all probabilities in `[0, 1]`, rolled
/// once per medium operation of the matching kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageFaultConfig {
    /// Probability a write/rename fails with `ENOSPC`.
    pub no_space: f64,
    /// Probability a read fails with `EIO`.
    pub read_error: f64,
    /// Probability a write/rename fails with `EIO`.
    pub write_error: f64,
    /// Probability a file/directory fsync fails.
    pub sync_failure: f64,
    /// Probability a write is silently torn to a prefix.
    pub torn_write: f64,
    /// Probability a write fails with a timeout.
    pub stalled_write: f64,
}

impl Default for StorageFaultConfig {
    /// Every class enabled at a low rate — the "sick disk" profile.
    fn default() -> Self {
        StorageFaultConfig {
            no_space: 0.05,
            read_error: 0.05,
            write_error: 0.05,
            sync_failure: 0.05,
            torn_write: 0.05,
            stalled_write: 0.05,
        }
    }
}

impl StorageFaultConfig {
    /// No storage faults at all (the injector becomes a pass-through).
    pub fn none() -> Self {
        StorageFaultConfig {
            no_space: 0.0,
            read_error: 0.0,
            write_error: 0.0,
            sync_failure: 0.0,
            torn_write: 0.0,
            stalled_write: 0.0,
        }
    }

    /// Exactly one class enabled, at its default rate.
    pub fn only(class: StorageFaultClass) -> Self {
        let mut config = StorageFaultConfig::none();
        config.set_rate(class, StorageFaultConfig::default().rate(class));
        config
    }

    /// The configured rate for `class`.
    pub fn rate(&self, class: StorageFaultClass) -> f64 {
        match class {
            StorageFaultClass::NoSpace => self.no_space,
            StorageFaultClass::ReadError => self.read_error,
            StorageFaultClass::WriteError => self.write_error,
            StorageFaultClass::SyncFailure => self.sync_failure,
            StorageFaultClass::TornWrite => self.torn_write,
            StorageFaultClass::StalledWrite => self.stalled_write,
        }
    }

    /// Sets the rate for `class` (clamped to `[0, 1]`), builder-style.
    pub fn set_rate(&mut self, class: StorageFaultClass, rate: f64) -> &mut Self {
        let rate = rate.clamp(0.0, 1.0);
        match class {
            StorageFaultClass::NoSpace => self.no_space = rate,
            StorageFaultClass::ReadError => self.read_error = rate,
            StorageFaultClass::WriteError => self.write_error = rate,
            StorageFaultClass::SyncFailure => self.sync_failure = rate,
            StorageFaultClass::TornWrite => self.torn_write = rate,
            StorageFaultClass::StalledWrite => self.stalled_write = rate,
        }
        self
    }

    /// With a different rate for `class`, consuming-builder style.
    pub fn with_rate(mut self, class: StorageFaultClass, rate: f64) -> Self {
        self.set_rate(class, rate);
        self
    }
}

#[derive(Debug)]
struct StorageInjectorState {
    config: StorageFaultConfig,
    rng: SmallRng,
    injected: [u64; StorageFaultClass::ALL.len()],
}

impl StorageInjectorState {
    fn roll(&mut self, class: StorageFaultClass) -> bool {
        let rate = self.config.rate(class);
        if rate > 0.0 && self.rng.gen_bool(rate) {
            self.injected[class.index()] += 1;
            true
        } else {
            false
        }
    }
}

/// A deterministic, seedable [`StorageMedium`] that wraps another medium
/// (the real disk by default) and injects gray storage failures.
///
/// Clones share one RNG, config, and fault ledger, so a clone kept outside
/// a [`crate::store::CheckpointStore`] is a live *control handle*: flip
/// the rates mid-run ([`StorageFaultInjector::set_config`]) to script a
/// disk brownout and its healing, and read the ledger
/// ([`StorageFaultInjector::injected`]) to assert what was injected.
///
/// ```
/// use cchunter_detector::fault::{StorageFaultClass, StorageFaultConfig, StorageFaultInjector};
/// use cchunter_detector::store::CheckpointStore;
/// use cchunter_detector::DetectorError;
/// use std::sync::Arc;
///
/// let injector = StorageFaultInjector::new(
///     StorageFaultConfig::only(StorageFaultClass::NoSpace)
///         .with_rate(StorageFaultClass::NoSpace, 1.0),
///     7,
/// );
/// let dir = std::env::temp_dir().join(format!("cchunter-sfi-doc-{}", std::process::id()));
/// let store = CheckpointStore::open_with_medium(&dir, 2, Arc::new(injector.clone())).unwrap();
/// match store.save("pair-0", b"state") {
///     Err(DetectorError::StorageFault { retryable: true, .. }) => {}
///     other => panic!("expected a typed storage fault, got {other:?}"),
/// }
/// assert!(injector.total_injected() > 0, "every write rolled ENOSPC");
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
#[derive(Debug, Clone)]
pub struct StorageFaultInjector {
    inner: Arc<dyn StorageMedium>,
    state: Arc<Mutex<StorageInjectorState>>,
}

impl StorageFaultInjector {
    /// An injector over the real disk, replaying the fault sequence
    /// determined by `seed`.
    pub fn new(config: StorageFaultConfig, seed: u64) -> Self {
        Self::wrapping(Arc::new(DiskMedium), config, seed)
    }

    /// An injector over an arbitrary inner medium.
    pub fn wrapping(inner: Arc<dyn StorageMedium>, config: StorageFaultConfig, seed: u64) -> Self {
        StorageFaultInjector {
            inner,
            state: Arc::new(Mutex::new(StorageInjectorState {
                config,
                rng: SmallRng::seed_from_u64(seed),
                injected: [0; StorageFaultClass::ALL.len()],
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StorageInjectorState> {
        // The state is always structurally valid; a panicked holder's
        // poison is ignorable.
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The active fault rates.
    pub fn config(&self) -> StorageFaultConfig {
        self.lock().config
    }

    /// Replaces the fault rates on every clone at once — the brownout /
    /// heal switch of the soak scenarios.
    pub fn set_config(&self, config: StorageFaultConfig) {
        self.lock().config = config;
    }

    /// How many faults of `class` have been injected so far.
    pub fn injected(&self, class: StorageFaultClass) -> u64 {
        self.lock().injected[class.index()]
    }

    /// Total faults injected across all classes.
    pub fn total_injected(&self) -> u64 {
        self.lock().injected.iter().sum()
    }
}

impl StorageMedium for StorageFaultInjector {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        // Directory creation stays clean: the drills target the steady
        // state (writes), not store construction.
        self.inner.create_dir_all(dir)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let torn_cut = {
            let mut state = self.lock();
            if state.roll(StorageFaultClass::NoSpace) {
                return Err(io::Error::new(
                    io::ErrorKind::StorageFull,
                    "no space left on device (injected)",
                ));
            }
            if state.roll(StorageFaultClass::StalledWrite) {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "write stalled past its deadline (injected)",
                ));
            }
            if state.roll(StorageFaultClass::WriteError) {
                return Err(io::Error::other("I/O error on write (injected)"));
            }
            if state.roll(StorageFaultClass::TornWrite) && !bytes.is_empty() {
                Some(state.rng.gen_range(0..bytes.len()))
            } else {
                None
            }
        };
        match torn_cut {
            // The torn write *succeeds* from the caller's view — only a
            // prefix landed. The CRC envelope catches it at load time.
            Some(cut) => self.inner.write_file(path, &bytes[..cut]),
            None => self.inner.write_file(path, bytes),
        }
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        if self.lock().roll(StorageFaultClass::SyncFailure) {
            return Err(io::Error::other("fsync failed (injected)"));
        }
        self.inner.sync_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        {
            let mut state = self.lock();
            if state.roll(StorageFaultClass::NoSpace) {
                return Err(io::Error::new(
                    io::ErrorKind::StorageFull,
                    "no space left on device (injected)",
                ));
            }
            if state.roll(StorageFaultClass::WriteError) {
                return Err(io::Error::other("I/O error on rename (injected)"));
            }
        }
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        if self.lock().roll(StorageFaultClass::ReadError) {
            return Err(io::Error::other("I/O error on read (injected)"));
        }
        self.inner.read_file(path)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list_dir(dir)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        if self.lock().roll(StorageFaultClass::SyncFailure) {
            return Err(io::Error::other("directory fsync failed (injected)"));
        }
        self.inner.sync_dir(dir)
    }
}

/// A failure armed inside a fleet by [`ShardedFleet::arm`](crate::ShardedFleet::arm),
/// for its watchdogs to contain. Shards and pairs are global indices. A
/// shard failure fires as its shard tick starts, a pair failure as the
/// pair's analysis starts, each under the `catch_unwind` that contains a
/// real one; a stall counts as that work, for the deadline watchdogs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetFault {
    /// `ShardPanic(shard, n)`: the shard's next `n` ticks panic; `dead_after` in a row kill it.
    ShardPanic(usize, u32),
    /// `ShardStall(shard, us)`: the shard's next tick first stalls `us` µs.
    ShardStall(usize, u32),
    /// `PairPanic(pair, n)`: the pair's next `n` analyses panic.
    PairPanic(usize, u32),
    /// `PairStall(pair, us)`: the pair's next analysis first stalls `us` µs.
    PairStall(usize, u32),
}

/// The [`FleetFault`]s armed on one shard or pair.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Armed {
    panics: u32,
    stall_us: u32,
}

impl Armed {
    /// Arms `fault` here, replacing an armed fault of its kind.
    pub(crate) fn arm(&mut self, fault: FleetFault) {
        match fault {
            FleetFault::ShardPanic(_, n) | FleetFault::PairPanic(_, n) => self.panics = n,
            FleetFault::ShardStall(_, us) | FleetFault::PairStall(_, us) => self.stall_us = us,
        }
    }

    /// Fires what is armed, using it up: the stall, then one panic.
    #[inline]
    pub(crate) fn fire(&mut self) {
        if self.stall_us > 0 {
            let stall = std::mem::take(&mut self.stall_us);
            std::thread::sleep(std::time::Duration::from_micros(stall.into()));
        }
        if self.panics > 0 {
            self.panics -= 1;
            panic!("injected fleet fault");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_histogram() -> DensityHistogram {
        let mut bins = vec![0u64; HISTOGRAM_BINS];
        bins[0] = 2_400;
        bins[20] = 100;
        bins[100] = 40;
        DensityHistogram::from_bins(bins, 100_000).unwrap()
    }

    fn records(n: u64) -> Vec<ConflictRecord> {
        (0..n)
            .map(|i| ConflictRecord {
                cycle: i * 100,
                replacer: (i % 2) as u8,
                victim: ((i + 1) % 2) as u8,
            })
            .collect()
    }

    #[test]
    fn no_faults_is_a_pass_through() {
        let mut injector = FaultInjector::new(FaultConfig::none(), 1);
        let h = clean_histogram();
        assert_eq!(injector.perturb_harvest(h.clone()), Harvest::Complete(h));
        let r = records(50);
        let (out, lost) = injector.perturb_conflicts(r.clone());
        assert_eq!(out, r);
        assert_eq!(lost, 0.0);
        assert_eq!(injector.total_injected(), 0);
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let run = || {
            let mut injector = FaultInjector::new(FaultConfig::default(), 7);
            let harvests: Vec<Harvest> = (0..50)
                .map(|_| injector.perturb_harvest(clean_histogram()))
                .collect();
            let conflicts = injector.perturb_conflicts(records(200));
            (harvests, conflicts, injector.total_injected())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn truncation_yields_partial_with_lost_mass() {
        let mut injector = FaultInjector::new(
            FaultConfig::none().with_rate(FaultClass::TruncatedHistogram, 1.0),
            3,
        );
        let mut saw_partial = false;
        for _ in 0..20 {
            match injector.perturb_harvest(clean_histogram()) {
                Harvest::Partial {
                    histogram,
                    lost_fraction,
                } => {
                    saw_partial = true;
                    assert!(lost_fraction > 0.0 && lost_fraction <= 1.0);
                    assert!(histogram.total_windows() < clean_histogram().total_windows());
                }
                Harvest::Complete(_) => {
                    // The random cut can land past the last occupied bin,
                    // losing nothing — legitimately complete.
                }
                Harvest::Missed => panic!("truncation never drops the quantum"),
            }
        }
        assert!(saw_partial, "a cut below bin 100 must occur in 20 tries");
    }

    #[test]
    fn saturation_preserves_window_count() {
        let mut injector = FaultInjector::new(
            FaultConfig::none().with_rate(FaultClass::AccumulatorSaturation, 1.0),
            5,
        );
        let clean = clean_histogram();
        let total = clean.total_windows();
        match injector.perturb_harvest(clean) {
            Harvest::Partial { histogram, .. } => {
                assert_eq!(
                    histogram.total_windows(),
                    total,
                    "saturation distorts densities but loses no windows"
                );
            }
            Harvest::Complete(h) => assert_eq!(h.total_windows(), total),
            Harvest::Missed => panic!("saturation never drops the quantum"),
        }
    }

    #[test]
    fn duplication_only_grows_the_drain() {
        let mut injector = FaultInjector::new(
            FaultConfig::none().with_rate(FaultClass::DuplicatedConflicts, 0.5),
            9,
        );
        let (out, lost) = injector.perturb_conflicts(records(100));
        assert!(out.len() > 100);
        assert!(lost > 0.0);
        // Duplication preserves time order.
        assert!(out.windows(2).all(|w| w[0].cycle <= w[1].cycle));
    }

    #[test]
    fn aliasing_burst_rewrites_contexts_in_range() {
        let mut injector = FaultInjector::new(
            FaultConfig::none().with_rate(FaultClass::BloomAliasing, 1.0),
            11,
        );
        let (out, _) = injector.perturb_conflicts(records(100));
        assert_eq!(out.len(), 100, "aliasing neither adds nor removes records");
        assert!(out.iter().all(|r| r.replacer < 8 && r.victim < 8));
        assert_eq!(injector.injected(FaultClass::BloomAliasing), 1);
    }

    #[test]
    fn only_enables_exactly_one_class() {
        let config = FaultConfig::only(FaultClass::ClockJitter);
        for class in FaultClass::ALL {
            if class == FaultClass::ClockJitter {
                assert!(config.rate(class) > 0.0);
            } else {
                assert_eq!(config.rate(class), 0.0, "{class}");
            }
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "cchunter-sfi-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn storage_injector_passes_through_when_quiet() {
        let dir = temp_dir("quiet");
        let _ = std::fs::remove_dir_all(&dir);
        let injector = StorageFaultInjector::new(StorageFaultConfig::none(), 1);
        let store =
            crate::store::CheckpointStore::open_with_medium(&dir, 2, Arc::new(injector.clone()))
                .unwrap();
        store.save("p", b"hello").unwrap();
        assert_eq!(store.load_latest("p").unwrap().unwrap().payload, b"hello");
        assert_eq!(injector.total_injected(), 0);
        assert_eq!(store.write_retries(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn storage_injector_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let dir = temp_dir(&format!("det-{seed}"));
            let _ = std::fs::remove_dir_all(&dir);
            let injector = StorageFaultInjector::new(StorageFaultConfig::default(), seed);
            let store = crate::store::CheckpointStore::open_with_medium(
                &dir,
                2,
                Arc::new(injector.clone()),
            )
            .unwrap();
            let mut outcomes = Vec::new();
            for i in 0..40u8 {
                outcomes.push(store.save("p", &[i]).is_ok());
            }
            let ledger: Vec<u64> = StorageFaultClass::ALL
                .iter()
                .map(|&c| injector.injected(c))
                .collect();
            let _ = std::fs::remove_dir_all(&dir);
            (outcomes, ledger)
        };
        assert_eq!(run(13), run(13));
        assert_ne!(
            run(13).1,
            run(14).1,
            "different seeds take different fault sequences"
        );
    }

    #[test]
    fn enospc_brownout_fails_typed_and_heals() {
        let dir = temp_dir("brownout");
        let _ = std::fs::remove_dir_all(&dir);
        let injector = StorageFaultInjector::new(
            StorageFaultConfig::only(StorageFaultClass::NoSpace)
                .with_rate(StorageFaultClass::NoSpace, 1.0),
            3,
        );
        let store =
            crate::store::CheckpointStore::open_with_medium(&dir, 2, Arc::new(injector.clone()))
                .unwrap();
        match store.save("p", b"v0") {
            Err(crate::DetectorError::StorageFault {
                kind,
                retryable,
                op,
                ..
            }) => {
                assert_eq!(kind, crate::store::StorageFaultKind::NoSpace);
                assert!(retryable);
                assert_eq!(op, "write-file");
            }
            other => panic!("expected typed ENOSPC fault, got {other:?}"),
        }
        assert!(
            store.write_retries() > 0,
            "the bounded retry budget was spent first"
        );
        // The medium heals; durable writes resume on the same store.
        injector.set_config(StorageFaultConfig::none());
        store.save("p", b"v1").unwrap();
        assert_eq!(store.load_latest("p").unwrap().unwrap().payload, b"v1");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_is_silent_but_rollback_recovers() {
        let dir = temp_dir("torn");
        let _ = std::fs::remove_dir_all(&dir);
        let injector = StorageFaultInjector::new(StorageFaultConfig::none(), 5);
        let store =
            crate::store::CheckpointStore::open_with_medium(&dir, 3, Arc::new(injector.clone()))
                .unwrap();
        store.save("p", b"durable generation").unwrap();
        injector.set_config(
            StorageFaultConfig::only(StorageFaultClass::TornWrite)
                .with_rate(StorageFaultClass::TornWrite, 1.0),
        );
        // The torn save *reports success* — that is the point.
        let torn_generation = store.save("p", b"torn generation").unwrap();
        injector.set_config(StorageFaultConfig::none());
        let loaded = store.load_latest("p").unwrap().unwrap();
        assert_eq!(loaded.payload, b"durable generation");
        assert_eq!(loaded.rolled_back, 1, "the torn newest was skipped");
        assert!(loaded.generation < torn_generation);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_faults_are_absorbed_by_retries() {
        let dir = temp_dir("transient");
        let _ = std::fs::remove_dir_all(&dir);
        // 30% EIO: with 3 retries per step the save virtually always lands.
        let injector = StorageFaultInjector::new(
            StorageFaultConfig::only(StorageFaultClass::WriteError)
                .with_rate(StorageFaultClass::WriteError, 0.3),
            9,
        );
        let store =
            crate::store::CheckpointStore::open_with_medium(&dir, 2, Arc::new(injector.clone()))
                .unwrap();
        let mut ok = 0;
        for i in 0..30u8 {
            if store.save("p", &[i]).is_ok() {
                ok += 1;
            }
        }
        assert!(ok >= 25, "retries absorb a 30% fault rate, got {ok}/30");
        assert!(store.write_retries() > 0);
        assert!(store.write_backoff_us() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
