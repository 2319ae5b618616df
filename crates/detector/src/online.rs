//! Online (streaming) detection — the crate's one scoring core.
//!
//! [`OnlineWindow`] is the only code that turns per-quantum evidence into
//! window evidence and a [`Verdict`]: the gap-aware sliding window (at most
//! 512 quanta, §IV-B) a deployed daemon feeds quantum by quantum. The fleet
//! ([`crate::ShardedFleet`]) holds one per pair; the batch audits of
//! [`crate::pipeline::CcHunter`] replay their input into one exactly as
//! long and read its status once; [`crate::indicator::CcHunterIndicator`],
//! the quality gate's `cchunter` scorer, maps its statuses to a score. The
//! two resource kinds ([`PairKind`]) differ only in how a quantum is
//! analysed and what its slot keeps: a contention quantum is a density
//! histogram (burst likelihood ratio, discretized k-means features when
//! bursty), an oscillation quantum a conflict-miss symbol series
//! (autocorrelogram peak with harmonic confirmation).
//! [`OnlineContentionDetector`] and [`OnlineOscillationDetector`] are thin
//! handles that fix the kind at construction.
//!
//! ## Degraded harvests
//!
//! A real deployment does not get a pristine histogram every quantum: the
//! daemon can be descheduled past a harvest deadline (quantum missed),
//! registers saturate, buffers are truncated by DMA races. The window
//! therefore consumes [`Harvest`] values rather than bare histograms, keeps
//! a missed quantum as a slot with zero observation weight instead of
//! letting it vanish, and every status carries a
//! [`confidence`](OnlineStatus::confidence) — the observed fraction of the
//! window — that decays under loss instead of letting the verdict flip to a
//! spuriously confident `Clean`.
//!
//! ## Incremental windows
//!
//! Running aggregates (observation weight, observed and covert-evidence
//! counts) make a push O(1) plus the analysis of the new quantum. k-means is
//! memoized on the window's sequence of bursty level strings: a quantum is
//! discretized once, and clustering reruns only when a push or eviction
//! changes that sequence (the seeded k-means is deterministic, so reuse is
//! exact); a rerun clusters each distinct string once ([`crate::cluster`]).
//! The weight sum is rebased from the ring every `capacity` pushes so
//! round-off cannot accumulate.
//!
//! ## Compact storage
//!
//! A slot is 16 bytes: its weight and what it keeps of its quantum. A
//! contention slot's Δt and nonzero bins go to one byte queue as LEB128
//! varints (a `fleet_10k`-shaped quantum takes about 15 bytes), and a bursty
//! slot's level string to a second queue, 128 bytes instead of 1 KiB of
//! `f64`. The window scores that compact form: the fleet's coordinator
//! encodes each harvest once, at the probe (`encode_slot`), and the shard
//! takes the burst statistics and the level string from the decoded
//! nonzero `(bin, frequency)` pairs and keeps the bytes verbatim.
//! `checkpoint` decodes them again.
//!
//! ## Checkpoint / restore
//!
//! A window serializes to the plain-text `cchunter-checkpoint,v1` format of
//! [`crate::trace`], so a restarted daemon resumes mid-window and
//! reproduces the verdict sequence of an uninterrupted run.

use crate::auditor::ConflictRecord;
use crate::autocorr::{OscillationDetector, OscillationVerdict};
use crate::burst::{gather_nonzero, BurstDetector, BurstVerdict};
use crate::cluster::{discretize_nonzero, Groups, LevelString, RecurrenceVerdict};
use crate::density::{DensityHistogram, HISTOGRAM_BINS};
use crate::pipeline::{check_contexts, conflict_symbols, CcHunterConfig, Verdict};
use crate::trace::{read_checkpoint, write_checkpoint, Checkpoint, CheckpointSlot};
use crate::window::{prefetch, SlidingWindow};
use crate::DetectorError;
use std::collections::VecDeque;
use std::fmt;
use std::io::{Read, Write};
use std::mem::MaybeUninit;
use std::num::NonZeroUsize;
use std::ops::Deref;
use std::sync::Arc;

/// The paper's observation-window limit in OS quanta (§IV-B).
const MAX_WINDOW_QUANTA: usize = 512;

/// The two resource kinds a window — and a fleet pair — can audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairKind {
    /// Combinational resource: recurrent-burst daemon.
    Contention,
    /// Memory resource: oscillation daemon.
    Oscillation,
}

impl fmt::Display for PairKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PairKind::Contention => f.write_str("contention"),
            PairKind::Oscillation => f.write_str("oscillation"),
        }
    }
}

/// One OS quantum's worth of harvested observation, as delivered to the
/// daemon — possibly degraded.
#[derive(Debug, Clone, PartialEq)]
pub enum Harvest {
    /// The full quantum was observed.
    Complete(DensityHistogram),
    /// The quantum was observed, but a fraction of it was lost or distorted
    /// (register saturation, truncated read-out, dropped Δt windows).
    Partial {
        /// What was salvaged.
        histogram: DensityHistogram,
        /// Estimated fraction of the quantum's observation that was lost,
        /// in `[0, 1]`.
        lost_fraction: f64,
    },
    /// The quantum's harvest never arrived (daemon descheduled past the
    /// deadline, buffer overwritten before read-out).
    Missed,
}

impl Harvest {
    /// The harvest's observation weight: 1.0 for a complete quantum, the
    /// observed fraction for a partial one (0.0 if its loss is not a finite
    /// number), 0.0 for a miss.
    pub fn observed_weight(&self) -> f64 {
        match self {
            Harvest::Complete(_) => 1.0,
            Harvest::Partial { lost_fraction, .. } => unit_weight(1.0 - lost_fraction),
            Harvest::Missed => 0.0,
        }
    }

    /// The salvaged histogram, if any part of the quantum was observed.
    pub fn histogram(&self) -> Option<&DensityHistogram> {
        match self {
            Harvest::Complete(h) | Harvest::Partial { histogram: h, .. } => Some(h),
            Harvest::Missed => None,
        }
    }
}

/// `weight` clamped to `[0, 1]`. A non-finite weight is an unknown loss and
/// counts as total: a NaN weight would make the window's confidence NaN,
/// and since `NaN < min_confidence` is false, the daemon would acquit a
/// blinded pair.
pub(crate) fn unit_weight(weight: f64) -> f64 {
    if weight.is_finite() {
        weight.clamp(0.0, 1.0)
    } else {
        0.0
    }
}

impl From<DensityHistogram> for Harvest {
    fn from(histogram: DensityHistogram) -> Self {
        Harvest::Complete(histogram)
    }
}

/// Status returned after each pushed quantum. The default is the status of
/// a window that has seen nothing: zero confidence, `Inconclusive`.
#[derive(Debug, Clone, Default)]
pub struct OnlineStatus {
    /// The quantum's own burst verdict (contention path) — `None` on the
    /// oscillation path or when the quantum was missed.
    pub quantum_burst: Option<BurstVerdict>,
    /// The quantum's oscillation verdict (oscillation path) — `None` on
    /// the contention path or when the quantum was missed.
    pub quantum_oscillation: Option<OscillationVerdict>,
    /// Recurrence over the observed quanta of the current sliding window
    /// (contention path).
    pub recurrence: Option<RecurrenceVerdict>,
    /// Oscillatory quanta within the current sliding window.
    pub oscillatory_in_window: usize,
    /// Quanta currently in the sliding window, missed ones included.
    pub window_len: usize,
    /// Quanta in the window with any observation at all.
    pub observed_in_window: usize,
    /// Observed fraction of the window, in `[0, 1]`: the sum of per-quantum
    /// observation weights divided by `window_len`. 1.0 means the verdict
    /// rests on a fully observed window; anything lower means harvests were
    /// lost or degraded and the verdict — covert *or* clean — is
    /// correspondingly less trustworthy.
    pub confidence: f64,
    /// The daemon's current call.
    pub verdict: Verdict,
}

impl OnlineStatus {
    /// Whether the verdict rests on a degraded window (missed or partial
    /// harvests present).
    pub fn is_degraded(&self) -> bool {
        self.confidence < 1.0
    }
}

/// One window slot: its observation weight and what it keeps of its
/// quantum.
#[derive(Debug, Clone, Copy)]
struct Slot {
    weight: f64,
    quantum: SlotQuantum,
}

/// What a slot keeps of its quantum — the one place the two kinds differ
/// in storage.
#[derive(Debug, Clone, Copy)]
enum SlotQuantum {
    /// The harvest never arrived.
    Missed,
    /// A contention quantum. Its Δt and nonzero histogram bins, and its
    /// k-means levels when bursty, live in the window's [`BinArena`].
    Histogram {
        /// Bytes this slot owns in the arena's varint queue.
        span: u16,
        /// Whether the quantum's burst verdict was significant.
        bursty: bool,
    },
    /// An oscillation quantum's outcome.
    Oscillation { oscillatory: bool },
}

impl Slot {
    fn observed(&self) -> bool {
        !matches!(self.quantum, SlotQuantum::Missed)
    }

    /// Whether the slot is covert evidence: a significant burst or an
    /// oscillatory quantum.
    fn covert(&self) -> bool {
        matches!(
            self.quantum,
            SlotQuantum::Histogram { bursty: true, .. }
                | SlotQuantum::Oscillation { oscillatory: true }
        )
    }
}

/// The most varint bytes one slot can take: Δt, then 128 `(bin, frequency)`
/// pairs, at one byte per bin and at most ten per `u64`.
pub(crate) const MAX_SLOT_BYTES: usize = 10 + HISTOGRAM_BINS * 11;

/// Appends `histogram`'s slot encoding — its Δt, then its nonzero `(bin,
/// frequency)` pairs, each a LEB128 varint, at most [`MAX_SLOT_BYTES`] —
/// to `out`. The one encoder of contention quanta: a window's arena keeps
/// these bytes verbatim, and the fleet's coordinator writes them straight
/// into its shard batch at the probe, into room reserved once per harvest.
///
/// Not part of the crate's API: it is exported, hidden, only so that the
/// `cchunter-bench` suite `encode_slot_benign_quantum` can time the
/// coordinator's per-harvest encoding on its own.
#[doc(hidden)]
pub fn encode_slot(histogram: &DensityHistogram, out: &mut Vec<u8>) {
    let start = out.len();
    out.reserve(MAX_SLOT_BYTES);
    let len = write_slot(
        histogram.delta_t(),
        histogram.bins(),
        out.spare_capacity_mut(),
    );
    // SAFETY: `write_slot` initialised the first `len` spare bytes.
    unsafe { out.set_len(start + len) };
}

/// Writes the slot encoding of Δt `delta_t` and (at most
/// [`HISTOGRAM_BINS`]) `bins` to the front of `room` and returns its
/// length. Every byte is index-checked, so `room` shorter than the
/// encoding panics rather than overrun.
fn write_slot(delta_t: u64, bins: &[u64], room: &mut [MaybeUninit<u8>]) -> usize {
    let mut len = put_varint(room, 0, delta_t);
    // Most bins are empty: skip them eight at a time.
    for (chunk, bins) in bins[..bins.len().min(HISTOGRAM_BINS)].chunks(8).enumerate() {
        if bins.iter().fold(0, |any, &f| any | f) == 0 {
            continue;
        }
        for (i, &f) in bins.iter().enumerate() {
            if f > 0 {
                len = put_varint(room, len, (8 * chunk + i) as u64);
                len = put_varint(room, len, f);
            }
        }
    }
    len
}

/// Reads a slot encoding back: its Δt and its nonzero `(bin, frequency)`
/// pairs, bins ascending.
fn decode_slot(mut bytes: impl Iterator<Item = u8>) -> (u64, impl Iterator<Item = (usize, u64)>) {
    let delta_t = get_varint(&mut bytes).unwrap_or_default();
    let pairs = std::iter::from_fn(move || {
        let bin = get_varint(&mut bytes)?;
        Some((bin as usize, get_varint(&mut bytes).unwrap_or_default()))
    });
    (delta_t, pairs)
}

/// The contention window's histograms, compacted. Every observed slot
/// appends its Δt and then its nonzero `(bin, frequency)` pairs to one byte
/// queue, each number a LEB128 varint, so any `u64` round-trips exactly; a
/// bursty slot also appends its level string (the k-means input, computed
/// once at push time) to a second queue. Slots leave the window strictly
/// oldest-first, so a push appends at the back and an eviction drains the
/// oldest slot's bytes off the front — in steady state neither allocates.
/// The byte queue grows to an eighth (at least 64 bytes) past what a push
/// needs, so pushes stay amortized O(1) with little idle capacity, but
/// never past `limit`, the most a full window can hold.
#[derive(Debug)]
struct BinArena {
    bytes: VecDeque<u8>,
    levels: VecDeque<LevelString>,
    /// `capacity × MAX_SLOT_BYTES`.
    limit: usize,
}

impl BinArena {
    fn new(window_capacity: usize) -> Self {
        BinArena {
            bytes: VecDeque::new(),
            levels: VecDeque::new(),
            limit: window_capacity.saturating_mul(MAX_SLOT_BYTES),
        }
    }

    /// Appends `slot`, and `levels` if the slot is bursty; returns how many
    /// bytes the slot took.
    fn push(&mut self, slot: &[u8], levels: Option<LevelString>) -> u16 {
        if let Some(levels) = levels {
            // Grow by doubling from one string: a window with few bursty
            // quanta keeps little.
            if self.levels.len() == self.levels.capacity() {
                self.levels.reserve_exact(self.levels.len().max(1));
            }
            self.levels.push_back(levels);
        }
        let needed = self.bytes.len() + slot.len();
        if needed > self.bytes.capacity() {
            let target = (needed + (needed / 8).max(64)).min(self.limit);
            self.bytes.reserve_exact(target - self.bytes.len());
        }
        self.bytes.extend(slot);
        // At most MAX_SLOT_BYTES = 1 418.
        slot.len() as u16
    }

    /// Drops the bytes and levels of the oldest slot, which keeps `quantum`.
    fn pop_front(&mut self, quantum: SlotQuantum) {
        if let SlotQuantum::Histogram { span, bursty } = quantum {
            self.bytes.drain(..usize::from(span));
            if bursty {
                self.levels.pop_front();
            }
        }
    }

    /// Decodes the `span` bytes starting `offset` bytes from the front into
    /// a histogram's Δt and its nonzero `(bin, frequency)` pairs.
    fn histogram(&self, offset: usize, span: u16) -> (u64, Vec<(usize, u64)>) {
        let bytes = self.bytes.range(offset..offset + usize::from(span));
        let (delta_t, pairs) = decode_slot(bytes.copied());
        (delta_t, pairs.collect())
    }
}

/// Writes `value` as a LEB128 varint (7 bits a byte, low bits first, the
/// high bit set on every byte but the last) into `room` at `at`; returns
/// the index past it.
fn put_varint(room: &mut [MaybeUninit<u8>], mut at: usize, mut value: u64) -> usize {
    while value >= 0x80 {
        room[at].write(value as u8 | 0x80);
        (at, value) = (at + 1, value >> 7);
    }
    room[at].write(value as u8);
    at + 1
}

/// Reads one LEB128 varint off `bytes`, or `None` if they are exhausted.
fn get_varint(bytes: &mut impl Iterator<Item = u8>) -> Option<u64> {
    let mut value = 0;
    for (i, byte) in bytes.enumerate() {
        value |= u64::from(byte & 0x7f) << (7 * i);
        if byte < 0x80 {
            return Some(value);
        }
    }
    None
}

/// The gap-aware sliding window of one audited resource: the only code
/// that maps per-quantum evidence to window evidence and a [`Verdict`].
///
/// ```
/// use cchunter_detector::density::{DensityHistogram, HISTOGRAM_BINS};
/// use cchunter_detector::online::{Harvest, OnlineWindow, PairKind};
/// use cchunter_detector::pipeline::CcHunterConfig;
///
/// let config = CcHunterConfig::default();
/// let mut window = OnlineWindow::new(PairKind::Contention, config, 512).unwrap();
/// let mut bins = vec![0u64; HISTOGRAM_BINS];
/// bins[0] = 2_400;
/// bins[20] = 100; // a covert-channel-shaped quantum
/// let covert = DensityHistogram::from_bins(bins, 100_000).unwrap();
/// let status = window.push_harvest(covert.clone()).unwrap();
/// assert!(!status.verdict.is_covert(), "one bursty quantum is not recurrent");
/// let status = window.push_harvest(covert).unwrap();
/// assert!(status.verdict.is_covert(), "the pattern recurs");
/// assert_eq!(status.confidence, 1.0, "no harvests were lost");
/// // A missed harvest leaves a gap in the window instead of vanishing:
/// assert!(window.push_missed().confidence < 1.0);
/// // Conflict records are the other kind's evidence: a typed error.
/// assert!(window.push_conflicts(&[], 0.0).is_err());
/// ```
#[derive(Debug)]
pub struct OnlineWindow {
    kind: PairKind,
    /// Shared with every other window built from the same `Arc` (a
    /// fleet shard's pairs share one).
    config: Arc<CcHunterConfig>,
    window: SlidingWindow<Slot>,
    /// The window slots' Δt, nonzero histogram bins and bursty levels,
    /// oldest slot first (empty for oscillation windows).
    arena: BinArena,
    /// Running observation-weight sum over the window (running confidence
    /// numerator).
    weight_sum: f64,
    /// Running count of observed slots.
    observed: usize,
    /// Running count of covert-evidence slots: significant bursts
    /// (contention) or oscillatory quanta (oscillation).
    covert: usize,
    /// Pushes since `weight_sum` was last recomputed from the ring; the sum
    /// is rebased every `capacity` pushes (amortized O(1)) so add/subtract
    /// round-off can never accumulate.
    pushes_since_rebase: usize,
    /// `(largest_burst_cluster, recurrent)` of the last clustering,
    /// invalidated when the bursty sequence changes; the window and bursty
    /// counts come from the running counters at read time.
    cache: Option<(usize, bool)>,
}

impl OnlineWindow {
    /// Creates a `kind` window of `window_quanta` (clamped to the paper's
    /// 512-quantum limit).
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] if `window_quanta`,
    /// `config.cluster.k`, `config.cluster.min_recurring` or
    /// `config.min_oscillatory_windows` is zero.
    pub fn new(
        kind: PairKind,
        config: impl Into<Arc<CcHunterConfig>>,
        window_quanta: usize,
    ) -> Result<Self, DetectorError> {
        Self::with_capacity(kind, config.into(), window_quanta.min(MAX_WINDOW_QUANTA))
    }

    /// [`OnlineWindow::new`] without the 512-quantum clamp: a batch replay
    /// sizes its window to the whole input.
    pub(crate) fn with_capacity(
        kind: PairKind,
        config: Arc<CcHunterConfig>,
        capacity: usize,
    ) -> Result<Self, DetectorError> {
        let Some(capacity) = NonZeroUsize::new(capacity) else {
            return Err(DetectorError::invalid("the window must be at least one"));
        };
        let zero = [
            (config.cluster.k, "cluster.k"),
            (config.cluster.min_recurring, "cluster.min_recurring"),
            (config.min_oscillatory_windows, "min_oscillatory_windows"),
        ]
        .into_iter()
        .find(|&(value, _)| value == 0);
        if let Some((_, what)) = zero {
            return Err(DetectorError::invalid(format!(
                "{what} must be at least one"
            )));
        }
        Ok(Self::empty(kind, config, capacity))
    }

    fn empty(kind: PairKind, config: Arc<CcHunterConfig>, capacity: NonZeroUsize) -> Self {
        OnlineWindow {
            kind,
            config,
            window: SlidingWindow::new(capacity),
            arena: BinArena::new(capacity.get()),
            weight_sum: 0.0,
            observed: 0,
            covert: 0,
            pushes_since_rebase: 0,
            cache: None,
        }
    }

    /// An empty `kind` window with this window's configuration (the same
    /// `Arc`) and capacity. Infallible: both were validated when this
    /// window was built.
    pub(crate) fn blank(&self, kind: PairKind) -> Self {
        Self::empty(kind, Arc::clone(&self.config), self.window.capacity())
    }

    /// The configuration this window scores with, shared by `Arc`.
    pub(crate) fn config(&self) -> &Arc<CcHunterConfig> {
        &self.config
    }

    /// Re-points this window at `config`, an `Arc` of an equal
    /// configuration: a window moved into another pair table shares that
    /// table's.
    pub(crate) fn share_config(&mut self, config: &Arc<CcHunterConfig>) {
        self.config = Arc::clone(config);
    }

    /// The kind of evidence this window scores.
    pub(crate) fn kind(&self) -> PairKind {
        self.kind
    }

    /// Starts loading what the next push touches outside the window
    /// itself: the ring slot it replaces and both ends of the arena.
    pub(crate) fn prefetch(&self) {
        let ends = [self.arena.bytes.front(), self.arena.bytes.back()];
        if let Some(oldest) = self.window.iter().next() {
            prefetch(oldest);
        }
        for end in ends.into_iter().flatten() {
            prefetch(end);
        }
    }

    /// Quanta currently retained (missed quanta included).
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// The sliding-window capacity in quanta.
    pub fn capacity(&self) -> usize {
        self.window.capacity().get()
    }

    /// Feeds one contention quantum's harvest (a bare [`DensityHistogram`]
    /// converts to [`Harvest::Complete`]); returns the up-to-date status. A
    /// missed or partial harvest occupies a window slot with reduced
    /// observation weight, and the status's
    /// [`confidence`](OnlineStatus::confidence) reports how much of the
    /// window the verdict actually rests on.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::BadHarvest`], and pushes nothing, if this
    /// is an oscillation window.
    pub fn push_harvest(
        &mut self,
        harvest: impl Into<Harvest>,
    ) -> Result<OnlineStatus, DetectorError> {
        self.expect_kind(
            PairKind::Contention,
            "density harvest delivered to an oscillation pair",
        )?;
        // The dense histogram is analysed and encoded into the arena, and
        // dropped here while still hot.
        let burst = self.ingest_harvest(&harvest.into());
        Ok(self.status(burst, None))
    }

    /// Feeds one oscillation quantum's drained conflict records, a
    /// `lost_fraction` of which is known to have been lost or corrupted
    /// (vector-register overruns, Bloom-filter aliasing bursts): the
    /// quantum still contributes its verdict, but with reduced observation
    /// weight (none at all if `lost_fraction` is not a finite number).
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::BadHarvest`], and pushes nothing, if this
    /// is a contention window or a record names a hardware context outside
    /// the paper's 3-bit range.
    pub fn push_conflicts(
        &mut self,
        records: &[ConflictRecord],
        lost_fraction: f64,
    ) -> Result<OnlineStatus, DetectorError> {
        self.expect_kind(
            PairKind::Oscillation,
            "conflict records delivered to a contention pair",
        )?;
        check_contexts(records)?;
        let symbols = conflict_symbols(records, 0, u64::MAX);
        let verdict = self.ingest_symbols(symbols, 1.0 - lost_fraction);
        Ok(self.status(None, Some(verdict)))
    }

    /// Records a quantum whose evidence never arrived: the window keeps its
    /// place as a gap with zero observation weight.
    pub fn push_missed(&mut self) -> OnlineStatus {
        self.ingest_gap();
        self.status(None, None)
    }

    fn expect_kind(&self, kind: PairKind, reason: &str) -> Result<(), DetectorError> {
        if self.kind != kind {
            return Err(DetectorError::BadHarvest {
                reason: reason.to_string(),
            });
        }
        Ok(())
    }

    /// Slides a contention harvest into the window; returns its burst
    /// verdict if any of the quantum was observed.
    pub(crate) fn ingest_harvest(&mut self, harvest: &Harvest) -> Option<BurstVerdict> {
        match harvest.histogram() {
            Some(h) => Some(self.ingest_histogram(h, harvest.observed_weight())),
            None => {
                self.ingest_gap();
                None
            }
        }
    }

    /// Analyses a contention quantum and slides it into the window with
    /// observation `weight`.
    pub(crate) fn ingest_histogram(
        &mut self,
        histogram: &DensityHistogram,
        weight: f64,
    ) -> BurstVerdict {
        let mut room = [MaybeUninit::uninit(); MAX_SLOT_BYTES];
        let len = write_slot(histogram.delta_t(), histogram.bins(), &mut room);
        // SAFETY: `write_slot` initialised the first `len` bytes.
        let slot = unsafe { std::slice::from_raw_parts(room.as_ptr().cast::<u8>(), len) };
        self.ingest_encoded(slot, weight)
    }

    /// [`OnlineWindow::push_harvest`] for a contention quantum already
    /// encoded by [`encode_slot`] and observed with `weight`: the fleet's
    /// shard path.
    pub(crate) fn push_encoded(
        &mut self,
        slot: &[u8],
        weight: f64,
    ) -> Result<OnlineStatus, DetectorError> {
        self.expect_kind(
            PairKind::Contention,
            "density harvest delivered to an oscillation pair",
        )?;
        let burst = self.ingest_encoded(slot, weight);
        Ok(self.status(Some(burst), None))
    }

    /// The one contention ingest: scores the quantum encoded by
    /// [`encode_slot`] as `slot` from its decoded nonzero bins, and slides
    /// it into the window with observation `weight`. The arena keeps `slot`
    /// verbatim, and the quantum's level string when it is bursty.
    fn ingest_encoded(&mut self, slot: &[u8], weight: f64) -> BurstVerdict {
        let (delta_t, pairs) = decode_slot(slot.iter().copied());
        let mut room = [MaybeUninit::uninit(); HISTOGRAM_BINS];
        let nonzero = gather_nonzero(pairs, &mut room);
        let verdict = BurstDetector::new(self.config.burst).analyze_nonzero(delta_t, nonzero);
        let bursty = verdict.significant;
        let levels = bursty.then(|| discretize_nonzero(nonzero.iter().copied()));
        self.insert(weight, |arena| SlotQuantum::Histogram {
            span: arena.push(slot, levels),
            bursty,
        });
        verdict
    }

    /// Analyses an oscillation quantum's symbols and slides it into the
    /// window with observation `weight`. The symbols go straight into the
    /// thread's correlogram scratch, so a steady-state push allocates
    /// nothing.
    pub(crate) fn ingest_symbols(
        &mut self,
        symbols: impl IntoIterator<Item = u8>,
        weight: f64,
    ) -> OscillationVerdict {
        let verdict = OscillationDetector::new(self.config.oscillation)
            .analyze_symbols(symbols, self.config.max_lag);
        self.insert(weight, |_| SlotQuantum::Oscillation {
            oscillatory: verdict.oscillatory,
        });
        verdict
    }

    /// Slides a zero-weight gap into the window.
    pub(crate) fn ingest_gap(&mut self) {
        self.insert(0.0, |_| SlotQuantum::Missed);
    }

    /// Slides a slot into the window, maintaining the arena and the running
    /// aggregates in O(1) and invalidating the clustering cache only when
    /// the covert sequence actually changed. The evicted slot's entries
    /// leave the arena before `quantum` appends the new slot's, so the
    /// arena never holds more than a full window's worth.
    fn insert(&mut self, weight: f64, quantum: impl FnOnce(&mut BinArena) -> SlotQuantum) {
        if let (true, Some(oldest)) = (self.window.is_full(), self.window.iter().next()) {
            self.arena.pop_front(oldest.quantum);
        }
        let slot = Slot {
            weight: unit_weight(weight),
            quantum: quantum(&mut self.arena),
        };
        self.weight_sum += slot.weight;
        self.observed += usize::from(slot.observed());
        if slot.covert() {
            self.covert += 1;
            self.cache = None;
        }
        if let Some(evicted) = self.window.push(slot) {
            self.weight_sum -= evicted.weight;
            self.observed -= usize::from(evicted.observed());
            if evicted.covert() {
                self.covert -= 1;
                self.cache = None;
            }
        }
        self.pushes_since_rebase += 1;
        if self.pushes_since_rebase >= self.window.capacity().get() {
            self.weight_sum = self.window.iter().map(|s| s.weight).sum();
            self.pushes_since_rebase = 0;
        }
    }

    /// Recurrence over the observed quanta of the current window. Cheap
    /// counters answer the common cases; k-means reruns only when the
    /// window's bursty-feature sequence changed since the last clustering.
    fn recurrence(&mut self) -> RecurrenceVerdict {
        // Recurrence is established over the *observed* quanta only — a
        // gap cannot make two recurring patterns dissimilar, it just
        // shrinks the evidence (which the confidence reports).
        let (largest_burst_cluster, recurrent) = match self.cache {
            _ if self.covert < self.config.cluster.min_recurring => (self.covert, false),
            Some(cached) => cached,
            None => {
                let levels = &self.arena.levels;
                let cached = match levels.front() {
                    // One distinct string: k-means++ seeds and every Lloyd
                    // step put all inputs in one cluster, for any k, seed
                    // or iteration count, and the guard above made them
                    // at least `min_recurring`.
                    Some(first) if levels.iter().all(|l| l == first) => (self.covert, true),
                    _ => {
                        let groups: Groups = levels.iter().copied().collect();
                        let verdict = groups.recurrence(self.observed, &self.config.cluster);
                        (verdict.largest_burst_cluster, verdict.recurrent)
                    }
                };
                *self.cache.insert(cached)
            }
        };
        RecurrenceVerdict {
            windows: self.observed,
            bursty_windows: self.covert,
            largest_burst_cluster,
            recurrent,
        }
    }

    /// The window's evidence and verdict — the crate's one decision rule.
    /// `burst` / `oscillation` is the just-ingested quantum's own verdict.
    pub(crate) fn status(
        &mut self,
        burst: Option<BurstVerdict>,
        oscillation: Option<OscillationVerdict>,
    ) -> OnlineStatus {
        let window_len = self.window.len();
        let confidence = if window_len == 0 {
            0.0
        } else {
            // Clamped: the running sum can sit an ulp outside [0, len].
            (self.weight_sum / window_len as f64).clamp(0.0, 1.0)
        };
        let (covert, recurrence, oscillatory_in_window) = match self.kind {
            PairKind::Contention => {
                let recurrence = self.recurrence();
                (recurrence.recurrent, Some(recurrence), 0)
            }
            PairKind::Oscillation => (
                self.covert >= self.config.min_oscillatory_windows,
                None,
                self.covert,
            ),
        };
        // Covert evidence always stands; only an affirmative Clean demands
        // the confidence floor — a blinded monitor must not clear anything.
        let verdict = if covert {
            Verdict::CovertTimingChannel
        } else if confidence < self.config.min_confidence {
            Verdict::Inconclusive
        } else {
            Verdict::Clean
        };
        OnlineStatus {
            quantum_burst: burst,
            quantum_oscillation: oscillation,
            recurrence,
            oscillatory_in_window,
            window_len,
            observed_in_window: self.observed,
            confidence,
            verdict,
        }
    }

    /// Serializes the sliding window to `writer` in the plain-text
    /// checkpoint format of [`crate::trace`].
    ///
    /// # Errors
    ///
    /// Returns any I/O error from `writer`.
    pub fn checkpoint<W: Write>(&self, writer: W) -> Result<(), DetectorError> {
        let mut offset = 0;
        let slots = self
            .window
            .iter()
            .map(|s| {
                let (histogram, oscillatory) = match &s.quantum {
                    SlotQuantum::Missed => (None, None),
                    SlotQuantum::Histogram { span, .. } => {
                        let histogram = self.arena.histogram(offset, *span);
                        offset += usize::from(*span);
                        (Some(histogram), None)
                    }
                    SlotQuantum::Oscillation { oscillatory } => (None, Some(*oscillatory)),
                };
                CheckpointSlot {
                    weight: s.weight,
                    histogram,
                    oscillatory,
                }
            })
            .collect();
        let cp = Checkpoint {
            kind: self.kind.to_string(),
            capacity: self.window.capacity().get(),
            slots,
        };
        write_checkpoint(&cp, writer).map_err(Into::into)
    }

    /// Restores a `kind` window from a checkpoint written by
    /// [`checkpoint`](Self::checkpoint). Per-quantum burst verdicts are
    /// recomputed from the serialized histograms (the analysis is
    /// deterministic), so a restored daemon produces the same verdict
    /// sequence as one that never restarted.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::Trace`] on malformed input,
    /// [`DetectorError::InvalidConfig`] as [`OnlineWindow::new`] does, and
    /// [`DetectorError::CheckpointMismatch`] if the parsed state is
    /// incompatible with this window: another kind, a capacity of zero or
    /// beyond the paper's 512-quantum window limit, more slots than the
    /// declared capacity, slots of the other kind, or histogram bin indices
    /// outside [`HISTOGRAM_BINS`]. Incompatible state is never silently
    /// adopted (or clamped) — a restored window either matches its
    /// checkpoint exactly or refuses it.
    pub fn restore<R: Read>(
        kind: PairKind,
        config: impl Into<Arc<CcHunterConfig>>,
        reader: R,
    ) -> Result<Self, DetectorError> {
        let mismatch = |reason: String| DetectorError::CheckpointMismatch { reason };
        let cp = read_checkpoint(reader)?;
        if cp.kind != kind.to_string() {
            return Err(mismatch(format!(
                "expected a {kind} checkpoint, got kind {:?}",
                cp.kind
            )));
        }
        let (capacity, slots) = (cp.capacity, cp.slots.len());
        if capacity == 0 || capacity > MAX_WINDOW_QUANTA || slots > capacity {
            return Err(mismatch(format!(
                "checkpoint holds {slots} slots in a window of {capacity}; \
                 windows hold 1 to {MAX_WINDOW_QUANTA} quanta"
            )));
        }
        let mut window = Self::new(kind, config, capacity)?;
        for (idx, slot) in cp.slots.into_iter().enumerate() {
            match (kind, slot.histogram, slot.oscillatory) {
                (PairKind::Contention, Some((delta_t, sparse)), None) => {
                    let mut bins = vec![0u64; HISTOGRAM_BINS];
                    for (i, f) in sparse {
                        *bins.get_mut(i).ok_or_else(|| {
                            mismatch(format!(
                                "slot {idx} bin index {i} outside the {HISTOGRAM_BINS}-bin histogram"
                            ))
                        })? = f;
                    }
                    let histogram = DensityHistogram::from_bins(bins, delta_t)?;
                    window.ingest_histogram(&histogram, slot.weight);
                }
                (PairKind::Oscillation, None, Some(oscillatory)) => {
                    window.insert(slot.weight, |_| SlotQuantum::Oscillation { oscillatory });
                }
                (_, None, None) => window.insert(slot.weight, |_| SlotQuantum::Missed),
                (PairKind::Contention, _, Some(_)) => {
                    return Err(mismatch(format!(
                        "slot {idx} carries an oscillation outcome in a contention window"
                    )))
                }
                (PairKind::Oscillation, Some(_), _) => {
                    return Err(mismatch(format!(
                        "slot {idx} carries a histogram in an oscillation window"
                    )))
                }
            }
        }
        Ok(window)
    }
}

/// Streaming detector for one *combinational* resource (bus, divider,
/// multiplier): an [`OnlineWindow`] fixed to [`PairKind::Contention`]. Feed
/// one harvest per OS quantum.
#[derive(Debug)]
pub struct OnlineContentionDetector(OnlineWindow);

impl OnlineContentionDetector {
    /// A contention [`OnlineWindow::new`]; fails as it does.
    pub fn new(
        config: impl Into<Arc<CcHunterConfig>>,
        window_quanta: usize,
    ) -> Result<Self, DetectorError> {
        OnlineWindow::new(PairKind::Contention, config, window_quanta).map(Self)
    }

    /// A contention [`OnlineWindow::restore`]; fails as it does.
    pub fn restore<R: Read>(
        config: impl Into<Arc<CcHunterConfig>>,
        reader: R,
    ) -> Result<Self, DetectorError> {
        OnlineWindow::restore(PairKind::Contention, config, reader).map(Self)
    }

    /// [`OnlineWindow::push_harvest`], which cannot fail on a contention
    /// window.
    pub fn push_quantum(&mut self, harvest: impl Into<Harvest>) -> OnlineStatus {
        let burst = self.0.ingest_harvest(&harvest.into());
        self.0.status(burst, None)
    }
}

impl Deref for OnlineContentionDetector {
    type Target = OnlineWindow;

    fn deref(&self) -> &OnlineWindow {
        &self.0
    }
}

/// Streaming detector for a *memory* resource (shared cache): an
/// [`OnlineWindow`] fixed to [`PairKind::Oscillation`]. Feed the conflict
/// records drained each OS quantum.
#[derive(Debug)]
pub struct OnlineOscillationDetector(OnlineWindow);

impl OnlineOscillationDetector {
    /// An oscillation [`OnlineWindow::new`]; fails as it does.
    pub fn new(
        config: impl Into<Arc<CcHunterConfig>>,
        window_quanta: usize,
    ) -> Result<Self, DetectorError> {
        OnlineWindow::new(PairKind::Oscillation, config, window_quanta).map(Self)
    }

    /// An oscillation [`OnlineWindow::restore`]; fails as it does.
    pub fn restore<R: Read>(
        config: impl Into<Arc<CcHunterConfig>>,
        reader: R,
    ) -> Result<Self, DetectorError> {
        OnlineWindow::restore(PairKind::Oscillation, config, reader).map(Self)
    }

    /// Feeds one quantum's drained conflict records.
    pub fn push_quantum(&mut self, records: &[ConflictRecord]) -> OnlineStatus {
        self.push_quantum_degraded(records, 0.0)
    }

    /// [`OnlineWindow::push_conflicts`] on an oscillation window. A drain
    /// it would reject, naming a context outside the paper's 3-bit range,
    /// is corrupt and counts as a missed quantum.
    pub fn push_quantum_degraded(
        &mut self,
        records: &[ConflictRecord],
        lost_fraction: f64,
    ) -> OnlineStatus {
        self.0
            .push_conflicts(records, lost_fraction)
            .unwrap_or_else(|_| self.0.push_missed())
    }

    /// [`OnlineWindow::push_missed`].
    pub fn push_missed(&mut self) -> OnlineStatus {
        self.0.push_missed()
    }
}

impl Deref for OnlineOscillationDetector {
    type Target = OnlineWindow;

    fn deref(&self) -> &OnlineWindow {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn covert_histogram() -> DensityHistogram {
        let mut bins = vec![0u64; HISTOGRAM_BINS];
        bins[0] = 2_400;
        bins[19] = 20;
        bins[20] = 150;
        bins[21] = 25;
        DensityHistogram::from_bins(bins, 100_000).unwrap()
    }

    fn quiet_histogram() -> DensityHistogram {
        let mut bins = vec![0u64; HISTOGRAM_BINS];
        bins[0] = 2_495;
        bins[1] = 5;
        DensityHistogram::from_bins(bins, 100_000).unwrap()
    }

    #[test]
    fn alarm_fires_once_pattern_recurs() {
        let mut daemon = OnlineContentionDetector::new(CcHunterConfig::default(), 64).unwrap();
        let first = daemon.push_quantum(covert_histogram());
        assert!(!first.verdict.is_covert());
        let second = daemon.push_quantum(covert_histogram());
        assert!(second.verdict.is_covert());
        assert!(second.recurrence.as_ref().unwrap().recurrent);
        assert_eq!(second.confidence, 1.0);
        assert!(!second.is_degraded());
    }

    #[test]
    fn a_wrapped_level_ring_reclusters_like_the_f64_oracle() {
        use crate::cluster::discretized_features;
        use crate::kmeans_f64::recurrence_f64;
        // Bursty quanta with a few peak shapes, some quiet ones between:
        // the window's level ring fills, wraps and keeps wrapping.
        let config = CcHunterConfig::default();
        let mut window = OnlineWindow::new(PairKind::Contention, config, 24).unwrap();
        let mut kept: VecDeque<Option<Vec<f64>>> = VecDeque::new();
        let mut wrapped = false;
        for step in 0..200usize {
            let mut bins = vec![0u64; HISTOGRAM_BINS];
            bins[0] = 2_400;
            let peak = 16 + (step * 7) % 23;
            bins[peak] = 100 + (step % 5) as u64 * 60;
            bins[peak + 1] = 25;
            if step % 4 == 3 {
                bins[peak] = 0;
                bins[1] = 40;
            }
            let h = DensityHistogram::from_bins(bins, 100_000).unwrap();
            let bursty = BurstDetector::new(config.burst).analyze(&h).significant;
            if kept.len() == 24 {
                kept.pop_front();
            }
            kept.push_back(bursty.then(|| discretized_features(&h)));
            let status = window.push_harvest(h).unwrap();
            wrapped |= !window.arena.levels.as_slices().1.is_empty();
            let features: Vec<&Vec<f64>> = kept.iter().flatten().collect();
            let expected = recurrence_f64(kept.len(), &features, &config.cluster);
            assert_eq!(status.recurrence, Some(expected), "step {step}");
        }
        assert!(wrapped, "the level ring wrapped");
    }

    /// A window whose bursty quanta all share one level string skips
    /// k-means, and recurs exactly as [`Groups::recurrence`] over its
    /// strings for any `k`, seed, iteration count and `min_recurring`; a
    /// window with several distinct strings clusters as before.
    #[test]
    fn a_window_of_one_distinct_string_recurs_like_k_means() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(30);
        let (mut uniform_recurrent, mut mixed_recurrent) = (0, 0);
        for case in 0..120 {
            let config = CcHunterConfig {
                cluster: crate::ClusterConfig {
                    k: rng.gen_range(1..6),
                    max_iterations: rng.gen_range(1..20),
                    seed: rng.gen_range(0..u64::MAX),
                    min_recurring: rng.gen_range(1..6),
                },
                ..CcHunterConfig::default()
            };
            let shapes = if case % 2 == 0 {
                1
            } else {
                rng.gen_range(2..5)
            };
            let mut window = OnlineWindow::new(PairKind::Contention, config, 16).unwrap();
            for step in 0..48 {
                let mut bins = vec![0u64; HISTOGRAM_BINS];
                bins[0] = 2_400;
                if rng.gen_bool(0.7) {
                    let peak = 16 + 9 * rng.gen_range(0..shapes);
                    (bins[peak], bins[peak + 1]) = (150, 25);
                } else {
                    bins[1] = 5;
                }
                let h = DensityHistogram::from_bins(bins, 100_000).unwrap();
                let status = window.push_harvest(h).unwrap();
                let levels = &window.arena.levels;
                let groups: Groups = levels.iter().copied().collect();
                let expected = groups.recurrence(window.observed, &config.cluster);
                if expected.recurrent {
                    match levels.iter().all(|l| l == &levels[0]) {
                        true => uniform_recurrent += 1,
                        false => mixed_recurrent += 1,
                    }
                }
                assert_eq!(status.recurrence, Some(expected), "case {case} step {step}");
            }
        }
        assert!(uniform_recurrent > 100 && mixed_recurrent > 100);
    }

    #[test]
    fn quiet_stream_never_alarms() {
        let mut daemon = OnlineContentionDetector::new(CcHunterConfig::default(), 64).unwrap();
        for _ in 0..100 {
            let status = daemon.push_quantum(quiet_histogram());
            assert!(!status.verdict.is_covert());
        }
        assert_eq!(daemon.window_len(), 64, "window is bounded");
    }

    #[test]
    fn alarm_clears_after_channel_stops() {
        let mut daemon = OnlineContentionDetector::new(CcHunterConfig::default(), 8).unwrap();
        for _ in 0..4 {
            daemon.push_quantum(covert_histogram());
        }
        assert!(daemon.push_quantum(covert_histogram()).verdict.is_covert());
        // The channel stops; once its quanta age out of the window the
        // daemon stands down.
        let mut last = Verdict::CovertTimingChannel;
        for _ in 0..8 {
            last = daemon.push_quantum(quiet_histogram()).verdict;
        }
        assert!(!last.is_covert());
    }

    #[test]
    fn missed_quanta_decay_confidence_not_verdict() {
        let mut daemon = OnlineContentionDetector::new(CcHunterConfig::default(), 8).unwrap();
        daemon.push_quantum(covert_histogram());
        daemon.push_quantum(covert_histogram());
        let status = daemon.push_quantum(Harvest::Missed);
        // The recurring pattern is still in the window; the gap only dents
        // the confidence.
        assert!(status.verdict.is_covert());
        assert!((status.confidence - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(status.observed_in_window, 2);
        assert_eq!(status.window_len, 3);
        assert!(status.quantum_burst.is_none());
        assert!(status.is_degraded());
    }

    #[test]
    fn partial_harvests_weight_the_confidence() {
        let mut daemon = OnlineContentionDetector::new(CcHunterConfig::default(), 8).unwrap();
        daemon.push_quantum(covert_histogram());
        let status = daemon.push_quantum(Harvest::Partial {
            histogram: covert_histogram(),
            lost_fraction: 0.5,
        });
        assert!(status.verdict.is_covert(), "the salvaged half still recurs");
        assert!((status.confidence - 0.75).abs() < 1e-12);
        assert_eq!(status.observed_in_window, 2);
    }

    #[test]
    fn all_missed_window_is_zero_confidence_clean() {
        let mut daemon = OnlineContentionDetector::new(CcHunterConfig::default(), 4).unwrap();
        for _ in 0..4 {
            let status = daemon.push_quantum(Harvest::Missed);
            assert!(!status.verdict.is_covert());
            assert_eq!(status.confidence, 0.0, "a blind window has no confidence");
        }
    }

    #[test]
    fn contention_checkpoint_roundtrips_and_resumes() {
        let mut daemon = OnlineContentionDetector::new(CcHunterConfig::default(), 8).unwrap();
        daemon.push_quantum(covert_histogram());
        daemon.push_quantum(Harvest::Missed);
        daemon.push_quantum(Harvest::Partial {
            histogram: covert_histogram(),
            lost_fraction: 0.25,
        });
        let mut buf = Vec::new();
        daemon.checkpoint(&mut buf).unwrap();
        let mut restored =
            OnlineContentionDetector::restore(CcHunterConfig::default(), buf.as_slice()).unwrap();
        assert_eq!(restored.window_len(), 3);
        // Both daemons must report identical statuses from here on.
        for harvest in [
            Harvest::Complete(covert_histogram()),
            Harvest::Missed,
            Harvest::Complete(quiet_histogram()),
        ] {
            let a = daemon.push_quantum(harvest.clone());
            let b = restored.push_quantum(harvest);
            assert_eq!(a.verdict, b.verdict);
            assert_eq!(a.confidence, b.confidence);
            assert_eq!(a.window_len, b.window_len);
        }
    }

    #[test]
    fn restore_rejects_wrong_kind() {
        let daemon = OnlineOscillationDetector::new(CcHunterConfig::default(), 4).unwrap();
        let mut buf = Vec::new();
        daemon.checkpoint(&mut buf).unwrap();
        let err = OnlineContentionDetector::restore(CcHunterConfig::default(), buf.as_slice())
            .unwrap_err();
        assert!(matches!(err, DetectorError::CheckpointMismatch { .. }));
    }

    #[test]
    fn restore_rejects_incompatible_state() {
        let config = CcHunterConfig::default;
        // Capacity beyond the 512-quantum limit is refused, not clamped.
        let text = "cchunter-checkpoint,v1\nkind,contention\ncapacity,4096\nend\n";
        let err = OnlineContentionDetector::restore(config(), text.as_bytes()).unwrap_err();
        assert!(
            matches!(err, DetectorError::CheckpointMismatch { .. }),
            "{err}"
        );
        // Zero capacity.
        let text = "cchunter-checkpoint,v1\nkind,oscillation\ncapacity,0\nend\n";
        let err = OnlineOscillationDetector::restore(config(), text.as_bytes()).unwrap_err();
        assert!(
            matches!(err, DetectorError::CheckpointMismatch { .. }),
            "{err}"
        );
        // More slots than capacity.
        let text =
            "cchunter-checkpoint,v1\nkind,contention\ncapacity,1\nslot,1,missed\nslot,1,missed\nend\n";
        let err = OnlineContentionDetector::restore(config(), text.as_bytes()).unwrap_err();
        assert!(
            matches!(err, DetectorError::CheckpointMismatch { .. }),
            "{err}"
        );
        // A histogram bin index outside the 128-bin buffer.
        let text =
            "cchunter-checkpoint,v1\nkind,contention\ncapacity,4\nslot,1,hist,100000,500:10\nend\n";
        let err = OnlineContentionDetector::restore(config(), text.as_bytes()).unwrap_err();
        assert!(
            matches!(err, DetectorError::CheckpointMismatch { .. }),
            "{err}"
        );
        // Cross-kind slots: an oscillation outcome inside a contention
        // window (and vice versa) is incompatible state, not a parse error.
        let text = "cchunter-checkpoint,v1\nkind,contention\ncapacity,4\nslot,1,osc,1\nend\n";
        let err = OnlineContentionDetector::restore(config(), text.as_bytes()).unwrap_err();
        assert!(
            matches!(err, DetectorError::CheckpointMismatch { .. }),
            "{err}"
        );
        let text =
            "cchunter-checkpoint,v1\nkind,oscillation\ncapacity,4\nslot,1,hist,100000,0:5\nend\n";
        let err = OnlineOscillationDetector::restore(config(), text.as_bytes()).unwrap_err();
        assert!(
            matches!(err, DetectorError::CheckpointMismatch { .. }),
            "{err}"
        );
    }

    /// Bins summing past `u64::MAX` windows are a typed error in every
    /// build profile: they used to panic a debug build on the addition and
    /// wrap a release build's window total to 0.
    #[test]
    fn restore_rejects_bins_that_overflow_the_window_count() {
        let text = "cchunter-checkpoint,v1\nkind,contention\ncapacity,4\n\
                    slot,1,hist,100,0:18446744073709551615 1:1\nend\n";
        let err = OnlineWindow::restore(
            PairKind::Contention,
            CcHunterConfig::default(),
            text.as_bytes(),
        )
        .unwrap_err();
        assert!(matches!(err, DetectorError::BadHarvest { .. }), "{err}");
        // A sum that fits is analysed exactly: its density-weighted burst
        // sum, 127 · (2⁶⁴ − 2), is past `u64` but the burst mean is 127 and
        // the restored slot is a significant burst.
        let text = "cchunter-checkpoint,v1\nkind,contention\ncapacity,4\n\
                    slot,1,hist,100,1:1 127:18446744073709551614\nend\n";
        let window = OnlineWindow::restore(
            PairKind::Contention,
            CcHunterConfig::default(),
            text.as_bytes(),
        )
        .unwrap();
        assert_eq!((window.window_len(), window.covert), (1, 1));
        let mut bins = vec![0; HISTOGRAM_BINS];
        (bins[1], bins[127]) = (1, u64::MAX - 1);
        let histogram = DensityHistogram::from_bins(bins, 100).unwrap();
        let verdict = BurstDetector::new(CcHunterConfig::default().burst).analyze(&histogram);
        assert_eq!(verdict.burst_mean, 127.0);
        assert!(verdict.has_burst_distribution && verdict.significant);
    }

    #[test]
    fn degraded_midwindow_checkpoint_resumes_identically() {
        // push_missed → checkpoint → restore → continued pushes must
        // reproduce the exact OnlineStatus sequence of an uninterrupted
        // run, for both daemon kinds.
        let mut daemon = OnlineContentionDetector::new(CcHunterConfig::default(), 6).unwrap();
        daemon.push_quantum(covert_histogram());
        daemon.push_quantum(Harvest::Missed);
        daemon.push_quantum(Harvest::Partial {
            histogram: covert_histogram(),
            lost_fraction: 0.4,
        });
        daemon.push_quantum(Harvest::Missed);
        let mut buf = Vec::new();
        daemon.checkpoint(&mut buf).unwrap();
        let mut restored =
            OnlineContentionDetector::restore(CcHunterConfig::default(), buf.as_slice()).unwrap();
        for harvest in [
            Harvest::Missed,
            Harvest::Complete(covert_histogram()),
            Harvest::Partial {
                histogram: quiet_histogram(),
                lost_fraction: 0.9,
            },
            Harvest::Complete(quiet_histogram()),
            Harvest::Missed,
        ] {
            let a = daemon.push_quantum(harvest.clone());
            let b = restored.push_quantum(harvest);
            assert_eq!(a.verdict, b.verdict);
            assert_eq!(a.confidence, b.confidence);
            assert_eq!(a.window_len, b.window_len);
            assert_eq!(a.observed_in_window, b.observed_in_window);
        }
    }

    #[test]
    fn oscillation_daemon_needs_sustained_windows() {
        let config = CcHunterConfig::default();
        let mut daemon = OnlineOscillationDetector::new(config, 16).unwrap();
        // A square-wave quantum: 8 bits × (64 T→S + 64 S→T).
        let mut records = Vec::new();
        let mut cycle = 0;
        for _ in 0..8 {
            for _ in 0..64 {
                records.push(ConflictRecord {
                    cycle,
                    replacer: 0,
                    victim: 1,
                });
                cycle += 100;
            }
            for _ in 0..64 {
                records.push(ConflictRecord {
                    cycle,
                    replacer: 1,
                    victim: 0,
                });
                cycle += 100;
            }
        }
        let first = daemon.push_quantum(&records);
        assert!(first.quantum_oscillation.unwrap().oscillatory);
        assert!(!first.verdict.is_covert(), "one window is not sustained");
        let second = daemon.push_quantum(&records);
        assert!(second.verdict.is_covert());
        assert_eq!(second.confidence, 1.0);

        // Checkpoint/restore resumes the oscillation window too.
        let mut buf = Vec::new();
        daemon.checkpoint(&mut buf).unwrap();
        let mut restored =
            OnlineOscillationDetector::restore(CcHunterConfig::default(), buf.as_slice()).unwrap();
        let a = daemon.push_missed();
        let b = restored.push_missed();
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.confidence, b.confidence);
        assert!(a.confidence < 1.0);
    }

    /// A partial harvest whose loss is not a finite number is a total
    /// loss: it must neither make the confidence NaN (which acquits, since
    /// `NaN < min_confidence` is false) nor write a checkpoint that
    /// `restore` refuses.
    #[test]
    fn non_finite_loss_counts_as_total_loss() {
        for lost_fraction in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let harvest = Harvest::Partial {
                histogram: quiet_histogram(),
                lost_fraction,
            };
            assert_eq!(harvest.observed_weight(), 0.0, "{lost_fraction}");
            let mut contention =
                OnlineContentionDetector::new(CcHunterConfig::default(), 8).unwrap();
            let status = contention.push_quantum(harvest);
            assert_eq!(status.confidence, 0.0, "{lost_fraction}");
            assert_eq!(status.verdict, Verdict::Inconclusive, "{lost_fraction}");
            let mut buf = Vec::new();
            contention.checkpoint(&mut buf).unwrap();
            let restored =
                OnlineContentionDetector::restore(CcHunterConfig::default(), buf.as_slice());
            assert_eq!(restored.unwrap().window_len(), 1, "{lost_fraction}");

            let mut oscillation =
                OnlineOscillationDetector::new(CcHunterConfig::default(), 8).unwrap();
            let status = oscillation.push_quantum_degraded(&[], lost_fraction);
            assert_eq!(status.confidence, 0.0, "{lost_fraction}");
            assert_eq!(status.verdict, Verdict::Inconclusive, "{lost_fraction}");
            let mut buf = Vec::new();
            oscillation.checkpoint(&mut buf).unwrap();
            let restored =
                OnlineOscillationDetector::restore(CcHunterConfig::default(), buf.as_slice());
            assert_eq!(restored.unwrap().window_len(), 1, "{lost_fraction}");
        }
    }

    /// A window holds up to 512 slots per pair, so each stays at 16 bytes:
    /// its weight plus a span, a flag and the tag.
    #[test]
    fn slot_is_at_most_16_bytes() {
        assert!(std::mem::size_of::<Slot>() <= 16);
    }

    #[test]
    fn varints_round_trip_at_their_boundaries() {
        let values = [
            (0, 1),
            (1, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (1 << 32, 5),
            (u64::MAX, 10),
        ];
        let (mut room, mut at) = ([MaybeUninit::uninit(); 64], 0);
        for (v, len) in values {
            let end = put_varint(&mut room, at, v);
            assert_eq!(end - at, len, "{v}");
            at = end;
        }
        // SAFETY: `put_varint` initialised the first `at` bytes.
        let bytes = unsafe { std::slice::from_raw_parts(room.as_ptr().cast::<u8>(), at) };
        let mut iter = bytes.iter().copied();
        for (v, _) in values {
            assert_eq!(get_varint(&mut iter), Some(v));
        }
        assert_eq!(get_varint(&mut iter), None);
    }

    /// The slot encoder checking every bin, one at a time: the oracle of
    /// `encode_slot`'s eight-at-a-time skip.
    fn encode_slot_bin_by_bin(histogram: &DensityHistogram) -> Vec<u8> {
        let mut out = Vec::new();
        let mut put = |mut value: u64| {
            while value >= 0x80 {
                out.push(value as u8 | 0x80);
                value >>= 7;
            }
            out.push(value as u8);
        };
        put(histogram.delta_t());
        for (bin, &f) in histogram.bins().iter().enumerate() {
            if f > 0 {
                put(bin as u64);
                put(f);
            }
        }
        out
    }

    #[test]
    fn slot_encoding_matches_the_bin_by_bin_oracle() {
        let one_bin = |bin: usize, f: u64| {
            let mut bins = vec![0; HISTOGRAM_BINS];
            bins[bin] = f;
            bins
        };
        let mut shapes: Vec<(Vec<u64>, u64)> = vec![
            (vec![0; HISTOGRAM_BINS], 1),
            (vec![0; HISTOGRAM_BINS], u64::MAX),
            (vec![1; HISTOGRAM_BINS], 1_000),
            // Every bin set, each as wide as 128 bins can sum to.
            (vec![u64::MAX / 128; HISTOGRAM_BINS], u64::MAX),
            ((0..HISTOGRAM_BINS).map(|b| 1 << (b % 57)).collect(), 3),
        ];
        // Either side of each eight-bin group's edges, and the last bin.
        let last = HISTOGRAM_BINS - 1;
        for bin in [0, 1, 7, 8, 9, 63, 64, 120, last - 1, last] {
            shapes.push((one_bin(bin, u64::MAX), 1 << 40));
            shapes.push((one_bin(bin, 1), 128));
            shapes.push((one_bin(bin, 127), 16_384));
        }
        let mut x = 0x5EED_F0B1_7500_u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..4_000 {
            let mut bins = vec![0; HISTOGRAM_BINS];
            // From one nonzero bin to about every bin, clustered or spread,
            // each of a random bit width.
            let nonzero = 1 + next() % 130;
            for _ in 0..nonzero {
                let bin = (next() % HISTOGRAM_BINS as u64) as usize;
                bins[bin] = next() >> (8 + next() % 56);
            }
            shapes.push((bins, 1 + next() % (1 << 20)));
        }
        for (bins, delta_t) in shapes {
            let histogram = DensityHistogram::from_bins(bins, delta_t).unwrap();
            let expected = encode_slot_bin_by_bin(&histogram);
            // Appended after what the batch already holds, as at the probe.
            let mut batch = vec![0xEE; 3];
            encode_slot(&histogram, &mut batch);
            assert_eq!(&batch[..3], [0xEE; 3]);
            assert_eq!(batch[3..], expected[..], "{:?}", histogram.bins());
            assert!(expected.len() <= MAX_SLOT_BYTES);
        }
    }

    /// The widest slot fills the reserved room exactly: a ten-byte Δt and
    /// all 128 bins at ten-byte frequencies (more than a histogram's checked
    /// total admits, so written from bare bins), after bytes already held.
    #[test]
    fn the_widest_slot_fills_its_reserved_room_exactly() {
        let bins = [u64::MAX; HISTOGRAM_BINS];
        let mut room = vec![MaybeUninit::uninit(); MAX_SLOT_BYTES + 1];
        let len = write_slot(u64::MAX, &bins, &mut room[1..]);
        assert_eq!(len, MAX_SLOT_BYTES);
        let mut short = vec![MaybeUninit::uninit(); MAX_SLOT_BYTES - 1];
        let overrun = std::panic::catch_unwind(move || write_slot(u64::MAX, &bins, &mut short));
        assert!(overrun.is_err(), "one byte short panics, never overruns");
        let mut batch = vec![0xEE; 3];
        let histogram = DensityHistogram::from_bins(vec![u64::MAX / 128; 128], u64::MAX).unwrap();
        encode_slot(&histogram, &mut batch);
        assert_eq!(batch[3..], encode_slot_bin_by_bin(&histogram)[..]);
    }

    #[test]
    fn zero_window_rejected() {
        let err = OnlineContentionDetector::new(CcHunterConfig::default(), 0).unwrap_err();
        assert!(matches!(err, DetectorError::InvalidConfig { .. }));
        let err = OnlineOscillationDetector::new(CcHunterConfig::default(), 0).unwrap_err();
        assert!(matches!(err, DetectorError::InvalidConfig { .. }));
    }

    /// `k = 0` would panic inside k-means on the second bursty quantum.
    #[test]
    fn zero_cluster_count_is_rejected() {
        let mut config = CcHunterConfig::default();
        config.cluster.k = 0;
        let err = OnlineContentionDetector::new(config, 8).unwrap_err();
        assert!(matches!(err, DetectorError::InvalidConfig { .. }), "{err}");
    }

    /// `min_recurring = 0` would convict a quiet histogram on its first
    /// push.
    #[test]
    fn zero_min_recurring_is_rejected() {
        let mut config = CcHunterConfig::default();
        config.cluster.min_recurring = 0;
        let err = OnlineContentionDetector::new(config, 8).unwrap_err();
        assert!(matches!(err, DetectorError::InvalidConfig { .. }), "{err}");
    }

    /// `min_oscillatory_windows = 0` would convict an empty conflict drain
    /// on its first push.
    #[test]
    fn zero_min_oscillatory_windows_is_rejected() {
        let config = CcHunterConfig {
            min_oscillatory_windows: 0,
            ..CcHunterConfig::default()
        };
        let err = OnlineOscillationDetector::new(config, 8).unwrap_err();
        assert!(matches!(err, DetectorError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn wrong_kind_input_is_a_typed_error_and_pushes_nothing() {
        let config = CcHunterConfig::default();
        let mut contention = OnlineWindow::new(PairKind::Contention, config, 4).unwrap();
        let err = contention.push_conflicts(&[], 0.0).unwrap_err();
        assert!(matches!(err, DetectorError::BadHarvest { .. }), "{err}");
        let mut oscillation = OnlineWindow::new(PairKind::Oscillation, config, 4).unwrap();
        let err = oscillation.push_harvest(Harvest::Missed).unwrap_err();
        assert!(matches!(err, DetectorError::BadHarvest { .. }), "{err}");
        assert_eq!(contention.window_len() + oscillation.window_len(), 0);
    }

    #[test]
    fn out_of_range_contexts_are_a_bad_harvest_not_a_symbol() {
        // `replacer * 8` leaves the `u8` alphabet from replacer 32 on: the
        // record must be refused, never panic or fold into another
        // pair's symbol.
        let records: Vec<ConflictRecord> = (0..64)
            .map(|i| ConflictRecord {
                cycle: 50 * i,
                replacer: if i == 7 { 200 } else { (i % 2) as u8 },
                victim: if i == 7 { 0 } else { 1 - (i % 2) as u8 },
            })
            .collect();
        let config = CcHunterConfig::default();
        let mut window = OnlineWindow::new(PairKind::Oscillation, config, 4).unwrap();
        let err = window.push_conflicts(&records, 0.0).unwrap_err();
        assert!(matches!(err, DetectorError::BadHarvest { .. }), "{err}");
        assert_eq!(window.window_len(), 0, "a rejected drain pushes nothing");
        // The infallible handle counts the corrupt drain as a missed quantum.
        let mut daemon = OnlineOscillationDetector::new(config, 4).unwrap();
        let status = daemon.push_quantum(&records);
        assert_eq!((status.window_len, status.observed_in_window), (1, 0));
        assert!(status.quantum_oscillation.is_none());
    }
}
