//! Hardened ingest — the trust boundary between event sources and the
//! analysis core.
//!
//! Everything upstream of this module (sim probes, replayed traces, real
//! hardware counters) is treated as *untrusted*: it may flood the monitor
//! with more events than a quantum can absorb, deliver timestamps out of
//! order or duplicated, label events with impossible context IDs, or pack
//! thousands of events into a single cycle to overflow a histogram bin.
//! The paper's CC-auditor hardware is immune to none of this — it simply
//! has two 16-bit accumulators and 128-entry × 16-bit histogram buffers
//! that clamp — so a faithful software reproduction must (a) bound its own
//! memory and latency the way the hardware's registers do, and (b) say so
//! when it was blinded instead of emitting a confident verdict from
//! damaged evidence.
//!
//! The module provides four pieces, composed by [`IngestPipeline`]:
//!
//! * [`AdmissionQueue`] — a bounded queue in front of the analysis core
//!   with pluggable [`ShedPolicy`]s (drop-oldest, drop-newest, and a
//!   deterministic reservoir subsample). Overload becomes a quantified
//!   loss fraction, never an OOM or an unbounded drain. Admitted events
//!   always come back in arrival order.
//! * [`Sanitizer`] — repairs or rejects hostile event trains (bounded
//!   reorder tolerance, duplicate suppression, context-ID range checks,
//!   zero-Δt burst trimming) and reports exactly what it did in a typed
//!   [`SanitizeReport`] instead of the old `assert!`/silent-skip handling.
//!   The per-event rules live in one private step shared by every caller.
//! * [`SaturatingHistogram`] — the paper's 16-bit accumulator semantics:
//!   counts clamp at [`u16::MAX`] and set a sticky saturation flag that
//!   widens verdict uncertainty downstream.
//! * [`IngestStats`] — cloneable shared counters so a supervisor (or the
//!   soak runner) can observe every shed / sanitize / saturation
//!   event in its `metrics_snapshot()`. They advance once per quantum.
//!
//! ## One-pass harvest
//!
//! Like the CC-auditor's Δt count-down register, [`IngestPipeline::end_quantum`]
//! makes one pass over the admitted events in arrival order:
//! Horvitz–Thompson weight → sanitizer step → Δt windowing (the tally
//! [`DensityHistogram::from_view`] uses) → 16-bit clamp in place. `offer`
//! is a plain push into storage kept across quanta, so a steady-state
//! quantum allocates only the returned harvest's bins.
//!
//! ## Loss semantics
//!
//! Every form of damage funnels into the existing [`Harvest`] confidence
//! machinery rather than inventing a parallel channel:
//!
//! * unbiased loss (reservoir shedding, duplicate suppression) produces
//!   [`Harvest::Partial`] with a quantified `lost_fraction` — detection
//!   proceeds on the salvaged evidence at decayed confidence;
//! * *biased* loss past [`IngestConfig::bias_tolerance`] (drop-oldest /
//!   drop-newest shed a time-contiguous chunk of the quantum, skewing the
//!   density statistics) produces [`Harvest::Missed`] — the pipeline
//!   refuses to synthesize burst evidence from a time-truncated train, the
//!   window keeps a gap, and the online verdict degrades to
//!   [`Inconclusive`](crate::Verdict::Inconclusive) instead of `Clean`;
//! * saturation keeps the (clamped) histogram but widens `lost_fraction`
//!   by [`IngestConfig::saturation_penalty`], because a clamped bin is a
//!   lower bound, not a measurement.
//!
//! Reservoir shedding additionally rescales the surviving event weights by
//! the inverse keep rate (a Horvitz–Thompson estimate), so the *expected*
//! density histogram matches the unshed one and a covert channel hiding
//! inside a flood is still flagged — see `tests/noise_robustness.rs`.

use crate::auditor::ConflictRecord;
use crate::density::{DensityHistogram, Tail, WindowTally, HISTOGRAM_BINS};
use crate::events::{EventTrain, EventTrainArena};
use crate::metrics::{default_registry, Counter};
use crate::online::Harvest;
use crate::span;
use crate::DetectorError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::num::NonZeroU64;
use std::sync::OnceLock;

/// The process-wide totals over every pipeline, registered as
/// `cchunter_ingest_*_total`. Only [`IngestStats::record`] advances them,
/// so the harvest-kind counters stay zero and unregistered.
fn totals() -> &'static IngestStats {
    static T: OnceLock<IngestStats> = OnceLock::new();
    T.get_or_init(|| {
        let registry = default_registry();
        IngestStats {
            events_offered: registry.counter(
                "cchunter_ingest_offered_total",
                "Raw events offered to admission queues (all pipelines)",
            ),
            events_shed: registry.counter(
                "cchunter_ingest_shed_total",
                "Events shed by admission queues under overload",
            ),
            events_repaired: registry.counter(
                "cchunter_ingest_repaired_total",
                "Events repaired by ingest sanitizers (reorder clamps)",
            ),
            events_dropped: registry.counter(
                "cchunter_ingest_dropped_total",
                "Hostile events dropped by ingest sanitizers",
            ),
            saturated_quanta: registry.counter(
                "cchunter_ingest_saturated_quanta_total",
                "Quanta whose saturating 16-bit accumulators clamped",
            ),
            quanta: registry.counter(
                "cchunter_ingest_quanta_total",
                "Quanta harvested through ingest pipelines",
            ),
            ..IngestStats::default()
        }
    })
}

/// One raw indicator event as delivered by an event source, before any
/// trust has been established.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RawEvent {
    /// Claimed cycle of the event.
    pub time: u64,
    /// Unit-event weight (e.g. contention-run length in cycles).
    pub weight: u32,
    /// Claimed hardware context ID (3-bit in the paper).
    pub context: u8,
}

/// What the admission queue does when it is full and one more event
/// arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Keep the newest `capacity` events (the ring evicts the oldest).
    /// Biased: sheds a time-contiguous prefix of the quantum.
    DropOldest,
    /// Keep the first `capacity` events, discard later arrivals.
    /// Biased: sheds a time-contiguous suffix of the quantum.
    DropNewest,
    /// Deterministic reservoir sample (Algorithm R seeded with `seed`):
    /// every offered event is kept with equal probability, so the sample is
    /// *unbiased* in time and the surviving train still carries the
    /// channel's burst statistics.
    Reservoir {
        /// RNG seed — two queues with the same seed shed identically.
        seed: u64,
    },
}

impl ShedPolicy {
    /// Whether shedding under this policy skews the time distribution of
    /// the surviving events (see [`IngestConfig::bias_tolerance`]).
    pub fn is_biased(self) -> bool {
        !matches!(self, ShedPolicy::Reservoir { .. })
    }

    /// Short label for metrics and reports.
    pub fn label(self) -> &'static str {
        match self {
            ShedPolicy::DropOldest => "drop-oldest",
            ShedPolicy::DropNewest => "drop-newest",
            ShedPolicy::Reservoir { .. } => "reservoir",
        }
    }
}

impl fmt::Display for ShedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Sizing and policy of an [`AdmissionQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum events buffered between drains. The queue's memory bound is
    /// `capacity × size_of::<RawEvent>()` (16 B per event), plus, once a
    /// reservoir has replaced a slot, its arrival index: a log of at most
    /// `2 × capacity` 8 B slot numbers and one bit per slot. Storage grows
    /// by doubling to the largest quantum seen, never past the bound, and
    /// is kept across drains.
    pub capacity: usize,
    /// What to do with event `capacity + 1`.
    pub policy: ShedPolicy,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            capacity: 1 << 16,
            policy: ShedPolicy::DropOldest,
        }
    }
}

/// What one [`AdmissionQueue::drain`] handed back.
#[derive(Debug, Clone)]
pub struct DrainedBatch {
    /// The admitted events, oldest → newest in arrival order.
    pub events: Vec<RawEvent>,
    /// Events offered since the previous drain.
    pub offered: u64,
    /// Events shed since the previous drain.
    pub shed: u64,
}

impl DrainedBatch {
    /// Fraction of offered events that were shed, in `[0, 1]`.
    pub fn shed_fraction(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }
}

/// A replacement-log entry superseded by a later one for the same slot.
const STALE: usize = usize::MAX;

/// A bounded queue between an event source and the analysis core.
///
/// `offer` is O(1) and never allocates past the configured capacity;
/// overload is converted into shed counts (reported by `drain`) instead of
/// memory growth or latency. One queue feeds one audited pair; the
/// supervisor drains it once per OS quantum.
#[derive(Debug)]
pub struct AdmissionQueue {
    config: AdmissionConfig,
    /// Storage kept across drains; `slots[..len]` are admitted events.
    slots: Vec<RawEvent>,
    len: usize,
    /// Drop-oldest only: the oldest slot once the ring has wrapped.
    head: usize,
    /// Reservoir only: the slot of every replacement, in arrival order; a
    /// slot's earlier entries are stale, dropped at twice the capacity.
    replaced: Vec<usize>,
    /// Bitset over the slots, scratch for finding stale log entries.
    seen: Vec<u64>,
    rng: SmallRng,
    /// Events shed since the previous drain.
    shed: u64,
}

impl AdmissionQueue {
    /// Creates an empty queue; storage is allocated as events arrive.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] if the capacity is zero.
    pub fn new(config: AdmissionConfig) -> Result<Self, DetectorError> {
        if config.capacity == 0 {
            return Err(DetectorError::invalid(
                "admission queue needs capacity >= 1",
            ));
        }
        let seed = match config.policy {
            ShedPolicy::Reservoir { seed } => seed,
            _ => 0,
        };
        Ok(AdmissionQueue {
            config,
            slots: Vec::new(),
            len: 0,
            head: 0,
            replaced: Vec::new(),
            seen: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
            shed: 0,
        })
    }

    /// The configured capacity (the memory bound, in events).
    pub fn capacity(&self) -> usize {
        self.config.capacity
    }

    /// The active shedding policy.
    pub fn policy(&self) -> ShedPolicy {
        self.config.policy
    }

    /// Events currently buffered — never exceeds [`capacity`](Self::capacity).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Offers one event. O(1); a full queue sheds per the policy instead of
    /// growing.
    #[inline]
    pub fn offer(&mut self, event: RawEvent) {
        let slot = if self.len < self.slots.len() {
            self.len += 1;
            Some(self.len - 1)
        } else {
            self.make_room()
        };
        if let Some(slot) = slot {
            self.slots[slot] = event;
        }
    }

    /// Every slot is in use: grow the storage (doubling, never past the
    /// bound) or shed per the policy. Returns the slot the offered event
    /// goes to, or `None` if it is shed.
    #[inline(never)]
    fn make_room(&mut self) -> Option<usize> {
        let capacity = self.config.capacity;
        if self.len < capacity {
            let grow = self.len.max(8).min(capacity - self.len);
            self.slots.reserve_exact(grow);
            self.slots.resize(self.len + grow, RawEvent::default());
            self.len += 1;
            return Some(self.len - 1);
        }
        self.shed += 1;
        match self.config.policy {
            ShedPolicy::DropOldest => {
                let oldest = self.head;
                self.head = (oldest + 1) % capacity;
                Some(oldest)
            }
            ShedPolicy::DropNewest => None,
            ShedPolicy::Reservoir { .. } => {
                // Algorithm R: the n-th offered event replaces a random
                // reservoir slot with probability capacity / n, so every
                // offered event survives with equal probability.
                let offered = self.offered();
                let j = self.rng.gen_range(0..offered) as usize;
                if j >= capacity {
                    return None;
                }
                if self.replaced.len() == 2 * capacity {
                    self.mark_stale();
                    self.replaced.retain(|&slot| slot != STALE);
                }
                self.replaced.push(j);
                Some(j)
            }
        }
    }

    /// Events offered since the previous drain (each admitted or shed).
    fn offered(&self) -> u64 {
        self.len as u64 + self.shed
    }

    /// Marks every replacement-log entry but each slot's last as
    /// [`STALE`], leaving the replaced slots' bits set in `seen` (and the
    /// bits past the capacity, which have no slot).
    fn mark_stale(&mut self) {
        self.seen.clear();
        self.seen.resize(self.config.capacity.div_ceil(64), 0);
        let past = self.config.capacity % 64;
        if past > 0 {
            if let Some(last) = self.seen.last_mut() {
                *last = u64::MAX << past;
            }
        }
        for slot in self.replaced.iter_mut().rev() {
            let word = *slot / 64;
            let bit = 1u64 << (*slot % 64);
            if self.seen[word] & bit == 0 {
                self.seen[word] |= bit;
            } else {
                *slot = STALE;
            }
        }
    }

    /// Visits the admitted events in arrival order, then empties the queue
    /// (keeping its storage) and resets the shed count.
    fn drain_with(&mut self, mut visit: impl FnMut(RawEvent)) {
        if self.replaced.is_empty() {
            let (newer, older) = self.slots[..self.len].split_at(self.head);
            older.iter().chain(newer).for_each(|&e| visit(e));
        } else {
            // Slots never replaced hold the first arrivals, in slot order;
            // the replacements came later, in log order.
            self.mark_stale();
            for (word, &replaced) in self.seen.iter().enumerate() {
                let mut kept = !replaced;
                while kept != 0 {
                    visit(self.slots[word * 64 + kept.trailing_zeros() as usize]);
                    kept &= kept - 1;
                }
            }
            for &slot in self.replaced.iter().filter(|&&slot| slot != STALE) {
                visit(self.slots[slot]);
            }
            self.replaced.clear();
        }
        self.len = 0;
        self.head = 0;
        self.shed = 0;
    }

    /// Empties the queue, returning the admitted events in arrival order
    /// (the reservoir restores it after slot replacement; no policy sorts
    /// by time) and the offered/shed counts since the previous drain.
    pub fn drain(&mut self) -> DrainedBatch {
        let offered = self.offered();
        let shed = self.shed;
        let mut events = Vec::with_capacity(self.len);
        self.drain_with(|e| events.push(e));
        DrainedBatch {
            events,
            offered,
            shed,
        }
    }
}

/// Tolerances of the [`Sanitizer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SanitizerConfig {
    /// Maximum backwards time step (cycles) that is *repaired* by clamping
    /// to the last accepted timestamp; larger steps are rejected as time
    /// travel. Models bounded reorder in a real event transport.
    pub reorder_tolerance: u64,
    /// Number of valid hardware contexts; events claiming `context >=
    /// max_contexts` are dropped (the paper's context IDs are 3-bit).
    pub max_contexts: u8,
    /// Maximum accepted events carrying the *same* timestamp; the excess of
    /// a zero-Δt burst is trimmed (an attacker packing one cycle cannot
    /// overflow a histogram bin or starve the drain).
    pub zero_dt_burst_limit: u32,
}

impl Default for SanitizerConfig {
    fn default() -> Self {
        SanitizerConfig {
            reorder_tolerance: 1_000,
            max_contexts: 8,
            zero_dt_burst_limit: 4_096,
        }
    }
}

/// Exactly what a sanitization pass did — returned alongside the clean
/// train instead of the old silent assumptions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SanitizeReport {
    /// Events examined.
    pub offered: u64,
    /// Events accepted into the output train.
    pub accepted: u64,
    /// Out-of-order events repaired by clamping within the reorder
    /// tolerance (accepted; counted separately because repair is a guess).
    pub repaired_reorder: u64,
    /// Consecutive exact duplicates dropped.
    pub duplicates: u64,
    /// Events with out-of-range context IDs dropped.
    pub out_of_range: u64,
    /// Zero-Δt burst excess dropped.
    pub zero_dt_trimmed: u64,
    /// Time travel beyond the reorder tolerance dropped.
    pub time_travel: u64,
}

impl SanitizeReport {
    /// Total events dropped (not repaired) by the pass.
    pub fn dropped(&self) -> u64 {
        self.duplicates + self.out_of_range + self.zero_dt_trimmed + self.time_travel
    }

    /// Fraction of offered events lost, in `[0, 1]`.
    pub fn lost_fraction(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.dropped() as f64 / self.offered as f64
        }
    }

    /// Whether the input needed no repair or drop at all.
    pub fn is_clean(&self) -> bool {
        self.dropped() == 0 && self.repaired_reorder == 0
    }

    /// Folds another report into this one.
    pub fn absorb(&mut self, other: &SanitizeReport) {
        self.offered += other.offered;
        self.accepted += other.accepted;
        self.repaired_reorder += other.repaired_reorder;
        self.duplicates += other.duplicates;
        self.out_of_range += other.out_of_range;
        self.zero_dt_trimmed += other.zero_dt_trimmed;
        self.time_travel += other.time_travel;
    }
}

impl fmt::Display for SanitizeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} accepted ({} repaired, {} dup, {} bad-context, {} zero-dt, {} time-travel)",
            self.accepted,
            self.offered,
            self.repaired_reorder,
            self.duplicates,
            self.out_of_range,
            self.zero_dt_trimmed,
            self.time_travel
        )
    }
}

/// Running state of one sanitization pass over items of type `T`.
#[derive(Debug, Default)]
struct SanitizePass<T> {
    report: SanitizeReport,
    /// The last accepted item as offered (duplicates compare against it).
    prev: Option<T>,
    last_time: u64,
    run_len: u32,
}

/// Repairs or rejects hostile event input per [`SanitizerConfig`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Sanitizer {
    config: SanitizerConfig,
}

impl Sanitizer {
    /// Creates a sanitizer with the given tolerances.
    pub fn new(config: SanitizerConfig) -> Self {
        Sanitizer { config }
    }

    /// The active tolerances.
    pub fn config(&self) -> &SanitizerConfig {
        &self.config
    }

    /// The per-event rules, in order: context range, exact duplicate of the
    /// last accepted item, reorder repair or time travel, zero-Δt run
    /// limit. Returns the accepted (possibly clamped) time, or `None` if
    /// the item is dropped.
    #[inline]
    fn step<T: Copy + PartialEq>(
        &self,
        pass: &mut SanitizePass<T>,
        item: T,
        time: u64,
        contexts: &[u8],
    ) -> Option<u64> {
        let report = &mut pass.report;
        report.offered += 1;
        if contexts.iter().any(|&c| c >= self.config.max_contexts) {
            report.out_of_range += 1;
            return None;
        }
        if pass.prev == Some(item) {
            report.duplicates += 1;
            return None;
        }
        let had_history = pass.prev.is_some();
        let mut time = time;
        if had_history && time < pass.last_time {
            if pass.last_time - time > self.config.reorder_tolerance {
                report.time_travel += 1;
                return None;
            }
            time = pass.last_time;
            report.repaired_reorder += 1;
        }
        if had_history && time == pass.last_time {
            pass.run_len += 1;
            if pass.run_len >= self.config.zero_dt_burst_limit {
                report.zero_dt_trimmed += 1;
                return None;
            }
        } else {
            pass.run_len = 0;
        }
        report.accepted += 1;
        pass.prev = Some(item);
        pass.last_time = time;
        Some(time)
    }

    /// Sanitizes raw events into a well-formed [`EventTrain`], repairing
    /// what the tolerances allow and dropping the rest. Never panics on any
    /// input; the report says exactly what happened.
    pub fn sanitize(&self, events: &[RawEvent]) -> (EventTrain, SanitizeReport) {
        let mut arena = EventTrainArena::new();
        let (idx, report) = self.sanitize_into(events, &mut arena);
        (arena.view(idx).to_owned(), report)
    }

    /// Sanitizes raw events directly into `arena` as a new train, returning
    /// its index and the report — the zero-copy core of
    /// [`sanitize`](Self::sanitize).
    pub fn sanitize_into(
        &self,
        events: &[RawEvent],
        arena: &mut EventTrainArena,
    ) -> (usize, SanitizeReport) {
        let idx = arena.begin_train();
        let mut pass = SanitizePass::default();
        for &event in events {
            if let Some(time) = self.step(&mut pass, event, event.time, &[event.context]) {
                // Cannot fail: the step never lets time run backwards.
                let _ = arena.push(time, event.weight);
            }
        }
        (idx, pass.report)
    }

    /// Strict mode: returns the sanitized train only if the input needed no
    /// repair or drop, otherwise [`DetectorError::HostileTrain`] naming the
    /// first class of violation. For callers (trace replay, checkpoints)
    /// where damage means the source itself is broken.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::HostileTrain`] on any sanitizer finding.
    pub fn strict(&self, events: &[RawEvent]) -> Result<EventTrain, DetectorError> {
        let (train, report) = self.sanitize(events);
        if report.is_clean() {
            Ok(train)
        } else {
            Err(DetectorError::HostileTrain {
                reason: format!("sanitizer findings: {report}"),
            })
        }
    }

    /// Sanitizes a conflict-record batch for the oscillation path: same
    /// rules as [`sanitize`](Self::sanitize) with the replacer/victim pair
    /// as the context and the conflict cycle as the timestamp.
    pub fn sanitize_conflicts(
        &self,
        records: &[ConflictRecord],
    ) -> (Vec<ConflictRecord>, SanitizeReport) {
        let mut out = Vec::with_capacity(records.len().min(1 << 16));
        let mut pass = SanitizePass::default();
        for &record in records {
            let contexts = [record.replacer, record.victim];
            if let Some(cycle) = self.step(&mut pass, record, record.cycle, &contexts) {
                out.push(ConflictRecord { cycle, ..record });
            }
        }
        (out, pass.report)
    }
}

/// A density histogram with the CC-auditor's hardware width: 128 bins of
/// 16 bits each plus a 16-bit total-window accumulator, all saturating
/// with a sticky flag (the 8/16-bit entry widths of paper Figure 8).
///
/// [`finish`](Self::finish) converts back to the software-width
/// [`DensityHistogram`] and reports whether any register clamped. The
/// ingest pipeline reaches the same read-out by clamping its histogram in
/// place; this register model is the reference it is tested against.
#[derive(Debug, Clone)]
pub struct SaturatingHistogram {
    bins: Vec<u16>,
    windows: u16,
    saturated: bool,
    delta_t: NonZeroU64,
}

impl SaturatingHistogram {
    /// Creates an empty hardware-width histogram for windows of `delta_t`
    /// cycles.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] if `delta_t` is zero.
    pub fn new(delta_t: u64) -> Result<Self, DetectorError> {
        let delta_t =
            NonZeroU64::new(delta_t).ok_or_else(|| DetectorError::invalid("Δt must be nonzero"))?;
        Ok(SaturatingHistogram {
            bins: vec![0; HISTOGRAM_BINS],
            windows: 0,
            saturated: false,
            delta_t,
        })
    }

    /// Adds `count` windows of density `bin` (clamped to the last bin, as
    /// the hardware histogram does). Each register clamps at [`u16::MAX`]
    /// instead of wrapping, and the saturation flag sticks.
    pub fn record(&mut self, bin: usize, count: u64) {
        let bin = bin.min(HISTOGRAM_BINS - 1);
        for register in [&mut self.bins[bin], &mut self.windows] {
            let sum = u64::from(*register).saturating_add(count);
            *register = sum.min(u64::from(u16::MAX)) as u16;
            self.saturated |= sum > u64::from(u16::MAX);
        }
    }

    /// Accumulates a software-width histogram bin by bin.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::BadHarvest`] on a Δt mismatch.
    pub fn accumulate(&mut self, histogram: &DensityHistogram) -> Result<(), DetectorError> {
        if histogram.delta_t() != self.delta_t.get() {
            return Err(DetectorError::BadHarvest {
                reason: format!(
                    "Δt mismatch in accumulate: {} vs {}",
                    self.delta_t,
                    histogram.delta_t()
                ),
            });
        }
        for (bin, &count) in histogram.bins().iter().enumerate() {
            if count > 0 {
                self.record(bin, count);
            }
        }
        Ok(())
    }

    /// Whether any bin or the window accumulator has clamped.
    pub fn is_saturated(&self) -> bool {
        self.saturated
    }

    /// The Δt this histogram was built with.
    pub fn delta_t(&self) -> u64 {
        self.delta_t.get()
    }

    /// Converts to a software-width [`DensityHistogram`] plus the sticky
    /// saturation flag. The caller must treat a saturated read-out as a
    /// lower bound (the ingest pipeline widens `lost_fraction`).
    pub fn finish(&self) -> (DensityHistogram, bool) {
        let mut histogram = DensityHistogram::zeroed(self.delta_t);
        for (bin, &count) in self.bins.iter().enumerate() {
            histogram.record(bin, u64::from(count));
        }
        (histogram, self.saturated)
    }
}

/// Cloneable shared counters published by every [`IngestPipeline`];
/// attach a clone to a [`ShardedFleet`](crate::ShardedFleet) (via
/// `attach_ingest_stats`) and the totals appear in `metrics_snapshot()`.
#[derive(Debug, Clone, Default)]
pub struct IngestStats {
    /// Raw events offered to the admission queue.
    pub events_offered: Counter,
    /// Events shed by the admission queue.
    pub events_shed: Counter,
    /// Events repaired (reorder-clamped) by the sanitizer.
    pub events_repaired: Counter,
    /// Hostile events dropped by the sanitizer.
    pub events_dropped: Counter,
    /// Quanta whose 16-bit accumulators saturated.
    pub saturated_quanta: Counter,
    /// Quanta harvested through the pipeline.
    pub quanta: Counter,
    /// Quanta degraded to `Harvest::Partial`.
    pub partial_harvests: Counter,
    /// Quanta refused as `Harvest::Missed` (biased shedding past
    /// tolerance).
    pub missed_harvests: Counter,
}

impl IngestStats {
    /// Creates a fresh set of zeroed counters.
    pub fn new() -> Self {
        IngestStats::default()
    }

    /// Counts one finished quantum (all but the harvest kind).
    fn record(&self, report: &IngestReport) {
        self.quanta.inc();
        self.events_offered.inc_by(report.offered);
        self.events_shed.inc_by(report.shed);
        self.events_repaired
            .inc_by(report.sanitize.repaired_reorder);
        self.events_dropped.inc_by(report.sanitize.dropped());
        if report.saturated {
            self.saturated_quanta.inc();
        }
    }
}

/// Configuration of an [`IngestPipeline`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestConfig {
    /// Admission queue sizing and shedding policy.
    pub admission: AdmissionConfig,
    /// Sanitizer tolerances.
    pub sanitizer: SanitizerConfig,
    /// Δt (cycles) for the per-quantum density histogram.
    pub delta_t: u64,
    /// Maximum shed fraction under a *biased* policy (drop-oldest /
    /// drop-newest) before the quantum is refused as [`Harvest::Missed`]:
    /// a time-truncated train's density statistics are skewed, and skewed
    /// evidence must blind the monitor, not acquit the channel.
    pub bias_tolerance: f64,
    /// Extra `lost_fraction` applied when the 16-bit accumulators clamp —
    /// a saturated histogram is a lower bound, so the verdict uncertainty
    /// widens instead of the counts silently under-reporting.
    pub saturation_penalty: f64,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            admission: AdmissionConfig::default(),
            sanitizer: SanitizerConfig::default(),
            delta_t: 100_000,
            bias_tolerance: 0.25,
            saturation_penalty: 0.25,
        }
    }
}

/// What one quantum's ingest did — returned alongside the [`Harvest`].
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Events offered to the admission queue this quantum.
    pub offered: u64,
    /// Events admitted (survived shedding).
    pub admitted: u64,
    /// Events shed by the admission queue.
    pub shed: u64,
    /// `shed / offered`, in `[0, 1]`.
    pub shed_fraction: f64,
    /// The active shedding policy.
    pub policy: ShedPolicy,
    /// What the sanitizer repaired and dropped.
    pub sanitize: SanitizeReport,
    /// Whether the 16-bit accumulators clamped.
    pub saturated: bool,
    /// The combined loss fraction carried by the harvest.
    pub lost_fraction: f64,
    /// Whether the quantum was refused as [`Harvest::Missed`].
    pub refused: bool,
}

/// The hardened ingest path for one audited pair: admission queue →
/// one arrival-order pass (Horvitz–Thompson weight, sanitizer step, Δt
/// windowing) → 16-bit clamp → [`Harvest`].
#[derive(Debug)]
pub struct IngestPipeline {
    config: IngestConfig,
    queue: AdmissionQueue,
    sanitizer: Sanitizer,
    /// The windowing routine's scratch, kept across quanta.
    tails: Vec<Tail>,
    stats: IngestStats,
    /// `config.delta_t`, checked nonzero at construction.
    delta_t: NonZeroU64,
}

impl IngestPipeline {
    /// Creates a pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] for a zero queue capacity,
    /// zero Δt, or tolerances outside `[0, 1]`.
    pub fn new(config: IngestConfig) -> Result<Self, DetectorError> {
        let delta_t = NonZeroU64::new(config.delta_t)
            .ok_or_else(|| DetectorError::invalid("ingest Δt must be nonzero"))?;
        if !(0.0..=1.0).contains(&config.bias_tolerance)
            || !(0.0..=1.0).contains(&config.saturation_penalty)
        {
            return Err(DetectorError::invalid(
                "bias_tolerance and saturation_penalty must be in [0, 1]",
            ));
        }
        Ok(IngestPipeline {
            queue: AdmissionQueue::new(config.admission)?,
            sanitizer: Sanitizer::new(config.sanitizer),
            tails: Vec::new(),
            stats: IngestStats::new(),
            delta_t,
            config,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &IngestConfig {
        &self.config
    }

    /// A cloneable handle to this pipeline's counters (share it with a
    /// supervisor so ingest totals appear in its `metrics_snapshot()`).
    /// They advance once per quantum, in [`end_quantum`](Self::end_quantum).
    pub fn stats(&self) -> IngestStats {
        self.stats.clone()
    }

    /// Events currently queued — bounded by the admission capacity.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Offers one raw event to the admission queue. O(1), bounded memory,
    /// no shared-counter traffic.
    #[inline]
    pub fn offer(&mut self, event: RawEvent) {
        self.queue.offer(event);
    }

    /// Ends the quantum `[start, end)`: one pass over the admitted events
    /// in arrival order weights, sanitizes and windows them into the
    /// density histogram, which is then clamped to the 16-bit accumulator
    /// width; every form of damage folds into the returned [`Harvest`]'s
    /// loss fraction (or refuses the quantum outright — see the module docs
    /// for the loss semantics).
    pub fn end_quantum(&mut self, start: u64, end: u64) -> (Harvest, IngestReport) {
        let tracer = span::global();
        let _span = tracer.span("ingest", "quantum");

        let offered = self.queue.offered();
        let shed = self.queue.shed;
        let shed_fraction = if offered == 0 {
            0.0
        } else {
            shed as f64 / offered as f64
        };
        let policy = self.config.admission.policy;

        // Reservoir shedding is an unbiased subsample: rescale the
        // surviving weights by the inverse keep rate (Horvitz–Thompson) so
        // the expected density histogram matches the unshed quantum.
        let admitted = self.queue.len();
        let inflate = if !policy.is_biased() && shed > 0 && admitted > 0 {
            ((offered as f64 / admitted as f64).round() as u32).clamp(1, 1 << 16)
        } else {
            1
        };

        let mut histogram = DensityHistogram::zeroed(self.delta_t);
        let mut tally = WindowTally::new(&mut histogram, start, end, &mut self.tails);
        let mut pass = SanitizePass::default();
        let sanitizer = self.sanitizer;
        self.queue.drain_with(|event| {
            let event = RawEvent {
                weight: event.weight.saturating_mul(inflate),
                ..event
            };
            if let Some(time) = sanitizer.step(&mut pass, event, event.time, &[event.context]) {
                tally.push(time, event.weight);
            }
        });
        tally.finish();
        let sanitize = pass.report;
        let saturated = histogram.clamp_to_u16();

        // Damage composes multiplicatively on the surviving fraction.
        let mut lost = 1.0 - (1.0 - shed_fraction) * (1.0 - sanitize.lost_fraction());
        if saturated {
            lost = 1.0 - (1.0 - lost) * (1.0 - self.config.saturation_penalty);
        }
        let lost = lost.clamp(0.0, 1.0);

        let refused = policy.is_biased() && shed_fraction > self.config.bias_tolerance;
        let harvest = if refused {
            Harvest::Missed
        } else if lost > 0.0 {
            Harvest::Partial {
                histogram,
                lost_fraction: lost,
            }
        } else {
            Harvest::Complete(histogram)
        };

        if tracer.is_enabled() && (shed > 0 || !sanitize.is_clean() || saturated) {
            tracer.event(
                "ingest",
                "degraded-quantum",
                format!(
                    "policy {} shed {}/{} sanitize [{}] saturated {} -> lost {:.3}{}",
                    policy,
                    shed,
                    offered,
                    sanitize,
                    saturated,
                    lost,
                    if refused { " REFUSED" } else { "" }
                ),
            );
        }

        let report = IngestReport {
            offered,
            admitted: offered - shed,
            shed,
            shed_fraction,
            policy,
            sanitize,
            saturated,
            lost_fraction: if refused { 1.0 } else { lost },
            refused,
        };
        self.stats.record(&report);
        totals().record(&report);
        match harvest {
            Harvest::Partial { .. } => self.stats.partial_harvests.inc(),
            Harvest::Missed => self.stats.missed_harvests.inc(),
            Harvest::Complete(_) => {}
        }
        (harvest, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: u64, weight: u32, context: u8) -> RawEvent {
        RawEvent {
            time,
            weight,
            context,
        }
    }

    #[test]
    fn drop_oldest_keeps_newest_and_counts_shed() {
        let mut q = AdmissionQueue::new(AdmissionConfig {
            capacity: 3,
            policy: ShedPolicy::DropOldest,
        })
        .unwrap();
        for t in 0..10u64 {
            q.offer(ev(t, 1, 0));
            assert!(q.len() <= 3, "queue must never exceed capacity");
        }
        let batch = q.drain();
        assert_eq!(batch.offered, 10);
        assert_eq!(batch.shed, 7);
        let times: Vec<u64> = batch.events.iter().map(|e| e.time).collect();
        assert_eq!(times, vec![7, 8, 9]);
        // Counters reset after a drain.
        assert_eq!(q.drain().offered, 0);
    }

    #[test]
    fn drop_newest_keeps_oldest() {
        let mut q = AdmissionQueue::new(AdmissionConfig {
            capacity: 3,
            policy: ShedPolicy::DropNewest,
        })
        .unwrap();
        for t in 0..10u64 {
            q.offer(ev(t, 1, 0));
            assert!(q.len() <= 3);
        }
        let batch = q.drain();
        assert_eq!(batch.shed, 7);
        let times: Vec<u64> = batch.events.iter().map(|e| e.time).collect();
        assert_eq!(times, vec![0, 1, 2]);
    }

    #[test]
    fn reservoir_is_deterministic_uniform_and_sorted() {
        let config = AdmissionConfig {
            capacity: 100,
            policy: ShedPolicy::Reservoir { seed: 42 },
        };
        let run = |config| {
            let mut q = AdmissionQueue::new(config).unwrap();
            for t in 0..10_000u64 {
                q.offer(ev(t, 1, 0));
                assert!(q.len() <= 100);
            }
            q.drain()
        };
        let a = run(config);
        let b = run(config);
        assert_eq!(a.events, b.events, "same seed must shed identically");
        assert_eq!(a.events.len(), 100);
        assert_eq!(a.shed, 9_900);
        assert!(
            a.events.windows(2).all(|w| w[0].time <= w[1].time),
            "drain must return the reservoir in arrival order (sorted input)"
        );
        // Uniformity (coarse): both halves of the stream are represented.
        let early = a.events.iter().filter(|e| e.time < 5_000).count();
        assert!(
            (20..=80).contains(&early),
            "reservoir should sample the whole quantum, got {early} early"
        );
    }

    #[test]
    fn reservoir_restores_arrival_order_of_unsorted_input_after_shedding() {
        let mut q = AdmissionQueue::new(AdmissionConfig {
            capacity: 100,
            policy: ShedPolicy::Reservoir { seed: 9 },
        })
        .unwrap();
        // Arrival number in the weight, scrambled times: arrival order is
        // not time order, so a time sort would show.
        let mut rng = SmallRng::seed_from_u64(3);
        for i in 0..5_000u32 {
            q.offer(ev(rng.gen_range(0..1_000_000), i, 0));
        }
        let batch = q.drain();
        assert_eq!(batch.shed, 5_000 - 100);
        assert_eq!(batch.events.len(), 100);
        assert!(
            batch.events.windows(2).all(|w| w[0].weight < w[1].weight),
            "drain must return the reservoir in arrival order"
        );
        assert!(
            batch.events.windows(2).any(|w| w[0].time > w[1].time),
            "the sample is not time-sorted"
        );
        // The next quantum starts over without the arrival index.
        q.offer(ev(5, 1, 0));
        q.offer(ev(2, 2, 0));
        let times: Vec<u64> = q.drain().events.iter().map(|e| e.time).collect();
        assert_eq!(times, vec![5, 2]);
    }

    #[test]
    fn zero_capacity_rejected() {
        assert!(matches!(
            AdmissionQueue::new(AdmissionConfig {
                capacity: 0,
                policy: ShedPolicy::DropOldest,
            }),
            Err(DetectorError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn sanitizer_repairs_bounded_reorder_and_rejects_time_travel() {
        let s = Sanitizer::new(SanitizerConfig {
            reorder_tolerance: 10,
            ..SanitizerConfig::default()
        });
        let events = [
            ev(100, 1, 0),
            ev(95, 1, 1), // within tolerance: clamped to 100
            ev(200, 1, 0),
            ev(50, 1, 0), // 150 back: rejected
            ev(210, 1, 0),
        ];
        let (train, report) = s.sanitize(&events);
        assert_eq!(report.accepted, 4);
        assert_eq!(report.repaired_reorder, 1);
        assert_eq!(report.time_travel, 1);
        assert_eq!(train.times(), &[100, 100, 200, 210]);
        assert!(!report.is_clean());
    }

    #[test]
    fn sanitizer_drops_duplicates_and_bad_contexts() {
        let s = Sanitizer::new(SanitizerConfig::default());
        let events = [
            ev(10, 1, 0),
            ev(10, 1, 0),   // exact duplicate
            ev(10, 2, 0),   // same time, different weight: legitimate
            ev(20, 1, 200), // context out of range
            ev(30, 1, 7),
        ];
        let (train, report) = s.sanitize(&events);
        assert_eq!(report.duplicates, 1);
        assert_eq!(report.out_of_range, 1);
        assert_eq!(report.accepted, 3);
        assert_eq!(train.len(), 3);
    }

    #[test]
    fn sanitizer_trims_zero_dt_bursts() {
        let s = Sanitizer::new(SanitizerConfig {
            zero_dt_burst_limit: 4,
            ..SanitizerConfig::default()
        });
        // Distinct weights so the duplicate rule never fires first.
        let events: Vec<RawEvent> = (0..100u32).map(|i| ev(500, i + 1, 0)).collect();
        let (train, report) = s.sanitize(&events);
        assert_eq!(report.accepted, 4, "burst trimmed to the limit");
        assert_eq!(report.zero_dt_trimmed, 96);
        assert_eq!(train.len(), 4);
    }

    #[test]
    fn sanitizer_never_panics_on_adversarial_streams() {
        // Deterministic garbage: every combination of backwards jumps,
        // duplicates, and wild contexts.
        let s = Sanitizer::new(SanitizerConfig::default());
        let mut rng = SmallRng::seed_from_u64(0xBAD_F00D);
        let events: Vec<RawEvent> = (0..20_000)
            .map(|_| {
                ev(
                    rng.gen_range(0..5_000u64),
                    rng.gen_range(0..4u32),
                    rng.gen_range(0..255u8),
                )
            })
            .collect();
        let (train, report) = s.sanitize(&events);
        assert_eq!(report.offered, 20_000);
        assert_eq!(report.accepted, train.len() as u64);
        assert!(
            train.times().windows(2).all(|w| w[0] <= w[1]),
            "output train must always be monotonic"
        );
    }

    #[test]
    fn strict_mode_errors_on_any_finding() {
        let s = Sanitizer::new(SanitizerConfig::default());
        assert!(s.strict(&[ev(10, 1, 0), ev(20, 1, 0)]).is_ok());
        let err = s.strict(&[ev(10, 1, 0), ev(10, 1, 0)]).unwrap_err();
        assert!(matches!(err, DetectorError::HostileTrain { .. }), "{err}");
    }

    #[test]
    fn conflict_sanitizer_same_rules() {
        let s = Sanitizer::new(SanitizerConfig {
            reorder_tolerance: 5,
            ..SanitizerConfig::default()
        });
        let records = [
            ConflictRecord {
                cycle: 100,
                replacer: 1,
                victim: 0,
            },
            ConflictRecord {
                cycle: 100,
                replacer: 1,
                victim: 0,
            }, // duplicate
            ConflictRecord {
                cycle: 97,
                replacer: 0,
                victim: 1,
            }, // repaired to 100
            ConflictRecord {
                cycle: 10,
                replacer: 0,
                victim: 1,
            }, // time travel
            ConflictRecord {
                cycle: 120,
                replacer: 9,
                victim: 0,
            }, // bad context
        ];
        let (clean, report) = s.sanitize_conflicts(&records);
        assert_eq!(clean.len(), 2);
        assert_eq!(clean[1].cycle, 100);
        assert_eq!(report.duplicates, 1);
        assert_eq!(report.repaired_reorder, 1);
        assert_eq!(report.time_travel, 1);
        assert_eq!(report.out_of_range, 1);
    }

    #[test]
    fn saturating_histogram_clamps_and_flags() {
        let mut h = SaturatingHistogram::new(100).unwrap();
        h.record(0, 70_000);
        h.record(5, 10);
        assert!(h.is_saturated());
        let (out, saturated) = h.finish();
        assert!(saturated);
        assert_eq!(out.frequency(0), u16::MAX as u64);
        assert_eq!(out.frequency(5), 10);
    }

    #[test]
    fn small_counts_pass_through_unclamped() {
        let train = EventTrain::from_times(vec![10, 20, 250]);
        let software = DensityHistogram::from_train(&train, 100, 0, 400).unwrap();
        let mut h = SaturatingHistogram::new(100).unwrap();
        h.accumulate(&software).unwrap();
        let (out, saturated) = h.finish();
        assert!(!saturated);
        assert_eq!(out.bins(), software.bins());
        assert_eq!(out.total_windows(), software.total_windows());
    }

    #[test]
    fn pipeline_clean_stream_is_complete() {
        let mut p = IngestPipeline::new(IngestConfig {
            delta_t: 100,
            ..IngestConfig::default()
        })
        .unwrap();
        for t in 0..50u64 {
            p.offer(ev(t * 20, 1, 0));
        }
        let (harvest, report) = p.end_quantum(0, 1_000);
        assert!(matches!(harvest, Harvest::Complete(_)));
        assert_eq!(report.offered, 50);
        assert_eq!(report.shed, 0);
        assert!(report.sanitize.is_clean());
        assert!(!report.saturated);
        assert_eq!(report.lost_fraction, 0.0);
    }

    #[test]
    fn pipeline_biased_flood_refuses_quantum() {
        let mut p = IngestPipeline::new(IngestConfig {
            admission: AdmissionConfig {
                capacity: 64,
                policy: ShedPolicy::DropNewest,
            },
            delta_t: 100,
            ..IngestConfig::default()
        })
        .unwrap();
        for t in 0..10_000u64 {
            p.offer(ev(t, 1, 0));
        }
        let (harvest, report) = p.end_quantum(0, 10_000);
        assert_eq!(harvest, Harvest::Missed);
        assert!(report.refused);
        assert_eq!(report.lost_fraction, 1.0);
        assert_eq!(p.stats().missed_harvests.get(), 1);
    }

    #[test]
    fn pipeline_reservoir_flood_degrades_but_observes() {
        let mut p = IngestPipeline::new(IngestConfig {
            admission: AdmissionConfig {
                capacity: 256,
                policy: ShedPolicy::Reservoir { seed: 7 },
            },
            delta_t: 100,
            ..IngestConfig::default()
        })
        .unwrap();
        for t in 0..10_000u64 {
            p.offer(ev(t, 1, 0));
        }
        let (harvest, report) = p.end_quantum(0, 10_000);
        match harvest {
            Harvest::Partial {
                histogram,
                lost_fraction,
            } => {
                assert!(lost_fraction > 0.9, "heavy shed must be quantified");
                assert!(histogram.contended_windows() > 0, "evidence survives");
            }
            other => panic!("expected Partial, got {other:?}"),
        }
        assert!(!report.refused);
        assert_eq!(p.stats().partial_harvests.get(), 1);
    }

    #[test]
    fn pipeline_saturation_widens_loss() {
        let mut p = IngestPipeline::new(IngestConfig {
            delta_t: 1,
            ..IngestConfig::default()
        })
        .unwrap();
        // One event at t=0 over a quantum of 100 000 one-cycle windows:
        // bin 0 receives ~100 000 empty windows and must clamp at 65 535.
        p.offer(ev(0, 1, 0));
        let (harvest, report) = p.end_quantum(0, 100_000);
        assert!(report.saturated);
        match harvest {
            Harvest::Partial { lost_fraction, .. } => {
                assert!(lost_fraction >= 0.25, "saturation widens uncertainty");
            }
            other => panic!("expected Partial, got {other:?}"),
        }
        assert_eq!(p.stats().saturated_quanta.get(), 1);
    }

    #[test]
    fn pipeline_stats_handle_shares_counters() {
        let mut p = IngestPipeline::new(IngestConfig {
            admission: AdmissionConfig {
                capacity: 4,
                policy: ShedPolicy::DropOldest,
            },
            delta_t: 100,
            ..IngestConfig::default()
        })
        .unwrap();
        let stats = p.stats();
        for t in 0..10u64 {
            p.offer(ev(t, 1, 0));
        }
        let _ = p.end_quantum(0, 1_000);
        assert_eq!(stats.events_offered.get(), 10);
        assert_eq!(stats.events_shed.get(), 6);
        assert_eq!(stats.quanta.get(), 1);
    }
}
