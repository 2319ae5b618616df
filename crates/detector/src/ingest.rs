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
//!   loss fraction, never an OOM or an unbounded drain.
//! * [`Sanitizer`] — repairs or rejects hostile event trains (bounded
//!   reorder tolerance, duplicate suppression, context-ID range checks,
//!   zero-Δt burst trimming) and reports exactly what it did in a typed
//!   [`SanitizeReport`] instead of the old `assert!`/silent-skip handling.
//! * [`SatAccumulator`] / [`SaturatingHistogram`] — the paper's 16-bit
//!   accumulator semantics: counts clamp at [`u16::MAX`] and set a sticky
//!   saturation flag that widens verdict uncertainty downstream.
//! * [`IngestStats`] — cloneable shared counters so a supervisor (or the
//!   chaos soak harness) can observe every shed / sanitize / saturation
//!   event in its `metrics_snapshot()`.
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
use crate::density::{DensityHistogram, HISTOGRAM_BINS};
use crate::events::{EventTrain, EventTrainArena};
use crate::metrics::{default_registry, Counter};
use crate::online::Harvest;
use crate::span;
use crate::window::SlidingWindow;
use crate::DetectorError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::OnceLock;

/// Process-wide count of events offered to any admission queue.
fn ingest_offered_total() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        default_registry().counter(
            "cchunter_ingest_offered_total",
            "Raw events offered to admission queues (all pipelines)",
        )
    })
}

/// Process-wide count of events shed by admission queues.
fn ingest_shed_total() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        default_registry().counter(
            "cchunter_ingest_shed_total",
            "Events shed by admission queues under overload",
        )
    })
}

/// Process-wide count of events repaired by sanitizers.
fn ingest_repaired_total() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        default_registry().counter(
            "cchunter_ingest_repaired_total",
            "Events repaired by ingest sanitizers (reorder clamps)",
        )
    })
}

/// Process-wide count of events dropped by sanitizers.
fn ingest_dropped_total() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        default_registry().counter(
            "cchunter_ingest_dropped_total",
            "Hostile events dropped by ingest sanitizers",
        )
    })
}

/// Process-wide count of quanta whose 16-bit accumulators saturated.
fn ingest_saturated_total() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        default_registry().counter(
            "cchunter_ingest_saturated_quanta_total",
            "Quanta whose saturating 16-bit accumulators clamped",
        )
    })
}

/// Process-wide count of quanta finished by ingest pipelines.
fn ingest_quanta_total() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        default_registry().counter(
            "cchunter_ingest_quanta_total",
            "Quanta harvested through ingest pipelines",
        )
    })
}

/// One raw indicator event as delivered by an event source, before any
/// trust has been established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// Maximum events buffered between drains. This — times
    /// `size_of::<RawEvent>()` — is the queue's entire memory bound.
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

/// A bounded queue between an event source and the analysis core.
///
/// `offer` is O(1) and never allocates past the configured capacity;
/// overload is converted into shed counts (reported by `drain`) instead of
/// memory growth or latency. One queue feeds one audited pair; the
/// supervisor drains it once per OS quantum.
#[derive(Debug)]
pub struct AdmissionQueue {
    config: AdmissionConfig,
    /// Drop-oldest storage (ring; push evicts the oldest).
    ring: SlidingWindow<RawEvent>,
    /// Drop-newest / reservoir storage.
    buf: Vec<RawEvent>,
    rng: SmallRng,
    offered: u64,
    shed: u64,
}

impl AdmissionQueue {
    /// Creates an empty queue.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] if the capacity is zero.
    pub fn new(config: AdmissionConfig) -> Result<Self, DetectorError> {
        if config.capacity == 0 {
            return Err(DetectorError::InvalidConfig {
                reason: "admission queue needs capacity >= 1".to_string(),
            });
        }
        let seed = match config.policy {
            ShedPolicy::Reservoir { seed } => seed,
            _ => 0,
        };
        Ok(AdmissionQueue {
            config,
            ring: SlidingWindow::new(config.capacity),
            buf: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
            offered: 0,
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
        match self.config.policy {
            ShedPolicy::DropOldest => self.ring.len(),
            _ => self.buf.len(),
        }
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Offers one event. O(1); a full queue sheds per the policy instead of
    /// growing.
    pub fn offer(&mut self, event: RawEvent) {
        self.offered += 1;
        match self.config.policy {
            ShedPolicy::DropOldest => {
                if self.ring.push(event).is_some() {
                    self.shed += 1;
                }
            }
            ShedPolicy::DropNewest => {
                if self.buf.len() < self.config.capacity {
                    self.buf.push(event);
                } else {
                    self.shed += 1;
                }
            }
            ShedPolicy::Reservoir { .. } => {
                if self.buf.len() < self.config.capacity {
                    self.buf.push(event);
                } else {
                    // Algorithm R: the n-th offered event replaces a random
                    // reservoir slot with probability capacity / n, so every
                    // offered event survives with equal probability.
                    let j = self.rng.gen_range(0..self.offered);
                    if (j as usize) < self.config.capacity {
                        self.buf[j as usize] = event;
                    }
                    self.shed += 1;
                }
            }
        }
    }

    /// Empties the queue, returning the admitted events (sorted back into
    /// nondecreasing time order for the reservoir policy, whose slot
    /// replacement scrambles arrival order) and the offered/shed counts
    /// since the previous drain.
    pub fn drain(&mut self) -> DrainedBatch {
        let mut events = match self.config.policy {
            ShedPolicy::DropOldest => self.ring.drain(),
            _ => std::mem::take(&mut self.buf),
        };
        if matches!(self.config.policy, ShedPolicy::Reservoir { .. }) {
            events.sort_by_key(|e| e.time);
        }
        let batch = DrainedBatch {
            events,
            offered: self.offered,
            shed: self.shed,
        };
        self.offered = 0;
        self.shed = 0;
        batch
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
    /// [`sanitize`](Self::sanitize). The arena's slabs are reused across
    /// quanta by the ingest pipeline, so a steady-state quantum allocates
    /// nothing on this path.
    pub fn sanitize_into(
        &self,
        events: &[RawEvent],
        arena: &mut EventTrainArena,
    ) -> (usize, SanitizeReport) {
        let idx = arena.begin_train();
        let mut report = SanitizeReport {
            offered: events.len() as u64,
            ..SanitizeReport::default()
        };
        let mut prev_accepted: Option<RawEvent> = None;
        let mut last_time = 0u64;
        let mut run_len = 0u32;
        for &event in events {
            if event.context >= self.config.max_contexts {
                report.out_of_range += 1;
                continue;
            }
            if prev_accepted == Some(event) {
                report.duplicates += 1;
                continue;
            }
            let mut time = event.time;
            let had_history = prev_accepted.is_some();
            if had_history && time < last_time {
                if last_time - time <= self.config.reorder_tolerance {
                    time = last_time;
                    report.repaired_reorder += 1;
                } else {
                    report.time_travel += 1;
                    continue;
                }
            }
            if had_history && time == last_time {
                run_len += 1;
                if run_len >= self.config.zero_dt_burst_limit {
                    report.zero_dt_trimmed += 1;
                    continue;
                }
            } else {
                run_len = 0;
            }
            // Cannot fail: `time` was clamped to be >= the last accepted
            // timestamp — but hostile input must never panic, so the error
            // path degrades to a drop instead of unwrapping.
            if arena.push(time, event.weight).is_err() {
                report.time_travel += 1;
                continue;
            }
            report.accepted += 1;
            prev_accepted = Some(event);
            last_time = time;
        }
        (idx, report)
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
        let mut report = SanitizeReport {
            offered: records.len() as u64,
            ..SanitizeReport::default()
        };
        let mut prev: Option<ConflictRecord> = None;
        let mut last_cycle = 0u64;
        let mut run_len = 0u32;
        for &record in records {
            if record.replacer >= self.config.max_contexts
                || record.victim >= self.config.max_contexts
            {
                report.out_of_range += 1;
                continue;
            }
            if prev == Some(record) {
                report.duplicates += 1;
                continue;
            }
            let mut cycle = record.cycle;
            let had_history = prev.is_some();
            if had_history && cycle < last_cycle {
                if last_cycle - cycle <= self.config.reorder_tolerance {
                    cycle = last_cycle;
                    report.repaired_reorder += 1;
                } else {
                    report.time_travel += 1;
                    continue;
                }
            }
            if had_history && cycle == last_cycle {
                run_len += 1;
                if run_len >= self.config.zero_dt_burst_limit {
                    report.zero_dt_trimmed += 1;
                    continue;
                }
            } else {
                run_len = 0;
            }
            out.push(ConflictRecord {
                cycle,
                replacer: record.replacer,
                victim: record.victim,
            });
            report.accepted += 1;
            prev = Some(record);
            last_cycle = cycle;
        }
        (out, report)
    }
}

/// One of the paper's 16-bit CC-auditor accumulators: adds clamp at
/// [`u16::MAX`] and set a *sticky* saturation flag instead of wrapping —
/// a saturated count is a lower bound, and downstream analyses must widen
/// their uncertainty accordingly rather than silently under-count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SatAccumulator {
    value: u16,
    saturated: bool,
}

impl SatAccumulator {
    /// Creates a zeroed accumulator.
    pub fn new() -> Self {
        SatAccumulator::default()
    }

    /// Adds `count`, clamping at [`u16::MAX`]; the saturation flag sticks.
    pub fn add(&mut self, count: u64) {
        let sum = self.value as u64 + count;
        if sum > u16::MAX as u64 {
            self.value = u16::MAX;
            self.saturated = true;
        } else {
            self.value = sum as u16;
        }
    }

    /// The current (possibly clamped) value.
    pub fn value(&self) -> u16 {
        self.value
    }

    /// Whether any add has ever clamped.
    pub fn is_saturated(&self) -> bool {
        self.saturated
    }

    /// Resets to zero and clears the flag (hardware harvest-and-clear).
    pub fn reset(&mut self) {
        *self = SatAccumulator::default();
    }
}

/// A density histogram with the CC-auditor's hardware width: 128 bins of
/// 16 bits each plus a 16-bit total-window accumulator, all saturating
/// with a sticky flag (the 8/16-bit entry widths of paper Figure 8).
///
/// [`finish`](Self::finish) converts back to the software-width
/// [`DensityHistogram`] and reports whether any counter clamped.
#[derive(Debug, Clone)]
pub struct SaturatingHistogram {
    bins: Vec<SatAccumulator>,
    windows: SatAccumulator,
    delta_t: u64,
}

impl SaturatingHistogram {
    /// Creates an empty hardware-width histogram for windows of `delta_t`
    /// cycles.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] if `delta_t` is zero.
    pub fn new(delta_t: u64) -> Result<Self, DetectorError> {
        if delta_t == 0 {
            return Err(DetectorError::InvalidConfig {
                reason: "Δt must be nonzero".to_string(),
            });
        }
        Ok(SaturatingHistogram {
            bins: vec![SatAccumulator::new(); HISTOGRAM_BINS],
            windows: SatAccumulator::new(),
            delta_t,
        })
    }

    /// Adds `count` windows of density `bin` (clamped to the last bin, as
    /// the hardware histogram does).
    pub fn record(&mut self, bin: usize, count: u64) {
        let bin = bin.min(HISTOGRAM_BINS - 1);
        self.bins[bin].add(count);
        self.windows.add(count);
    }

    /// Accumulates a software-width histogram bin by bin.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::BadHarvest`] on a Δt mismatch.
    pub fn accumulate(&mut self, histogram: &DensityHistogram) -> Result<(), DetectorError> {
        if histogram.delta_t() != self.delta_t {
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
        self.windows.is_saturated() || self.bins.iter().any(|b| b.is_saturated())
    }

    /// The Δt this histogram was built with.
    pub fn delta_t(&self) -> u64 {
        self.delta_t
    }

    /// Converts to a software-width [`DensityHistogram`] plus the sticky
    /// saturation flag. The caller must treat a saturated read-out as a
    /// lower bound (the ingest pipeline widens `lost_fraction`).
    pub fn finish(&self) -> (DensityHistogram, bool) {
        let bins: Vec<u64> = self.bins.iter().map(|b| b.value() as u64).collect();
        let histogram = DensityHistogram::from_bins(bins, self.delta_t)
            .expect("bin count and Δt are valid by construction");
        (histogram, self.is_saturated())
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
/// sanitizer → saturating 16-bit histogram → [`Harvest`].
#[derive(Debug)]
pub struct IngestPipeline {
    config: IngestConfig,
    queue: AdmissionQueue,
    sanitizer: Sanitizer,
    /// Reused SoA storage for the per-quantum sanitized train: cleared (not
    /// freed) every quantum so steady state allocates nothing.
    arena: EventTrainArena,
    stats: IngestStats,
}

impl IngestPipeline {
    /// Creates a pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] for a zero queue capacity,
    /// zero Δt, or tolerances outside `[0, 1]`.
    pub fn new(config: IngestConfig) -> Result<Self, DetectorError> {
        if config.delta_t == 0 {
            return Err(DetectorError::InvalidConfig {
                reason: "ingest Δt must be nonzero".to_string(),
            });
        }
        if !(0.0..=1.0).contains(&config.bias_tolerance)
            || !(0.0..=1.0).contains(&config.saturation_penalty)
        {
            return Err(DetectorError::InvalidConfig {
                reason: "bias_tolerance and saturation_penalty must be in [0, 1]".to_string(),
            });
        }
        Ok(IngestPipeline {
            queue: AdmissionQueue::new(config.admission)?,
            sanitizer: Sanitizer::new(config.sanitizer),
            arena: EventTrainArena::new(),
            stats: IngestStats::new(),
            config,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &IngestConfig {
        &self.config
    }

    /// A cloneable handle to this pipeline's counters (share it with a
    /// supervisor so ingest totals appear in its `metrics_snapshot()`).
    pub fn stats(&self) -> IngestStats {
        self.stats.clone()
    }

    /// Events currently queued — bounded by the admission capacity.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Offers one raw event to the admission queue. O(1), bounded memory.
    pub fn offer(&mut self, event: RawEvent) {
        self.stats.events_offered.inc();
        ingest_offered_total().inc();
        self.queue.offer(event);
    }

    /// Ends the quantum `[start, end)`: drains the queue, sanitizes the
    /// batch, builds the density histogram through the saturating 16-bit
    /// accumulators, and folds every form of damage into the returned
    /// [`Harvest`]'s loss fraction (or refuses the quantum outright — see
    /// the module docs for the loss semantics).
    pub fn end_quantum(&mut self, start: u64, end: u64) -> (Harvest, IngestReport) {
        let tracer = span::global();
        let _span = tracer.span("ingest", "quantum");

        let batch = self.queue.drain();
        let shed_fraction = batch.shed_fraction();
        let mut events = batch.events;

        // Reservoir shedding is an unbiased subsample: rescale the
        // surviving weights by the inverse keep rate (Horvitz–Thompson) so
        // the expected density histogram matches the unshed quantum.
        if !self.config.admission.policy.is_biased() && batch.shed > 0 && !events.is_empty() {
            let inflate =
                ((batch.offered as f64 / events.len() as f64).round() as u32).clamp(1, 1 << 16);
            for event in &mut events {
                event.weight = event.weight.saturating_mul(inflate);
            }
        }

        self.arena.clear();
        let (train_idx, sanitize) = self.sanitizer.sanitize_into(&events, &mut self.arena);
        let software = DensityHistogram::from_view(
            self.arena.view(train_idx),
            self.config.delta_t,
            start,
            end,
        );
        let mut hardware =
            SaturatingHistogram::new(self.config.delta_t).expect("Δt validated at construction");
        hardware
            .accumulate(&software)
            .expect("same Δt by construction");
        let (histogram, saturated) = hardware.finish();

        // Damage composes multiplicatively on the surviving fraction.
        let mut lost = 1.0 - (1.0 - shed_fraction) * (1.0 - sanitize.lost_fraction());
        if saturated {
            lost = 1.0 - (1.0 - lost) * (1.0 - self.config.saturation_penalty);
        }
        let lost = lost.clamp(0.0, 1.0);

        let refused =
            self.config.admission.policy.is_biased() && shed_fraction > self.config.bias_tolerance;
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

        self.stats.quanta.inc();
        ingest_quanta_total().inc();
        self.stats.events_shed.inc_by(batch.shed);
        ingest_shed_total().inc_by(batch.shed);
        self.stats.events_repaired.inc_by(sanitize.repaired_reorder);
        ingest_repaired_total().inc_by(sanitize.repaired_reorder);
        self.stats.events_dropped.inc_by(sanitize.dropped());
        ingest_dropped_total().inc_by(sanitize.dropped());
        if saturated {
            self.stats.saturated_quanta.inc();
            ingest_saturated_total().inc();
        }
        match harvest {
            Harvest::Partial { .. } => self.stats.partial_harvests.inc(),
            Harvest::Missed => self.stats.missed_harvests.inc(),
            Harvest::Complete(_) => {}
        }
        if tracer.is_enabled() && (batch.shed > 0 || !sanitize.is_clean() || saturated) {
            tracer.event(
                "ingest",
                "degraded-quantum",
                format!(
                    "policy {} shed {}/{} sanitize [{}] saturated {} -> lost {:.3}{}",
                    self.config.admission.policy,
                    batch.shed,
                    batch.offered,
                    sanitize,
                    saturated,
                    lost,
                    if refused { " REFUSED" } else { "" }
                ),
            );
        }

        let report = IngestReport {
            offered: batch.offered,
            admitted: batch.offered - batch.shed,
            shed: batch.shed,
            shed_fraction,
            policy: self.config.admission.policy,
            sanitize,
            saturated,
            lost_fraction: if refused { 1.0 } else { lost },
            refused,
        };
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
            "drain must re-sort the reservoir into time order"
        );
        // Uniformity (coarse): both halves of the stream are represented.
        let early = a.events.iter().filter(|e| e.time < 5_000).count();
        assert!(
            (20..=80).contains(&early),
            "reservoir should sample the whole quantum, got {early} early"
        );
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
    fn accumulator_clamps_sticky() {
        let mut a = SatAccumulator::new();
        a.add(60_000);
        assert!(!a.is_saturated());
        a.add(10_000);
        assert_eq!(a.value(), u16::MAX);
        assert!(a.is_saturated());
        a.add(1);
        assert_eq!(a.value(), u16::MAX, "clamp, never wrap");
        a.reset();
        assert_eq!(a.value(), 0);
        assert!(!a.is_saturated());
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
        let software = DensityHistogram::from_train(&train, 100, 0, 400);
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
