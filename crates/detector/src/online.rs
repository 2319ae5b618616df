//! Online (streaming) detection — the long-running daemon view.
//!
//! The batch APIs in [`crate::pipeline`] analyze a completed observation
//! window; a deployed CC-Hunter daemon instead consumes the CC-auditor's
//! buffers quantum by quantum, keeps a sliding observation window (at most
//! 512 quanta, §IV-B), and raises an alarm the moment recurrence (or
//! sustained oscillation) is established.
//!
//! ## Degraded harvests
//!
//! A real deployment does not get a pristine histogram every quantum: the
//! daemon can be descheduled past a harvest deadline (quantum missed),
//! registers saturate, buffers are truncated by DMA races. The daemon
//! therefore consumes [`Harvest`] values rather than bare histograms, keeps
//! *gap-aware* windows (a missed quantum occupies a window slot with zero
//! observation weight instead of silently vanishing), and every status
//! carries a [`confidence`](OnlineStatus::confidence) — the observed
//! fraction of the window — that decays under loss instead of letting the
//! verdict flip to a spuriously confident `Clean`.
//!
//! ## Incremental windows
//!
//! Both daemons keep their observation window in a ring buffer
//! ([`crate::window::SlidingWindow`]) with running aggregates (observation
//! weight, observed / bursty / oscillatory counts), so `push_quantum` /
//! `push_slot` cost O(1) per quantum plus the analysis of the new slot
//! itself — nothing in the window is ever re-scanned. The contention
//! daemon's k-means clustering is memoized on the window's bursty-feature
//! sequence: a quantum sliding through the window is discretized exactly
//! once, and the clustering reruns only when a push or eviction changes the
//! sequence (the seeded k-means is deterministic, so reuse is exact). The
//! running weight sum is rebased — recomputed from the ring — every
//! `capacity` pushes, which keeps it amortized O(1) while preventing
//! floating-point round-off from accumulating without bound.
//!
//! ## Checkpoint / restore
//!
//! Both daemons serialize their sliding window to the plain-text checkpoint
//! format of [`crate::trace`] ([`OnlineContentionDetector::checkpoint`],
//! [`OnlineContentionDetector::restore`]), so a daemon restart resumes
//! mid-window and reproduces the verdict sequence of an uninterrupted run.

use crate::auditor::ConflictRecord;
use crate::autocorr::{OscillationDetector, OscillationVerdict};
use crate::burst::{BurstDetector, BurstVerdict};
use crate::cluster::{discretized_features, recurrence_from_features, RecurrenceVerdict};
use crate::density::{DensityHistogram, HISTOGRAM_BINS};
use crate::metrics::{default_registry, Counter};
use crate::pipeline::{symbol_series, CcHunterConfig, Verdict};
use crate::span;
use crate::trace::{read_checkpoint, write_checkpoint, Checkpoint, CheckpointSlot};
use crate::window::SlidingWindow;
use crate::DetectorError;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::num::NonZeroU64;
use std::sync::OnceLock;

/// Process-wide count of quanta pushed into any online daemon.
fn online_pushes_total() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        default_registry().counter(
            "cchunter_online_pushes_total",
            "Quanta pushed into online daemons (all pairs, all fleets)",
        )
    })
}

/// Process-wide count of missed (zero-weight) quanta pushed.
fn online_missed_total() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        default_registry().counter(
            "cchunter_online_missed_total",
            "Missed quanta (gaps) pushed into online daemons",
        )
    })
}

/// Process-wide count of daemon verdict flips (clean ↔ covert).
fn online_verdict_flips_total() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        default_registry().counter(
            "cchunter_online_verdict_flips_total",
            "Online daemon verdict changes (clean <-> covert)",
        )
    })
}

/// Publishes a verdict change on the daemon push path: counted always,
/// traced when the global tracer is on. `kind` is the daemon kind label.
fn note_verdict_flip(kind: &'static str, from: Verdict, to: Verdict, confidence: f64) {
    online_verdict_flips_total().inc();
    let tracer = span::global();
    if tracer.is_enabled() {
        tracer.event(
            "online",
            "verdict-flip",
            format!("{kind}: {from} -> {to} (confidence {confidence:.3})"),
        );
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
            Harvest::Partial { lost_fraction, .. } => observed_fraction(*lost_fraction),
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

/// The observation weight of a quantum that lost `lost_fraction` of its
/// evidence, in `[0, 1]`. A non-finite loss is an unknown loss and counts as
/// total: a NaN weight would make the window's confidence NaN, and since
/// `NaN < min_confidence` is false, the daemon would acquit a blinded pair.
fn observed_fraction(lost_fraction: f64) -> f64 {
    if lost_fraction.is_finite() {
        (1.0 - lost_fraction).clamp(0.0, 1.0)
    } else {
        0.0
    }
}

impl From<DensityHistogram> for Harvest {
    fn from(histogram: DensityHistogram) -> Self {
        Harvest::Complete(histogram)
    }
}

/// Status returned after each pushed quantum.
#[derive(Debug, Clone)]
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

/// One sliding-window slot of the contention daemon. The quantum's nonzero
/// histogram bins live in the daemon's [`BinArena`], not in the slot.
#[derive(Debug, Clone)]
struct QuantumSlot {
    /// Δt of the observed histogram — `None` when the quantum was missed.
    delta_t: Option<NonZeroU64>,
    /// Entries this slot owns in the arena: its histogram's nonzero bins.
    nonzero_bins: u8,
    /// Discretized k-means features — present iff the quantum's burst
    /// verdict was significant. Computed once at push time so a quantum is
    /// never re-discretized while it slides through the window.
    features: Option<Vec<f64>>,
    weight: f64,
}

/// The contention window's histograms, compacted: every observed slot's
/// nonzero `(bin, frequency)` entries, oldest slot first, in two parallel
/// queues (9 bytes an entry). Slots leave the window strictly
/// oldest-first, so a push appends the new quantum's entries at the back
/// and an eviction pops the oldest slot's entries off the front — in steady
/// state neither allocates. Capacity grows geometrically but never past
/// `limit`, the most entries the window can hold, so a window of fully
/// dense histograms costs at most 9/8 of the dense `u64` bins it replaces.
#[derive(Debug)]
struct BinArena {
    bins: VecDeque<u8>,
    frequencies: VecDeque<u64>,
    /// `capacity × HISTOGRAM_BINS`: the entry count of a full window of
    /// fully dense histograms.
    limit: usize,
}

impl BinArena {
    fn new(window_capacity: usize) -> Self {
        BinArena {
            bins: VecDeque::new(),
            frequencies: VecDeque::new(),
            limit: window_capacity * HISTOGRAM_BINS,
        }
    }

    /// Appends `histogram`'s nonzero bins; returns how many it appended.
    fn push(&mut self, histogram: &DensityHistogram) -> u8 {
        let nonzero = histogram.bins().iter().filter(|&&f| f > 0).count();
        let needed = self.bins.len() + nonzero;
        if needed > self.bins.capacity() {
            let target = (2 * self.bins.capacity()).min(self.limit).max(needed);
            self.bins.reserve_exact(target - self.bins.len());
            self.frequencies
                .reserve_exact(target - self.frequencies.len());
        }
        for (bin, &f) in histogram.bins().iter().enumerate() {
            if f > 0 {
                // Bin indices (and a slot's entry count) are at most
                // HISTOGRAM_BINS = 128, so they fit a u8.
                self.bins.push_back(bin as u8);
                self.frequencies.push_back(f);
            }
        }
        nonzero as u8
    }

    /// Drops the oldest slot's `n` entries.
    fn pop_front(&mut self, n: u8) {
        let n = usize::from(n);
        self.bins.drain(..n);
        self.frequencies.drain(..n);
    }

    /// The `n` entries starting `offset` entries from the front, as
    /// `(bin, frequency)` pairs.
    fn entries(&self, offset: usize, n: u8) -> impl Iterator<Item = (usize, u64)> + '_ {
        let range = offset..offset + usize::from(n);
        self.bins
            .range(range.clone())
            .zip(self.frequencies.range(range))
            .map(|(&bin, &f)| (usize::from(bin), f))
    }
}

/// Cached clustering outcome over the window's current bursty-feature
/// sequence. `windows`/`bursty_windows` are patched in from the running
/// counters at read time; the expensive part (k-means) is only redone when a
/// push or eviction changes the bursty sequence itself.
#[derive(Debug, Clone, Copy)]
struct ClusterCache {
    largest_burst_cluster: usize,
    recurrent: bool,
}

/// Streaming detector for one *combinational* resource (bus, divider,
/// multiplier): feed one harvest per OS quantum.
///
/// ```
/// use cchunter_detector::density::{DensityHistogram, HISTOGRAM_BINS};
/// use cchunter_detector::online::{Harvest, OnlineContentionDetector};
/// use cchunter_detector::pipeline::CcHunterConfig;
///
/// let mut daemon = OnlineContentionDetector::new(CcHunterConfig::default(), 512).unwrap();
/// let mut bins = vec![0u64; HISTOGRAM_BINS];
/// bins[0] = 2_400;
/// bins[20] = 100; // a covert-channel-shaped quantum
/// let covert = DensityHistogram::from_bins(bins, 100_000).unwrap();
/// let status = daemon.push_quantum(covert.clone());
/// assert!(!status.verdict.is_covert(), "one bursty quantum is not recurrent");
/// let status = daemon.push_quantum(covert);
/// assert!(status.verdict.is_covert(), "the pattern recurs");
/// assert_eq!(status.confidence, 1.0, "no harvests were lost");
/// // A missed harvest leaves a gap in the window instead of vanishing:
/// let status = daemon.push_quantum(Harvest::Missed);
/// assert!(status.confidence < 1.0);
/// ```
#[derive(Debug)]
pub struct OnlineContentionDetector {
    config: CcHunterConfig,
    detector: BurstDetector,
    window: SlidingWindow<QuantumSlot>,
    /// The window slots' nonzero histogram bins, oldest slot first.
    arena: BinArena,
    /// Running observation-weight sum over the window (running confidence
    /// numerator).
    weight_sum: f64,
    /// Running count of slots holding a histogram.
    observed: usize,
    /// Running count of slots with a significant burst verdict.
    bursty: usize,
    /// Pushes since `weight_sum` was last recomputed from the ring; the sum
    /// is rebased every `capacity` pushes (amortized O(1)) so add/subtract
    /// round-off can never accumulate.
    pushes_since_rebase: usize,
    /// Clustering cache, invalidated when the bursty sequence changes.
    cache: Option<ClusterCache>,
    /// The last verdict returned, so flips can be traced.
    last_verdict: Verdict,
}

impl OnlineContentionDetector {
    /// Creates a daemon keeping a sliding window of `window_quanta`
    /// (clamped to the paper's 512-quantum limit).
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] if `window_quanta` is zero.
    pub fn new(config: CcHunterConfig, window_quanta: usize) -> Result<Self, DetectorError> {
        if window_quanta == 0 {
            return Err(DetectorError::InvalidConfig {
                reason: "window must hold at least one quantum".to_string(),
            });
        }
        let capacity = window_quanta.min(512);
        Ok(OnlineContentionDetector {
            detector: BurstDetector::new(config.burst),
            config,
            window: SlidingWindow::new(capacity),
            arena: BinArena::new(capacity),
            weight_sum: 0.0,
            observed: 0,
            bursty: 0,
            pushes_since_rebase: 0,
            cache: None,
            last_verdict: Verdict::Clean,
        })
    }

    /// Quanta currently retained (missed quanta included).
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// The sliding-window capacity in quanta.
    pub fn capacity(&self) -> usize {
        self.window.capacity()
    }

    /// Feeds one quantum's harvest (a bare [`DensityHistogram`] converts to
    /// [`Harvest::Complete`]); returns the daemon's up-to-date status.
    ///
    /// Never panics: a missed or partial harvest occupies a window slot
    /// with reduced observation weight, and the returned status's
    /// [`confidence`](OnlineStatus::confidence) reports how much of the
    /// window the verdict actually rests on.
    pub fn push_quantum(&mut self, harvest: impl Into<Harvest>) -> OnlineStatus {
        let harvest = harvest.into();
        online_pushes_total().inc();
        if matches!(harvest, Harvest::Missed) {
            online_missed_total().inc();
        }
        let weight = harvest.observed_weight();
        // The dense histogram is analysed, its nonzero bins are copied into
        // the arena, and it is dropped here while still hot.
        let verdict = match harvest.histogram() {
            Some(h) => Some(self.push_observed(h, weight)),
            None => {
                self.insert_slot(None, None, weight);
                None
            }
        };
        self.status(verdict)
    }

    /// Analyses an observed quantum and slides it into the window.
    fn push_observed(&mut self, histogram: &DensityHistogram, weight: f64) -> BurstVerdict {
        let verdict = self.detector.analyze(histogram);
        let features = verdict.significant.then(|| discretized_features(histogram));
        self.insert_slot(Some(histogram), features, weight);
        verdict
    }

    /// Slides a slot into the window, maintaining the arena and the running
    /// aggregates in O(1) and invalidating the clustering cache only when
    /// the bursty sequence actually changed. The evicted slot's entries
    /// leave the arena before the new slot's arrive, so the arena never
    /// holds more than a full window's worth.
    fn insert_slot(
        &mut self,
        histogram: Option<&DensityHistogram>,
        features: Option<Vec<f64>>,
        weight: f64,
    ) {
        if self.window.is_full() {
            if let Some(oldest) = self.window.iter().next() {
                self.arena.pop_front(oldest.nonzero_bins);
            }
        }
        let slot = QuantumSlot {
            delta_t: histogram.and_then(|h| NonZeroU64::new(h.delta_t())),
            nonzero_bins: histogram.map_or(0, |h| self.arena.push(h)),
            features,
            weight,
        };
        self.weight_sum += slot.weight;
        if slot.delta_t.is_some() {
            self.observed += 1;
        }
        if slot.features.is_some() {
            self.bursty += 1;
            self.cache = None;
        }
        if let Some(evicted) = self.window.push(slot) {
            self.weight_sum -= evicted.weight;
            if evicted.delta_t.is_some() {
                self.observed -= 1;
            }
            if evicted.features.is_some() {
                self.bursty -= 1;
                self.cache = None;
            }
        }
        self.pushes_since_rebase += 1;
        if self.pushes_since_rebase >= self.window.capacity() {
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
        if self.bursty < self.config.cluster.min_recurring {
            return RecurrenceVerdict {
                windows: self.observed,
                bursty_windows: self.bursty,
                largest_burst_cluster: self.bursty,
                recurrent: false,
            };
        }
        if let Some(cache) = self.cache {
            return RecurrenceVerdict {
                windows: self.observed,
                bursty_windows: self.bursty,
                largest_burst_cluster: cache.largest_burst_cluster,
                recurrent: cache.recurrent,
            };
        }
        let features: Vec<&[f64]> = self
            .window
            .iter()
            .filter_map(|s| s.features.as_deref())
            .collect();
        let verdict = recurrence_from_features(self.observed, &features, &self.config.cluster);
        self.cache = Some(ClusterCache {
            largest_burst_cluster: verdict.largest_burst_cluster,
            recurrent: verdict.recurrent,
        });
        verdict
    }

    /// Computes the daemon's status over the current window; `quantum` is
    /// the just-pushed quantum's own verdict, if it was observed.
    fn status(&mut self, quantum: Option<BurstVerdict>) -> OnlineStatus {
        let recurrence = self.recurrence();
        let window_len = self.window.len();
        let confidence = if window_len == 0 {
            0.0
        } else {
            // Clamped: the running sum can sit an ulp outside [0, len].
            (self.weight_sum / window_len as f64).clamp(0.0, 1.0)
        };
        // Covert evidence always stands; only an affirmative Clean demands
        // the confidence floor — a blinded monitor must not clear anything.
        let call = if recurrence.recurrent {
            Verdict::CovertTimingChannel
        } else if confidence < self.config.min_confidence {
            Verdict::Inconclusive
        } else {
            Verdict::Clean
        };
        if call != self.last_verdict {
            note_verdict_flip("contention", self.last_verdict, call, confidence);
            self.last_verdict = call;
        }
        OnlineStatus {
            quantum_burst: quantum,
            quantum_oscillation: None,
            oscillatory_in_window: 0,
            window_len,
            observed_in_window: self.observed,
            confidence,
            recurrence: Some(recurrence),
            verdict: call,
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
                let histogram = s.delta_t.map(|delta_t| {
                    let sparse = self.arena.entries(offset, s.nonzero_bins).collect();
                    (delta_t.get(), sparse)
                });
                offset += usize::from(s.nonzero_bins);
                CheckpointSlot {
                    weight: s.weight,
                    histogram,
                    oscillatory: None,
                }
            })
            .collect();
        let cp = Checkpoint {
            kind: "contention".to_string(),
            capacity: self.window.capacity(),
            slots,
        };
        write_checkpoint(&cp, writer)?;
        Ok(())
    }

    /// Restores a daemon from a checkpoint written by
    /// [`checkpoint`](Self::checkpoint). Per-quantum burst verdicts are
    /// recomputed from the serialized histograms (the analysis is
    /// deterministic), so a restored daemon produces the same verdict
    /// sequence as one that never restarted.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::Trace`] on malformed input and
    /// [`DetectorError::CheckpointMismatch`] if the parsed state is
    /// incompatible with this daemon: wrong checkpoint kind, a capacity of
    /// zero or beyond the paper's 512-quantum window limit, more slots than
    /// the declared capacity, oscillation slots in a contention window, or
    /// histogram bin indices outside [`HISTOGRAM_BINS`]. Incompatible state
    /// is never silently adopted (or clamped) — a daemon restored from a
    /// checkpoint either matches it exactly or refuses it.
    pub fn restore<R: Read>(config: CcHunterConfig, reader: R) -> Result<Self, DetectorError> {
        let cp = read_checkpoint(reader)?;
        if cp.kind != "contention" {
            return Err(DetectorError::CheckpointMismatch {
                reason: format!("expected a contention checkpoint, got kind {:?}", cp.kind),
            });
        }
        validate_window_shape(cp.capacity, cp.slots.len())?;
        let mut daemon = Self::new(config, cp.capacity)?;
        for (idx, slot) in cp.slots.into_iter().enumerate() {
            if slot.oscillatory.is_some() {
                return Err(DetectorError::CheckpointMismatch {
                    reason: format!(
                        "slot {idx} carries an oscillation outcome in a contention window"
                    ),
                });
            }
            let histogram = slot
                .histogram
                .map(|(delta_t, sparse)| {
                    let mut bins = vec![0u64; HISTOGRAM_BINS];
                    for (i, f) in sparse {
                        let b = bins.get_mut(i).ok_or(DetectorError::CheckpointMismatch {
                            reason: format!(
                                "slot {idx} bin index {i} outside the {HISTOGRAM_BINS}-bin histogram"
                            ),
                        })?;
                        *b = f;
                    }
                    DensityHistogram::from_bins(bins, delta_t)
                })
                .transpose()?;
            match histogram {
                Some(h) => {
                    daemon.push_observed(&h, slot.weight);
                }
                None => daemon.insert_slot(None, None, slot.weight),
            }
        }
        Ok(daemon)
    }
}

/// One sliding-window slot of the oscillation daemon.
#[derive(Debug, Clone, Copy)]
struct OscSlot {
    /// The quantum's oscillation outcome — `None` when it was missed.
    oscillatory: Option<bool>,
    weight: f64,
}

/// Streaming detector for a *memory* resource (shared cache): feed the
/// conflict records drained each OS quantum.
#[derive(Debug)]
pub struct OnlineOscillationDetector {
    config: CcHunterConfig,
    detector: OscillationDetector,
    window: SlidingWindow<OscSlot>,
    /// Running observation-weight sum over the window.
    weight_sum: f64,
    /// Running count of observed (non-missed) slots.
    observed: usize,
    /// Running count of oscillatory slots.
    oscillatory: usize,
    /// Pushes since the last exact recomputation of `weight_sum` (see
    /// [`OnlineContentionDetector`]).
    pushes_since_rebase: usize,
    /// The last verdict returned, so flips can be traced.
    last_verdict: Verdict,
}

impl OnlineOscillationDetector {
    /// Creates a daemon keeping a sliding window of `window_quanta`
    /// (clamped to 512).
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] if `window_quanta` is zero.
    pub fn new(config: CcHunterConfig, window_quanta: usize) -> Result<Self, DetectorError> {
        if window_quanta == 0 {
            return Err(DetectorError::InvalidConfig {
                reason: "window must hold at least one quantum".to_string(),
            });
        }
        Ok(OnlineOscillationDetector {
            detector: OscillationDetector::new(config.oscillation),
            config,
            window: SlidingWindow::new(window_quanta.min(512)),
            weight_sum: 0.0,
            observed: 0,
            oscillatory: 0,
            pushes_since_rebase: 0,
            last_verdict: Verdict::Clean,
        })
    }

    /// Quanta currently retained (missed quanta included).
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Maximum quanta the sliding window retains.
    pub fn capacity(&self) -> usize {
        self.window.capacity()
    }

    /// Feeds one quantum's drained conflict records.
    pub fn push_quantum(&mut self, records: &[ConflictRecord]) -> OnlineStatus {
        self.push_quantum_degraded(records, 0.0)
    }

    /// Feeds one quantum's conflict records, a `lost_fraction` of which is
    /// known to have been lost or corrupted (vector-register overruns,
    /// Bloom-filter aliasing bursts): the quantum still contributes its
    /// verdict, but with reduced observation weight (none at all if
    /// `lost_fraction` is not a finite number).
    pub fn push_quantum_degraded(
        &mut self,
        records: &[ConflictRecord],
        lost_fraction: f64,
    ) -> OnlineStatus {
        online_pushes_total().inc();
        let series = symbol_series(records, 0, u64::MAX);
        let verdict = self.detector.analyze(&series, self.config.max_lag);
        self.push_slot(OscSlot {
            oscillatory: Some(verdict.oscillatory),
            weight: observed_fraction(lost_fraction),
        });
        self.status(Some(verdict))
    }

    /// Records a quantum whose conflict drain never arrived: the window
    /// keeps its place as a gap with zero observation weight.
    pub fn push_missed(&mut self) -> OnlineStatus {
        online_pushes_total().inc();
        online_missed_total().inc();
        self.push_slot(OscSlot {
            oscillatory: None,
            weight: 0.0,
        });
        self.status(None)
    }

    /// Slides `slot` into the window, maintaining the running counters in
    /// O(1) — `status` never re-walks the window.
    fn push_slot(&mut self, slot: OscSlot) {
        self.weight_sum += slot.weight;
        if slot.oscillatory.is_some() {
            self.observed += 1;
        }
        if slot.oscillatory == Some(true) {
            self.oscillatory += 1;
        }
        if let Some(evicted) = self.window.push(slot) {
            self.weight_sum -= evicted.weight;
            if evicted.oscillatory.is_some() {
                self.observed -= 1;
            }
            if evicted.oscillatory == Some(true) {
                self.oscillatory -= 1;
            }
        }
        self.pushes_since_rebase += 1;
        if self.pushes_since_rebase >= self.window.capacity() {
            self.weight_sum = self.window.iter().map(|s| s.weight).sum();
            self.pushes_since_rebase = 0;
        }
    }

    fn status(&mut self, quantum: Option<OscillationVerdict>) -> OnlineStatus {
        let window_len = self.window.len();
        let confidence = if window_len == 0 {
            0.0
        } else {
            // Clamped: the running sum can sit an ulp outside [0, len].
            (self.weight_sum / window_len as f64).clamp(0.0, 1.0)
        };
        // Same rule as the contention daemon: covert evidence stands, Clean
        // requires the confidence floor, anything else is Inconclusive.
        let call = if self.oscillatory >= self.config.min_oscillatory_windows {
            Verdict::CovertTimingChannel
        } else if confidence < self.config.min_confidence {
            Verdict::Inconclusive
        } else {
            Verdict::Clean
        };
        if call != self.last_verdict {
            note_verdict_flip("oscillation", self.last_verdict, call, confidence);
            self.last_verdict = call;
        }
        OnlineStatus {
            quantum_burst: None,
            quantum_oscillation: quantum,
            oscillatory_in_window: self.oscillatory,
            window_len,
            observed_in_window: self.observed,
            confidence,
            recurrence: None,
            verdict: call,
        }
    }

    /// Serializes the sliding window to `writer` in the plain-text
    /// checkpoint format of [`crate::trace`].
    ///
    /// # Errors
    ///
    /// Returns any I/O error from `writer`.
    pub fn checkpoint<W: Write>(&self, writer: W) -> Result<(), DetectorError> {
        let slots = self
            .window
            .iter()
            .map(|s| CheckpointSlot {
                weight: s.weight,
                histogram: None,
                oscillatory: s.oscillatory,
            })
            .collect();
        let cp = Checkpoint {
            kind: "oscillation".to_string(),
            capacity: self.window.capacity(),
            slots,
        };
        write_checkpoint(&cp, writer)?;
        Ok(())
    }

    /// Restores a daemon from a checkpoint written by
    /// [`checkpoint`](Self::checkpoint).
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::Trace`] on malformed input and
    /// [`DetectorError::CheckpointMismatch`] if the parsed state is
    /// incompatible with this daemon: wrong checkpoint kind, a capacity of
    /// zero or beyond the 512-quantum limit, more slots than the declared
    /// capacity, or histogram slots in an oscillation window. Incompatible
    /// state is never silently adopted.
    pub fn restore<R: Read>(config: CcHunterConfig, reader: R) -> Result<Self, DetectorError> {
        let cp = read_checkpoint(reader)?;
        if cp.kind != "oscillation" {
            return Err(DetectorError::CheckpointMismatch {
                reason: format!("expected an oscillation checkpoint, got kind {:?}", cp.kind),
            });
        }
        validate_window_shape(cp.capacity, cp.slots.len())?;
        let mut daemon = Self::new(config, cp.capacity)?;
        for (idx, slot) in cp.slots.into_iter().enumerate() {
            if slot.histogram.is_some() {
                return Err(DetectorError::CheckpointMismatch {
                    reason: format!("slot {idx} carries a histogram in an oscillation window"),
                });
            }
            daemon.push_slot(OscSlot {
                oscillatory: slot.oscillatory,
                weight: slot.weight,
            });
        }
        Ok(daemon)
    }
}

/// Shared restore-time validation: a checkpoint's window must have a
/// plausible capacity (nonzero, within the paper's 512-quantum limit) and
/// no more slots than that capacity. Anything else is refused with a typed
/// [`DetectorError::CheckpointMismatch`] rather than clamped or truncated.
fn validate_window_shape(capacity: usize, slots: usize) -> Result<(), DetectorError> {
    if capacity == 0 {
        return Err(DetectorError::CheckpointMismatch {
            reason: "checkpoint declares a zero-capacity window".to_string(),
        });
    }
    if capacity > 512 {
        return Err(DetectorError::CheckpointMismatch {
            reason: format!("checkpoint capacity {capacity} exceeds the 512-quantum window limit"),
        });
    }
    if slots > capacity {
        return Err(DetectorError::CheckpointMismatch {
            reason: format!("checkpoint holds {slots} slots but declares capacity {capacity}"),
        });
    }
    Ok(())
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

    #[test]
    fn zero_window_rejected() {
        let err = OnlineContentionDetector::new(CcHunterConfig::default(), 0).unwrap_err();
        assert!(matches!(err, DetectorError::InvalidConfig { .. }));
        let err = OnlineOscillationDetector::new(CcHunterConfig::default(), 0).unwrap_err();
        assert!(matches!(err, DetectorError::InvalidConfig { .. }));
    }
}
