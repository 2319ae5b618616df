//! The end-to-end CC-Hunter detection pipeline (paper §IV–§V).
//!
//! The software half of CC-Hunter runs as a background daemon: every OS
//! time quantum it harvests the CC-auditor's buffers and runs
//!
//! * the **recurrent-burst** path for combinational units: per-quantum
//!   density histogram → threshold-density split → likelihood ratio →
//!   pattern clustering across the observation window (≤ 512 quanta);
//! * the **oscillation** path for memory units: per-window conflict-miss
//!   symbol series → autocorrelogram → periodicity test. The window
//!   defaults to one quantum and can be divided further (the paper's
//!   Figure 11 shows fractional windows recover 0.1 bps channels).
//!
//! ## One scoring core
//!
//! The batch paths score nothing themselves. Each replays its harvests (or
//! a conflict drain's sub-windows) into an [`OnlineWindow`] exactly as long
//! as the input and reads its status once at the end, so k-means runs once
//! per batch and a batch verdict means what a fleet verdict means: covert
//! evidence stands, and a window observed below
//! [`CcHunterConfig::min_confidence`] is [`Verdict::Inconclusive`], not
//! `Clean`. A configuration the window refuses (see [`OnlineWindow::new`])
//! scores nothing: its reports are zero-confidence `Inconclusive`.
//!
//! ## Parallel audit engine
//!
//! A deployment audits many principal pairs at once (every suspect
//! trojan/spy pairing on every shared unit). [`CcHunter::audit_pairs`] fans
//! the labeled per-pair evidence out across the process-wide thread pool
//! through the vendored `threadpool::par_map`, whose output is
//! bit-identical to the serial loop for any thread count, so verdicts never
//! depend on the host's core count.

use crate::auditor::ConflictRecord;
use crate::autocorr::{OscillationConfig, OscillationVerdict};
use crate::burst::{BurstConfig, BurstVerdict};
use crate::cluster::{ClusterConfig, RecurrenceVerdict};
use crate::density::{DeltaTPolicy, DensityHistogram};
use crate::events::{pair_symbol, EventTrain, SymbolSeries};
use crate::metrics::{default_registry, Counter, Histogram, LATENCY_BUCKETS_US};
use crate::online::{Harvest, OnlineStatus, OnlineWindow, PairKind};
use crate::span;
use crate::DetectorError;
use std::fmt;
use std::sync::OnceLock;
use std::time::Instant;

/// Batch audits run through [`CcHunter::audit_pairs`] /
/// [`CcHunter::try_audit_pairs`].
fn pipeline_batches_total() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        default_registry().counter(
            "cchunter_pipeline_batches_total",
            "Batch audits run through the parallel pipeline.",
        )
    })
}

/// Individual pair audits completed by the pipeline.
fn pipeline_audits_total() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        default_registry().counter(
            "cchunter_pipeline_audits_total",
            "Individual pair audits completed by the pipeline.",
        )
    })
}

/// Pipeline audits whose verdict was covert.
fn pipeline_covert_total() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        default_registry().counter(
            "cchunter_pipeline_covert_total",
            "Pipeline pair audits that reported a covert timing channel.",
        )
    })
}

/// Wall-clock latency of whole audit batches.
fn pipeline_batch_latency_us() -> &'static Histogram {
    static H: OnceLock<Histogram> = OnceLock::new();
    H.get_or_init(|| {
        default_registry().histogram(
            "cchunter_pipeline_batch_latency_us",
            "Wall-clock latency of whole pipeline audit batches, in microseconds.",
            &LATENCY_BUCKETS_US,
        )
    })
}

/// The two classes of shared hardware the paper distinguishes (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceKind {
    /// Logic and wires (memory bus, divider): covert channels appear as
    /// recurrent contention bursts.
    Combinational,
    /// Memory structures (caches): covert channels appear as oscillatory
    /// conflict-miss patterns.
    Memory,
}

/// CC-Hunter's final call for one audited resource. The default is
/// [`Verdict::Inconclusive`]: with no evidence yet, nothing is cleared.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Verdict {
    /// Recurrent bursts / sustained oscillation found: a covert timing
    /// channel is likely operating on the resource.
    CovertTimingChannel,
    /// No covert-channel signature.
    Clean,
    /// Not enough trustworthy evidence to rule either way: the observed
    /// fraction of the window fell below the configured confidence floor
    /// (harvests missed, shed under a biased admission policy, or saturated
    /// beyond repair). An `Inconclusive` resource must not be treated as
    /// clean — the monitor is telling you it was blinded.
    #[default]
    Inconclusive,
}

impl Verdict {
    /// Whether this verdict reports a channel.
    pub fn is_covert(self) -> bool {
        matches!(self, Verdict::CovertTimingChannel)
    }

    /// Whether this verdict affirmatively clears the resource. `false` for
    /// both [`Verdict::CovertTimingChannel`] and [`Verdict::Inconclusive`]:
    /// a blinded monitor has not cleared anything.
    pub fn is_clean(self) -> bool {
        matches!(self, Verdict::Clean)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::CovertTimingChannel => f.write_str("COVERT TIMING CHANNEL"),
            Verdict::Clean => f.write_str("clean"),
            Verdict::Inconclusive => f.write_str("inconclusive"),
        }
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CcHunterConfig {
    /// OS time quantum in cycles (0.1 s = 250 M cycles at 2.5 GHz).
    pub quantum_cycles: u64,
    /// Δt selection for contention audits.
    pub delta_t: DeltaTPolicy,
    /// Burst-detection thresholds.
    pub burst: BurstConfig,
    /// Pattern-clustering (recurrence) parameters.
    pub cluster: ClusterConfig,
    /// Oscillation-detection thresholds.
    pub oscillation: OscillationConfig,
    /// Autocorrelogram depth in lags.
    pub max_lag: usize,
    /// Observation windows per quantum for the oscillation path (1 = full
    /// quantum; 2/4 = the paper's 0.5×/0.25× fine-grain analysis).
    pub windows_per_quantum: u32,
    /// Minimum number of oscillatory windows to report a cache channel.
    pub min_oscillatory_windows: usize,
    /// Confidence floor for affirmative `Clean` verdicts: when no covert
    /// signature is found but the observed fraction of the window is below
    /// this value, the verdict is [`Verdict::Inconclusive`] instead of
    /// clearing the resource — online and batch alike. Covert evidence is
    /// never downgraded. `0.0` disables the floor (the pre-hardening
    /// behaviour).
    pub min_confidence: f64,
}

impl Default for CcHunterConfig {
    fn default() -> Self {
        CcHunterConfig {
            quantum_cycles: 250_000_000,
            delta_t: DeltaTPolicy::Fixed(100_000),
            burst: BurstConfig::default(),
            cluster: ClusterConfig::default(),
            oscillation: OscillationConfig::default(),
            max_lag: 1000,
            windows_per_quantum: 1,
            min_oscillatory_windows: 2,
            min_confidence: 0.25,
        }
    }
}

/// Report of the recurrent-burst path over an observation window.
#[derive(Debug, Clone)]
pub struct ContentionReport {
    /// Per-quantum density histograms (observed quanta only — missed
    /// harvests leave no histogram).
    pub histograms: Vec<DensityHistogram>,
    /// Per-quantum burst verdicts (parallel to `histograms`).
    pub quantum_verdicts: Vec<BurstVerdict>,
    /// Recurrence analysis over the whole window.
    pub recurrence: RecurrenceVerdict,
    /// Highest likelihood ratio among significant quanta.
    pub peak_likelihood_ratio: f64,
    /// Observed fraction of the analyzed window in `[0, 1]`: 1.0 when
    /// every quantum harvested completely, lower when harvests were missed
    /// or partial (see [`crate::online::Harvest`]).
    pub confidence: f64,
    /// Final call.
    pub verdict: Verdict,
}

impl ContentionReport {
    /// Number of quanta with a significant burst distribution.
    pub fn significant_quanta(&self) -> usize {
        self.quantum_verdicts
            .iter()
            .filter(|v| v.significant)
            .count()
    }
}

/// Report of the oscillation path over an observation window.
#[derive(Debug, Clone)]
pub struct OscillationReport {
    /// Per-window verdicts.
    pub window_verdicts: Vec<OscillationVerdict>,
    /// Strongest autocorrelation peak seen: `(lag, value)`.
    pub peak: Option<(usize, f64)>,
    /// Number of oscillatory windows.
    pub oscillatory_windows: usize,
    /// Final call.
    pub verdict: Verdict,
}

/// The CC-Hunter detection pipeline.
///
/// ```
/// use cchunter_detector::{CcHunter, CcHunterConfig, EventTrain};
/// use cchunter_detector::density::DeltaTPolicy;
///
/// let config = CcHunterConfig {
///     quantum_cycles: 10_000,
///     delta_t: DeltaTPolicy::Fixed(100),
///     ..CcHunterConfig::default()
/// };
/// let hunter = CcHunter::new(config);
///
/// // A trojan bursting 20 events per Δt for half of every quantum.
/// let mut train = EventTrain::new();
/// for q in 0..8u64 {
///     for w in 0..50u64 {
///         for e in 0..20u64 {
///             train.push(q * 10_000 + w * 100 + e * 5, 1);
///         }
///     }
/// }
/// let report = hunter.analyze_contention_train(&train, 0, 80_000)?;
/// assert!(report.verdict.is_covert());
/// # Ok::<(), cchunter_detector::DetectorError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CcHunter {
    config: CcHunterConfig,
}

impl Default for CcHunter {
    fn default() -> Self {
        CcHunter::new(CcHunterConfig::default())
    }
}

impl CcHunter {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: CcHunterConfig) -> Self {
        CcHunter { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &CcHunterConfig {
        &self.config
    }

    /// Runs the recurrent-burst path on pre-harvested per-quantum
    /// histograms (the daemon's normal mode, fed by the CC-auditor).
    pub fn analyze_contention(&self, histograms: Vec<DensityHistogram>) -> ContentionReport {
        self.analyze_contention_harvests(histograms.into_iter().map(Harvest::Complete).collect())
    }

    /// Runs the recurrent-burst path on per-quantum [`Harvest`]es, tolerating
    /// missed and partial quanta: recurrence is established over whatever
    /// was observed, and the report's `confidence` records the observed
    /// fraction of the window. Below [`CcHunterConfig::min_confidence`] a
    /// window without recurrence is [`Verdict::Inconclusive`], exactly as
    /// the online daemon would call it: degraded evidence is never mistaken
    /// for a fully observed `Clean`.
    pub fn analyze_contention_harvests(&self, harvests: Vec<Harvest>) -> ContentionReport {
        self.analyze_contention_slice(&harvests)
    }

    /// Borrowing variant of [`CcHunter::analyze_contention_harvests`]: the
    /// caller keeps its harvest buffer (the batch audit path reuses evidence
    /// across retries) and only the observed histograms are cloned into the
    /// report.
    pub fn analyze_contention_slice(&self, harvests: &[Harvest]) -> ContentionReport {
        let mut report = self.replay_contention(harvests);
        report.histograms = harvests
            .iter()
            .filter_map(|h| h.histogram().cloned())
            .collect();
        report
    }

    /// Replays `harvests` into one contention window and reports its final
    /// status; the report's `histograms` are left for the caller to fill.
    fn replay_contention(&self, harvests: &[Harvest]) -> ContentionReport {
        let mut quantum_verdicts = Vec::with_capacity(harvests.len());
        let status = self.replay(PairKind::Contention, harvests.len(), |window| {
            quantum_verdicts.extend(harvests.iter().filter_map(|h| window.ingest_harvest(h)));
        });
        let peak_likelihood_ratio = quantum_verdicts
            .iter()
            .filter(|v| v.has_burst_distribution)
            .map(|v| v.likelihood_ratio)
            .fold(0.0, f64::max);
        ContentionReport {
            histograms: Vec::new(),
            quantum_verdicts,
            recurrence: status.recurrence.unwrap_or_default(),
            peak_likelihood_ratio,
            confidence: status.confidence,
            verdict: status.verdict,
        }
    }

    /// Lets `feed` replay `quanta` quanta into a fresh `kind` window of
    /// exactly that capacity and returns the window's status, read once.
    fn replay(
        &self,
        kind: PairKind,
        quanta: usize,
        feed: impl FnOnce(&mut OnlineWindow),
    ) -> OnlineStatus {
        match OnlineWindow::with_capacity(kind, self.config.into(), quanta.max(1)) {
            Ok(mut window) => {
                feed(&mut window);
                window.status(None, None)
            }
            // A configuration the window refuses scores nothing.
            Err(_) => OnlineStatus::default(),
        }
    }

    /// Convenience: slices an event train into quanta over `[start, end)`,
    /// builds the histograms, and runs the recurrent-burst path.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] if the configured Δt policy
    /// is invalid (see [`DeltaTPolicy::resolve`]).
    pub fn analyze_contention_train(
        &self,
        train: &EventTrain,
        start: u64,
        end: u64,
    ) -> Result<ContentionReport, DetectorError> {
        let histograms = self.quantum_histograms(train, start, end)?;
        Ok(self.analyze_contention(histograms))
    }

    /// Builds per-quantum density histograms for a train over `[start,
    /// end)`, resolving Δt from the configured policy (falling back to one
    /// quantum when the rate-based policy sees no events).
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] if the configured Δt policy
    /// is invalid (see [`DeltaTPolicy::resolve`]).
    pub fn quantum_histograms(
        &self,
        train: &EventTrain,
        start: u64,
        end: u64,
    ) -> Result<Vec<DensityHistogram>, DetectorError> {
        let quantum = self.config.quantum_cycles;
        let delta_t = self
            .config
            .delta_t
            .resolve(train, start, end)?
            .unwrap_or(quantum);
        let mut out = Vec::new();
        let mut lo = start;
        // A zero quantum has no quanta; otherwise Δt is nonzero (`resolve`
        // never yields zero), so every histogram builds.
        while lo < end && quantum > 0 {
            let hi = (lo + quantum).min(end);
            out.extend(DensityHistogram::from_train(train, delta_t, lo, hi).ok());
            lo = hi;
        }
        Ok(out)
    }

    /// Runs the oscillation path on drained conflict records over
    /// `[start, end)` cycles.
    ///
    /// Records are windowed by time (quantum / `windows_per_quantum`), each
    /// window's cross-context conflicts become a symbol series, and each
    /// series is tested for sustained periodicity.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::BadHarvest`], as the online push does, if a
    /// record names a hardware context outside the paper's 3-bit range: its
    /// symbol would collide with valid ones or leave the alphabet.
    pub fn analyze_oscillation(
        &self,
        records: &[ConflictRecord],
        start: u64,
        end: u64,
    ) -> Result<OscillationReport, DetectorError> {
        check_contexts(records)?;
        let window =
            (self.config.quantum_cycles / self.config.windows_per_quantum.max(1) as u64).max(1);
        let windows =
            usize::try_from(end.saturating_sub(start).div_ceil(window)).unwrap_or(usize::MAX);
        let mut window_verdicts = Vec::new();
        let status = self.replay(PairKind::Oscillation, windows, |core| {
            let mut lo = start;
            while lo < end {
                let hi = (lo + window).min(end);
                window_verdicts.push(core.ingest_symbols(conflict_symbols(records, lo, hi), 1.0));
                lo = hi;
            }
        });
        let peak = window_verdicts
            .iter()
            .filter_map(|v| v.peak)
            .max_by(|a, b| a.1.total_cmp(&b.1));
        Ok(OscillationReport {
            window_verdicts,
            peak,
            oscillatory_windows: status.oscillatory_in_window,
            verdict: status.verdict,
        })
    }

    /// Runs the full analysis for one labeled pair's evidence. Conflict
    /// records [`CcHunter::analyze_oscillation`] refuses make an
    /// `Inconclusive` detection whose evidence is the error.
    pub fn audit_pair(&self, audit: &PairAudit) -> Detection {
        let detection = match &audit.evidence {
            // Analyzed where it sits: the summary keeps no histogram copies.
            PairEvidence::Contention(harvests) => {
                Detection::from_contention(audit.label.clone(), &self.replay_contention(harvests))
            }
            PairEvidence::Memory {
                records,
                start,
                end,
            } => match self.analyze_oscillation(records, *start, *end) {
                Ok(report) => Detection::from_oscillation(audit.label.clone(), &report),
                Err(e) => Detection {
                    resource: audit.label.clone(),
                    kind: ResourceKind::Memory,
                    verdict: Verdict::Inconclusive,
                    evidence: e.to_string(),
                },
            },
        };
        pipeline_audits_total().inc();
        if detection.verdict.is_covert() {
            pipeline_covert_total().inc();
        }
        detection
    }

    /// Audits many principal pairs, fanning the per-pair analyses out
    /// across the process-wide thread pool.
    ///
    /// Detections are returned in input order and are bit-identical to a
    /// serial `audits.iter().map(|a| self.audit_pair(a))` loop for any
    /// thread count (including `CCHUNTER_THREADS=1`): each pair's analysis
    /// touches only its own evidence, and any nested parallelism inside a
    /// single audit degrades to its serial-equivalent path while the pool
    /// is busy with the outer fan-out.
    pub fn audit_pairs(&self, audits: &[PairAudit]) -> Vec<Detection> {
        let mut batch_span = span::global().span("pipeline", "audit-batch");
        let started = Instant::now();
        let detections = threadpool::par_map(audits, |audit| self.audit_pair(audit));
        record_batch(started);
        if span::global().is_enabled() {
            let covert = detections.iter().filter(|d| d.verdict.is_covert()).count();
            batch_span.detail(format_args!("{} pairs, {covert} covert", audits.len()));
        }
        detections
    }

    /// Panic-safe variant of [`CcHunter::audit_pairs`]: each pair's
    /// analysis runs under a watchdog, and a panicking audit (corrupt
    /// evidence tripping an internal invariant) is contained to its own
    /// slot as a typed [`crate::DetectorError::AnalysisPanicked`] instead
    /// of tearing the batch (or the daemon) down.
    ///
    /// Successful slots are bit-identical to [`CcHunter::audit_pairs`].
    pub fn try_audit_pairs(
        &self,
        audits: &[PairAudit],
    ) -> Vec<Result<Detection, crate::DetectorError>> {
        let mut batch_span = span::global().span("pipeline", "audit-batch");
        let started = Instant::now();
        let results: Vec<Result<Detection, crate::DetectorError>> =
            threadpool::par_catch_map(audits, |audit| self.audit_pair(audit))
                .into_iter()
                .zip(audits)
                .map(|(result, audit)| {
                    result.map_err(|panic| crate::DetectorError::AnalysisPanicked {
                        context: audit.label.clone(),
                        message: panic.message,
                    })
                })
                .collect();
        record_batch(started);
        if span::global().is_enabled() {
            let covert = results
                .iter()
                .filter(|r| r.as_ref().is_ok_and(|d| d.verdict.is_covert()))
                .count();
            let contained = results.iter().filter(|r| r.is_err()).count();
            batch_span.detail(format_args!(
                "{} pairs, {covert} covert, {contained} contained panics",
                audits.len()
            ));
        }
        results
    }
}

/// Records one finished batch in the pipeline's batch counter and latency
/// histogram.
fn record_batch(started: Instant) {
    let elapsed_us = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
    pipeline_batches_total().inc();
    pipeline_batch_latency_us().observe(elapsed_us as f64);
}

/// The evidence backing one entry of a multi-pair audit.
#[derive(Debug, Clone)]
pub enum PairEvidence {
    /// Per-quantum harvests from a combinational unit (recurrent-burst
    /// path).
    Contention(
        /// One harvest per OS quantum of the observation window.
        Vec<Harvest>,
    ),
    /// Drained conflict records from a memory unit (oscillation path).
    Memory {
        /// The pair's conflict-miss records.
        records: Vec<ConflictRecord>,
        /// Start of the observation interval in cycles (inclusive).
        start: u64,
        /// End of the observation interval in cycles (exclusive).
        end: u64,
    },
}

/// One job of a multi-pair audit: a labeled principal pair (or resource)
/// plus the evidence harvested for it.
#[derive(Debug, Clone)]
pub struct PairAudit {
    /// Pair label carried into the resulting [`Detection`] (e.g.
    /// `"memory-bus: pid 17 ↔ pid 23"`).
    pub label: String,
    /// The harvested evidence to analyze.
    pub evidence: PairEvidence,
}

/// Builds the cross-context conflict symbol series for records within
/// `[start, end)`. Same-context replacements (a thread conflicting with
/// itself) carry no inter-process signal and are filtered out, matching the
/// paper's trojan/spy pair identifiers. A record naming a context of 8 or
/// more is dropped too, so every symbol stays in the 3-bit alphabet; the
/// window pushes and [`CcHunter::analyze_oscillation`] refuse such a drain
/// outright.
pub fn symbol_series(records: &[ConflictRecord], start: u64, end: u64) -> SymbolSeries {
    conflict_symbols(records, start, end).collect()
}

/// Hardware contexts a conflict record can name: the paper's context IDs
/// are 3-bit.
pub(crate) const CONTEXTS: u8 = 8;

/// Rejects a drain naming a hardware context outside `0..CONTEXTS`: its
/// pair symbols would collide with valid ones, or leave the `u8` alphabet.
/// Both the window pushes and the batch path check drains with it.
pub(crate) fn check_contexts(records: &[ConflictRecord]) -> Result<(), DetectorError> {
    let Some(r) = records
        .iter()
        .find(|r| r.replacer.max(r.victim) >= CONTEXTS)
    else {
        return Ok(());
    };
    let (replacer, victim) = (r.replacer, r.victim);
    Err(DetectorError::BadHarvest {
        reason: format!(
            "conflict record names context {replacer} -> {victim}, outside 0..{CONTEXTS}"
        ),
    })
}

/// The symbols of [`symbol_series`], produced lazily.
pub(crate) fn conflict_symbols(
    records: &[ConflictRecord],
    start: u64,
    end: u64,
) -> impl Iterator<Item = u8> + '_ {
    records
        .iter()
        .filter(move |r| {
            let in_range = r.replacer.max(r.victim) < CONTEXTS;
            r.cycle >= start && r.cycle < end && r.replacer != r.victim && in_range
        })
        .map(|r| pair_symbol(r.replacer, r.victim, CONTEXTS))
}

/// A labeled detection outcome, convenient for experiment summaries.
#[derive(Debug, Clone)]
pub struct Detection {
    /// Short resource label (e.g. "memory-bus").
    pub resource: String,
    /// Resource class.
    pub kind: ResourceKind,
    /// Final call.
    pub verdict: Verdict,
    /// One-line evidence summary.
    pub evidence: String,
}

impl Detection {
    /// Builds a detection summary from a contention report.
    pub fn from_contention(resource: impl Into<String>, report: &ContentionReport) -> Self {
        Detection {
            resource: resource.into(),
            kind: ResourceKind::Combinational,
            verdict: report.verdict,
            evidence: format!(
                "{} of {} quanta bursty (peak LR {:.3}), largest cluster {}",
                report.significant_quanta(),
                report.quantum_verdicts.len(),
                report.peak_likelihood_ratio,
                report.recurrence.largest_burst_cluster
            ),
        }
    }

    /// Builds a detection summary from an oscillation report.
    pub fn from_oscillation(resource: impl Into<String>, report: &OscillationReport) -> Self {
        let peak = report
            .peak
            .map(|(lag, value)| format!("peak r={value:.3} @ lag {lag}"))
            .unwrap_or_else(|| "no peak".to_string());
        Detection {
            resource: resource.into(),
            kind: ResourceKind::Memory,
            verdict: report.verdict,
            evidence: format!(
                "{} of {} windows oscillatory ({peak})",
                report.oscillatory_windows,
                report.window_verdicts.len()
            ),
        }
    }
}

impl fmt::Display for Detection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.resource, self.verdict, self.evidence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> CcHunterConfig {
        CcHunterConfig {
            quantum_cycles: 100_000,
            delta_t: DeltaTPolicy::Fixed(1_000),
            ..CcHunterConfig::default()
        }
    }

    /// A covert-channel-like train: dense bursts in every quantum.
    fn covert_train(quanta: u64, quantum: u64) -> EventTrain {
        let mut train = EventTrain::new();
        for q in 0..quanta {
            // 20 bursts per quantum, each 25 events over ~1 Δt.
            for b in 0..20u64 {
                let base = q * quantum + b * 5_000;
                for e in 0..25u64 {
                    train.push(base + e * 40, 1);
                }
            }
        }
        train
    }

    /// A benign train: sparse, uniformly scattered single events.
    fn benign_train(quanta: u64, quantum: u64) -> EventTrain {
        let mut train = EventTrain::new();
        let mut x: u64 = 12345;
        let mut t = 0;
        while t < quanta * quantum {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            t += 2_000 + x % 3_000;
            if t < quanta * quantum {
                train.push(t, 1);
            }
        }
        train
    }

    #[test]
    fn contention_path_flags_covert_train() {
        let hunter = CcHunter::new(config());
        let train = covert_train(8, 100_000);
        let report = hunter.analyze_contention_train(&train, 0, 800_000).unwrap();
        assert!(report.verdict.is_covert());
        assert!(report.peak_likelihood_ratio > 0.9);
        assert_eq!(report.significant_quanta(), 8);
        assert!(report.recurrence.recurrent);
        assert_eq!(report.confidence, 1.0, "fully observed window");
    }

    #[test]
    fn degraded_harvests_lower_confidence_not_verdict() {
        let hunter = CcHunter::new(config());
        let train = covert_train(8, 100_000);
        let harvests: Vec<Harvest> = hunter
            .quantum_histograms(&train, 0, 800_000)
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(i, h)| {
                if i % 4 == 3 {
                    Harvest::Missed
                } else {
                    Harvest::Complete(h)
                }
            })
            .collect();
        let report = hunter.analyze_contention_harvests(harvests);
        assert!(
            report.verdict.is_covert(),
            "recurrence survives 25% missed quanta"
        );
        assert!((report.confidence - 0.75).abs() < 1e-12);
        assert_eq!(report.histograms.len(), 6);
    }

    #[test]
    fn all_missed_harvests_are_zero_confidence() {
        let hunter = CcHunter::new(config());
        let report = hunter.analyze_contention_harvests(vec![Harvest::Missed; 4]);
        assert_eq!(report.verdict, Verdict::Inconclusive);
        assert_eq!(report.confidence, 0.0, "a blind window proves nothing");
    }

    /// A batch verdict means what the fleet's verdict means: 1 of 8 quanta
    /// observed is confidence 0.125, below the floor, so `Inconclusive` on
    /// both paths.
    #[test]
    fn sparsely_observed_batch_is_inconclusive_like_the_daemon() {
        let hunter = CcHunter::new(config());
        let quiet = hunter
            .quantum_histograms(&benign_train(1, 100_000), 0, 100_000)
            .unwrap();
        let mut harvests = vec![Harvest::Missed; 7];
        harvests.insert(0, Harvest::Complete(quiet[0].clone()));
        let mut daemon = crate::OnlineContentionDetector::new(config(), 8).unwrap();
        let online = harvests
            .iter()
            .map(|h| daemon.push_quantum(h.clone()))
            .last()
            .unwrap();
        for report in [
            hunter.analyze_contention_slice(&harvests),
            hunter.analyze_contention_harvests(harvests.clone()),
        ] {
            assert_eq!(report.confidence, 0.125);
            assert_eq!(report.confidence, online.confidence);
            assert_eq!(report.verdict, Verdict::Inconclusive);
            assert_eq!(report.verdict, online.verdict);
        }
    }

    /// A configuration the window refuses scores nothing instead of
    /// panicking inside k-means.
    #[test]
    fn refused_configuration_is_inconclusive() {
        let mut bad = config();
        bad.cluster.k = 0;
        let hunter = CcHunter::new(bad);
        let report = hunter
            .analyze_contention_train(&covert_train(4, 100_000), 0, 400_000)
            .unwrap();
        assert_eq!(report.verdict, Verdict::Inconclusive);
        assert_eq!(report.confidence, 0.0);
    }

    #[test]
    fn contention_path_clears_benign_train() {
        let hunter = CcHunter::new(config());
        let train = benign_train(8, 100_000);
        let report = hunter.analyze_contention_train(&train, 0, 800_000).unwrap();
        assert_eq!(report.verdict, Verdict::Clean);
    }

    #[test]
    fn empty_train_is_clean() {
        let hunter = CcHunter::new(config());
        let report = hunter
            .analyze_contention_train(&EventTrain::new(), 0, 800_000)
            .unwrap();
        assert_eq!(report.verdict, Verdict::Clean);
        assert_eq!(report.histograms.len(), 8);
    }

    fn cache_records(bits: usize, sets_per_group: usize) -> Vec<ConflictRecord> {
        // Per bit: trojan (ctx 0) evicts the spy's lines (victim ctx 1),
        // then the spy probes (replacer 1, victim 0) — the paper's
        // steady-state [T→S × G][S→T × G] square wave.
        let mut records = Vec::new();
        let mut cycle = 0u64;
        for _ in 0..bits {
            for _ in 0..sets_per_group {
                records.push(ConflictRecord {
                    cycle,
                    replacer: 0,
                    victim: 1,
                });
                cycle += 50;
            }
            for _ in 0..sets_per_group {
                records.push(ConflictRecord {
                    cycle,
                    replacer: 1,
                    victim: 0,
                });
                cycle += 50;
            }
        }
        records
    }

    #[test]
    fn oscillation_path_flags_cache_channel() {
        let hunter = CcHunter::new(CcHunterConfig {
            quantum_cycles: 250_000,
            max_lag: 600,
            ..CcHunterConfig::default()
        });
        let records = cache_records(64, 128);
        let end = records.last().unwrap().cycle + 1;
        let report = hunter.analyze_oscillation(&records, 0, end).unwrap();
        assert!(report.verdict.is_covert(), "{report:?}");
        let (lag, value) = report.peak.unwrap();
        assert!(
            (246..=266).contains(&lag),
            "peak near 256 (= 2 × sets per group), got {lag}"
        );
        assert!(value > 0.8);
    }

    #[test]
    fn oscillation_path_clears_random_conflicts() {
        let mut x: u64 = 777;
        let records: Vec<ConflictRecord> = (0..20_000u64)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ConflictRecord {
                    cycle: i * 500,
                    replacer: (x % 4) as u8,
                    victim: ((x >> 8) % 4) as u8,
                }
            })
            .collect();
        let hunter = CcHunter::new(CcHunterConfig {
            quantum_cycles: 2_500_000,
            ..CcHunterConfig::default()
        });
        let report = hunter.analyze_oscillation(&records, 0, 10_000_000).unwrap();
        assert_eq!(report.verdict, Verdict::Clean, "{report:?}");
    }

    #[test]
    fn same_context_conflicts_are_filtered() {
        let records = vec![
            ConflictRecord {
                cycle: 1,
                replacer: 2,
                victim: 2,
            },
            ConflictRecord {
                cycle: 2,
                replacer: 2,
                victim: 3,
            },
        ];
        let series = symbol_series(&records, 0, 10);
        assert_eq!(series.len(), 1);
    }

    #[test]
    fn out_of_range_contexts_are_refused_by_the_batch_path() {
        let hunter = CcHunter::new(CcHunterConfig::default());
        // Replacer 200 once overflowed the `u8` pair symbol; context 8 is
        // the first past the paper's 3-bit IDs.
        for (replacer, victim) in [(200, 0), (0, 8), (8, 1)] {
            let mut records = cache_records(16, 64);
            records.insert(
                7,
                ConflictRecord {
                    cycle: records[6].cycle,
                    replacer,
                    victim,
                },
            );
            let refused = hunter.analyze_oscillation(&records, 0, 10_000_000);
            assert!(
                matches!(refused, Err(DetectorError::BadHarvest { .. })),
                "{replacer} -> {victim}: {refused:?}"
            );
            // The bare symbol series drops the record instead.
            assert_eq!(
                symbol_series(&records, 0, 10_000_000),
                symbol_series(&cache_records(16, 64), 0, 10_000_000),
                "{replacer} -> {victim}"
            );
            let audit = PairAudit {
                label: "llc: pid 1 <-> pid 2".to_string(),
                evidence: PairEvidence::Memory {
                    records,
                    start: 0,
                    end: 10_000_000,
                },
            };
            let detection = hunter.audit_pair(&audit);
            assert_eq!(detection.verdict, Verdict::Inconclusive);
            assert_eq!(detection.kind, ResourceKind::Memory);
            assert!(detection.evidence.contains("outside 0..8"), "{detection}");
        }
        // In range, the same drain is scored.
        let records = cache_records(16, 64);
        assert!(hunter.analyze_oscillation(&records, 0, 10_000_000).is_ok());
    }

    #[test]
    fn fractional_windows_slice_records() {
        let hunter = CcHunter::new(CcHunterConfig {
            quantum_cycles: 1_000_000,
            windows_per_quantum: 4,
            ..CcHunterConfig::default()
        });
        let records = cache_records(16, 64);
        let report = hunter.analyze_oscillation(&records, 0, 1_000_000).unwrap();
        assert_eq!(report.window_verdicts.len(), 4);
    }

    #[test]
    fn audit_pairs_matches_serial_and_labels_detections() {
        let hunter = CcHunter::new(config());
        let covert: Vec<Harvest> = hunter
            .quantum_histograms(&covert_train(8, 100_000), 0, 800_000)
            .unwrap()
            .into_iter()
            .map(Harvest::Complete)
            .collect();
        let benign: Vec<Harvest> = hunter
            .quantum_histograms(&benign_train(8, 100_000), 0, 800_000)
            .unwrap()
            .into_iter()
            .map(Harvest::Complete)
            .collect();
        let records = cache_records(64, 128);
        let end = records.last().unwrap().cycle + 1;
        let audits = vec![
            PairAudit {
                label: "memory-bus: pid 17 <-> pid 23".to_string(),
                evidence: PairEvidence::Contention(covert),
            },
            PairAudit {
                label: "divider: pid 4 <-> pid 9".to_string(),
                evidence: PairEvidence::Contention(benign),
            },
            PairAudit {
                label: "l2-cache: pid 17 <-> pid 23".to_string(),
                evidence: PairEvidence::Memory {
                    records,
                    start: 0,
                    end,
                },
            },
        ];
        let parallel = hunter.audit_pairs(&audits);
        let serial: Vec<Detection> = audits.iter().map(|a| hunter.audit_pair(a)).collect();
        assert_eq!(parallel.len(), 3);
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.resource, s.resource);
            assert_eq!(p.verdict, s.verdict);
            assert_eq!(p.evidence, s.evidence);
        }
        assert!(parallel[0].verdict.is_covert());
        assert_eq!(parallel[0].kind, ResourceKind::Combinational);
        assert_eq!(parallel[1].verdict, Verdict::Clean);
        assert!(parallel[2].verdict.is_covert());
        assert_eq!(parallel[2].kind, ResourceKind::Memory);
        assert!(parallel[0].resource.contains("memory-bus"));
    }

    #[test]
    fn try_audit_pairs_matches_audit_pairs_on_healthy_evidence() {
        let hunter = CcHunter::new(config());
        let covert: Vec<Harvest> = hunter
            .quantum_histograms(&covert_train(8, 100_000), 0, 800_000)
            .unwrap()
            .into_iter()
            .map(Harvest::Complete)
            .collect();
        let audits = vec![PairAudit {
            label: "memory-bus: pid 17 <-> pid 23".to_string(),
            evidence: PairEvidence::Contention(covert),
        }];
        let plain = hunter.audit_pairs(&audits);
        let caught = hunter.try_audit_pairs(&audits);
        assert_eq!(caught.len(), 1);
        let d = caught[0].as_ref().expect("healthy audit succeeds");
        assert_eq!(d.verdict, plain[0].verdict);
        assert_eq!(d.evidence, plain[0].evidence);
    }

    #[test]
    fn invalid_delta_t_policy_is_a_typed_error() {
        for delta_t in [
            DeltaTPolicy::Fixed(0),
            DeltaTPolicy::FromRate {
                alpha: -1.0,
                min: 1,
                max: 10,
            },
            DeltaTPolicy::FromRate {
                alpha: 1.0,
                min: 10,
                max: 1,
            },
        ] {
            let hunter = CcHunter::new(CcHunterConfig {
                delta_t,
                ..CcHunterConfig::default()
            });
            let err = hunter
                .analyze_contention_train(&covert_train(2, 100_000), 0, 200_000)
                .unwrap_err();
            assert!(
                matches!(err, DetectorError::InvalidConfig { .. }),
                "{delta_t:?}: {err}"
            );
        }
    }

    #[test]
    fn detection_summaries_render() {
        let hunter = CcHunter::new(config());
        let report = hunter
            .analyze_contention_train(&covert_train(4, 100_000), 0, 400_000)
            .unwrap();
        let d = Detection::from_contention("memory-bus", &report);
        assert!(d.verdict.is_covert());
        assert!(d.to_string().contains("memory-bus"));
        assert!(d.to_string().contains("COVERT"));
    }
}
