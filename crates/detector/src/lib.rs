//! # cchunter-detector
//!
//! The core contribution of *CC-Hunter: Uncovering Covert Timing Channels on
//! Shared Processor Hardware* (Chen & Venkataramani, MICRO 2014): detection
//! of covert timing channels from microarchitectural indicator-event trains.
//!
//! The crate is self-contained (it does not depend on the simulator); inputs
//! are plain event timestamps and context labels, so it can be driven by the
//! bundled `cchunter-sim` substrate, a trace file, or real hardware
//! counters.
//!
//! ## The two detection algorithms
//!
//! * [`burst`] — **recurrent burst pattern detection** for *combinational*
//!   shared hardware (wires and logic such as the memory bus and the integer
//!   divider). An event train is binned into windows of Δt (derived from the
//!   mean event rate, [`density`]), the event-density histogram is split at
//!   the *threshold density* into a non-burst and a burst distribution, and
//!   the burst distribution's likelihood ratio separates covert channels
//!   (≥ 0.9 in the paper's experiments) from benign programs (< 0.5).
//!   Recurrence over an observation window of up to 512 OS quanta is
//!   established by discretizing histograms into strings and k-means
//!   clustering them ([`cluster`]).
//! * [`autocorr`] — **oscillatory pattern detection** for *memory*
//!   structures (caches). Conflict misses are labeled with their ordered
//!   (replacer → victim) context pair ([`conflict`]), and the
//!   autocorrelogram of the resulting symbol series exposes the periodicity
//!   that covert cache channels cannot avoid (peak ≈ 0.85–0.95 at a lag
//!   close to the number of cache sets used for signaling).
//!
//! ## Hardware model
//!
//! [`auditor`] models the paper's CC-auditor datapath (count-down Δt
//! register, 16-bit accumulators, 128-entry histogram buffers, dual 128-byte
//! replacer/victim vector registers, an audit limit of two units), and
//! [`conflict`] implements both the ideal LRU-stack conflict-miss oracle and
//! the practical generation-bit + Bloom-filter tracker of Figure 9.
//! [`cost`] reproduces the Table I area/power/latency estimates.
//!
//! ## Quick example
//!
//! ```
//! use cchunter_detector::{EventTrain, burst::BurstDetector, density::DensityHistogram};
//!
//! // A bursty train: 30 events packed into every 4th window of 100 cycles.
//! let mut train = EventTrain::new();
//! for burst in 0..50u64 {
//!     for i in 0..30u64 {
//!         train.push(burst * 400 + i * 3, 1);
//!     }
//! }
//! let histogram = DensityHistogram::from_train(&train, 100, 0, 50 * 400)?;
//! let verdict = BurstDetector::default().analyze(&histogram);
//! assert!(verdict.has_burst_distribution);
//! assert!(verdict.likelihood_ratio > 0.9);
//! # Ok::<(), cchunter_detector::DetectorError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod auditor;
pub mod autocorr;
pub mod batch;
pub mod bloom;
pub mod burst;
pub mod cluster;
pub mod conflict;
pub mod cost;
pub mod density;
pub mod events;
pub mod fault;
#[cfg(test)]
mod fft;
pub mod indicator;
pub mod ingest;
#[cfg(test)]
mod kmeans_f64;
pub mod metrics;
pub mod mitigation;
pub mod online;
pub mod pipeline;
pub mod policy;
pub mod shard;
pub mod span;
pub mod store;
pub mod supervisor;
pub mod trace;
pub mod window;

pub use auditor::{AuditorError, CcAuditor, HardwareUnit};
pub use autocorr::{Autocorrelogram, OscillationVerdict};
pub use bloom::BloomFilter;
pub use burst::{BurstDetector, BurstVerdict};
pub use cluster::{ClusterConfig, PatternClusters, RecurrenceVerdict};
pub use conflict::{ConflictClass, GenerationTracker, IdealLruTracker, MissClassifier};
pub use cost::{CostEstimate, CostModel};
pub use density::{DeltaTPolicy, DensityHistogram, HISTOGRAM_BINS};
pub use events::{EventTrain, EventTrainArena, SymbolSeries, TrainView};
pub use fault::{
    FaultClass, FaultConfig, FaultInjector, FleetFault, StorageFaultClass, StorageFaultConfig,
    StorageFaultInjector,
};
pub use indicator::{CcHunterIndicator, WindowObservation};
pub use ingest::{
    AdmissionConfig, AdmissionQueue, DrainedBatch, IngestConfig, IngestPipeline, IngestReport,
    IngestStats, RawEvent, SanitizeReport, Sanitizer, SanitizerConfig, SaturatingHistogram,
    ShedPolicy,
};
pub use metrics::{
    parse_prometheus, render_prometheus_merged, Counter, Family, Gauge, Histogram, HistogramTally,
    LossyScrape, ParsedSample, Registry, SkippedLine,
};
pub use mitigation::{
    AdvisoryEnforcer, ApplyError, ContainmentState, MitigationConfig, MitigationEnforcer,
    MitigationLevel, MitigationPolicy, ResidualProbe, ResidualReading,
};
pub use online::{
    Harvest, OnlineContentionDetector, OnlineOscillationDetector, OnlineStatus, OnlineWindow,
};
pub use pipeline::{
    CcHunter, CcHunterConfig, Detection, PairAudit, PairEvidence, ResourceKind, Verdict,
};
pub use policy::{
    BackoffConfig, BreakerState, CircuitBreaker, QuarantineConfig, SuspicionConfig,
    SuspicionTracker, SuspicionTransition,
};
pub use shard::{
    pair_key, rendezvous_shard, shard_count_from_env, FleetPairStatus, FleetTickReport,
    LatencySloConfig, MigrationReport, ShardHealth, ShardStatus, ShardedFleet, ShardedFleetConfig,
    ShardedFleetStatus, TOP_SUSPICIOUS,
};
pub use span::{Span, TraceEvent, Tracer};
pub use store::{classify_io, CheckpointStore, DiskMedium, StorageFaultKind, StorageMedium};
pub use supervisor::{
    Durability, IngestSnapshot, LatencySummary, MetricsSnapshot, PairInput, PairKind, ProbeFault,
    ProbeSource, SupervisorConfig,
};
pub use trace::TraceError;

use std::fmt;

/// The unified error type of the detection stack.
///
/// Every fallible public API in this crate (and in the facade crate's audit
/// glue) reports failures through this enum, so a daemon embedding CC-Hunter
/// needs exactly one error path. Hardware-interface errors
/// ([`AuditorError`]) and trace/checkpoint parse errors ([`TraceError`])
/// chain through [`std::error::Error::source`].
#[derive(Debug)]
pub enum DetectorError {
    /// The CC-auditor programming/harvest interface refused the operation.
    Auditor(AuditorError),
    /// Trace or checkpoint I/O or parsing failed.
    Trace(TraceError),
    /// A configuration parameter is out of its valid domain.
    InvalidConfig {
        /// Human-readable description of the offending parameter.
        reason: String,
    },
    /// Harvested histogram data is structurally invalid (wrong bin count,
    /// zero Δt) and cannot be analyzed even in degraded mode.
    BadHarvest {
        /// Human-readable description of the defect.
        reason: String,
    },
    /// An event train violated the ingest contract (time travel beyond the
    /// reorder tolerance, duplicate beyond the dedup budget, out-of-range
    /// context ID, zero-Δt burst past the configured limit) and the
    /// sanitizer rejected rather than repaired it.
    HostileTrain {
        /// Which invariant was violated and by how much.
        reason: String,
    },
    /// The requested hardware unit is not under audit in this session.
    NotAudited {
        /// Short unit label (e.g. "memory-bus").
        unit: &'static str,
    },
    /// A stored checkpoint failed CRC/framing validation (see
    /// [`store::CorruptCheckpoint`] for which entry, generation, and why).
    CorruptCheckpoint(Box<store::CorruptCheckpoint>),
    /// A storage operation failed persistently (bounded retries included),
    /// classified into the [`store::StorageFaultKind`] taxonomy with a
    /// retryability tag, so a supervisor can decide between retrying later
    /// and degrading durability without string-matching errnos.
    StorageFault {
        /// What went wrong, independent of platform errno spelling.
        kind: store::StorageFaultKind,
        /// Whether retrying later is worthwhile (a full disk heals; a
        /// vanished one does not).
        retryable: bool,
        /// The storage operation that failed (kebab-case
        /// [`store::StorageMedium`] method name).
        op: &'static str,
        /// The path the operation targeted.
        path: std::path::PathBuf,
        /// The underlying I/O error, rendered.
        message: String,
    },
    /// A checkpoint store directory is already exclusively owned by
    /// another live handle (see [`CheckpointStore::open_exclusive`]):
    /// two fleets must never interleave generations in one store.
    StoreBusy {
        /// The contested store directory.
        dir: std::path::PathBuf,
        /// The owner currently holding the claim.
        owner: String,
    },
    /// A checkpoint parsed cleanly but describes state incompatible with
    /// the configuration it is being restored into (wrong kind, impossible
    /// capacity, out-of-range histogram bins, …).
    CheckpointMismatch {
        /// Human-readable description of the incompatibility.
        reason: String,
    },
    /// A supervised analysis panicked and was contained by its watchdog.
    AnalysisPanicked {
        /// What was being analyzed (e.g. the pair label).
        context: String,
        /// The panic payload, rendered.
        message: String,
    },
    /// A supervised analysis finished but blew its deadline budget.
    DeadlineExceeded {
        /// What was being analyzed (e.g. the pair label).
        context: String,
        /// The configured budget in microseconds.
        budget_us: u64,
        /// The observed elapsed time in microseconds.
        elapsed_us: u64,
    },
}

impl DetectorError {
    /// [`DetectorError::InvalidConfig`] with `reason`.
    pub(crate) fn invalid(reason: impl Into<String>) -> Self {
        DetectorError::InvalidConfig {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for DetectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectorError::Auditor(e) => write!(f, "auditor error: {e}"),
            DetectorError::Trace(e) => write!(f, "trace error: {e}"),
            DetectorError::InvalidConfig { reason } => {
                write!(f, "invalid detector configuration: {reason}")
            }
            DetectorError::BadHarvest { reason } => write!(f, "bad harvest: {reason}"),
            DetectorError::HostileTrain { reason } => write!(f, "hostile event train: {reason}"),
            DetectorError::NotAudited { unit } => write!(f, "{unit} is not under audit"),
            DetectorError::CorruptCheckpoint(e) => write!(f, "{e}"),
            DetectorError::StorageFault {
                kind,
                retryable,
                op,
                path,
                message,
            } => write!(
                f,
                "storage fault ({kind}, {}) during {op} on {}: {message}",
                if *retryable {
                    "retryable"
                } else {
                    "not retryable"
                },
                path.display()
            ),
            DetectorError::StoreBusy { dir, owner } => write!(
                f,
                "checkpoint store {} is exclusively owned by {owner:?}",
                dir.display()
            ),
            DetectorError::CheckpointMismatch { reason } => {
                write!(f, "checkpoint mismatch: {reason}")
            }
            DetectorError::AnalysisPanicked { context, message } => {
                write!(f, "analysis of {context} panicked: {message}")
            }
            DetectorError::DeadlineExceeded {
                context,
                budget_us,
                elapsed_us,
            } => write!(
                f,
                "analysis of {context} exceeded its {budget_us} µs deadline ({elapsed_us} µs)"
            ),
        }
    }
}

impl std::error::Error for DetectorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DetectorError::Auditor(e) => Some(e),
            DetectorError::Trace(e) => Some(e),
            DetectorError::CorruptCheckpoint(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}

impl From<AuditorError> for DetectorError {
    fn from(e: AuditorError) -> Self {
        DetectorError::Auditor(e)
    }
}

impl From<TraceError> for DetectorError {
    fn from(e: TraceError) -> Self {
        DetectorError::Trace(e)
    }
}

impl From<std::io::Error> for DetectorError {
    fn from(e: std::io::Error) -> Self {
        DetectorError::Trace(TraceError::Io(e))
    }
}
