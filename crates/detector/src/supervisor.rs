//! The supervision layer: the per-pair table each fleet shard runs.
//!
//! [`crate::online`] gives one daemon per audited pair; a deployment runs
//! *many* — every suspect trojan/spy pairing on every shared unit — and the
//! audit loop must survive everything a long-horizon, adversarial
//! deployment throws at it. [`crate::ShardedFleet`] is the one public
//! fleet; each of its shards owns a crate-private `Supervisor`: the pair
//! table that makes one shard's tick crash-safe end to end:
//!
//! * **Per-pair watchdogs** — a shard tick steps every pair once, chunk
//!   by chunk in the order the coordinator probed them, and every pair's
//!   push runs under `catch_unwind` ([`threadpool::catch`]) with a
//!   deadline budget; shards are what run in parallel. A panic or
//!   deadline miss becomes a typed
//!   [`DetectorError::AnalysisPanicked`] /
//!   [`DetectorError::DeadlineExceeded`], counts against that pair alone,
//!   and yields a degraded per-pair report instead of poisoning the batch.
//!   A panicked detector is rebuilt from its own checkpoint (or reset)
//!   so the fleet keeps ticking.
//! * **One step** — what reached a pair in a tick (skipped, analysed,
//!   panicked) moves it through one transition, `Pair::step`: breaker,
//!   verdict, confidence, counters and containment ladder. The step says
//!   what changed, and one reporting function counts and traces that
//!   under the pair's label; the state machines under it publish nothing.
//! * **Retry with deterministic backoff** — `probe_with_retry`, the
//!   fleet's only retry loop, retries a transiently missed probe up to the
//!   configured budget with seeded exponential backoff + jitter
//!   ([`crate::policy::backoff_delay`]); the schedule depends only on
//!   `(seed, pair, tick, attempt)`, so fault-injected runs replay exactly,
//!   before and after a crash-restore. The coordinator hands each pair's
//!   retry count and virtual backoff to its shard with the input.
//! * **Quarantine** — each pair carries a [`CircuitBreaker`]: pairs whose
//!   failure rate over a sliding window exceeds the threshold are skipped
//!   (with decaying reported confidence) and probed only on recovery
//!   ticks, so one broken monitor cannot starve the fleet's audit budget.
//! * **Crash-safe state** — a pair's durable state is one `PairRecord`
//!   (label, kind, breaker, containment, confidence, degraded flag,
//!   provenance, counters), whose only text form is its manifest line. A
//!   shard checkpoint is one entry of the CRC-framed, generational
//!   [`CheckpointStore`]: the manifest (tick and the roster of records),
//!   then every pair's sliding window.
//! * **One way in** — `Supervisor::admit` places every pair: a new one
//!   with a fresh window, a moved one with its live window, a restarted or
//!   migrated one with its stored window. A stored window is read by
//!   identity (`Roster::recall`): the pair takes the window its own label
//!   lists in the store's newest valid checkpoint, rolling over corrupt
//!   generations and recording that in its provenance. A panicked
//!   pair's rebuild reads and re-admits it the same way. A lost or invalid
//!   window becomes a fresh one and the pair runs degraded, so admission
//!   never fails.
//!
//! One clock: a shard has no tick counter of its own. Every tick-stamped
//! state (breaker `since_tick`, containment ticks, manifest tick) uses the
//! coordinator's tick, so pairs keep their meaning across migration.
//!
//! Determinism contract: given the same config, seed, and probe inputs,
//! a fleet restarted from its checkpoint stores at any tick produces the
//! same verdict sequence as one that never crashed. (The deadline
//! watchdog is the one wall-clock element; with a generous budget it never
//! fires and the contract is exact.)

use crate::auditor::ConflictRecord;
use crate::fault::Armed;
use crate::ingest::IngestStats;
use crate::metrics::{Counter, Gauge, Histogram, HistogramTally, Registry, LATENCY_BUCKETS_US};
use crate::mitigation::{
    ContainmentState, MitigationConfig, MitigationEnforcer, MitigationPolicy, MitigationTick,
};
pub use crate::online::PairKind;
use crate::online::{encode_slot, Harvest, OnlineStatus, OnlineWindow};
use crate::pipeline::{CcHunterConfig, Verdict};
use crate::policy::{backoff_delay, BackoffConfig, BreakerState, CircuitBreaker, QuarantineConfig};
use crate::shard::FleetPairStatus;
use crate::span::{Span, Tracer};
use crate::store::{CheckpointStore, LoadedCheckpoint};
use crate::window::prefetch;
use crate::DetectorError;
use std::fmt;
use std::mem::discriminant;
use std::ops::{AddAssign, Range, SubAssign};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fleet-level configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// Detection parameters shared by every pair's daemon.
    pub hunter: CcHunterConfig,
    /// Sliding-window length (quanta) of every pair's daemon.
    pub window_quanta: usize,
    /// Per-pair analysis deadline budget in microseconds; 0 disables the
    /// deadline watchdog.
    pub deadline_us: u64,
    /// Retry/backoff policy for transiently failing probes.
    pub backoff: BackoffConfig,
    /// Quarantine (circuit-breaker) policy.
    pub quarantine: QuarantineConfig,
    /// Closed-loop mitigation policy (conviction, escalation ladder,
    /// residual-driven step-down).
    pub mitigation: MitigationConfig,
    /// Automatically checkpoint every N ticks when a store is attached
    /// (0 = manual checkpoints only).
    pub checkpoint_every: u64,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            hunter: CcHunterConfig::default(),
            window_quanta: 64,
            deadline_us: 0,
            backoff: BackoffConfig::default(),
            quarantine: QuarantineConfig::default(),
            mitigation: MitigationConfig::default(),
            checkpoint_every: 0,
            seed: 0xCC_4117,
        }
    }
}

/// One pair's harvested input for one tick.
#[derive(Debug, Clone, PartialEq)]
pub enum PairInput {
    /// A contention pair's per-quantum harvest.
    Harvest(Harvest),
    /// An oscillation pair's drained conflict records.
    Conflicts {
        /// The records drained this quantum.
        records: Vec<ConflictRecord>,
        /// Estimated corrupted/lost fraction, in `[0, 1]`.
        lost_fraction: f64,
    },
    /// The probe produced nothing at all (kind-agnostic gap).
    Missed,
}

impl PairInput {
    /// Whether this input is a retryable non-observation.
    fn is_missed(&self) -> bool {
        matches!(
            self,
            PairInput::Missed | PairInput::Harvest(Harvest::Missed)
        )
    }

    /// Widens the input's loss by `loss` (the mailbox-overflow
    /// backpressure signal): complete evidence becomes partial,
    /// already-partial evidence widens further; nothing is dropped.
    pub(crate) fn widen_loss(&mut self, loss: f64) {
        match self {
            PairInput::Harvest(Harvest::Partial { lost_fraction, .. })
            | PairInput::Conflicts { lost_fraction, .. } => {
                *lost_fraction = (*lost_fraction + loss).min(1.0);
            }
            PairInput::Harvest(harvest @ Harvest::Complete(_)) => {
                if let Harvest::Complete(histogram) = std::mem::replace(harvest, Harvest::Missed) {
                    *harvest = Harvest::Partial {
                        histogram,
                        lost_fraction: loss,
                    };
                }
            }
            _ => {}
        }
    }
}

/// A transient probe failure, retried under the backoff policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeFault {
    /// Human-readable cause.
    pub reason: String,
}

impl fmt::Display for ProbeFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "probe fault: {}", self.reason)
    }
}

impl std::error::Error for ProbeFault {}

/// Source of per-pair probe inputs, polled once per pair per tick (plus
/// retries). Implemented for closures
/// `FnMut(pair, tick, attempt) -> Result<PairInput, ProbeFault>`.
pub trait ProbeSource {
    /// Harvests pair `pair`'s input for `tick`; `attempt` is 0 for the
    /// first try and counts up across retries.
    ///
    /// # Errors
    ///
    /// Returns [`ProbeFault`] for a transient failure the supervisor
    /// should retry under its backoff policy.
    fn probe(&mut self, pair: usize, tick: u64, attempt: u32) -> Result<PairInput, ProbeFault>;
}

impl<F> ProbeSource for F
where
    F: FnMut(usize, u64, u32) -> Result<PairInput, ProbeFault>,
{
    fn probe(&mut self, pair: usize, tick: u64, attempt: u32) -> Result<PairInput, ProbeFault> {
        self(pair, tick, attempt)
    }
}

/// One pair's probed input for one tick, with what it cost to obtain.
#[derive(Debug)]
pub(crate) struct ProbedInput<I = PairInput> {
    pub(crate) input: I,
    /// Probe retries spent.
    pub(crate) retries: u32,
    /// Virtual microseconds of backoff scheduled across those retries.
    pub(crate) backoff_us: u64,
}

/// What a shard slot receives for one tick.
#[derive(Debug)]
pub(crate) enum SlotInput {
    /// A contention pair's observed harvest, encoded at the probe by
    /// [`encode_slot`]: these bytes of its [`ShardBatch`], observed with
    /// `weight`.
    Encoded { bytes: Range<usize>, weight: f64 },
    /// Any other input, as probed: oscillation drains, misses, and
    /// harvests sent to the wrong kind of pair.
    Probed(PairInput),
}

/// One shard's part of one chunk of a fleet tick: `(slot, input)` cells in
/// probe order (`None`: held back by its breaker) and the encoded harvests'
/// bytes. The fleet keeps two per shard, one filed while the other is
/// stepped, reused every chunk.
#[derive(Debug, Default)]
pub(crate) struct ShardBatch {
    cells: Vec<(usize, Option<ProbedInput<SlotInput>>)>,
    bytes: Vec<u8>,
}

impl ShardBatch {
    /// Empties the batch, keeping its buffers.
    pub(crate) fn reset(&mut self) {
        self.cells.clear();
        self.bytes.clear();
    }

    /// Files `slot`, a `kind` pair, with its `probed` input, or `None` for
    /// a pair held back. A contention pair's observed harvest is encoded
    /// straight onto the batch's bytes here, and its dense histogram
    /// dropped on the thread that allocated it.
    pub(crate) fn file(&mut self, slot: usize, kind: PairKind, probed: Option<ProbedInput>) {
        let cell = probed.map(|probed| {
            let encoded = match &probed.input {
                PairInput::Harvest(harvest) if kind == PairKind::Contention => {
                    harvest.histogram().map(|histogram| {
                        let start = self.bytes.len();
                        encode_slot(histogram, &mut self.bytes);
                        let (bytes, weight) = (start..self.bytes.len(), harvest.observed_weight());
                        SlotInput::Encoded { bytes, weight }
                    })
                }
                _ => None,
            };
            ProbedInput {
                input: encoded.unwrap_or(SlotInput::Probed(probed.input)),
                retries: probed.retries,
                backoff_us: probed.backoff_us,
            }
        });
        self.cells.push((slot, cell));
    }
}

/// The fleet's one retry loop: probes `pair` for `tick`, retrying
/// transient misses under `backoff`. The delays are virtual — the schedule
/// is recorded (and reproducible from `seed`), not slept, so supervised
/// tests replay instantly. A probe still missing after the budget yields
/// [`PairInput::Missed`].
pub(crate) fn probe_with_retry<S: ProbeSource + ?Sized>(
    source: &mut S,
    backoff: &BackoffConfig,
    seed: u64,
    pair: usize,
    tick: u64,
) -> ProbedInput {
    let mut retries: u32 = 0;
    let mut backoff_us: u64 = 0;
    loop {
        match source.probe(pair, tick, retries) {
            Ok(input) if !input.is_missed() => {
                return ProbedInput {
                    input,
                    retries,
                    backoff_us,
                }
            }
            _ => match backoff_delay(backoff, seed, retries) {
                Some(delay) => {
                    backoff_us += delay;
                    retries += 1;
                }
                None => {
                    return ProbedInput {
                        input: PairInput::Missed,
                        retries,
                        backoff_us,
                    }
                }
            },
        }
    }
}

/// What [`analyze`] yields for one pair: the post-push status plus
/// whether the quantum was actually observed.
type AnalysisResult = Result<(OnlineStatus, bool), DetectorError>;

/// How a panicked pair's detector was brought back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// Restored from the checkpoint store.
    RestoredFromStore {
        /// The generation the state came from.
        generation: u64,
    },
    /// No usable checkpoint: the window was reset empty.
    Reset,
}

/// Where a pair's state came from at restore time — surfaced so operators
/// can see that (and how far) a rollback happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoredFrom {
    /// Store generation the state was loaded from.
    pub generation: u64,
    /// Corrupt newer generations skipped to reach it.
    pub rolled_back: usize,
}

/// Everything a pair carries across shards and restarts: its identity,
/// supervision state, provenance and counters. A hosted [`Pair`] embeds
/// it; its only text form is its manifest line ([`PairRecord::write`],
/// beside [`parse_manifest`]).
#[derive(Debug, Clone)]
pub(crate) struct PairRecord {
    /// Shared with the fleet's pair table and every [`PairReport`].
    pub(crate) label: Arc<str>,
    pub(crate) kind: PairKind,
    breaker: CircuitBreaker,
    mitigation: MitigationPolicy,
    /// Confidence reported while quarantined; decays per skipped tick.
    confidence: f64,
    /// Degraded mode: the pair's window provenance is untrusted (e.g. its
    /// checkpoint was unrecoverable after a shard death), so Clean
    /// verdicts floor to [`Verdict::Inconclusive`] — a blinded monitor
    /// must never acquit.
    degraded: bool,
    restored_from: Option<RestoredFrom>,
    failures: u64,
    panics: u64,
    deadline_misses: u64,
    retries: u64,
}

/// One hosted pair: its record, its window, and what lives only on this
/// shard.
#[derive(Debug)]
pub(crate) struct Pair {
    /// The pair's fleet index: the one `add_*_pair` returned, its probe is
    /// asked for, and its enforcer calls name.
    index: usize,
    record: PairRecord,
    window: OnlineWindow,
    last_verdict: Verdict,
    /// Evidence share of the pair's last analysis on this shard: the
    /// fraction of its window in the largest burst cluster (contention)
    /// or oscillatory (oscillation). Ranks the fleet's top-k suspicious
    /// pairs; not persisted, so an admitted pair starts at zero.
    evidence: f64,
    /// Failures armed by [`crate::ShardedFleet::arm`]; not persisted.
    faults: Armed,
}

/// The fraction of `status`'s window that carries covert-looking
/// evidence: quanta in the largest burst cluster on the contention path,
/// oscillatory quanta on the oscillation path.
fn evidence_share(status: &OnlineStatus) -> f64 {
    if status.window_len == 0 {
        return 0.0;
    }
    let covert = status
        .recurrence
        .as_ref()
        .map_or(status.oscillatory_in_window, |r| r.largest_burst_cluster);
    covert as f64 / status.window_len as f64
}

/// Whether a breaker in `state` is open: the one state in which its pair
/// is not probed every tick.
fn is_open(state: BreakerState) -> bool {
    matches!(state, BreakerState::Open { .. })
}

/// Counts over a pair table, kept where they change (admit, remove and
/// rebuild; breaker transitions in [`Supervisor::report`]) instead of
/// recounted per tick: a shard with no open breaker needs no breaker read
/// before its pairs are probed, and the fleet's degraded gauge walks no
/// pair.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PairCounts {
    /// Pairs whose breaker is open.
    pub(crate) open_breakers: usize,
    /// Pairs running in degraded mode.
    pub(crate) degraded: usize,
}

impl PairCounts {
    /// `pair`'s share of the counts.
    fn of(pair: &Pair) -> Self {
        PairCounts {
            open_breakers: usize::from(is_open(pair.record.breaker.state())),
            degraded: usize::from(pair.record.degraded),
        }
    }
}

impl AddAssign for PairCounts {
    fn add_assign(&mut self, other: Self) {
        self.open_breakers += other.open_breakers;
        self.degraded += other.degraded;
    }
}

impl SubAssign for PairCounts {
    fn sub_assign(&mut self, other: Self) {
        self.open_breakers -= other.open_breakers;
        self.degraded -= other.degraded;
    }
}

/// What reached one pair in one shard tick: the input of [`Pair::step`].
// Built and consumed once per pair per tick on the stack; boxing the
// analysed status would allocate on the tick path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub(crate) enum PairEvent {
    /// The breaker said no: the pair was not probed.
    Skipped,
    /// The probed input went through the window under the watchdog:
    /// `pushed` is what the push returned, after `elapsed_us`.
    Analyzed {
        pushed: AnalysisResult,
        elapsed_us: u64,
    },
    /// The push panicked with `message`, and the window was rebuilt
    /// beforehand (`Supervisor::rebuild_detector`) as `recovery` says.
    Panicked { message: String, recovery: Recovery },
}

/// What one [`Pair::step`] changed: the outcome it reports, and what the
/// shard counts and traces under the pair's label.
#[derive(Debug)]
pub(crate) struct Step {
    outcome: PairOutcome,
    /// The analysis latency, when the push returned.
    elapsed_us: Option<u64>,
    breaker_was: BreakerState,
    verdict_was: Verdict,
    /// The breaker closed from quarantine on a contained pair, whose
    /// verdict streaks were forgotten.
    streaks_reset: bool,
    /// What the containment ladder did; `None` for a skipped pair.
    mitigation: Option<MitigationTick>,
}

impl Pair {
    /// Starts loading what the pair's next tick touches: the pair itself
    /// (its breaker and containment ladder inline) and its window's ring
    /// slot and arena ends. A shard's pairs are cold by their next tick (a
    /// `fleet_10k` fleet's state is tens of MiB), and each window sits
    /// behind several allocations.
    fn prefetch(&self) {
        let at = (self as *const Pair).cast::<u8>();
        for offset in (0..size_of::<Pair>()).step_by(64) {
            prefetch(at.wrapping_add(offset));
        }
        self.window.prefetch();
    }

    /// Moves the pair one tick: counts `retries` probe retries, settles
    /// `event` into the breaker, the verdict (a degraded pair's Clean
    /// floors to Inconclusive), confidence, evidence share and counters,
    /// then drives the containment ladder through `enforcer` under the
    /// pair's fleet index. A skipped pair's confidence decays, and its
    /// verdict and ladder stand still. When the breaker closes from
    /// quarantine on a contained pair, the ladder forgets its verdict
    /// streaks: they froze while the probe was failing, so escalating or
    /// stepping down must take fresh evidence. `config` is the shard's:
    /// its analysis deadline (0: none), quarantine and containment
    /// policies. Allocates only to build a failure's error.
    pub(crate) fn step<E: MitigationEnforcer + ?Sized>(
        &mut self,
        tick: u64,
        config: &SupervisorConfig,
        retries: u32,
        event: PairEvent,
        enforcer: &mut E,
    ) -> Step {
        let (quarantine, ladder) = (&config.quarantine, &config.mitigation);
        let record = &mut self.record;
        let (breaker_was, verdict_was) = (record.breaker.state(), self.last_verdict);
        record.retries += u64::from(retries);
        let degraded = record.degraded;
        let floor = move |verdict| match verdict {
            Verdict::Clean if degraded => Verdict::Inconclusive,
            verdict => verdict,
        };
        let (outcome, elapsed_us) = match event {
            PairEvent::Skipped => {
                record.confidence *= quarantine.confidence_decay;
                let confidence = record.confidence;
                (PairOutcome::Skipped { confidence }, None)
            }
            PairEvent::Panicked { message, recovery } => {
                self.last_verdict = floor(self.last_verdict);
                record.panics += 1;
                record.failures += 1;
                record.confidence = 0.0;
                self.evidence = 0.0;
                record.breaker.record_failure(quarantine, tick);
                let context = record.label.to_string();
                let error = DetectorError::AnalysisPanicked { context, message };
                (PairOutcome::Failed { error, recovery }, None)
            }
            PairEvent::Analyzed { pushed, elapsed_us } => {
                // A failed analysis pushed nothing: the window advances
                // with a gap.
                let (mut status, observed, error) = match pushed {
                    Ok((status, observed)) => (status, observed, None),
                    Err(error) => (self.window.push_missed(), false, Some(error)),
                };
                status.verdict = floor(status.verdict);
                self.last_verdict = status.verdict;
                record.confidence = status.confidence;
                self.evidence = evidence_share(&status);
                let error = match error {
                    Some(error) => Some(error),
                    None if config.deadline_us > 0 && elapsed_us > config.deadline_us => {
                        record.deadline_misses += 1;
                        Some(DetectorError::DeadlineExceeded {
                            context: record.label.to_string(),
                            budget_us: config.deadline_us,
                            elapsed_us,
                        })
                    }
                    None if observed => None,
                    // The analysis behaved, but the probe ultimately failed.
                    None => {
                        let reason = "probe missed after exhausting retries".to_string();
                        Some(DetectorError::BadHarvest { reason })
                    }
                };
                let outcome = match error {
                    None => {
                        record.breaker.record_success(quarantine);
                        PairOutcome::Analyzed(status)
                    }
                    Some(error) => {
                        record.failures += 1;
                        record.breaker.record_failure(quarantine, tick);
                        PairOutcome::Degraded { status, error }
                    }
                };
                (outcome, Some(elapsed_us))
            }
        };
        let record = &mut self.record;
        let streaks_reset = breaker_was != BreakerState::Closed
            && !record.breaker.is_quarantined()
            && record.mitigation.is_contained();
        if streaks_reset {
            record.mitigation.forget_streaks();
        }
        let covert = self.last_verdict.is_covert();
        let mitigation = match outcome {
            PairOutcome::Skipped { .. } => None,
            _ => Some(
                record
                    .mitigation
                    .drive(ladder, covert, tick, self.index, enforcer),
            ),
        };
        Step {
            outcome,
            elapsed_us,
            breaker_was,
            verdict_was,
            streaks_reset,
            mitigation,
        }
    }

    /// The pair's standing as the fleet publishes it, hosted on `shard`.
    pub(crate) fn status(&self, shard: Option<usize>) -> FleetPairStatus {
        let record = &self.record;
        FleetPairStatus {
            pair: self.index,
            label: record.label.to_string(),
            kind: record.kind,
            shard,
            verdict: self.last_verdict,
            degraded: record.degraded,
            containment: record.mitigation.state(),
            health: Some(record.breaker.state()),
            restored_from: record.restored_from,
            confidence: record.confidence,
            failure_rate: record.breaker.failure_rate(),
            failures: record.failures,
            panics: record.panics,
            deadline_misses: record.deadline_misses,
            retries: record.retries,
        }
    }
}

/// Outcome of one pair's tick.
#[derive(Debug)]
pub enum PairOutcome {
    /// The analysis ran cleanly.
    Analyzed(OnlineStatus),
    /// The analysis produced a status but something went wrong around it
    /// (final probe missed after retries, wrong-kind input, deadline
    /// miss); the window advanced with a gap or the status is tainted.
    Degraded {
        /// The daemon's status after the (gap) push.
        status: OnlineStatus,
        /// The typed cause.
        error: DetectorError,
    },
    /// The pair is quarantined and was skipped this tick.
    Skipped {
        /// The decayed confidence the fleet reports for it.
        confidence: f64,
    },
    /// The analysis panicked; the detector was rebuilt.
    Failed {
        /// The typed cause ([`DetectorError::AnalysisPanicked`]).
        error: DetectorError,
        /// How the pair's detector was brought back.
        recovery: Recovery,
    },
}

/// One pair's report for one tick.
#[derive(Debug)]
pub struct PairReport {
    /// The pair's fleet index, as `add_*_pair` returned it.
    pub pair: usize,
    /// Pair label, shared with the fleet's pair table rather than copied
    /// per report.
    pub label: Arc<str>,
    /// What happened.
    pub outcome: PairOutcome,
    /// Breaker state after the tick.
    pub health: BreakerState,
    /// Containment state after the tick.
    pub containment: ContainmentState,
    /// Probe retries spent this tick.
    pub retries: u32,
    /// Virtual microseconds of backoff delay scheduled this tick.
    pub backoff_us: u64,
}

/// Fleet-wide report for one tick.
#[derive(Debug)]
pub struct TickReport {
    /// The tick that ran (the coordinator's quantum counter before
    /// incrementing).
    pub tick: u64,
    /// Per-pair reports, in pair order.
    pub reports: Vec<PairReport>,
    /// Generation written by this tick's automatic checkpoint, if one ran.
    pub checkpoint_generation: Option<u64>,
    /// Error from this tick's automatic checkpoint, if it failed (the tick
    /// itself still completes).
    pub checkpoint_error: Option<String>,
}

/// Where an admitted pair's window comes from (see [`Supervisor::admit`]).
#[derive(Debug)]
pub(crate) enum WindowSource {
    /// A new, empty window.
    Fresh,
    /// A new, empty window for a label that no store of a reopened root
    /// lists: the pair may have been added since the last checkpoint, so
    /// it is not acquitted before its first analysis.
    Unlisted,
    /// The live window of a pair moved from another shard.
    Live(OnlineWindow),
    /// A window checkpoint read back by [`Roster::recall`].
    Stored(LoadedCheckpoint),
    /// The pair's window could not be recovered.
    Lost,
}

/// A shard store's newest valid checkpoint: the pair records its
/// manifest lists, in the shard's slot order at checkpoint time, and the
/// window each pair was checkpointed with in that same generation.
#[derive(Debug)]
pub(crate) struct Roster {
    /// The coordinator tick the manifest was written at.
    pub(crate) tick: u64,
    /// Checkpoint provenance (generation loaded, corrupt generations
    /// rolled over).
    pub(crate) from: RestoredFrom,
    pub(crate) records: Vec<PairRecord>,
    /// The generation's payload: the manifest, then its window section.
    payload: Vec<u8>,
    /// Each listed pair's window within `payload`, in roster order; `None`
    /// for a manifest without a window section, whose store keeps each
    /// slot's window in its own `pair-NNNN` entry.
    windows: Option<Vec<Range<usize>>>,
}

impl Roster {
    /// Reads the newest valid checkpoint of `store`, rolling back over
    /// corrupt generations. `None` means the store has never held one.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::CorruptCheckpoint`] when checkpoints exist
    /// but no generation validates, storage faults and parse errors.
    pub(crate) fn read(
        store: &CheckpointStore,
        config: &SupervisorConfig,
    ) -> Result<Option<Self>, DetectorError> {
        let Some(loaded) = store.load_latest(MANIFEST_NAME)? else {
            return Ok(None);
        };
        let (tick, records, windows) = parse_manifest(&loaded.payload, config)?;
        Ok(Some(Roster {
            tick,
            from: provenance(&loaded),
            records,
            payload: loaded.payload,
            windows,
        }))
    }

    /// The record (sharing `label`'s `Arc`) and checkpointed window
    /// listed under `label` of `kind`: the one read of a pair's stored
    /// state, shared by restart, dead-shard migration and panic rebuild.
    /// A pair only ever takes the window listed under its own label in the
    /// generation that lists it, whatever slot it holds now, so neither a
    /// slot reused since the checkpoint nor a rollback can hand it another
    /// pair's window. `None` when the roster does not list the pair; a
    /// listed pair whose window cannot be read back comes with
    /// [`WindowSource::Lost`].
    pub(crate) fn recall(
        &self,
        store: &CheckpointStore,
        label: &Arc<str>,
        kind: PairKind,
    ) -> Option<(PairRecord, WindowSource)> {
        let idx = self
            .records
            .iter()
            .position(|r| r.label == *label && r.kind == kind)?;
        let window = match &self.windows {
            Some(windows) => WindowSource::Stored(LoadedCheckpoint {
                generation: self.from.generation,
                rolled_back: self.from.rolled_back,
                payload: self.payload[windows[idx].clone()].to_vec(),
            }),
            // A store written with one entry per slot: that slot's newest
            // valid entry, which rolls back on its own.
            None => match store.load_latest(&pair_entry_name(idx)) {
                Ok(Some(loaded)) => WindowSource::Stored(loaded),
                Ok(None) | Err(_) => WindowSource::Lost,
            },
        };
        let label = Arc::clone(label);
        Some((
            PairRecord {
                label,
                ..self.records[idx].clone()
            },
            window,
        ))
    }
}

/// A per-slot window entry's name, in stores written before a shard's
/// windows moved into its manifest entry.
fn pair_entry_name(idx: usize) -> String {
    format!("pair-{idx:04}")
}

/// Whether `name` is a per-slot window entry's ([`pair_entry_name`]).
fn is_pair_entry(name: &str) -> bool {
    name.strip_prefix("pair-")
        .is_some_and(|idx| !idx.is_empty() && idx.bytes().all(|b| b.is_ascii_digit()))
}

fn provenance(loaded: &LoadedCheckpoint) -> RestoredFrom {
    RestoredFrom {
        generation: loaded.generation,
        rolled_back: loaded.rolled_back,
    }
}

const MANIFEST_MAGIC: &str = "cchunter-supervisor,v1";
const MANIFEST_NAME: &str = "supervisor";

/// Upper bounds of the scrape-time confidence distribution's buckets.
const CONFIDENCE_BUCKETS: [f64; 6] = [0.25, 0.5, 0.75, 0.9, 0.99, 1.0];

/// The shard's registered instrument set (see DESIGN.md §12 for the name
/// and label scheme). Nothing is labeled by pair: each per-pair event
/// counts in one shard counter, published once per shard tick from a
/// [`TickTally`], and the pair-state gauges are derived from the pair
/// table at scrape time ([`Supervisor::refresh_gauges`]).
#[derive(Debug, Clone)]
struct FleetMetrics {
    ticks: Counter,
    tick_latency_us: Histogram,
    audit_latency_us: Histogram,
    analyzed: Counter,
    degraded: Counter,
    quarantine_skips: Counter,
    verdict_flips: Counter,
    breaker_transitions: Counter,
    recoveries: Counter,
    mitigations_applied: Counter,
    mitigation_failures: Counter,
    mitigation_escalations: Counter,
    mitigation_stepdowns: Counter,
    covert_pairs: Gauge,
    quarantined_pairs: Gauge,
    contained_pairs: Gauge,
    confidence: Histogram,
    checkpoints: Counter,
    checkpoint_errors: Counter,
    restore_rollbacks: Counter,
    durability_degraded: Gauge,
    shadow_checkpoints: Counter,
    durability_heals: Counter,
}

impl FleetMetrics {
    fn register(registry: &Registry) -> Self {
        FleetMetrics {
            ticks: registry.counter(
                "cchunter_supervisor_ticks_total",
                "Supervised fleet ticks completed.",
            ),
            tick_latency_us: registry.histogram(
                "cchunter_supervisor_tick_latency_us",
                "Busy time of one shard tick's steps and checkpoint, in microseconds.",
                &LATENCY_BUCKETS_US,
            ),
            audit_latency_us: registry.histogram(
                "cchunter_audit_latency_us",
                "Per-pair analysis latency, in microseconds.",
                &LATENCY_BUCKETS_US,
            ),
            analyzed: registry.counter(
                "cchunter_pairs_analyzed_total",
                "Clean pair analyses.",
            ),
            degraded: registry.counter(
                "cchunter_pairs_degraded_total",
                "Degraded pair outcomes (gaps, wrong-kind inputs, deadline misses).",
            ),
            quarantine_skips: registry.counter(
                "cchunter_pairs_quarantine_skips_total",
                "Pair ticks skipped under quarantine.",
            ),
            verdict_flips: registry.counter(
                "cchunter_pairs_verdict_flips_total",
                "Pair verdict changes.",
            ),
            breaker_transitions: registry.counter(
                "cchunter_pairs_breaker_transitions_total",
                "Pair circuit-breaker state transitions.",
            ),
            recoveries: registry.counter(
                "cchunter_pairs_recoveries_total",
                "Detector rebuilds after contained panics.",
            ),
            mitigations_applied: registry.counter(
                "cchunter_pairs_mitigations_applied_total",
                "Accepted mitigation enforcement calls.",
            ),
            mitigation_failures: registry.counter(
                "cchunter_pairs_mitigation_failures_total",
                "Refused mitigation enforcement calls (apply or release).",
            ),
            mitigation_escalations: registry.counter(
                "cchunter_pairs_mitigation_escalations_total",
                "Containment-ladder rungs escalated past.",
            ),
            mitigation_stepdowns: registry.counter(
                "cchunter_pairs_mitigation_stepdowns_total",
                "Containment-ladder rungs stepped down.",
            ),
            covert_pairs: registry.gauge(
                "cchunter_pairs_covert",
                "Pairs whose current verdict is covert (as of the last scrape).",
            ),
            quarantined_pairs: registry.gauge(
                "cchunter_pairs_quarantined",
                "Pairs whose breaker is open or half-open (as of the last scrape).",
            ),
            contained_pairs: registry.gauge(
                "cchunter_contained_pairs",
                "Pairs with an active or pending containment (as of the last scrape).",
            ),
            confidence: registry.histogram(
                "cchunter_pairs_confidence",
                "Distribution of the pairs' current covert-channel confidence (as of the last scrape).",
                &CONFIDENCE_BUCKETS,
            ),
            checkpoints: registry.counter(
                "cchunter_checkpoints_total",
                "Successful fleet checkpoints.",
            ),
            checkpoint_errors: registry.counter(
                "cchunter_checkpoint_errors_total",
                "Failed fleet checkpoint attempts.",
            ),
            restore_rollbacks: registry.counter(
                "cchunter_restore_rollbacks_total",
                "Corrupt checkpoint generations rolled over during restores.",
            ),
            durability_degraded: registry.gauge(
                "cchunter_durability_degraded",
                "1 while checkpoints are shadow-only (storage browning out), else 0.",
            ),
            shadow_checkpoints: registry.counter(
                "cchunter_shadow_checkpoints_total",
                "In-memory shadow checkpoints taken while storage was degraded.",
            ),
            durability_heals: registry.counter(
                "cchunter_durability_heals_total",
                "Durable-write resumptions (full re-persists) after storage healed.",
            ),
        }
    }
}

/// What one shard tick's pair reports count — every counter
/// [`Supervisor::report`] bumps, and the pairs' analysis latencies —
/// gathered without atomics and published into the shard's instruments
/// once per tick.
#[derive(Debug)]
struct TickTally {
    analyzed: u64,
    degraded: u64,
    quarantine_skips: u64,
    verdict_flips: u64,
    breaker_transitions: u64,
    recoveries: u64,
    mitigations_applied: u64,
    mitigation_failures: u64,
    mitigation_escalations: u64,
    mitigation_stepdowns: u64,
    audit_latency_us: HistogramTally,
}

impl TickTally {
    fn new(metrics: &FleetMetrics) -> Self {
        TickTally {
            analyzed: 0,
            degraded: 0,
            quarantine_skips: 0,
            verdict_flips: 0,
            breaker_transitions: 0,
            recoveries: 0,
            mitigations_applied: 0,
            mitigation_failures: 0,
            mitigation_escalations: 0,
            mitigation_stepdowns: 0,
            audit_latency_us: metrics.audit_latency_us.tally(),
        }
    }

    /// Adds the tally into `metrics`, touching only the counters that
    /// moved, and empties it.
    fn publish(&mut self, metrics: &FleetMetrics) {
        for (counter, n) in [
            (&metrics.analyzed, &mut self.analyzed),
            (&metrics.degraded, &mut self.degraded),
            (&metrics.quarantine_skips, &mut self.quarantine_skips),
            (&metrics.verdict_flips, &mut self.verdict_flips),
            (&metrics.breaker_transitions, &mut self.breaker_transitions),
            (&metrics.recoveries, &mut self.recoveries),
            (&metrics.mitigations_applied, &mut self.mitigations_applied),
            (&metrics.mitigation_failures, &mut self.mitigation_failures),
            (
                &metrics.mitigation_escalations,
                &mut self.mitigation_escalations,
            ),
            (
                &metrics.mitigation_stepdowns,
                &mut self.mitigation_stepdowns,
            ),
        ] {
            if *n > 0 {
                counter.inc_by(std::mem::take(n));
            }
        }
        self.audit_latency_us.publish();
    }
}

/// A shard stepping a chunk. A step that unwinds (in the pair's enforcer)
/// publishes the tick's tally as it stands and recounts [`PairCounts`]:
/// the panicking step may have moved its breaker without reaching `report`.
struct Ticking<'a>(&'a mut Supervisor);

impl Drop for Ticking<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let sup = &mut *self.0;
            sup.counts = sup.recount();
            sup.tally.publish(&sup.metrics);
        }
    }
}

/// A shard tick between [`Supervisor::begin_tick`] and `finish_tick`: the
/// reports so far, the tick's span, and the time its steps took.
#[derive(Debug, Default)]
struct InFlight {
    reports: Vec<PairReport>,
    span: Option<Span>,
    busy: Duration,
}

/// A compact latency-distribution digest taken from a fixed-bucket
/// histogram; quantiles are bucket-interpolated (see
/// [`Histogram::quantile`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Observations recorded.
    pub count: u64,
    /// Mean, in microseconds.
    pub mean_us: f64,
    /// Interpolated median, in microseconds.
    pub p50_us: f64,
    /// Interpolated 90th percentile, in microseconds.
    pub p90_us: f64,
    /// Largest observation, in microseconds.
    pub max_us: f64,
}

impl LatencySummary {
    pub(crate) fn from_histogram(h: &Histogram) -> Self {
        LatencySummary {
            count: h.count(),
            mean_us: h.mean(),
            p50_us: h.quantile(0.5),
            p90_us: h.quantile(0.9),
            max_us: h.max(),
        }
    }
}

impl fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1}µs p50={:.1}µs p90={:.1}µs max={:.1}µs",
            self.count, self.mean_us, self.p50_us, self.p90_us, self.max_us
        )
    }
}

/// Ingest-layer totals, summed over every [`IngestStats`] handle attached
/// to the fleet (all zeros when no hardened ingest pipeline is attached).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestSnapshot {
    /// Raw events offered to admission queues.
    pub events_offered: u64,
    /// Events shed by admission queues under overload.
    pub events_shed: u64,
    /// Events repaired (reorder-clamped) by sanitizers.
    pub events_repaired: u64,
    /// Hostile events dropped by sanitizers.
    pub events_dropped: u64,
    /// Quanta whose 16-bit accumulators saturated.
    pub saturated_quanta: u64,
    /// Quanta harvested through ingest pipelines.
    pub quanta: u64,
    /// Quanta degraded to partial harvests.
    pub partial_harvests: u64,
    /// Quanta refused outright (biased shedding past tolerance).
    pub missed_harvests: u64,
}

impl IngestSnapshot {
    /// Whether any ingest activity was recorded at all.
    pub fn is_empty(&self) -> bool {
        *self == IngestSnapshot::default()
    }

    /// Adds `other`'s totals into `self`.
    pub fn merge(&mut self, other: &IngestSnapshot) {
        self.events_offered += other.events_offered;
        self.events_shed += other.events_shed;
        self.events_repaired += other.events_repaired;
        self.events_dropped += other.events_dropped;
        self.saturated_quanta += other.saturated_quanta;
        self.quanta += other.quanta;
        self.partial_harvests += other.partial_harvests;
        self.missed_harvests += other.missed_harvests;
    }
}

impl From<&IngestStats> for IngestSnapshot {
    fn from(stats: &IngestStats) -> Self {
        IngestSnapshot {
            events_offered: stats.events_offered.get(),
            events_shed: stats.events_shed.get(),
            events_repaired: stats.events_repaired.get(),
            events_dropped: stats.events_dropped.get(),
            saturated_quanta: stats.saturated_quanta.get(),
            quanta: stats.quanta.get(),
            partial_harvests: stats.partial_harvests.get(),
            missed_harvests: stats.missed_harvests.get(),
        }
    }
}

/// A point-in-time numeric digest of one fleet's health, computed from the
/// fleet's own state (exact for this fleet even when the metrics registry
/// is shared process-wide).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Ticks completed.
    pub ticks: u64,
    /// Supervised pairs.
    pub pairs: usize,
    /// Pairs whose breaker is not closed.
    pub quarantined_pairs: usize,
    /// Pairs whose current verdict is covert.
    pub covert_pairs: usize,
    /// Pairs with an active or pending containment.
    pub contained_pairs: usize,
    /// Clean analyses across all pairs and ticks.
    pub analyzed: u64,
    /// Degraded outcomes (gaps, wrong-kind inputs, deadline misses).
    pub degraded: u64,
    /// Probe/analysis failures.
    pub failures: u64,
    /// Contained analysis panics.
    pub panics: u64,
    /// Deadline watchdog trips.
    pub deadline_misses: u64,
    /// Probe retries.
    pub retries: u64,
    /// Ticks skipped under quarantine.
    pub quarantine_skips: u64,
    /// Verdict changes (clean <-> covert).
    pub verdict_flips: u64,
    /// Circuit-breaker state transitions.
    pub breaker_transitions: u64,
    /// Detector rebuilds after contained panics.
    pub recoveries: u64,
    /// Accepted mitigation enforcement calls.
    pub mitigations_applied: u64,
    /// Refused mitigation enforcement calls (apply or release).
    pub mitigation_failures: u64,
    /// Containment-ladder rungs escalated past.
    pub mitigation_escalations: u64,
    /// Containment-ladder rungs stepped down.
    pub mitigation_stepdowns: u64,
    /// Successful checkpoints.
    pub checkpoints: u64,
    /// Failed checkpoint attempts.
    pub checkpoint_errors: u64,
    /// Corrupt generations rolled over during restores.
    pub restore_rollbacks: u64,
    /// Whether checkpoints are currently shadow-only (storage degraded).
    pub durability_degraded: bool,
    /// In-memory shadow checkpoints taken while storage was degraded.
    pub shadow_checkpoints: u64,
    /// Durable-write resumptions (full re-persists) after storage healed.
    pub durability_heals: u64,
    /// Mean covert-channel confidence across pairs.
    pub mean_confidence: f64,
    /// Ingest-layer totals (shedding, sanitization, saturation) from every
    /// attached [`IngestStats`] handle; zeros when none is attached.
    pub ingest: IngestSnapshot,
    /// Per-pair analysis latency distribution.
    pub audit_latency: LatencySummary,
    /// Whole-tick latency distribution.
    pub tick_latency: LatencySummary,
}

impl MetricsSnapshot {
    /// Folds another fleet part's digest into this one: event counts and
    /// pair tallies add, durability degradation is sticky, and
    /// `mean_confidence` becomes the pair-weighted mean. `ticks` keeps the
    /// larger value. Latency digests are left alone — quantiles do not
    /// add, so callers merge the underlying histograms instead.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        let pairs = self.pairs + other.pairs;
        if pairs > 0 {
            self.mean_confidence = (self.mean_confidence * self.pairs as f64
                + other.mean_confidence * other.pairs as f64)
                / pairs as f64;
        }
        self.ticks = self.ticks.max(other.ticks);
        self.pairs = pairs;
        self.quarantined_pairs += other.quarantined_pairs;
        self.covert_pairs += other.covert_pairs;
        self.contained_pairs += other.contained_pairs;
        self.analyzed += other.analyzed;
        self.degraded += other.degraded;
        self.failures += other.failures;
        self.panics += other.panics;
        self.deadline_misses += other.deadline_misses;
        self.retries += other.retries;
        self.quarantine_skips += other.quarantine_skips;
        self.verdict_flips += other.verdict_flips;
        self.breaker_transitions += other.breaker_transitions;
        self.recoveries += other.recoveries;
        self.mitigations_applied += other.mitigations_applied;
        self.mitigation_failures += other.mitigation_failures;
        self.mitigation_escalations += other.mitigation_escalations;
        self.mitigation_stepdowns += other.mitigation_stepdowns;
        self.checkpoints += other.checkpoints;
        self.checkpoint_errors += other.checkpoint_errors;
        self.restore_rollbacks += other.restore_rollbacks;
        self.durability_degraded |= other.durability_degraded;
        self.shadow_checkpoints += other.shadow_checkpoints;
        self.durability_heals += other.durability_heals;
        self.ingest.merge(&other.ingest);
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet: {} pairs ({} covert, {} quarantined, {} contained) at tick {}",
            self.pairs, self.covert_pairs, self.quarantined_pairs, self.contained_pairs, self.ticks
        )?;
        writeln!(
            f,
            "  analyzed {}  degraded {}  failures {}  panics {}  deadline misses {}",
            self.analyzed, self.degraded, self.failures, self.panics, self.deadline_misses
        )?;
        writeln!(
            f,
            "  retries {}  quarantine skips {}  verdict flips {}  breaker transitions {}  recoveries {}",
            self.retries,
            self.quarantine_skips,
            self.verdict_flips,
            self.breaker_transitions,
            self.recoveries
        )?;
        writeln!(
            f,
            "  mitigations: {} applied  {} refused  {} escalations  {} step-downs",
            self.mitigations_applied,
            self.mitigation_failures,
            self.mitigation_escalations,
            self.mitigation_stepdowns
        )?;
        writeln!(
            f,
            "  checkpoints {} ({} failed)  restore rollbacks {}  mean confidence {:.3}",
            self.checkpoints, self.checkpoint_errors, self.restore_rollbacks, self.mean_confidence
        )?;
        if self.durability_degraded || self.shadow_checkpoints > 0 {
            writeln!(
                f,
                "  durability: {}  shadow checkpoints {}  heals {}",
                if self.durability_degraded {
                    "DEGRADED (shadow-only)"
                } else {
                    "durable"
                },
                self.shadow_checkpoints,
                self.durability_heals
            )?;
        }
        if !self.ingest.is_empty() {
            writeln!(
                f,
                "  ingest: {} offered  {} shed  {} repaired  {} dropped  {} saturated quanta  {} partial  {} refused",
                self.ingest.events_offered,
                self.ingest.events_shed,
                self.ingest.events_repaired,
                self.ingest.events_dropped,
                self.ingest.saturated_quanta,
                self.ingest.partial_harvests,
                self.ingest.missed_harvests
            )?;
        }
        writeln!(f, "  audit latency: {}", self.audit_latency)?;
        write!(f, "  tick latency:  {}", self.tick_latency)
    }
}

/// Whether the fleet's checkpoints are currently landing on stable
/// storage.
///
/// Under a persistent storage fault (a disk brownout) a shard does
/// not wedge and does not silently no-op: it keeps checkpointing *in
/// memory* (shadow checkpoints), reports `Degraded` here and in metrics,
/// and resumes durable writes — with a full re-persist of every pair plus
/// the manifest — the first time the medium heals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Checkpoints are landing on stable storage.
    Durable,
    /// Checkpoints are shadow-only (in memory) until the medium heals.
    Degraded {
        /// The tick at which durable writes started failing.
        since_tick: u64,
    },
}

impl Durability {
    /// Whether durable writes are currently suspended.
    pub fn is_degraded(&self) -> bool {
        matches!(self, Durability::Degraded { .. })
    }
}

impl fmt::Display for Durability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Durability::Durable => f.write_str("durable"),
            Durability::Degraded { since_tick } => {
                write!(f, "degraded (since tick {since_tick})")
            }
        }
    }
}

/// The in-memory stand-in for a durable checkpoint, taken while the
/// storage medium is browning out. Holds exactly the payload a durable
/// checkpoint would have saved as the shard's one store entry (the
/// manifest, then every pair's window), so the most recent fleet state
/// survives as long as the process does.
#[derive(Debug, Clone)]
pub struct ShadowCheckpoint {
    /// The coordinator tick the shadow was taken at.
    pub tick: u64,
    /// The `supervisor` entry's payload, unframed.
    pub payload: Vec<u8>,
}

/// One shard's pair table: the per-pair daemons, their watchdogs and
/// breakers, the shard's instruments, and (optionally) its durable
/// checkpoint store. Driven by [`crate::ShardedFleet`], which probes every
/// pair and passes the inputs and its tick number to [`Supervisor::tick`].
#[derive(Debug)]
pub(crate) struct Supervisor {
    config: SupervisorConfig,
    /// An empty window built from `config`: every window of the table
    /// (fresh, moved in, restored or rebuilt) shares its configuration
    /// `Arc` and has its capacity.
    blank: OnlineWindow,
    pairs: Vec<Pair>,
    /// The counts of `pairs` kept where they change.
    counts: PairCounts,
    store: Option<CheckpointStore>,
    /// Durable checkpoints still to write before every generation the
    /// store keeps carries its own window section. The last of them
    /// deletes the per-slot `pair-NNNN` entries that stores written
    /// before that layout hold, which no kept manifest reaches any more
    /// (a store that never had any costs one directory listing).
    checkpoints_before_prune: AtomicUsize,
    registry: Registry,
    metrics: FleetMetrics,
    /// The current tick's counts, published when it ends.
    tally: TickTally,
    in_flight: InFlight,
    tracer: Tracer,
    durability: Durability,
    shadow: Option<ShadowCheckpoint>,
}

impl Supervisor {
    /// Creates an empty pair table whose instruments register in
    /// `registry` (private to the shard) and whose structured events go to
    /// `tracer`.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] if `window_quanta` is zero
    /// or the detection config is invalid.
    pub(crate) fn new(
        config: SupervisorConfig,
        registry: Registry,
        tracer: Tracer,
    ) -> Result<Self, DetectorError> {
        let blank = OnlineWindow::new(PairKind::Contention, config.hunter, config.window_quanta)?;
        let metrics = FleetMetrics::register(&registry);
        Ok(Supervisor {
            blank,
            config,
            pairs: Vec::new(),
            counts: PairCounts::default(),
            store: None,
            checkpoints_before_prune: AtomicUsize::new(0),
            registry,
            tally: TickTally::new(&metrics),
            in_flight: InFlight::default(),
            metrics,
            tracer,
            durability: Durability::Durable,
            shadow: None,
        })
    }

    /// Attaches a durable checkpoint store (builder style).
    pub(crate) fn with_store(mut self, store: CheckpointStore) -> Self {
        self.checkpoints_before_prune = AtomicUsize::new(store.keep());
        self.store = Some(store);
        self
    }

    /// Redirects structured events to `tracer`.
    pub(crate) fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The attached store, if any.
    pub(crate) fn store(&self) -> Option<&CheckpointStore> {
        self.store.as_ref()
    }

    /// Number of pairs in the table.
    pub(crate) fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Pairs with an open breaker, and pairs running in degraded mode.
    pub(crate) fn counts(&self) -> PairCounts {
        self.counts
    }

    /// The counts of the pair table, recounted pair by pair.
    pub(crate) fn recount(&self) -> PairCounts {
        let mut counts = PairCounts::default();
        for pair in &self.pairs {
            counts += PairCounts::of(pair);
        }
        counts
    }

    /// A new pair's record: closed breaker, idle containment, no history.
    pub(crate) fn record(&self, label: Arc<str>, kind: PairKind) -> PairRecord {
        PairRecord {
            label,
            kind,
            breaker: CircuitBreaker::new(),
            mitigation: MitigationPolicy::default(),
            confidence: 0.0,
            degraded: false,
            restored_from: None,
            failures: 0,
            panics: 0,
            deadline_misses: 0,
            retries: 0,
        }
    }

    /// Admits fleet pair `index`, as `record` describes it, at the next
    /// slot, with its window from `source`: the one way into a pair table
    /// for new, moved, restarted and migrated pairs alike. Returns the slot
    /// and whether the pair runs degraded.
    pub(crate) fn admit(
        &mut self,
        index: usize,
        record: PairRecord,
        source: WindowSource,
    ) -> (usize, bool) {
        let pair = self.admitted(index, record, source);
        let degraded = pair.record.degraded;
        self.counts += PairCounts::of(&pair);
        self.pairs.push(pair);
        (self.pairs.len() - 1, degraded)
    }

    /// Builds the pair `record` describes around its window from `source`.
    /// A stored payload is restored here and nowhere else; a stored or
    /// live window must be of the record's kind and of this table's
    /// capacity (the window's own clamp of `window_quanta`), and a live
    /// one is re-pointed at this table's configuration and its containment
    /// handed over to this shard's enforcer. A lost or invalid window
    /// becomes a fresh one and the pair runs degraded with zero
    /// confidence. The record's provenance becomes the window's: the
    /// generation a stored window came from, a live window's own, none
    /// for an empty one. A new pair (fresh and undegraded) reports Clean
    /// before its first analysis here; every other admission, an unlisted
    /// label's included, reports Inconclusive, so no path acquits a pair
    /// without fresh evidence.
    fn admitted(&self, index: usize, mut record: PairRecord, source: WindowSource) -> Pair {
        let new = matches!(source, WindowSource::Fresh);
        let fresh = matches!(source, WindowSource::Fresh | WindowSource::Unlisted);
        let supplied = match source {
            WindowSource::Fresh | WindowSource::Unlisted | WindowSource::Lost => None,
            WindowSource::Live(mut window) => {
                window.share_config(self.blank.config());
                record.mitigation.hand_over();
                Some((window, record.restored_from))
            }
            WindowSource::Stored(loaded) => {
                let config = Arc::clone(self.blank.config());
                let restored =
                    OnlineWindow::restore(record.kind, config, loaded.payload.as_slice());
                restored
                    .ok()
                    .map(|window| (window, Some(provenance(&loaded))))
            }
        };
        let fits =
            |w: &OnlineWindow| w.kind() == record.kind && w.capacity() == self.blank.capacity();
        let (window, from) = match supplied.filter(|(window, _)| fits(window)) {
            Some(supplied) => supplied,
            None => {
                if !fresh {
                    record.degraded = true;
                    record.confidence = 0.0;
                }
                (self.blank.blank(record.kind), None)
            }
        };
        record.restored_from = from;
        let last_verdict = if new && !record.degraded {
            Verdict::Clean
        } else {
            Verdict::Inconclusive
        };
        Pair {
            index,
            record,
            window,
            last_verdict,
            evidence: 0.0,
            faults: Armed::default(),
        }
    }

    /// The failures armed on `slot`'s pair.
    pub(crate) fn faults_mut(&mut self, slot: usize) -> Option<&mut Armed> {
        self.pairs.get_mut(slot).map(|p| &mut p.faults)
    }

    /// Pushes onto `held` the fleet index of each pair whose open breaker
    /// holds it back at `tick` (not probed; stepped as skipped). A table
    /// with no open breaker is not walked.
    pub(crate) fn held_back(&self, tick: u64, held: &mut Vec<usize>) {
        if self.counts.open_breakers > 0 {
            let quarantine = &self.config.quarantine;
            let pairs = self.pairs.iter();
            let pairs = pairs.filter(|p| !p.record.breaker.should_attempt(quarantine, tick));
            held.extend(pairs.map(|p| p.index));
        }
    }

    /// Opens a shard tick. `reports` is the room for its reports,
    /// allocated on the coordinator's thread, which also drops them.
    pub(crate) fn begin_tick(&mut self, reports: Vec<PairReport>) {
        self.in_flight = InFlight {
            reports,
            span: Some(self.tracer.span("supervisor", "tick")),
            busy: Duration::ZERO,
        };
    }

    /// Steps the pairs `batch` lists, in its order, at the coordinator's
    /// `tick`, reading their inputs in place (the coordinator frees them).
    /// Each cell becomes the pair's event — its input pushed under the
    /// panic/deadline watchdogs, a panicked pair rebuilt first, `None` a
    /// held pair — which [`Pair::step`] applies (containment through
    /// `enforcer`) and [`Supervisor::report`] counts into the shard's
    /// [`TickTally`]. Every per-pair failure is contained.
    pub(crate) fn step<E: MitigationEnforcer + ?Sized>(
        &mut self,
        tick: u64,
        batch: &mut ShardBatch,
        enforcer: &mut E,
    ) {
        let started = Instant::now();
        let mut flight = std::mem::take(&mut self.in_flight);
        let shard = Ticking(self);
        let mut cells = batch.cells.iter().peekable();
        while let Some(&(slot, ref cell)) = cells.next() {
            if let Some(next) = cells.peek().and_then(|&&(next, _)| shard.0.pairs.get(next)) {
                next.prefetch();
            }
            let (retries, backoff_us) = cell.as_ref().map_or((0, 0), |c| (c.retries, c.backoff_us));
            let event = match cell {
                None => PairEvent::Skipped,
                Some(ProbedInput { input, .. }) => {
                    let (pair, bytes) = (&mut shard.0.pairs[slot], &batch.bytes);
                    let result = threadpool::catch(|| {
                        let start = Instant::now();
                        pair.faults.fire();
                        let pushed = analyze(&mut pair.window, input, bytes);
                        let elapsed_us = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
                        (pushed, elapsed_us)
                    });
                    match result {
                        Ok((pushed, elapsed_us)) => PairEvent::Analyzed { pushed, elapsed_us },
                        Err(panic) => PairEvent::Panicked {
                            recovery: shard.0.rebuild_detector(slot),
                            message: panic.message,
                        },
                    }
                }
            };
            let step = shard.0.pairs[slot].step(tick, &shard.0.config, retries, event, enforcer);
            let (sup, reports) = (&mut *shard.0, &mut flight.reports);
            sup.report(slot, tick, retries, backoff_us, step, reports);
        }
        drop(shard);
        flight.busy += started.elapsed();
        self.in_flight = flight;
    }

    /// Closes the shard tick at the coordinator's `tick`: publishes its
    /// tally, auto-checkpoints when due, and returns its reports in step
    /// order. Never panics and never aborts the batch: every per-pair
    /// failure was contained and is reported.
    pub(crate) fn finish_tick(&mut self, tick: u64) -> TickReport {
        let (started, mut flight) = (Instant::now(), std::mem::take(&mut self.in_flight));
        self.tally.publish(&self.metrics);

        // Automatic checkpoint, if due. Every due tick attempts a
        // full durable checkpoint — while degraded that doubles as the
        // heal probe (success *is* the full re-persist) — and a storage
        // fault degrades durability to in-memory shadows instead of
        // wedging or silently no-opping.
        let ticks_done = tick + 1;
        let mut checkpoint_generation = None;
        let mut checkpoint_error = None;
        if self.store.is_some()
            && self.config.checkpoint_every > 0
            && ticks_done.is_multiple_of(self.config.checkpoint_every)
        {
            let (generation, error) = self.checkpoint_or_degrade(ticks_done);
            checkpoint_generation = generation;
            checkpoint_error = error;
        }

        let busy_us = (flight.busy + started.elapsed()).as_micros() as f64;
        self.metrics.ticks.inc();
        self.metrics.tick_latency_us.observe(busy_us);
        if let Some(span) = flight.span.as_mut() {
            span.detail(format_args!("tick {tick}: {} pairs", flight.reports.len()));
        }

        TickReport {
            tick,
            reports: flight.reports,
            checkpoint_generation,
            checkpoint_error,
        }
    }

    /// Counts (into the tick's tally) and traces what `step` changed for
    /// the pair at `slot`, and pushes the pair's report straight onto
    /// `reports`: the one place a
    /// pair's tick counts for the shard or emits a trace event, each
    /// event under the pair's label.
    fn report(
        &mut self,
        slot: usize,
        tick: u64,
        retries: u32,
        backoff_us: u64,
        step: Step,
        reports: &mut Vec<PairReport>,
    ) {
        let (pair, counts, tracer) = (&self.pairs[slot], &mut self.tally, &self.tracer);
        let (was, health) = (step.breaker_was, pair.record.breaker.state());
        match (is_open(was), is_open(health)) {
            (false, true) => self.counts.open_breakers += 1,
            (true, false) => self.counts.open_breakers -= 1,
            _ => {}
        }
        let label = &*pair.record.label;
        if retries > 0 {
            tracer.event(
                "policy",
                "retry-backoff",
                format_args!(
                    "{label}: {retries} retries, {backoff_us} µs scheduled at tick {tick}"
                ),
            );
        }
        match &step.outcome {
            PairOutcome::Skipped { confidence } => {
                counts.quarantine_skips += 1;
                tracer.event(
                    "supervisor",
                    "quarantine-skip",
                    format_args!("{label} (confidence {confidence:.3})"),
                );
            }
            PairOutcome::Failed { error, recovery } => {
                counts.recoveries += 1;
                if let DetectorError::AnalysisPanicked { message, .. } = error {
                    tracer.event(
                        "supervisor",
                        "panic-contained",
                        format_args!("{label}: {message} ({recovery:?})"),
                    );
                }
            }
            PairOutcome::Analyzed(_) => counts.analyzed += 1,
            PairOutcome::Degraded { error, .. } => {
                counts.degraded += 1;
                tracer.event("supervisor", "degraded", format_args!("{label}: {error}"));
            }
        }
        if let Some(elapsed_us) = step.elapsed_us {
            counts.audit_latency_us.observe(elapsed_us as f64);
        }
        if discriminant(&was) != discriminant(&health) {
            counts.breaker_transitions += 1;
            let reset = if step.streaks_reset {
                " (contained: verdict streaks reset)"
            } else {
                ""
            };
            tracer.event(
                "supervisor",
                "breaker-transition",
                format_args!(
                    "{label}: {} -> {} at tick {tick}{reset}",
                    was.name(),
                    health.name()
                ),
            );
        }
        if pair.last_verdict != step.verdict_was {
            counts.verdict_flips += 1;
            tracer.event(
                "supervisor",
                "verdict-flip",
                format_args!(
                    "{label}: {} -> {} at tick {tick} (confidence {:.3})",
                    step.verdict_was, pair.last_verdict, pair.record.confidence
                ),
            );
        }
        if let Some(m) = step.mitigation {
            counts.mitigations_applied += u64::from(m.applied);
            counts.mitigation_failures += u64::from(m.apply_failures);
            counts.mitigation_stepdowns += u64::from(m.step_downs);
            counts.mitigation_escalations += u64::from(m.escalations);
            if m.escalations > 0 {
                let mut span = tracer.span("mitigation", "escalate");
                span.detail(format_args!(
                    "{label}: {} rung(s) at tick {tick} -> {}",
                    m.escalations, m.state
                ));
            }
            if m.convicted {
                tracer.event(
                    "mitigation",
                    "convicted",
                    format_args!("{label}: covert streak reached at tick {tick}"),
                );
            }
            if m.step_downs > 0 {
                tracer.event(
                    "mitigation",
                    "step-down",
                    format_args!("{label}: -> {} at tick {tick}", m.state),
                );
            }
            if m.stuck {
                tracer.event(
                    "mitigation",
                    "stuck",
                    format_args!("{label}: ladder exhausted, top rung not in force at tick {tick}"),
                );
            }
        }
        reports.push(PairReport {
            pair: pair.index,
            label: Arc::clone(&pair.record.label),
            outcome: step.outcome,
            health,
            containment: pair.record.mitigation.state(),
            retries,
            backoff_us,
        });
    }

    /// One walk over the pair table: the pair-state tallies and per-pair
    /// sums of a [`MetricsSnapshot`].
    fn snapshot_tally(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            pairs: self.pairs.len(),
            ..MetricsSnapshot::default()
        };
        let mut confidence_sum = 0.0f64;
        for pair in &self.pairs {
            let (record, mitigation) = (&pair.record, &pair.record.mitigation);
            snap.failures += record.failures;
            snap.panics += record.panics;
            snap.deadline_misses += record.deadline_misses;
            snap.retries += record.retries;
            snap.quarantined_pairs += usize::from(record.breaker.is_quarantined());
            snap.covert_pairs += usize::from(pair.last_verdict.is_covert());
            snap.contained_pairs += usize::from(mitigation.state().is_active());
            snap.mitigations_applied += mitigation.applies();
            snap.mitigation_failures += mitigation.apply_failures();
            snap.mitigation_escalations += mitigation.escalations();
            snap.mitigation_stepdowns += mitigation.step_downs();
            confidence_sum += record.confidence;
        }
        if !self.pairs.is_empty() {
            snap.mean_confidence = confidence_sum / self.pairs.len() as f64;
        }
        snap
    }

    /// Pushes the pair-state gauges — covert, quarantined and contained
    /// pair counts and the confidence distribution — from one plain pass
    /// over the pair table, which also hands `suspect` each pair's
    /// evidence share and label (the fleet's top-k suspicious pairs). The
    /// distribution is tallied without atomics and published in one call.
    /// Runs at scrape time (and before a checkpoint's metrics dump), never
    /// on the tick path.
    pub(crate) fn refresh_gauges<'a>(&'a self, mut suspect: impl FnMut(f64, &'a Arc<str>)) {
        let metrics = &self.metrics;
        let mut confidences = metrics.confidence.tally();
        let (mut covert, mut quarantined, mut contained) = (0usize, 0usize, 0usize);
        for pair in &self.pairs {
            let record = &pair.record;
            covert += usize::from(pair.last_verdict.is_covert());
            quarantined += usize::from(record.breaker.is_quarantined());
            contained += usize::from(record.mitigation.state().is_active());
            confidences.observe(record.confidence);
            suspect(pair.evidence, &record.label);
        }
        metrics.confidence.reset();
        confidences.publish();
        metrics.covert_pairs.set(covert as f64);
        metrics.quarantined_pairs.set(quarantined as f64);
        metrics.contained_pairs.set(contained as f64);
    }

    /// Zeroes the pair-state gauges `refresh_gauges` pushes, for a shard
    /// being buried: its registry stays scrapeable post-mortem with its
    /// counters, but its pairs are counted where they land, not twice.
    pub(crate) fn clear_pair_gauges(&self) {
        let metrics = &self.metrics;
        metrics.confidence.reset();
        for gauge in [
            &metrics.covert_pairs,
            &metrics.quarantined_pairs,
            &metrics.contained_pairs,
        ] {
            gauge.set(0.0);
        }
    }

    /// One pair's containment policy (None for an out-of-range slot).
    pub(crate) fn mitigation(&self, slot: usize) -> Option<&MitigationPolicy> {
        self.pairs.get(slot).map(|p| &p.record.mitigation)
    }

    /// [`Supervisor::mitigation`], mutably.
    pub(crate) fn mitigation_mut(&mut self, slot: usize) -> Option<&mut MitigationPolicy> {
        self.pairs.get_mut(slot).map(|p| &mut p.record.mitigation)
    }

    /// Brings a panicked pair's detector back through the admit path, with
    /// the window its own label lists in the store's newest valid manifest
    /// when there is one, otherwise an empty one. The pair stays on this
    /// shard, so it keeps reporting its last verdict until its next
    /// analysis (a Clean one floors to Inconclusive if the rebuild
    /// degraded it), and its armed failures stay armed. Never fails.
    fn rebuild_detector(&mut self, idx: usize) -> Recovery {
        let (record, kept) = (&self.pairs[idx].record, self.pairs[idx].last_verdict);
        let stored = self.store.as_ref().and_then(|store| {
            let roster = Roster::read(store, &self.config).ok().flatten()?;
            roster.recall(store, &record.label, record.kind)
        });
        let source = stored.map_or(WindowSource::Fresh, |(_, window)| window);
        let mut rebuilt = self.admitted(self.pairs[idx].index, record.clone(), source);
        rebuilt.last_verdict = kept;
        rebuilt.faults = std::mem::take(&mut self.pairs[idx].faults);
        let recovery = match rebuilt.record.restored_from {
            Some(from) => Recovery::RestoredFromStore {
                generation: from.generation,
            },
            None => Recovery::Reset,
        };
        self.counts -= PairCounts::of(&self.pairs[idx]);
        self.counts += PairCounts::of(&rebuilt);
        self.pairs[idx] = rebuilt;
        recovery
    }

    /// The standing of the pair at `slot` on shard `shard`, as the fleet
    /// publishes it (None for an out-of-range slot).
    pub(crate) fn pair_status(&self, slot: usize, shard: usize) -> Option<FleetPairStatus> {
        Some(self.pairs.get(slot)?.status(Some(shard)))
    }

    /// The fleet indices of the hosted pairs, in slot order.
    pub(crate) fn hosted(&self) -> impl Iterator<Item = usize> + '_ {
        self.pairs.iter().map(|p| p.index)
    }

    /// Durably checkpoints the shard (the manifest, stamped with
    /// coordinator tick `tick`, then every pair's window) to the attached
    /// store as one entry. Returns its new generation.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] when no store is attached
    /// and any store/serialization error. A failed checkpoint never
    /// corrupts previously stored generations (every write is atomic).
    pub(crate) fn checkpoint(&self, tick: u64) -> Result<u64, DetectorError> {
        let store = self
            .store
            .as_ref()
            .ok_or(DetectorError::invalid("no checkpoint store attached"))?;
        let generation = store.save_with(MANIFEST_NAME, |out| self.write_checkpoint(tick, out))?;
        let prune = &self.checkpoints_before_prune;
        if prune.load(Ordering::Relaxed) > 0
            && prune.fetch_sub(1, Ordering::Relaxed) == 1
            && store.remove_entries(is_pair_entry).is_err()
        {
            // Listing failed: try again after the next checkpoint.
            prune.store(1, Ordering::Relaxed);
        }
        // Drop a Prometheus-text metrics dump next to the checkpoint so the
        // shard's last known state is scrapeable post-mortem.
        self.refresh_gauges(|_, _| {});
        store.write_sidecar("metrics.prom", self.registry.render_prometheus().as_bytes())?;
        self.metrics.checkpoints.inc();
        if self.tracer.is_enabled() {
            self.tracer.event(
                "supervisor",
                "checkpoint",
                format_args!("generation {generation} at tick {tick}"),
            );
        }
        Ok(generation)
    }

    /// Appends the payload of one checkpoint at coordinator tick `tick`
    /// to `out`: the manifest, then a window section holding, in roster
    /// order, a `window,<idx>,<bytes>` line and that many bytes of each
    /// pair's window checkpoint ([`parse_manifest`] reads it back). The
    /// shared substrate of [`Supervisor::checkpoint`] and the shadow
    /// checkpoints of durability-degraded mode.
    fn write_checkpoint(&self, tick: u64, out: &mut Vec<u8>) -> Result<(), DetectorError> {
        let manifest = write_manifest(tick, self.pairs.iter().map(|p| &p.record));
        out.extend_from_slice(manifest.as_bytes());
        let mut window = Vec::new();
        for (idx, pair) in self.pairs.iter().enumerate() {
            window.clear();
            pair.window.checkpoint(&mut window)?;
            out.extend_from_slice(format!("window,{idx},{}\n", window.len()).as_bytes());
            out.extend_from_slice(&window);
        }
        Ok(())
    }

    /// The Phase-4 checkpoint attempt with durability-degraded fallback:
    /// on success (re-)enters [`Durability::Durable`] (a success while
    /// degraded *is* the full re-persist — the manifest and every pair's
    /// window were just rewritten); on a storage fault enters or stays in
    /// [`Durability::Degraded`] and takes an in-memory shadow checkpoint
    /// so the freshest fleet state still survives as long as the process
    /// does. Non-storage errors (serialization bugs) only count as
    /// checkpoint errors — they say nothing about the medium.
    fn checkpoint_or_degrade(&mut self, tick: u64) -> (Option<u64>, Option<String>) {
        match self.checkpoint(tick) {
            Ok(generation) => {
                if let Durability::Degraded { since_tick } = self.durability {
                    self.durability = Durability::Durable;
                    self.shadow = None;
                    self.metrics.durability_degraded.set(0.0);
                    self.metrics.durability_heals.inc();
                    if self.tracer.is_enabled() {
                        self.tracer.event(
                            "supervisor",
                            "durability-healed",
                            format_args!(
                                "full re-persist at tick {} (degraded since tick {since_tick})",
                                tick
                            ),
                        );
                    }
                }
                (Some(generation), None)
            }
            Err(e) => {
                self.metrics.checkpoint_errors.inc();
                if self.tracer.is_enabled() {
                    self.tracer.event("supervisor", "checkpoint-error", &e);
                }
                if matches!(e, DetectorError::StorageFault { .. }) {
                    if !self.durability.is_degraded() {
                        self.durability = Durability::Degraded { since_tick: tick };
                        self.metrics.durability_degraded.set(1.0);
                        if self.tracer.is_enabled() {
                            self.tracer.event(
                                "supervisor",
                                "durability-degraded",
                                format_args!("checkpoints shadow-only from tick {tick}"),
                            );
                        }
                    }
                    let mut payload = Vec::new();
                    if self.write_checkpoint(tick, &mut payload).is_ok() {
                        self.shadow = Some(ShadowCheckpoint { tick, payload });
                        self.metrics.shadow_checkpoints.inc();
                    }
                }
                (None, Some(e.to_string()))
            }
        }
    }

    /// Whether checkpoints are currently landing durably or shadow-only.
    pub(crate) fn durability(&self) -> Durability {
        self.durability
    }

    /// The freshest in-memory shadow checkpoint, when storage is (or
    /// recently was) degraded.
    pub(crate) fn shadow_checkpoint(&self) -> Option<&ShadowCheckpoint> {
        self.shadow.as_ref()
    }

    /// Removes the pair at `slot` and hands back its record and live
    /// window, for admission on another shard (the drain/rebalance
    /// primitive). The removal is `swap_remove` — the *last* pair takes
    /// the removed pair's slot, and the caller owns fixing any external
    /// slot maps. `None` for an out-of-range slot.
    pub(crate) fn remove_pair(&mut self, slot: usize) -> Option<(PairRecord, OnlineWindow)> {
        (slot < self.pairs.len()).then(|| {
            let pair = self.pairs.swap_remove(slot);
            self.counts -= PairCounts::of(&pair);
            (pair.record, pair.window)
        })
    }

    /// Records that this shard's store was read back at restart: seeds the
    /// shard tick counter with the manifest's tick so scrapes stay
    /// monotonic, and counts the corrupt generations the read rolled over.
    pub(crate) fn note_restore(&self, roster: &Roster) {
        self.metrics.ticks.seed(roster.tick);
        let rolled_back = roster.from.rolled_back as u64;
        if rolled_back > 0 {
            self.metrics.restore_rollbacks.inc_by(rolled_back);
        }
        if self.tracer.is_enabled() {
            self.tracer.event(
                "supervisor",
                "restore",
                format_args!(
                    "{} pairs recovered at tick {}, {rolled_back} generations rolled back",
                    roster.records.len(),
                    roster.tick
                ),
            );
        }
    }

    /// The per-pair analysis latency distribution, for fleet rollups.
    pub(crate) fn audit_latency(&self) -> &Histogram {
        &self.metrics.audit_latency_us
    }

    /// A point-in-time numeric digest of this shard, read from its private
    /// registry and pair table. `ticks` counts shard ticks; monotonic
    /// per-pair totals travel with pairs across restart and migration;
    /// latency distributions restart per process. `ingest` is left empty
    /// (the fleet owns the ingest pipelines).
    pub(crate) fn metrics_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            ticks: self.metrics.ticks.get(),
            analyzed: self.metrics.analyzed.get(),
            degraded: self.metrics.degraded.get(),
            quarantine_skips: self.metrics.quarantine_skips.get(),
            verdict_flips: self.metrics.verdict_flips.get(),
            breaker_transitions: self.metrics.breaker_transitions.get(),
            recoveries: self.metrics.recoveries.get(),
            checkpoints: self.metrics.checkpoints.get(),
            checkpoint_errors: self.metrics.checkpoint_errors.get(),
            restore_rollbacks: self.metrics.restore_rollbacks.get(),
            durability_degraded: self.durability.is_degraded(),
            shadow_checkpoints: self.metrics.shadow_checkpoints.get(),
            durability_heals: self.metrics.durability_heals.get(),
            audit_latency: LatencySummary::from_histogram(&self.metrics.audit_latency_us),
            tick_latency: LatencySummary::from_histogram(&self.metrics.tick_latency_us),
            ..self.snapshot_tally()
        }
    }
}

/// Runs one input through a pair's window, reading an encoded harvest's
/// bytes from its `batch` bytes. The bool reports whether the quantum was actually
/// observed (false = gap). A wrong-kind input is the
/// window's typed [`DetectorError::BadHarvest`].
fn analyze(window: &mut OnlineWindow, input: &SlotInput, batch: &[u8]) -> AnalysisResult {
    let input = match input {
        SlotInput::Encoded { bytes, weight } => {
            return Ok((window.push_encoded(&batch[bytes.clone()], *weight)?, true));
        }
        SlotInput::Probed(input) => input,
    };
    match input {
        // A harvest with a histogram reaches here only on its way to an
        // oscillation pair, which refuses it: no contention slot is
        // copied.
        PairInput::Harvest(h) => {
            let observed = !matches!(h, Harvest::Missed);
            Ok((window.push_harvest(h.clone())?, observed))
        }
        PairInput::Conflicts {
            records,
            lost_fraction,
        } => Ok((window.push_conflicts(records, *lost_fraction)?, true)),
        PairInput::Missed => Ok((window.push_missed(), false)),
    }
}

/// The manifest of a shard holding `records`, in slot order, at
/// coordinator tick `tick`; [`parse_manifest`] reads it back.
fn write_manifest<'a>(tick: u64, records: impl ExactSizeIterator<Item = &'a PairRecord>) -> String {
    let mut manifest = format!("{MANIFEST_MAGIC}\ntick,{tick}\npairs,{}\n", records.len());
    for (idx, record) in records.enumerate() {
        record.write(idx, &mut manifest);
    }
    manifest.push_str("end\n");
    manifest
}

impl PairRecord {
    /// Appends this record's manifest lines as roster entry `idx`:
    /// `pair,<idx>,<kind>,<breaker>,<confidence>,<failures>,<panics>,
    /// <deadline-misses>,<retries>,<label…>`, then `mit,<idx>,<policy>`,
    /// then `deg,<idx>` when degraded. The tagged lines follow their pair
    /// line, so manifests written before containment and degraded mode
    /// existed still parse.
    fn write(&self, idx: usize, out: &mut String) {
        out.push_str(&format!(
            "pair,{idx},{},{},{},{},{},{},{},{}\nmit,{idx},{}\n",
            self.kind,
            self.breaker.serialize(),
            self.confidence,
            self.failures,
            self.panics,
            self.deadline_misses,
            self.retries,
            self.label,
            self.mitigation.serialize()
        ));
        if self.degraded {
            out.push_str(&format!("deg,{idx}\n"));
        }
    }
}

fn manifest_error(line: usize, reason: impl Into<String>) -> DetectorError {
    DetectorError::Trace(crate::trace::TraceError::Parse {
        line,
        reason: reason.into(),
    })
}

/// Where each listed pair's window lies in a checkpoint payload, in
/// roster order (see [`Supervisor::write_checkpoint`]); `None` when the
/// payload ends at its manifest.
type WindowRanges = Option<Vec<Range<usize>>>;

/// Parses a checkpoint payload: the manifest written by
/// [`PairRecord::write`] into its tick and pair records, in slot order,
/// and the window section after it into [`WindowRanges`], under the
/// shard's `config`. A pair without a `mit,` line gets an idle containment
/// policy.
fn parse_manifest(
    payload: &[u8],
    config: &SupervisorConfig,
) -> Result<(u64, Vec<PairRecord>, WindowRanges), DetectorError> {
    let (mut tick, mut declared, mut pairs) = (None, None, Vec::<PairRecord>::new());
    // The pair whose `mit,` line has been read, to refuse a duplicate.
    let mut annotated: Option<usize> = None;
    let (mut saw_magic, mut saw_end) = (false, false);
    // The byte offset just past the line read last.
    let mut read = 0;
    for (idx, line) in payload.split_inclusive(|&b| b == b'\n').enumerate() {
        let line_no = idx + 1;
        read += line.len();
        let bad = |reason: String| manifest_error(line_no, reason);
        let text = std::str::from_utf8(line)
            .map_err(|e| bad(format!("unreadable line: {e}")))?
            .trim();
        if text.is_empty() {
            continue;
        }
        if !saw_magic {
            if text != MANIFEST_MAGIC {
                return Err(bad(format!(
                    "expected {MANIFEST_MAGIC:?} magic, got {text:?}"
                )));
            }
            saw_magic = true;
            continue;
        }
        if text == "end" {
            saw_end = true;
            break;
        }
        let (tag, rest) = text.split_once(',').unwrap_or((text, ""));
        match tag {
            "tick" => tick = Some(parse_field::<u64>(Some(rest), "tick", line_no)?),
            "pairs" => {
                let n: usize = parse_field(Some(rest), "pair count", line_no)?;
                if n > 65_536 {
                    return Err(bad(format!("absurd pair count {n} (limit 65536)")));
                }
                declared = Some(n);
            }
            "pair" => {
                // pair,<idx>,<kind>,<breaker>,<confidence>,
                //      <failures>,<panics>,<deadline-misses>,<retries>,<label…>
                let mut fields = rest.splitn(9, ',');
                let at: usize = parse_field(fields.next(), "pair index", line_no)?;
                if at != pairs.len() {
                    let expected = pairs.len();
                    return Err(bad(format!(
                        "pair index {at} out of order (expected {expected})"
                    )));
                }
                let kind = match fields.next().unwrap_or("").trim() {
                    "contention" => PairKind::Contention,
                    "oscillation" => PairKind::Oscillation,
                    other => return Err(bad(format!("unknown pair kind {other:?}"))),
                };
                let breaker_field = fields.next().unwrap_or("");
                let breaker = CircuitBreaker::deserialize(&config.quarantine, breaker_field)
                    .ok_or_else(|| bad(format!("bad breaker state {breaker_field:?}")))?;
                let confidence: f64 = parse_field(fields.next(), "confidence", line_no)?;
                if !(0.0..=1.0).contains(&confidence) {
                    return Err(bad(format!("confidence {confidence} out of [0, 1]")));
                }
                let mut count = |what| parse_field::<u64>(fields.next(), what, line_no);
                let (failures, panics) = (count("failure count")?, count("panic count")?);
                let deadline_misses = count("deadline-miss count")?;
                let retries = count("retry count")?;
                pairs.push(PairRecord {
                    label: fields.next().unwrap_or("").into(),
                    kind,
                    breaker,
                    mitigation: MitigationPolicy::default(),
                    confidence,
                    degraded: false,
                    restored_from: None,
                    failures,
                    panics,
                    deadline_misses,
                    retries,
                });
            }
            "mit" | "deg" => {
                // mit,<idx>,<serialized policy> and deg,<idx> (degraded
                // mode): optional, each must follow the pair line it
                // annotates.
                let (at, policy) = match rest.split_once(',') {
                    Some((at, policy)) => (at, Some(policy)),
                    None => (rest, None),
                };
                if (tag == "mit") != policy.is_some() {
                    return Err(bad(format!("malformed {tag} line")));
                }
                let at: usize = parse_field(Some(at), "annotated pair index", line_no)?;
                if pairs.len().checked_sub(1) != Some(at) {
                    return Err(bad(format!(
                        "{tag} line for pair {at} does not follow its pair entry"
                    )));
                }
                match policy {
                    None => pairs[at].degraded = true,
                    Some(_) if annotated.replace(at) == Some(at) => {
                        return Err(bad(format!("duplicate mitigation line for pair {at}")));
                    }
                    Some(policy) => {
                        pairs[at].mitigation = MitigationPolicy::deserialize(policy)
                            .ok_or_else(|| bad(format!("bad containment state {policy:?}")))?;
                    }
                }
            }
            other => return Err(bad(format!("unknown manifest tag {other:?}"))),
        }
    }
    if !saw_magic || !saw_end {
        let reason = "truncated manifest (missing magic or end)";
        return Err(manifest_error(0, reason));
    }
    let tick = tick.ok_or_else(|| manifest_error(0, "manifest has no tick line"))?;
    if let Some(n) = declared.filter(|&n| n != pairs.len()) {
        let reason = format!("manifest declares {n} pairs but lists {}", pairs.len());
        return Err(manifest_error(0, reason));
    }
    if read == payload.len() {
        return Ok((tick, pairs, None));
    }
    let mut windows = Vec::with_capacity(pairs.len());
    for idx in 0..pairs.len() {
        let bad = || manifest_error(0, format!("malformed window section at pair {idx}"));
        let header = payload[read..].split(|&b| b == b'\n').next().unwrap_or(&[]);
        let len: usize = std::str::from_utf8(header)
            .ok()
            .and_then(|h| h.strip_prefix(&format!("window,{idx},"))?.parse().ok())
            .ok_or_else(bad)?;
        let start = read + header.len() + 1;
        read = start
            .checked_add(len)
            .filter(|&end| end <= payload.len())
            .ok_or_else(bad)?;
        windows.push(start..read);
    }
    if read != payload.len() {
        return Err(manifest_error(0, "trailing bytes after the window section"));
    }
    Ok((tick, pairs, Some(windows)))
}

/// Parses manifest field `what` of line `line_no`.
fn parse_field<T>(field: Option<&str>, what: &str, line_no: usize) -> Result<T, DetectorError>
where
    T: std::str::FromStr,
    T::Err: fmt::Display,
{
    let text = field.unwrap_or("").trim();
    text.parse()
        .map_err(|e| manifest_error(line_no, format!("bad {what} {text:?}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::{DensityHistogram, HISTOGRAM_BINS};
    use crate::fault::FleetFault;
    use crate::mitigation::{AdvisoryEnforcer, ApplyError, MitigationLevel};
    use crate::shard::{ShardedFleet, ShardedFleetConfig};
    use std::path::{Path, PathBuf};
    use std::sync::{Arc, Mutex};

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

    fn covert_source(_pair: usize, _tick: u64, _attempt: u32) -> Result<PairInput, ProbeFault> {
        Ok(PairInput::Harvest(Harvest::Complete(covert_histogram())))
    }

    fn test_config() -> SupervisorConfig {
        SupervisorConfig {
            window_quanta: 8,
            ..SupervisorConfig::default()
        }
    }

    fn one_shard(config: SupervisorConfig) -> ShardedFleetConfig {
        ShardedFleetConfig {
            shards: 1,
            base: config,
            ..ShardedFleetConfig::default()
        }
    }

    /// The supervised audit service: a one-shard fleet.
    fn fleet(config: SupervisorConfig) -> ShardedFleet {
        ShardedFleet::new(one_shard(config)).unwrap()
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cchunter-supervisor-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cleanup(root: &Path) {
        let _ = std::fs::remove_dir_all(root);
    }

    /// One tick of a one-shard fleet, returning the shard's report.
    fn tick<S: ProbeSource + ?Sized>(fleet: &mut ShardedFleet, source: &mut S) -> TickReport {
        fleet
            .tick(source)
            .shard_reports
            .swap_remove(0)
            .expect("shard 0 is live")
    }

    fn statuses(fleet: &ShardedFleet) -> Vec<crate::shard::FleetPairStatus> {
        fleet.pair_statuses()
    }

    #[test]
    fn healthy_fleet_detects_and_reports() {
        let mut fleet = fleet(test_config());
        fleet.add_contention_pair("bus").unwrap();
        fleet.add_contention_pair("divider").unwrap();
        let mut source = |pair: usize, _tick: u64, _attempt: u32| {
            Ok::<_, ProbeFault>(PairInput::Harvest(Harvest::Complete(if pair == 0 {
                covert_histogram()
            } else {
                quiet_histogram()
            })))
        };
        for _ in 0..6 {
            let report = tick(&mut fleet, &mut source);
            assert_eq!(report.reports.len(), 2);
            for r in &report.reports {
                assert!(matches!(r.outcome, PairOutcome::Analyzed(_)), "{r:?}");
            }
        }
        let statuses = statuses(&fleet);
        assert!(statuses[0].verdict.is_covert(), "{statuses:?}");
        assert_eq!(statuses[1].verdict, Verdict::Clean);
        assert!(statuses
            .iter()
            .all(|s| s.health == Some(BreakerState::Closed)));
    }

    #[test]
    fn panicking_pair_is_contained_and_does_not_poison_the_batch() {
        let mut fleet = fleet(test_config());
        fleet.add_contention_pair("healthy").unwrap();
        fleet.add_contention_pair("panicky").unwrap();
        fleet.arm(FleetFault::PairPanic(1, 1)).unwrap();
        let mut source = covert_source;
        let report = tick(&mut fleet, &mut source);
        assert!(matches!(
            report.reports[0].outcome,
            PairOutcome::Analyzed(_)
        ));
        match &report.reports[1].outcome {
            PairOutcome::Failed { error, recovery } => {
                assert!(matches!(error, DetectorError::AnalysisPanicked { .. }));
                assert_eq!(*recovery, Recovery::Reset, "no store attached");
            }
            other => panic!("expected contained panic, got {other:?}"),
        }
        assert_eq!(statuses(&fleet)[1].panics, 1);
        // The healthy pair keeps working on subsequent ticks.
        let report = tick(&mut fleet, &mut source);
        assert!(matches!(
            report.reports[0].outcome,
            PairOutcome::Analyzed(_)
        ));
    }

    #[test]
    fn deadline_miss_is_typed_and_counted() {
        let mut fleet = fleet(SupervisorConfig {
            deadline_us: 500,
            ..test_config()
        });
        fleet.add_contention_pair("slow").unwrap();
        fleet.arm(FleetFault::PairStall(0, 5_000)).unwrap();
        let mut source = covert_source;
        let report = tick(&mut fleet, &mut source);
        match &report.reports[0].outcome {
            PairOutcome::Degraded { error, .. } => {
                assert!(
                    matches!(error, DetectorError::DeadlineExceeded { .. }),
                    "{error}"
                );
            }
            other => panic!("expected deadline degradation, got {other:?}"),
        }
        assert_eq!(statuses(&fleet)[0].deadline_misses, 1);
    }

    #[test]
    fn transient_misses_retry_with_recorded_backoff() {
        let mut fleet1 = fleet(test_config());
        fleet1.add_contention_pair("flaky").unwrap();
        // Fails twice per tick, then delivers.
        let mut source = |_pair: usize, _tick: u64, attempt: u32| {
            if attempt < 2 {
                Err(ProbeFault {
                    reason: "harvest deadline slipped".to_string(),
                })
            } else {
                Ok(PairInput::Harvest(Harvest::Complete(covert_histogram())))
            }
        };
        let report = tick(&mut fleet1, &mut source);
        assert!(matches!(
            report.reports[0].outcome,
            PairOutcome::Analyzed(_)
        ));
        assert_eq!(report.reports[0].retries, 2);
        assert!(report.reports[0].backoff_us > 0);
        assert_eq!(statuses(&fleet1)[0].retries, 2);
        // Deterministic: the same tick replayed yields the same schedule.
        let mut fleet2 = fleet(test_config());
        fleet2.add_contention_pair("flaky").unwrap();
        let report2 = tick(&mut fleet2, &mut source);
        assert_eq!(report.reports[0].backoff_us, report2.reports[0].backoff_us);
    }

    #[test]
    fn fully_faulty_pair_is_quarantined_and_neighbors_unaffected() {
        let config = SupervisorConfig {
            quarantine: QuarantineConfig {
                failure_window: 4,
                trip_threshold: 0.75,
                min_observations: 4,
                probe_interval: 8,
                recovery_successes: 2,
                confidence_decay: 0.5,
            },
            ..test_config()
        };
        let faulty_idx = 1usize;
        let run = |with_faulty: bool| {
            let mut fleet = fleet(config);
            fleet.add_contention_pair("good-0").unwrap();
            if with_faulty {
                fleet.add_contention_pair("broken").unwrap();
            }
            fleet.add_contention_pair("good-1").unwrap();
            let mut verdicts: Vec<Vec<Verdict>> = Vec::new();
            for _ in 0..12 {
                let report = tick(&mut fleet, &mut |pair: usize, _tick: u64, _attempt: u32| {
                    if with_faulty && pair == faulty_idx {
                        Err(ProbeFault {
                            reason: "dead monitor".to_string(),
                        })
                    } else {
                        Ok(PairInput::Harvest(Harvest::Complete(covert_histogram())))
                    }
                });
                verdicts.push(
                    report
                        .reports
                        .iter()
                        .filter_map(|r| match &r.outcome {
                            PairOutcome::Analyzed(s) => Some((r.label.clone(), s.verdict)),
                            _ => None,
                        })
                        .filter(|(label, _)| label.starts_with("good"))
                        .map(|(_, v)| v)
                        .collect(),
                );
            }
            (statuses(&fleet), verdicts)
        };
        let (with_statuses, with_verdicts) = run(true);
        let (without_statuses, without_verdicts) = run(false);

        // The 100%-faulty pair trips open within the 4-outcome window.
        assert!(
            with_statuses[faulty_idx].health != Some(BreakerState::Closed),
            "faulty pair must be quarantined: {with_statuses:?}"
        );
        assert!(with_statuses[faulty_idx].failures >= 4);
        // And the healthy pairs' verdict sequences are identical with or
        // without the broken neighbor.
        assert_eq!(with_verdicts, without_verdicts);
        assert!(with_statuses[0].verdict.is_covert());
        assert!(with_statuses[2].verdict.is_covert());
        assert_eq!(without_statuses[0].verdict, with_statuses[0].verdict);
    }

    #[test]
    fn quarantined_pair_skips_decay_confidence_and_recovers() {
        let mut fleet = fleet(SupervisorConfig {
            quarantine: QuarantineConfig {
                failure_window: 4,
                trip_threshold: 0.5,
                min_observations: 2,
                probe_interval: 3,
                recovery_successes: 1,
                confidence_decay: 0.5,
            },
            ..test_config()
        });
        fleet.add_contention_pair("wobbly").unwrap();
        // Faulty for the first 4 ticks, healthy afterwards.
        let mut source = |_pair: usize, tick: u64, _attempt: u32| {
            if tick < 4 {
                Err(ProbeFault {
                    reason: "flapping".to_string(),
                })
            } else {
                Ok(PairInput::Harvest(Harvest::Complete(covert_histogram())))
            }
        };
        let mut saw_skip = false;
        let mut recovered = false;
        for _ in 0..12 {
            let report = tick(&mut fleet, &mut source);
            match &report.reports[0].outcome {
                PairOutcome::Skipped { confidence } => {
                    saw_skip = true;
                    assert!(*confidence < 1.0);
                }
                PairOutcome::Analyzed(_) if saw_skip => {
                    recovered = true;
                }
                _ => {}
            }
        }
        assert!(saw_skip, "quarantine must skip ticks");
        assert!(recovered, "recovery probes must close the breaker");
        assert_eq!(statuses(&fleet)[0].health, Some(BreakerState::Closed));
    }

    /// Every window of a pair table shares the table's one configuration:
    /// fresh, moved in from another table and rebuilt after a panic alike.
    #[test]
    fn windows_share_one_configuration() {
        let table = || Supervisor::new(test_config(), Registry::new(), Tracer::disabled());
        let (mut table, mut other) = (table().unwrap(), table().unwrap());
        let shared = Arc::clone(table.blank.config());
        for (index, (label, kind)) in [
            ("bus: t <-> s", PairKind::Contention),
            ("l2: t <-> s", PairKind::Oscillation),
        ]
        .into_iter()
        .enumerate()
        {
            let record = other.record(label.into(), kind);
            other.admit(index, record, WindowSource::Fresh);
        }
        let (record, window) = other.remove_pair(0).unwrap();
        assert!(!Arc::ptr_eq(window.config(), &shared));
        table.admit(0, record, WindowSource::Live(window));
        let record = table.record("mul: t <-> s".into(), PairKind::Contention);
        table.admit(2, record, WindowSource::Fresh);
        table.rebuild_detector(0);
        assert!(table
            .pairs
            .iter()
            .all(|p| Arc::ptr_eq(p.window.config(), &shared)));
        // `shared`, the blank window and the two pairs' windows.
        assert_eq!(Arc::strong_count(&shared), 4);
    }

    #[test]
    fn checkpoint_restore_roundtrips_fleet_state() {
        let root = temp_root("roundtrip");
        let config = one_shard(test_config());
        let add_pairs = |fleet: &mut ShardedFleet| {
            fleet.add_contention_pair("bus: t <-> s").unwrap();
            fleet.add_oscillation_pair("l2: t <-> s").unwrap();
        };
        let mut fleet = ShardedFleet::with_store_root(config.clone(), &root).unwrap();
        add_pairs(&mut fleet);
        let mut source = |pair: usize, _tick: u64, _attempt: u32| {
            Ok::<_, ProbeFault>(match pair {
                0 => PairInput::Harvest(Harvest::Complete(covert_histogram())),
                _ => PairInput::Missed,
            })
        };
        for _ in 0..5 {
            fleet.tick(&mut source);
        }
        fleet.checkpoint().unwrap();
        drop(fleet);

        // Restart: reopen the root and name the pairs again.
        let mut restored = ShardedFleet::with_store_root(config, &root).unwrap();
        assert_eq!(restored.tick_count(), 5);
        add_pairs(&mut restored);
        assert_eq!(restored.metrics_snapshot().restore_rollbacks, 0);
        let statuses = statuses(&restored);
        assert_eq!(statuses[0].label, "bus: t <-> s");
        assert_eq!(statuses[0].kind, PairKind::Contention);
        assert_eq!(statuses[1].kind, PairKind::Oscillation);
        assert!(statuses.iter().all(|s| s.restored_from.is_some()));
        // Standing is unknown until fresh evidence: never Clean.
        assert!(statuses.iter().all(|s| s.verdict == Verdict::Inconclusive));
        cleanup(&root);
    }

    #[test]
    fn empty_store_root_starts_fresh() {
        let root = temp_root("empty");
        let mut fleet = ShardedFleet::with_store_root(one_shard(test_config()), &root).unwrap();
        assert_eq!(fleet.tick_count(), 0);
        fleet.add_contention_pair("bus").unwrap();
        let status = &statuses(&fleet)[0];
        assert!(status.restored_from.is_none());
        assert_eq!(status.verdict, Verdict::Clean);
        cleanup(&root);
    }

    #[test]
    fn fleet_metrics_snapshot_counts_outcomes() {
        let tracer = Tracer::new(256);
        let mut fleet = fleet(test_config()).with_tracer(tracer.clone());
        fleet.add_contention_pair("bus").unwrap();
        fleet.add_contention_pair("chaotic").unwrap();
        fleet.arm(FleetFault::PairPanic(1, 1)).unwrap();
        let mut source = covert_source;
        for _ in 0..6 {
            fleet.tick(&mut source);
        }
        let snap = fleet.metrics_snapshot();
        assert_eq!(snap.ticks, 6);
        assert_eq!(snap.pairs, 2);
        assert_eq!(snap.analyzed, 11, "{snap:?}");
        assert_eq!(snap.panics, 1);
        assert_eq!(snap.recoveries, 1);
        assert_eq!(snap.failures, 1);
        assert!(snap.verdict_flips >= 1, "{snap:?}");
        assert_eq!(snap.covert_pairs, 2);
        assert_eq!(snap.audit_latency.count, 11);
        assert_eq!(snap.tick_latency.count, 6);
        let text = fleet.render_prometheus();
        assert!(
            text.contains("cchunter_supervisor_ticks_total{shard=\"0\"} 6"),
            "{text}"
        );
        assert!(
            text.contains("cchunter_pairs_recoveries_total{shard=\"0\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("cchunter_pairs_covert{shard=\"0\"} 2"),
            "{text}"
        );
        assert_eq!(
            statuses(&fleet)[1].panics,
            1,
            "the panic is the chaotic pair's"
        );
        assert!(tracer.recorded() > 0, "tick spans must be traced");
        let status = fleet.fleet_status();
        assert_eq!(status.tick, 6);
        assert_eq!(status.pairs.len(), 2);
        assert_eq!(status.metrics, snap);
    }

    #[test]
    fn restore_carries_persistent_counters_in_the_pair_table() {
        let root = temp_root("metrics-restore");
        let config = one_shard(test_config());
        let mut fleet = ShardedFleet::with_store_root(config.clone(), &root).unwrap();
        fleet.add_contention_pair("flaky").unwrap();
        let mut source = |_pair: usize, tick: u64, _attempt: u32| {
            if tick.is_multiple_of(2) {
                Err(ProbeFault {
                    reason: "gap".to_string(),
                })
            } else {
                Ok(PairInput::Harvest(Harvest::Complete(covert_histogram())))
            }
        };
        for _ in 0..6 {
            fleet.tick(&mut source);
        }
        fleet.checkpoint().unwrap();
        let before = fleet.metrics_snapshot();
        assert!(before.failures > 0 && before.retries > 0, "{before:?}");
        assert_eq!(before.checkpoints, 1);
        drop(fleet);

        let mut restored = ShardedFleet::with_store_root(config, &root).unwrap();
        restored.add_contention_pair("flaky").unwrap();
        let after = restored.metrics_snapshot();
        assert_eq!(after.failures, before.failures);
        assert_eq!(after.retries, before.retries);
        assert_eq!(after.ticks, before.ticks);
        // The persisted per-pair counters came back with the pair, so the
        // pair table stays monotonic across the crash.
        assert_eq!(statuses(&restored)[0].failures, before.failures);
        assert_eq!(statuses(&restored)[0].retries, before.retries);
        // metrics.prom was dumped beside the checkpoint and parses back.
        let dump = std::fs::read_to_string(root.join("shard-00").join("metrics.prom")).unwrap();
        let scrape = crate::metrics::parse_prometheus(&dump);
        assert!(scrape.is_clean(), "{:?}", scrape.skipped);
        assert!(scrape
            .samples
            .iter()
            .any(|s| s.name == "cchunter_supervisor_ticks_total"));
        drop(restored);
        cleanup(&root);
    }

    impl Supervisor {
        /// Fleet pair `index` as this table admits a new one, held outside
        /// any table: a reference model's pair.
        pub(crate) fn fresh_pair(&self, index: usize, label: &str, kind: PairKind) -> Pair {
            self.admitted(index, self.record(label.into(), kind), WindowSource::Fresh)
        }

        /// The window of the pair at `slot`.
        pub(crate) fn window_of(&self, slot: usize) -> Option<&OnlineWindow> {
            self.pairs.get(slot).map(|p| &p.window)
        }

        /// The label and evidence share of the pair at `slot`.
        pub(crate) fn evidence_of(&self, slot: usize) -> Option<(&str, f64)> {
            self.pairs.get(slot).map(|p| (&*p.record.label, p.evidence))
        }

        /// Sends the pair at `slot` through checkpoint text and back, the
        /// way moves went before they went by value: its window through
        /// `checkpoint` → `restore`, its breaker and containment through
        /// their manifest forms.
        pub(crate) fn round_trip_through_text(&mut self, slot: usize) {
            let pair = &mut self.pairs[slot];
            let mut text = Vec::new();
            pair.window.checkpoint(&mut text).unwrap();
            let config = Arc::clone(self.blank.config());
            pair.window = OnlineWindow::restore(pair.record.kind, config, text.as_slice()).unwrap();
            let record = &mut pair.record;
            let breaker = record.breaker.serialize();
            record.breaker =
                CircuitBreaker::deserialize(&self.config.quarantine, &breaker).unwrap();
            record.mitigation =
                MitigationPolicy::deserialize(&record.mitigation.serialize()).unwrap();
        }
    }

    impl Supervisor {
        /// One whole shard tick over `batch`: open, step, finish.
        pub(crate) fn tick<E: MitigationEnforcer + ?Sized>(
            &mut self,
            tick: u64,
            batch: &mut ShardBatch,
            enforcer: &mut E,
        ) -> TickReport {
            self.begin_tick(Vec::new());
            self.step(tick, batch, enforcer);
            self.finish_tick(tick)
        }
    }

    impl Pair {
        /// Steps the pair at `tick` under `config` the way a shard tick
        /// does, on `probed` (`None`: its breaker held it back, see
        /// [`Pair::should_attempt`]), taking no time: a reference model's
        /// tick. The input goes through a one-cell `batch`, as at the probe.
        pub(crate) fn step_probed<E: MitigationEnforcer + ?Sized>(
            &mut self,
            tick: u64,
            config: &SupervisorConfig,
            probed: Option<ProbedInput>,
            batch: &mut ShardBatch,
            enforcer: &mut E,
        ) -> Step {
            let Some(probed) = probed else {
                return self.step(tick, config, 0, PairEvent::Skipped, enforcer);
            };
            let retries = probed.retries;
            batch.reset();
            batch.file(0, self.record.kind, Some(probed));
            let input = &batch.cells[0].1.as_ref().expect("a filed cell").input;
            let pushed = analyze(&mut self.window, input, &batch.bytes);
            let event = PairEvent::Analyzed {
                pushed,
                elapsed_us: 0,
            };
            self.step(tick, config, retries, event, enforcer)
        }

        /// Whether the pair's breaker lets it be probed at `tick` under
        /// `config`.
        pub(crate) fn should_attempt(&self, config: &SupervisorConfig, tick: u64) -> bool {
            self.record.breaker.should_attempt(&config.quarantine, tick)
        }

        /// Records a residual reading into the pair's containment policy.
        pub(crate) fn record_residual(&mut self, reading: crate::mitigation::ResidualReading) {
            self.record.mitigation.record_residual(reading);
        }
    }

    /// The manifest codec re-emits a manifest written before `PairRecord`
    /// existed byte for byte: every breaker and containment state, a
    /// degraded pair and labels with commas.
    #[test]
    fn manifest_records_rewrite_the_golden_manifest_byte_for_byte() {
        let golden = include_str!("../tests/golden/supervisor_manifest_v1.txt");
        let config = SupervisorConfig::default();
        let (tick, records, windows) = parse_manifest(golden.as_bytes(), &config).unwrap();
        assert!(windows.is_none(), "the manifest carries no window section");
        assert_eq!(write_manifest(tick, records.iter()), golden);
    }

    #[test]
    fn manifest_parser_rejects_garbage() {
        let config = &SupervisorConfig::default();
        for bad in [
            &b""[..],
            b"not-a-manifest\nend\n",
            b"cchunter-supervisor,v1\ntick,5\n", // no end
            b"cchunter-supervisor,v1\ntick,5\npairs,2\npair,0,contention,closed;0;0;,1,x\nend\n",
            b"cchunter-supervisor,v1\ntick,5\npair,0,weird,closed;0;0;,1,x\nend\n",
            b"cchunter-supervisor,v1\ntick,5\npair,0,contention,closed;0;0;,7,x\nend\n",
            // Mitigation line with no preceding pair entry.
            b"cchunter-supervisor,v1\ntick,5\nmit,0,inactive;-;0;0;0;0;0;0;0;0;-;-\nend\n",
            // Garbled containment state.
            b"cchunter-supervisor,v1\ntick,5\npair,0,contention,closed;0;0;,1,0,0,0,0,x\nmit,0,contained;warp\nend\n",
            // A degraded mark naming the largest pair index.
            b"cchunter-supervisor,v1\ntick,5\npair,0,contention,closed;0;0;,1,0,0,0,0,x\ndeg,18446744073709551615\nend\n",
        ] {
            assert!(parse_manifest(bad, config).is_err(), "{bad:?}");
        }
        // A v1 manifest without mit lines still parses (idle policy).
        let ok =
            b"cchunter-supervisor,v1\ntick,5\npair,0,contention,closed;0;0;,1,0,0,0,0,x\nend\n";
        let (_, records, _) = parse_manifest(ok, config).unwrap();
        assert_eq!(records[0].mitigation, MitigationPolicy::default());
    }

    /// A checkpoint's window section must list every pair in order, each
    /// window's bytes exactly, and nothing after them.
    #[test]
    fn window_sections_are_read_whole() {
        let config = &SupervisorConfig::default();
        let manifest =
            "cchunter-supervisor,v1\ntick,5\npair,0,contention,closed;0;0;,1,0,0,0,0,x\nend\n";
        let parse =
            |section: &str| parse_manifest(format!("{manifest}{section}").as_bytes(), config);
        let (_, _, windows) = parse("window,0,3\nabc").unwrap();
        let start = manifest.len() + "window,0,3\n".len();
        let windows = windows.expect("a window section");
        assert_eq!((windows.len(), windows[0].clone()), (1, start..start + 3));
        for bad in [
            "window,1,3\nabc",
            "window,0,4\nabc",
            "window,0,3\nabcd",
            "window,0,x\n",
            "\n",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    /// Records enforcement calls; refuses every level in `refuse`. Clones
    /// share one log, so a test keeps a handle on the shard's enforcer.
    #[derive(Clone, Default)]
    struct RecordingEnforcer(Arc<Mutex<EnforcerLog>>);

    #[derive(Default)]
    struct EnforcerLog {
        applied: Vec<(usize, MitigationLevel)>,
        released: Vec<(usize, MitigationLevel)>,
        refuse: Vec<MitigationLevel>,
    }

    impl RecordingEnforcer {
        fn refusing(level: MitigationLevel) -> Self {
            let enforcer = RecordingEnforcer::default();
            enforcer.log().refuse.push(level);
            enforcer
        }

        fn log(&self) -> std::sync::MutexGuard<'_, EnforcerLog> {
            self.0.lock().unwrap()
        }

        /// A one-shard fleet actuating through this enforcer.
        fn install(&self, fleet: &mut ShardedFleet) {
            fleet.set_enforcer(0, Box::new(self.clone())).unwrap();
        }
    }

    impl MitigationEnforcer for RecordingEnforcer {
        fn apply(&mut self, pair: usize, level: MitigationLevel) -> Result<(), ApplyError> {
            let mut log = self.log();
            if log.refuse.contains(&level) {
                return Err(ApplyError {
                    reason: format!("chaos: {level} refused"),
                });
            }
            log.applied.push((pair, level));
            Ok(())
        }

        fn release(&mut self, pair: usize, level: MitigationLevel) -> Result<(), ApplyError> {
            self.log().released.push((pair, level));
            Ok(())
        }
    }

    #[test]
    fn covert_pair_is_convicted_and_contained() {
        let mut fleet = fleet(test_config());
        fleet.add_contention_pair("bus: trojan <-> spy").unwrap();
        fleet.add_contention_pair("benign").unwrap();
        let enforcer = RecordingEnforcer::default();
        enforcer.install(&mut fleet);
        let mut source = |pair: usize, _tick: u64, _attempt: u32| {
            Ok::<_, ProbeFault>(PairInput::Harvest(Harvest::Complete(if pair == 0 {
                covert_histogram()
            } else {
                quiet_histogram()
            })))
        };
        for _ in 0..12 {
            fleet.tick(&mut source);
        }
        let statuses = statuses(&fleet);
        assert!(
            statuses[0].containment.is_active(),
            "covert pair contained: {:?}",
            statuses[0].containment
        );
        assert_eq!(
            statuses[1].containment,
            ContainmentState::Inactive,
            "benign pair untouched"
        );
        let log = enforcer.log();
        assert!(log.applied.contains(&(0, MitigationLevel::FlushOnSwitch)));
        assert!(log.applied.iter().all(|(pair, _)| *pair == 0));
        assert!(fleet.containment_latency_ticks(0).is_some());
        let snapshot = fleet.metrics_snapshot();
        assert_eq!(snapshot.contained_pairs, 1);
        assert!(snapshot.mitigations_applied >= 1);
        let prom = fleet.render_prometheus();
        assert!(
            prom.contains("cchunter_contained_pairs{shard=\"0\"} 1"),
            "containment gauge exported: {prom}"
        );
        assert!(
            prom.contains("cchunter_pairs_mitigations_applied_total{shard=\"0\"}"),
            "mitigation counter exported: {prom}"
        );
    }

    #[test]
    fn refused_rung_escalates_instead_of_silently_dropping() {
        let mut fleet = fleet(test_config());
        fleet.add_contention_pair("bus").unwrap();
        let enforcer = RecordingEnforcer::refusing(MitigationLevel::FlushOnSwitch);
        enforcer.install(&mut fleet);
        let mut source = |_pair: usize, _tick: u64, _attempt: u32| {
            Ok::<_, ProbeFault>(PairInput::Harvest(Harvest::Complete(covert_histogram())))
        };
        for _ in 0..12 {
            fleet.tick(&mut source);
        }
        let containment = fleet.containment(0).unwrap();
        assert!(containment.is_active(), "{containment:?}");
        assert_ne!(
            containment.level(),
            Some(MitigationLevel::FlushOnSwitch),
            "refused first rung was escalated past: {containment:?}"
        );
        assert!(
            !enforcer
                .log()
                .applied
                .iter()
                .any(|(_, l)| *l == MitigationLevel::FlushOnSwitch),
            "the refused rung never took force"
        );
        let snapshot = fleet.metrics_snapshot();
        assert!(snapshot.mitigation_failures >= 1);
        assert!(snapshot.mitigation_escalations >= 1);
    }

    #[test]
    fn low_residual_steps_containment_back_down() {
        let mut fleet = fleet(SupervisorConfig {
            mitigation: MitigationConfig {
                convict_streak: 2,
                step_down_streak: 2,
                ..MitigationConfig::default()
            },
            ..test_config()
        });
        fleet.add_contention_pair("bus").unwrap();
        let enforcer = RecordingEnforcer::default();
        enforcer.install(&mut fleet);
        let mut covert_source = |_pair: usize, _tick: u64, _attempt: u32| {
            Ok::<_, ProbeFault>(PairInput::Harvest(Harvest::Complete(covert_histogram())))
        };
        for _ in 0..10 {
            fleet.tick(&mut covert_source);
        }
        assert!(fleet.containment(0).unwrap().is_active());
        // The channel goes quiet and the re-measured residual is ~zero:
        // the ladder walks back down to fully released.
        let mut quiet_source = |_pair: usize, _tick: u64, _attempt: u32| {
            Ok::<_, ProbeFault>(PairInput::Harvest(Harvest::Complete(quiet_histogram())))
        };
        for _ in 0..40 {
            fleet.report_residual(0, 0.0, 0.02).unwrap();
            fleet.tick(&mut quiet_source);
            if fleet.containment(0).unwrap() == ContainmentState::Inactive {
                break;
            }
        }
        assert_eq!(fleet.containment(0).unwrap(), ContainmentState::Inactive);
        assert!(enforcer
            .log()
            .released
            .contains(&(0, MitigationLevel::FlushOnSwitch)));
        assert!(fleet.metrics_snapshot().mitigation_stepdowns >= 1);
    }

    #[test]
    fn containment_survives_checkpoint_and_restore() {
        let root = temp_root("containment");
        let config = one_shard(test_config());
        let mut fleet = ShardedFleet::with_store_root(config.clone(), &root).unwrap();
        fleet.add_contention_pair("bus").unwrap();
        RecordingEnforcer::default().install(&mut fleet);
        let mut source = |_pair: usize, _tick: u64, _attempt: u32| {
            Ok::<_, ProbeFault>(PairInput::Harvest(Harvest::Complete(covert_histogram())))
        };
        for _ in 0..12 {
            fleet.tick(&mut source);
        }
        let containment = fleet.containment(0).unwrap();
        assert!(containment.is_active());
        let latency = fleet.containment_latency_ticks(0);
        fleet.checkpoint().unwrap();
        drop(fleet);

        // Kill-and-restore: the containment state comes back and the first
        // tick re-asserts it through the (fresh) enforcer, whose hardware
        // state did not survive the crash.
        let mut restored = ShardedFleet::with_store_root(config, &root).unwrap();
        restored.add_contention_pair("bus").unwrap();
        assert_eq!(restored.containment(0).unwrap(), containment);
        assert_eq!(restored.containment_latency_ticks(0), latency);
        let fresh_enforcer = RecordingEnforcer::default();
        fresh_enforcer.install(&mut restored);
        restored.tick(&mut source);
        assert_eq!(
            fresh_enforcer.log().applied,
            vec![(0, containment.level().unwrap())],
            "restored containment re-asserted"
        );
        drop(restored);
        cleanup(&root);
    }

    #[test]
    fn storage_brownout_degrades_durability_and_heals_with_full_repersist() {
        use crate::fault::{StorageFaultClass, StorageFaultConfig, StorageFaultInjector};

        let root = temp_root("durability");
        let injector = StorageFaultInjector::new(StorageFaultConfig::none(), 7);
        let config = one_shard(SupervisorConfig {
            checkpoint_every: 1,
            ..test_config()
        });
        let mut fleet = ShardedFleet::with_store_root_and_medium(
            config.clone(),
            &root,
            Arc::new(injector.clone()),
        )
        .unwrap();
        fleet.add_contention_pair("bus").unwrap();
        let mut source = |_pair: usize, _tick: u64, _attempt: u32| {
            Ok::<_, ProbeFault>(PairInput::Harvest(Harvest::Complete(covert_histogram())))
        };

        // Healthy medium: the due-tick checkpoint lands durably.
        let report = tick(&mut fleet, &mut source);
        let first_generation = report.checkpoint_generation.expect("durable checkpoint");
        assert_eq!(fleet.durability(), Durability::Durable);

        // Brownout: every write fails with ENOSPC. The fleet keeps ticking,
        // degrades durability, and shadows the freshest state in memory.
        injector.set_config(StorageFaultConfig::none().with_rate(StorageFaultClass::NoSpace, 1.0));
        let report = tick(&mut fleet, &mut source);
        assert!(report.checkpoint_generation.is_none());
        let error = report.checkpoint_error.expect("typed checkpoint error");
        assert!(error.contains("no-space"), "{error}");
        assert_eq!(
            fleet.durability(),
            Durability::Degraded { since_tick: 2 },
            "degraded from the first failing due tick"
        );
        let shadow = fleet.shadow_checkpoint(0).expect("shadow present");
        assert_eq!(shadow.tick, 2);
        let base = &SupervisorConfig::default();
        let (at, records, windows) = parse_manifest(&shadow.payload, base).unwrap();
        assert_eq!(
            (at, records.len(), windows.map(|w| w.len())),
            (2, 1, Some(1)),
            "shadow holds the durable payload: the manifest and the pair's window"
        );
        let metrics = fleet.metrics_snapshot();
        assert!(metrics.durability_degraded);
        assert_eq!(metrics.shadow_checkpoints, 1);

        // Still browning out: the shadow tracks the newest tick.
        let _ = tick(&mut fleet, &mut source);
        assert_eq!(fleet.shadow_checkpoint(0).map(|s| s.tick), Some(3));

        // Heal: the next due tick's success IS the full re-persist.
        injector.set_config(StorageFaultConfig::none());
        let report = tick(&mut fleet, &mut source);
        let healed_generation = report.checkpoint_generation.expect("durable again");
        assert_eq!(fleet.durability(), Durability::Durable);
        assert!(fleet.shadow_checkpoint(0).is_none(), "shadow retired");
        let metrics = fleet.metrics_snapshot();
        assert!(!metrics.durability_degraded);
        assert_eq!(metrics.durability_heals, 1);
        assert_eq!(metrics.shadow_checkpoints, 2);
        assert_eq!(metrics.checkpoint_errors, 2);

        // The re-persisted generation restores the whole fleet.
        drop(fleet);
        let mut restored = ShardedFleet::with_store_root(config, &root).unwrap();
        assert_eq!(restored.tick_count(), 4);
        restored.add_contention_pair("bus").unwrap();
        assert!(statuses(&restored)[0].restored_from.is_some());
        assert!(healed_generation > first_generation, "fresh generation");
        drop(restored);
        cleanup(&root);
    }

    /// A pair stepped directly under its shard's config.
    struct Stepped {
        pair: Pair,
        config: SupervisorConfig,
    }

    /// A fresh contention pair of a four-quantum table, stepped directly:
    /// one failure trips its breaker, each probe tick is a recovery probe,
    /// and `recovery_successes` of them close it. Three covert verdicts
    /// convict, three clean ones step down.
    fn stepped_pair(recovery_successes: u32) -> Stepped {
        let table = Supervisor::new(
            SupervisorConfig {
                window_quanta: 4,
                quarantine: QuarantineConfig {
                    failure_window: 1,
                    trip_threshold: 0.5,
                    min_observations: 1,
                    probe_interval: 1,
                    recovery_successes,
                    confidence_decay: 0.5,
                },
                mitigation: MitigationConfig {
                    convict_streak: 3,
                    step_down_streak: 3,
                    ..MitigationConfig::default()
                },
                ..test_config()
            },
            Registry::new(),
            Tracer::disabled(),
        )
        .unwrap();
        let record = table.record("bus: t <-> s".into(), PairKind::Contention);
        let pair = table.admitted(0, record, WindowSource::Fresh);
        Stepped {
            pair,
            config: table.config,
        }
    }

    /// Steps `pair` at `tick` with a covert or quiet harvest, or (`None`)
    /// a probe that missed after its retries.
    fn feed(stepped: &mut Stepped, tick: u64, covert: Option<bool>) -> Step {
        let input = match covert {
            None => PairInput::Missed,
            Some(true) => PairInput::Harvest(Harvest::Complete(covert_histogram())),
            Some(false) => PairInput::Harvest(Harvest::Complete(quiet_histogram())),
        };
        let probed = ProbedInput {
            input,
            retries: 0,
            backoff_us: 0,
        };
        let batch = &mut ShardBatch::default();
        let (pair, config) = (&mut stepped.pair, &stepped.config);
        pair.step_probed(tick, config, Some(probed), batch, &mut AdvisoryEnforcer)
    }

    /// Convicts `pair` on covert harvests from tick 0; returns the next
    /// tick. Conviction clears the covert streak.
    fn convict(stepped: &mut Stepped) -> u64 {
        for tick in 0..8 {
            if feed(stepped, tick, Some(true))
                .mitigation
                .unwrap()
                .convicted
            {
                assert!(stepped.pair.record.mitigation.is_contained());
                return tick + 1;
            }
        }
        panic!("three covert verdicts convict");
    }

    /// A contained pair leaving quarantine escalates only on
    /// `convict_streak` fresh covert verdicts: the two it had before the
    /// breaker tripped (the failure tick's verdict among them) are
    /// forgotten when the breaker closes.
    #[test]
    fn a_contained_pair_leaving_quarantine_escalates_on_fresh_covert_verdicts() {
        let mut stepped = stepped_pair(1);
        let tick = convict(&mut stepped);
        feed(&mut stepped, tick, Some(true));
        feed(&mut stepped, tick + 1, None);
        assert!(stepped.pair.record.breaker.is_quarantined());
        let recovery = feed(&mut stepped, tick + 2, Some(true));
        assert!(recovery.streaks_reset && !stepped.pair.record.breaker.is_quarantined());
        let mut escalations = vec![recovery.mitigation.unwrap().escalations];
        for at in tick + 3..tick + 5 {
            escalations.push(
                feed(&mut stepped, at, Some(true))
                    .mitigation
                    .unwrap()
                    .escalations,
            );
        }
        assert_eq!(escalations, [0, 0, 1], "the third fresh covert verdict");
    }

    /// A contained pair leaving quarantine steps down only on
    /// `step_down_streak` fresh clean verdicts.
    #[test]
    fn a_contained_pair_leaving_quarantine_steps_down_on_fresh_clean_verdicts() {
        let mut stepped = stepped_pair(1);
        let mut tick = convict(&mut stepped);
        // Quiet quanta push the covert ones out until the first clean
        // verdict: a clean streak of one, and a second on the failure.
        while stepped.pair.last_verdict.is_covert() {
            feed(&mut stepped, tick, Some(false));
            tick += 1;
        }
        feed(&mut stepped, tick, None);
        assert!(stepped.pair.record.breaker.is_quarantined());
        assert!(!stepped.pair.last_verdict.is_covert());
        let step_downs: Vec<u32> = (tick + 1..tick + 4)
            .map(|at| {
                feed(&mut stepped, at, Some(false))
                    .mitigation
                    .unwrap()
                    .step_downs
            })
            .collect();
        assert_eq!(step_downs, [0, 0, 1], "the third fresh clean verdict");
        assert_eq!(
            stepped.pair.record.mitigation.state(),
            ContainmentState::Inactive
        );
    }

    /// An uncontained pair keeps its covert streak through quarantine: it
    /// convicts on the verdict that closes the breaker, the third in a
    /// row.
    #[test]
    fn an_uncontained_pair_keeps_its_streaks_through_quarantine() {
        let mut stepped = stepped_pair(1);
        feed(&mut stepped, 0, Some(true));
        feed(&mut stepped, 1, Some(true));
        feed(&mut stepped, 2, None);
        assert!(stepped.pair.record.breaker.is_quarantined());
        let recovery = feed(&mut stepped, 3, Some(true));
        assert!(!stepped.pair.record.breaker.is_quarantined());
        assert!(!recovery.streaks_reset);
        assert!(recovery.mitigation.unwrap().convicted);
    }

    /// A failed recovery probe (half-open back to open) resets nothing:
    /// the contained pair's covert streak runs on through it and
    /// escalates there.
    #[test]
    fn a_failed_recovery_probe_resets_no_streak() {
        let mut stepped = stepped_pair(2);
        let tick = convict(&mut stepped);
        feed(&mut stepped, tick, None);
        feed(&mut stepped, tick + 1, Some(true));
        let half_open = BreakerState::HalfOpen { successes: 1 };
        assert_eq!(stepped.pair.record.breaker.state(), half_open);
        let reopened = feed(&mut stepped, tick + 2, None);
        assert!(matches!(
            stepped.pair.record.breaker.state(),
            BreakerState::Open { .. }
        ));
        assert!(!reopened.streaks_reset);
        assert_eq!(reopened.mitigation.unwrap().escalations, 1);
    }

    /// A pair holds only its own state: its breaker's outcome window is an
    /// inline bit ring, and neither the breaker (104 bytes before) nor the
    /// containment ladder (168) copies the shard's config. A pair was 568
    /// bytes while they did.
    #[test]
    fn a_pair_holds_no_copy_of_its_shards_config() {
        assert_eq!(size_of::<Pair>(), 464);
        assert!(size_of::<CircuitBreaker>() <= 32);
        assert!(size_of::<MitigationPolicy>() <= 136);
    }

    #[test]
    fn steady_state_ticks_reuse_the_batch_buffers() {
        let mut table =
            Supervisor::new(test_config(), Registry::new(), Tracer::disabled()).unwrap();
        for pair in 0..16 {
            let label = format!("bus: pair {pair}");
            let record = table.record(label.into(), PairKind::Contention);
            table.admit(pair, record, WindowSource::Fresh);
        }
        let mut batch = ShardBatch::default();
        let mut capacities = Vec::new();
        for tick in 0..16u64 {
            batch.reset();
            for slot in 0..table.len() {
                let histogram = match (slot as u64 + tick) % 3 {
                    0 => covert_histogram(),
                    _ => quiet_histogram(),
                };
                let input = PairInput::Harvest(Harvest::Complete(histogram));
                let probed = ProbedInput {
                    input,
                    retries: 0,
                    backoff_us: 0,
                };
                batch.file(slot, PairKind::Contention, Some(probed));
            }
            let report = table.tick(tick, &mut batch, &mut AdvisoryEnforcer);
            assert_eq!(report.reports.len(), 16);
            capacities.push((batch.cells.capacity(), batch.bytes.capacity()));
        }
        // Each slot's covert/quiet phase repeats every three ticks.
        let warm = capacities[2];
        assert!(warm.0 >= 16 && warm.1 > 0);
        assert!(capacities[2..].iter().all(|&c| c == warm), "{capacities:?}");
    }

    /// Prints where one pair-quantum's time goes, in ns per pair: filing a
    /// contention harvest at the probe, contention analysis, oscillation
    /// analysis, the pair step, its report, and the whole shard pass. One
    /// 1 280-pair table at window 64 on this thread, one pair in 16 an
    /// oscillation pair on 128-record quanta and one in 64 covert, as in
    /// the end-to-end `fleet_10k` workload. Each phase is timed as one pass
    /// over the table (the shard pass on the next tick's inputs); within
    /// one run their ratios hold to a few percent. Run it as
    /// `cargo test --release -p cchunter-detector --lib -- --ignored
    /// --nocapture pair_quantum_breakdown`.
    #[test]
    #[ignore = "a timing breakdown: run in release with --nocapture"]
    fn pair_quantum_breakdown() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        const PAIRS: usize = 1_280;
        const ROUNDS: u64 = 400;
        let config = SupervisorConfig {
            window_quanta: 64,
            ..SupervisorConfig::default()
        };
        let mut table = Supervisor::new(config, Registry::new(), Tracer::disabled()).unwrap();
        let kind = |pair: usize| match pair % 16 {
            8 => PairKind::Oscillation,
            _ => PairKind::Contention,
        };
        for pair in 0..PAIRS {
            let record = table.record(format!("pair {pair}").into(), kind(pair));
            table.admit(pair, record, WindowSource::Fresh);
        }
        let mut rng = SmallRng::seed_from_u64(29);
        let quiet: Vec<DensityHistogram> = (0..64)
            .map(|_| {
                let windows = 2_500 - rng.gen_range(0..50u64);
                let mut bins = vec![0u64; HISTOGRAM_BINS];
                let mut level = windows as f64 * rng.gen_range(0.01..0.06);
                for bin in &mut bins[1..8] {
                    *bin = level as u64;
                    level *= rng.gen_range(0.2..0.5);
                }
                bins[0] = windows - bins.iter().sum::<u64>();
                DensityHistogram::from_bins(bins, 100_000).unwrap()
            })
            .collect();
        let benign: Vec<Vec<ConflictRecord>> = (0..64)
            .map(|_| {
                let mut cycle = 0;
                let mut record = |_| {
                    cycle += rng.gen_range(50..400u64);
                    let (replacer, victim) = (rng.gen_range(0..4u8), rng.gen_range(0..4u8));
                    ConflictRecord {
                        cycle,
                        replacer,
                        victim,
                    }
                };
                (0..128).map(&mut record).collect()
            })
            .collect();
        // Groups of 8 sets: 0 → 1 conflicts, then 1 → 0, eight periods.
        let covert: Vec<ConflictRecord> = (0..128u64)
            .map(|i| {
                let (replacer, victim) = if i % 16 < 8 { (0, 1) } else { (1, 0) };
                ConflictRecord {
                    cycle: 160 * i,
                    replacer,
                    victim,
                }
            })
            .collect();
        let input = |pair: usize, tick: u64| -> PairInput {
            let pick = (pair as u64 * 31 + tick * 17) as usize % 64;
            match (kind(pair), pair % 64, pair % 32) {
                (PairKind::Contention, 0, _) => {
                    PairInput::Harvest(Harvest::Complete(covert_histogram()))
                }
                (PairKind::Contention, ..) => {
                    PairInput::Harvest(Harvest::Complete(quiet[pick].clone()))
                }
                (PairKind::Oscillation, _, 8) => PairInput::Conflicts {
                    records: covert.clone(),
                    lost_fraction: 0.0,
                },
                (PairKind::Oscillation, ..) => PairInput::Conflicts {
                    records: benign[pick].clone(),
                    lost_fraction: 0.0,
                },
            }
        };
        let probed = |input| ProbedInput {
            input,
            retries: 0,
            backoff_us: 0,
        };
        let (mut batch, mut enforcer) = (ShardBatch::default(), AdvisoryEnforcer);
        let file = |batch: &mut ShardBatch, tick: u64| {
            batch.reset();
            for pair in 0..PAIRS {
                batch.file(pair, kind(pair), Some(probed(input(pair, tick))));
            }
        };
        for tick in 0..64 {
            file(&mut batch, tick);
            table.tick(tick, &mut batch, &mut enforcer);
        }
        let oscillation: Vec<usize> = (0..PAIRS)
            .filter(|&p| kind(p) == PairKind::Oscillation)
            .collect();
        let contention: Vec<usize> = (0..PAIRS)
            .filter(|&p| kind(p) == PairKind::Contention)
            .collect();
        // Filing, contention, oscillation, step, report, shard pass.
        let (mut ns, mut reports) = ([0u128; 6], Vec::with_capacity(PAIRS));
        let mut timed = |phase: usize, started: Instant| ns[phase] += started.elapsed().as_nanos();
        for round in 0..ROUNDS {
            let tick = 64 + 2 * round;
            let inputs: Vec<PairInput> = (0..PAIRS).map(|pair| input(pair, tick)).collect();
            let mut inputs: Vec<Option<PairInput>> = inputs.into_iter().map(Some).collect();
            batch.reset();
            let started = Instant::now();
            for &pair in &contention {
                let input = inputs[pair].take().unwrap();
                batch.file(pair, PairKind::Contention, Some(probed(input)));
            }
            timed(0, started);
            for &pair in &oscillation {
                let input = inputs[pair].take().unwrap();
                batch.file(pair, PairKind::Oscillation, Some(probed(input)));
            }
            let mut events: Vec<Option<PairEvent>> = (0..PAIRS).map(|_| None).collect();
            let (filed_contention, filed_oscillation) = batch.cells.split_at(contention.len());
            for (phase, cells) in [(1, filed_contention), (2, filed_oscillation)] {
                let started = Instant::now();
                for (slot, cell) in cells {
                    let input = &cell.as_ref().unwrap().input;
                    let pushed = analyze(&mut table.pairs[*slot].window, input, &batch.bytes);
                    events[*slot] = Some(PairEvent::Analyzed {
                        pushed,
                        elapsed_us: 0,
                    });
                }
                timed(phase, started);
            }
            let started = Instant::now();
            let steps: Vec<Step> = events
                .into_iter()
                .enumerate()
                .map(|(slot, event)| {
                    table.pairs[slot].step(tick, &table.config, 0, event.unwrap(), &mut enforcer)
                })
                .collect();
            timed(3, started);
            reports.clear();
            let started = Instant::now();
            for (slot, step) in steps.into_iter().enumerate() {
                table.report(slot, tick, 0, 0, step, &mut reports);
            }
            timed(4, started);
            file(&mut batch, tick + 1);
            let started = Instant::now();
            let report = table.tick(tick + 1, &mut batch, &mut enforcer);
            timed(5, started);
            drop(report);
        }
        let per = |phase: usize, pairs: usize| ns[phase] as f64 / (ROUNDS as usize * pairs) as f64;
        println!(
            "ns per pair: filing {:.0} (contention harvest), contention {:.0}, oscillation {:.0}, \
             step {:.0}, report {:.0}, shard pass {:.0}",
            per(0, contention.len()),
            per(1, contention.len()),
            per(2, oscillation.len()),
            per(3, PAIRS),
            per(4, PAIRS),
            per(5, PAIRS)
        );
    }
}
