//! Failure-domain sharding: the one public fleet.
//!
//! A pair table run by one loop contains *pair*-level failures (a
//! panicking detector, a wedged analysis) but is itself one failure
//! domain: if the loop wedges, every monitored pair goes blind at once.
//! [`ShardedFleet`] hashes pair identities across N crash-contained shards
//! and applies the watchdog machinery at both levels; a one-shard fleet is
//! the plain supervised audit service.
//!
//! * **Placement** — rendezvous hashing ([`pair_key`] +
//!   [`rendezvous_shard`]) assigns each pair to one live shard, stably
//!   across restarts; removing a shard moves only *that shard's* pairs.
//! * **Isolation** — each shard owns its pair table, an exclusively-owned
//!   [`CheckpointStore`] directory, a metrics [`Registry`] (scraped with a
//!   `shard="N"` label), an optional [`IngestPipeline`], and a
//!   [`MitigationEnforcer`].
//! * **One tick** — the coordinator's loop is the only probe/retry loop
//!   and its tick number the only clock. It asks the breakers first
//!   (quarantined pairs are probed only on recovery ticks), then probes
//!   in fleet-index order, filing the input, its retry count and virtual
//!   backoff in a bounded per-shard batch, reused every chunk; a
//!   contention harvest goes in as its window-slot bytes. The pool steps
//!   each chunk while the coordinator probes the next. Overflow widens
//!   harvests to partial — backpressure, never loss.
//! * **Heartbeats** — shard ticks fan out under `catch_unwind` with a
//!   deadline; [`ShardedFleetConfig::dead_after`] consecutive misses
//!   declare a shard dead.
//! * **Moves, migration and restart** — one way in: every pair enters a
//!   shard through the supervisor's admit path. A rebalance or drain
//!   hands the live pair over by value, window included. A dead shard's
//!   pairs and, after [`ShardedFleet::with_store_root`] reopens a root,
//!   recovered labels named again by `add_*_pair` are read back from a
//!   checkpoint store by label (rolling back over corrupt generations).
//!   An admitted pair reports [`Verdict::Inconclusive`] until fresh
//!   evidence and re-asserts any active containment; an unrecoverable
//!   pair is re-created *degraded* (Clean floors to Inconclusive). With no
//!   live shard, pairs are carried as orphans. A store that cannot be read
//!   back at all fails the reopen instead.
//!
//! A label is a pair's store identity, so `add_*_pair` refuses one the
//! manifest could not carry back (empty, with control characters, or with
//! leading or trailing whitespace) and one already in the table.
//!
//! The global pair table is the source of truth: every pair ever added is
//! accounted for in [`ShardedFleet::pair_statuses`] — monitored,
//! degraded, or orphaned, never silently gone or silently acquitted —
//! and recovered labels not yet re-added count as orphans.
//! Shard count comes from [`ShardedFleetConfig`] or the `CCHUNTER_SHARDS`
//! knob ([`shard_count_from_env`]).

use crate::fault::{Armed, FleetFault};
use crate::ingest::{IngestConfig, IngestPipeline, IngestStats};
use crate::metrics::{
    render_prometheus_merged, Counter, Family, Gauge, Histogram, Registry, LATENCY_BUCKETS_US,
};
use crate::mitigation::{
    AdvisoryEnforcer, ContainmentState, MitigationEnforcer, MitigationPolicy, ResidualReading,
};
use crate::pipeline::Verdict;
use crate::policy::{
    mix_seed, BreakerState, SuspicionConfig, SuspicionTracker, SuspicionTransition,
};
use crate::span::{self, Tracer};
use crate::store::{CheckpointStore, StorageMedium};
use crate::supervisor::{
    probe_with_retry, Durability, IngestSnapshot, LatencySummary, MetricsSnapshot, PairKind,
    PairRecord, PairReport, ProbeSource, RestoredFrom, Roster, ShadowCheckpoint, ShardBatch,
    Supervisor, SupervisorConfig, TickReport, WindowSource,
};
use crate::DetectorError;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use threadpool::JobPanic;

/// The fewest pairs in a chunk of a fleet tick: a fleet this small ticks
/// in one chunk, probed whole and then stepped.
const MIN_CHUNK_PAIRS: usize = 64;

/// Members of the fleet-wide `cchunter_suspicious_pair{pair=…}` gauge: the
/// pairs with the largest evidence share, refilled at every scrape. The
/// only `pair`-labelled series a fleet exports, so a scrape's size does not
/// grow with the pair count.
pub const TOP_SUSPICIOUS: usize = 16;

/// The running top-[`TOP_SUSPICIOUS`] of a scrape's pairs, best first:
/// larger evidence share, then smaller label, so the member set is
/// stable under ties.
struct Suspects<'a> {
    top: Vec<(f64, &'a Arc<str>)>,
    /// The last member's share once the top is full, before that −∞.
    floor: f64,
}

impl<'a> Suspects<'a> {
    fn new() -> Self {
        Suspects {
            top: Vec::with_capacity(TOP_SUSPICIOUS + 1),
            floor: f64::NEG_INFINITY,
        }
    }

    /// Offers a pair: a share below the floor is turned away after one
    /// compare, so labels are compared only on a tie. Inlined into the
    /// scrape's pass over every pair; the insertion stays out of line.
    #[inline]
    fn offer(&mut self, share: f64, label: &'a Arc<str>) {
        if share < self.floor {
            return;
        }
        self.insert(share, label);
    }

    fn insert(&mut self, share: f64, label: &'a Arc<str>) {
        let at = self
            .top
            .partition_point(|&(s, l)| s > share || (s == share && l < label));
        if at < TOP_SUSPICIOUS {
            self.top.insert(at, (share, label));
            self.top.truncate(TOP_SUSPICIOUS);
            if self.top.len() == TOP_SUSPICIOUS {
                self.floor = self.top[TOP_SUSPICIOUS - 1].0;
            }
        }
    }
}

/// Sharded-fleet configuration.
#[derive(Debug, Clone)]
pub struct ShardedFleetConfig {
    /// Number of shards (failure domains). See
    /// [`shard_count_from_env`] for the `CCHUNTER_SHARDS` knob.
    pub shards: usize,
    /// The per-pair configuration every shard runs (detector, window,
    /// retry/backoff budget, quarantine, mitigation, checkpoint cadence).
    pub base: SupervisorConfig,
    /// Per-shard, per-tick mailbox capacity; inputs beyond it are degraded
    /// to partial harvests (backpressure), never dropped. 0 = unbounded.
    pub mailbox_capacity: usize,
    /// The `lost_fraction` widening applied to an input degraded by
    /// mailbox overflow, in `[0, 1]`.
    pub overflow_loss: f64,
    /// Budget for one shard tick's busy time (its chunks summed, not the
    /// probes beside them), in microseconds; an over-budget tick is a
    /// heartbeat miss. 0 disables the deadline.
    pub shard_deadline_us: u64,
    /// Consecutive heartbeat misses before a shard is declared dead and
    /// its pairs migrate to survivors.
    pub dead_after: u32,
    /// Checkpoint generations retained per shard store.
    pub keep_generations: usize,
    /// When set, each shard gets its own hardened [`IngestPipeline`] with
    /// this configuration (its stats feed the fleet's metrics digest).
    pub ingest: Option<IngestConfig>,
    /// When set, shards are *suspected* on sustained tick-latency SLO
    /// breaches (the gray-failure watchdog) and proactively drained; see
    /// [`LatencySloConfig`]. `None` disables suspicion.
    pub latency_slo: Option<LatencySloConfig>,
    /// Per-tick cap on pairs migrated back onto their rendezvous-hash home
    /// shard after it revives (or is cleared of suspicion) — the churn
    /// budget of the rebalance pass. 0 disables rebalancing (pairs stay
    /// where migration left them).
    pub rebalance_per_tick: usize,
}

impl Default for ShardedFleetConfig {
    fn default() -> Self {
        ShardedFleetConfig {
            shards: 4,
            base: SupervisorConfig::default(),
            mailbox_capacity: 0,
            overflow_loss: 0.25,
            shard_deadline_us: 0,
            dead_after: 3,
            keep_generations: 4,
            ingest: None,
            latency_slo: None,
            rebalance_per_tick: 4,
        }
    }
}

/// Latency-SLO suspicion parameters: the *gray*-failure counterpart of the
/// hard heartbeat watchdog. A shard whose tick-latency p99 (over a rolling
/// window of [`window_ticks`] shard ticks) breaches [`p99_budget_us`] for
/// [`SuspicionConfig::breach_ticks`] consecutive ticks is **suspected**:
/// still live, still ticking, but its pairs are proactively drained to
/// healthy shards through the checkpoint-restore path — *before* the
/// watchdog would declare death — at [`drain_per_tick`] pairs per tick.
/// Suspicion clears after [`SuspicionConfig::clear_ticks`] consecutive
/// in-budget ticks, and the rebalance pass then walks the pairs home
/// again.
///
/// [`window_ticks`]: LatencySloConfig::window_ticks
/// [`p99_budget_us`]: LatencySloConfig::p99_budget_us
/// [`drain_per_tick`]: LatencySloConfig::drain_per_tick
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySloConfig {
    /// The tick-latency p99 budget, in microseconds.
    pub p99_budget_us: u64,
    /// Ticks per p99 window; the window resets every `window_ticks`
    /// coordinator ticks so old latencies cannot mask a fresh brownout
    /// (or a fresh recovery).
    pub window_ticks: u64,
    /// Hysteresis streak lengths (consecutive breach/clear ticks).
    pub suspicion: SuspicionConfig,
    /// Per-tick cap on pairs drained off suspected shards.
    pub drain_per_tick: usize,
}

impl Default for LatencySloConfig {
    fn default() -> Self {
        LatencySloConfig {
            p99_budget_us: 50_000,
            window_ticks: 8,
            suspicion: SuspicionConfig::default(),
            drain_per_tick: 4,
        }
    }
}

impl ShardedFleetConfig {
    fn validate(&self) -> Result<(), DetectorError> {
        if self.shards == 0 || self.shards > MAX_SHARDS {
            return Err(DetectorError::invalid(format!(
                "shard count {} out of range 1..={MAX_SHARDS}",
                self.shards
            )));
        }
        if !self.overflow_loss.is_finite() || !(0.0..=1.0).contains(&self.overflow_loss) {
            return Err(DetectorError::invalid(format!(
                "overflow loss {} out of [0, 1]",
                self.overflow_loss
            )));
        }
        if self.dead_after == 0 {
            return Err(DetectorError::invalid(
                "dead_after must be at least one missed heartbeat",
            ));
        }
        if self.keep_generations == 0 {
            return Err(DetectorError::invalid(
                "shard stores must keep at least one generation",
            ));
        }
        if let Some(slo) = &self.latency_slo {
            if slo.p99_budget_us == 0 {
                return Err(DetectorError::invalid(
                    "latency-SLO p99 budget must be positive",
                ));
            }
            if slo.window_ticks == 0 {
                return Err(DetectorError::invalid(
                    "latency-SLO window must cover at least one tick",
                ));
            }
            if slo.drain_per_tick == 0 {
                return Err(DetectorError::invalid(
                    "suspected shards must drain at least one pair per tick",
                ));
            }
        }
        Ok(())
    }
}

/// Hard upper bound on the shard count (a config typo guard, far above any
/// sensible core count).
pub const MAX_SHARDS: usize = 256;

/// Reads the shard count from the `CCHUNTER_SHARDS` environment variable,
/// clamped to `1..=`[`MAX_SHARDS`]; `default` when unset or unparseable.
pub fn shard_count_from_env(default: usize) -> usize {
    std::env::var("CCHUNTER_SHARDS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map(|n| n.clamp(1, MAX_SHARDS))
        .unwrap_or(default)
}

/// FNV-1a hash of a pair label: the stable pair identity used for shard
/// placement (independent of insertion order and shard count).
pub fn pair_key(label: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in label.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Rendezvous (highest-random-weight) choice among `shards` for `key`:
/// each candidate's weight is a mix of `(key, shard)`, and the largest
/// wins. Removing one shard from the candidate set only ever moves the
/// pairs whose maximum *was* that shard — survivors keep their pairs.
/// Returns `None` when `shards` is empty.
pub fn rendezvous_shard(key: u64, shards: &[usize]) -> Option<usize> {
    shards
        .iter()
        .copied()
        .max_by_key(|&shard| (mix_seed(key, shard as u64, 0x5AD0_C0DE), shard))
}

/// A shard's liveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// The shard's pair table is running.
    Live,
    /// The shard was declared dead; its pairs migrated (or orphaned).
    Dead,
}

/// One shard's standing for a monitoring page.
#[derive(Debug, Clone)]
pub struct ShardStatus {
    /// Shard index.
    pub index: usize,
    /// Liveness.
    pub health: ShardHealth,
    /// Pairs currently hosted.
    pub pairs: usize,
    /// Consecutive heartbeat misses (resets on a clean tick).
    pub heartbeat_misses: u32,
    /// Whether the latency-SLO watchdog currently suspects this shard
    /// (slow but alive; its pairs are being drained).
    pub suspected: bool,
    /// Times this shard has been declared dead.
    pub deaths: u64,
    /// Contained shard-tick panics.
    pub panics: u64,
    /// Shard ticks that blew the deadline.
    pub tick_deadline_misses: u64,
    /// Busy microseconds of the last completed shard tick, chunks summed.
    pub last_tick_us: u64,
}

/// One pair's fleet-wide standing: every pair ever added appears here,
/// whatever happened to its shard.
#[derive(Debug, Clone)]
pub struct FleetPairStatus {
    /// Global pair index (stable across migrations).
    pub pair: usize,
    /// Pair label.
    pub label: String,
    /// Daemon kind.
    pub kind: PairKind,
    /// Hosting shard; `None` while orphaned (no live shard to run on).
    pub shard: Option<usize>,
    /// Current verdict. Orphaned pairs report
    /// [`Verdict::Inconclusive`] — a pair the fleet cannot monitor is
    /// never reported Clean.
    pub verdict: Verdict,
    /// Whether the pair runs degraded (untrusted window provenance).
    pub degraded: bool,
    /// Containment standing ([`ContainmentState::Inactive`] for orphans).
    pub containment: ContainmentState,
    /// Breaker state on the hosting shard, when live.
    pub health: Option<BreakerState>,
    /// Provenance of the pair's window, when it was restored/migrated.
    pub restored_from: Option<RestoredFrom>,
    /// Current covert-channel confidence in `[0, 1]`: the observed
    /// fraction of the window, decaying while quarantined (0 for
    /// orphans).
    pub confidence: f64,
    /// Failure rate over the breaker's window (0 for orphans).
    pub failure_rate: f64,
    /// Total probe/analysis failures recorded (0 for orphans, here and
    /// in the counters below).
    pub failures: u64,
    /// Contained analysis panics.
    pub panics: u64,
    /// Analysis deadline misses.
    pub deadline_misses: u64,
    /// Total probe retries.
    pub retries: u64,
}

/// What a migration (one shard death) did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationReport {
    /// Pairs re-homed onto surviving shards.
    pub migrated: usize,
    /// Of those, pairs imported degraded (unrecoverable or invalid
    /// checkpoints).
    pub degraded_imports: usize,
    /// Pairs left orphaned because no live shard remained.
    pub orphaned: usize,
}

/// Fleet-wide report for one coordinator tick.
#[derive(Debug)]
pub struct FleetTickReport {
    /// The coordinator tick that ran.
    pub tick: u64,
    /// Per-shard tick reports (`None` for shards that were dead, panicked,
    /// or skipped this tick), indexed by shard.
    pub shard_reports: Vec<Option<TickReport>>,
    /// Shards that missed their heartbeat this tick (panic or deadline).
    pub heartbeat_misses: Vec<usize>,
    /// Shards declared dead (and buried) this tick.
    pub deaths: Vec<usize>,
    /// What this tick's migrations did (zeros when nothing died).
    pub migration: MigrationReport,
    /// Inputs degraded to partial harvests by mailbox overflow.
    pub overflow_degraded: usize,
    /// Shards that *became* suspected this tick (latency-SLO breach
    /// streak completed).
    pub suspected: Vec<usize>,
    /// Shards cleared of suspicion this tick (recovery streak completed).
    pub cleared: Vec<usize>,
    /// Pairs drained off suspected shards this tick.
    pub drained: usize,
    /// Pairs rebalanced back onto their rendezvous home shard this tick.
    pub rebalanced: usize,
}

/// Everything a monitoring page needs about the sharded fleet.
#[derive(Debug)]
pub struct ShardedFleetStatus {
    /// Coordinator ticks completed.
    pub tick: u64,
    /// Per-shard standing.
    pub shards: Vec<ShardStatus>,
    /// Every pair's standing (monitored, degraded, or orphaned).
    pub pairs: Vec<FleetPairStatus>,
    /// The rolled-up numeric digest (see
    /// [`ShardedFleet::metrics_snapshot`]).
    pub metrics: MetricsSnapshot,
}

/// Where a pair currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PairHome {
    /// Hosted by `shard` at local index `slot`.
    Assigned { shard: usize, slot: usize },
    /// No live shard could host it; carried until one revives.
    Orphaned,
}

/// One row of the global pair table: the authoritative identity of a pair,
/// surviving every shard death.
#[derive(Debug, Clone)]
struct PairEntry {
    /// Shared with the hosting shard's pair and its tick reports.
    label: Arc<str>,
    kind: PairKind,
    key: u64,
    home: PairHome,
}

/// One failure domain: a pair table plus everything scoped to it.
struct Shard {
    /// `None` while dead.
    supervisor: Option<Supervisor>,
    /// The shard's isolated metrics registry (kept across death for
    /// post-mortem scrapes; replaced on revive).
    registry: Registry,
    /// The shard's mitigation actuation backend.
    enforcer: Box<dyn MitigationEnforcer + Send>,
    /// The shard's hardened ingest pipeline, when configured.
    ingest: Option<IngestPipeline>,
    /// The chunk of this tick being stepped; the coordinator files the
    /// next one in `ShardedFleet::filing`, and the two swap every chunk.
    batch: ShardBatch,
    /// Latency-SLO suspicion state, when configured.
    suspicion: Option<SloState>,
    /// Consecutive heartbeat misses.
    misses: u32,
    deaths: u64,
    panics: u64,
    tick_deadline_misses: u64,
    last_tick_us: u64,
    /// Failures armed by [`ShardedFleet::arm`].
    faults: Armed,
}

impl Shard {
    /// Pairs hosted (none while dead).
    fn pairs(&self) -> usize {
        self.supervisor.as_ref().map_or(0, Supervisor::len)
    }

    /// Whether the latency-SLO watchdog currently suspects this shard.
    fn is_suspected(&self) -> bool {
        self.suspicion
            .as_ref()
            .is_some_and(|s| s.tracker.suspected())
    }
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("live", &self.supervisor.is_some())
            .field("pairs", &self.pairs())
            .field("suspected", &self.is_suspected())
            .field("misses", &self.misses)
            .field("deaths", &self.deaths)
            .finish_non_exhaustive()
    }
}

/// Per-shard latency-SLO suspicion state: a rolling tick-latency window
/// (reset when full) judged against the p99 budget through the hysteresis
/// tracker.
#[derive(Debug)]
struct SloState {
    window: Histogram,
    tracker: SuspicionTracker,
}

/// The coordinator's handles on one shard's members of the per-shard
/// families, resolved once per fleet: the coordinator registry outlives
/// shard deaths and revivals, so a revived shard keeps them. Families a
/// shard touches only on some ticks resolve on first use, so a shard that
/// never ticks or never misses a heartbeat exposes no such series.
#[derive(Debug)]
struct ShardInstruments {
    live: Gauge,
    suspected: Gauge,
    pairs: Gauge,
    tick_latency_us: Option<Histogram>,
    heartbeat_misses: Option<Counter>,
}

/// Coordinator-level instruments (the shards' own instruments
/// live in their per-shard registries).
#[derive(Debug)]
struct CoordinatorMetrics {
    ticks: Counter,
    tick_latency_us: Histogram,
    live_shards: Gauge,
    orphaned_pairs: Gauge,
    degraded_pairs: Gauge,
    shard_deaths: Counter,
    migrated_pairs: Counter,
    degraded_imports: Counter,
    mailbox_overflow: Counter,
    probe_retries: Counter,
    suspected_shards: Gauge,
    drained_pairs: Counter,
    rebalanced_pairs: Counter,
    shard_live: Family<Gauge>,
    shard_suspected: Family<Gauge>,
    shard_pairs: Family<Gauge>,
    shard_heartbeat_misses: Family<Counter>,
    shard_tick_latency_us: Family<Histogram>,
    /// At most [`TOP_SUSPICIOUS`] members, refilled at each scrape.
    suspicious_pair: Family<Gauge>,
    /// Per-shard handles, indexed by shard.
    per_shard: Vec<ShardInstruments>,
}

impl CoordinatorMetrics {
    fn register(registry: &Registry, shards: usize) -> Self {
        const SHARD: &str = "shard";
        let mut metrics = CoordinatorMetrics {
            ticks: registry.counter(
                "cchunter_fleet_ticks_total",
                "Sharded-fleet coordinator ticks completed.",
            ),
            tick_latency_us: registry.histogram(
                "cchunter_fleet_tick_latency_us",
                "Wall-clock latency of one whole-fleet tick, in microseconds.",
                &LATENCY_BUCKETS_US,
            ),
            live_shards: registry.gauge("cchunter_fleet_live_shards", "Shards currently live."),
            orphaned_pairs: registry.gauge(
                "cchunter_fleet_orphaned_pairs",
                "Pairs held but not monitored: no live shard to run on (reported \
                 Inconclusive), or recovered at restart and not yet re-added.",
            ),
            degraded_pairs: registry.gauge(
                "cchunter_fleet_degraded_pairs",
                "Pairs running in degraded mode (Clean floors to Inconclusive).",
            ),
            shard_deaths: registry.counter(
                "cchunter_fleet_shard_deaths_total",
                "Shards declared dead by the heartbeat watchdog.",
            ),
            migrated_pairs: registry.counter(
                "cchunter_fleet_migrated_pairs_total",
                "Pairs migrated off dead shards onto survivors.",
            ),
            degraded_imports: registry.counter(
                "cchunter_fleet_degraded_imports_total",
                "Migrated pairs whose checkpoints were unrecoverable.",
            ),
            mailbox_overflow: registry.counter(
                "cchunter_fleet_mailbox_overflow_total",
                "Inputs degraded to partial harvests by mailbox overflow.",
            ),
            probe_retries: registry.counter(
                "cchunter_fleet_probe_retries_total",
                "Coordinator-side probe retries across all pairs.",
            ),
            suspected_shards: registry.gauge(
                "cchunter_fleet_suspected_shards",
                "Shards currently suspected by the latency-SLO watchdog.",
            ),
            drained_pairs: registry.counter(
                "cchunter_fleet_drained_pairs_total",
                "Pairs proactively drained off suspected (slow-but-alive) shards.",
            ),
            rebalanced_pairs: registry.counter(
                "cchunter_fleet_rebalanced_pairs_total",
                "Pairs rebalanced back onto their rendezvous home shard.",
            ),
            shard_live: registry.gauge_family(
                "cchunter_shard_live",
                "1 when the shard is live, else 0.",
                SHARD,
            ),
            shard_suspected: registry.gauge_family(
                "cchunter_shard_suspected",
                "1 while the latency-SLO watchdog suspects the shard, else 0.",
                SHARD,
            ),
            shard_pairs: registry.gauge_family(
                "cchunter_shard_pairs",
                "Pairs hosted per shard.",
                SHARD,
            ),
            shard_heartbeat_misses: registry.counter_family(
                "cchunter_shard_heartbeat_misses_total",
                "Heartbeat misses (panic or tick deadline) per shard.",
                SHARD,
            ),
            shard_tick_latency_us: registry.histogram_family(
                "cchunter_shard_tick_latency_us",
                "Busy time of one shard tick (its chunks summed), in microseconds, by shard.",
                SHARD,
                &LATENCY_BUCKETS_US,
            ),
            suspicious_pair: registry.gauge_family(
                "cchunter_suspicious_pair",
                "Evidence share (largest burst cluster or oscillatory quanta over the window) \
                 of the most suspicious pairs, as of the last scrape.",
                "pair",
            ),
            per_shard: Vec::with_capacity(shards),
        };
        for i in 0..shards {
            let label = shard_label(i);
            let instruments = ShardInstruments {
                live: metrics.shard_live.with_label(&label),
                suspected: metrics.shard_suspected.with_label(&label),
                pairs: metrics.shard_pairs.with_label(&label),
                tick_latency_us: None,
                heartbeat_misses: None,
            };
            metrics.per_shard.push(instruments);
        }
        metrics
    }

    /// Counts one heartbeat miss of `shard`.
    fn heartbeat_miss(&mut self, shard: usize) {
        let family = &self.shard_heartbeat_misses;
        self.per_shard[shard]
            .heartbeat_misses
            .get_or_insert_with(|| family.with_label(&shard_label(shard)))
            .inc();
    }

    /// Records one tick latency of `shard`.
    fn observe_shard_tick(&mut self, shard: usize, elapsed_us: u64) {
        let family = &self.shard_tick_latency_us;
        self.per_shard[shard]
            .tick_latency_us
            .get_or_insert_with(|| family.with_label(&shard_label(shard)))
            .observe(elapsed_us as f64);
    }
}

/// The fleet: N crash-contained shards, a global pair table, heartbeat
/// watchdogs, and checkpoint-based migration and restart. With
/// `shards: 1` it is the plain supervised audit service.
///
/// ```
/// use cchunter_detector::shard::{ShardedFleet, ShardedFleetConfig};
/// use cchunter_detector::supervisor::{PairInput, ProbeFault};
///
/// let mut fleet = ShardedFleet::new(ShardedFleetConfig {
///     shards: 2,
///     ..ShardedFleetConfig::default()
/// })
/// .unwrap();
/// fleet.add_contention_pair("memory-bus: pid 17 <-> pid 23").unwrap();
/// let report = fleet.tick(&mut |_pair: usize, _tick: u64, _attempt: u32| {
///     Ok::<PairInput, ProbeFault>(PairInput::Missed)
/// });
/// assert!(report.deaths.is_empty());
/// ```
#[derive(Debug)]
pub struct ShardedFleet {
    config: ShardedFleetConfig,
    /// Root directory holding one store per shard (`shard-NN/`); `None`
    /// runs storeless (no checkpoints, migration always degrades).
    store_root: Option<PathBuf>,
    /// The storage medium every shard store writes through; `None` uses
    /// the real disk. A [`crate::fault::StorageFaultInjector`] here puts
    /// the whole fleet's persistence under fault-injection control.
    medium: Option<Arc<dyn StorageMedium>>,
    shards: Vec<Shard>,
    table: Vec<PairEntry>,
    /// Every label in `table`: a label names one pair.
    labels: HashSet<Arc<str>>,
    /// Entries of `table` whose home is [`PairHome::Orphaned`], kept by
    /// [`ShardedFleet::set_home`].
    orphans: usize,
    /// Pairs read back from the store root at open, keyed by label, each
    /// with the tick of the manifest it came from; admitted when
    /// `add_*_pair` names the label again, counted as orphans until then.
    recovered: HashMap<Arc<str>, (u64, PairRecord, WindowSource)>,
    /// Whether the store root held a shard directory before the open: a
    /// fleet ran there, so a label no store lists may have been added
    /// since its last checkpoint, and is admitted unlisted rather than new.
    resumed: bool,
    /// Ingest counters of caller-owned pipelines, summed into the digest.
    ingest_stats: Vec<IngestStats>,
    tick: u64,
    /// Whether some pair may sit off its preferred shard. Set by every
    /// event that can change a pair's preferred or current shard (pair
    /// added, shard buried or revived, suspicion raised or cleared); the
    /// rebalance pass skips its scan while it is clear, and clears it once
    /// a scan finds every pair home with no move failed or held back by a
    /// budget.
    placement_unsettled: bool,
    /// Per shard, the chunk the coordinator is filing.
    filing: Vec<ShardBatch>,
    registry: Registry,
    metrics: CoordinatorMetrics,
    tracer: Tracer,
}

fn shard_dir(root: &Path, shard: usize) -> PathBuf {
    root.join(format!("shard-{shard:02}"))
}

fn shard_label(shard: usize) -> String {
    shard.to_string()
}

/// Opens a shard store under an exclusive claim, through `medium` when
/// given.
fn open_store(
    dir: PathBuf,
    keep: usize,
    owner: String,
    medium: Option<&Arc<dyn StorageMedium>>,
) -> Result<CheckpointStore, DetectorError> {
    match medium {
        Some(medium) => {
            CheckpointStore::open_exclusive_with_medium(dir, keep, owner, Arc::clone(medium))
        }
        None => CheckpointStore::open_exclusive(dir, keep, owner),
    }
}

/// One shard's part in a pipelined tick.
#[derive(Debug, Default)]
struct ShardRun {
    /// Room for the tick's reports, allocated on the coordinator's thread.
    room: Vec<PairReport>,
    /// Time in the shard's jobs: its tick time for deadline and SLO.
    busy: Duration,
    /// The finished tick's report, or the panic that ended the tick.
    ended: Option<Result<TickReport, JobPanic>>,
}

impl ShardRun {
    /// Steps `shard`'s current chunk under `catch_unwind`. The first chunk
    /// fires the shard's armed faults and opens its tick; the last
    /// finishes it. A panic ends the shard's tick.
    fn step(&mut self, shard: &mut Shard, tick: u64, first: bool, last: bool) {
        let Some(sup) = shard.supervisor.as_mut() else {
            return;
        };
        let started = Instant::now();
        let result = threadpool::catch(|| {
            if first {
                shard.faults.fire();
                sup.begin_tick(std::mem::take(&mut self.room));
            }
            sup.step(tick, &mut shard.batch, shard.enforcer.as_mut());
            last.then(|| sup.finish_tick(tick))
        });
        self.busy += started.elapsed();
        self.ended = result.transpose();
    }
}

impl ShardedFleet {
    /// Creates a storeless sharded fleet: no checkpoints are written, so a
    /// dead shard's pairs always migrate degraded. Use
    /// [`ShardedFleet::with_store_root`] for durable failure domains.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] for an out-of-range shard
    /// count, overflow loss, or per-shard configuration.
    pub fn new(config: ShardedFleetConfig) -> Result<Self, DetectorError> {
        Self::build(config, None, None)
    }

    /// Creates a sharded fleet whose shards checkpoint into
    /// `root/shard-NN/` directories, each exclusively owned by its shard
    /// ([`CheckpointStore::open_exclusive`]).
    ///
    /// Restarting a process is reopening its root: every shard store that
    /// already holds a checkpoint is read back (rolling back over corrupt
    /// generations), the coordinator tick resumes at the newest manifest's
    /// tick, and each later `add_*_pair` naming a recovered label admits
    /// that pair's window, breaker, containment and counters — the same
    /// path a migration takes. When a label was saved by more than one
    /// shard (a dead shard's store stays on disk), the newest manifest
    /// wins. Re-adding a recovered label under the other pair kind is a
    /// [`DetectorError::CheckpointMismatch`]; recovered labels not yet
    /// re-added count in `cchunter_fleet_orphaned_pairs`.
    ///
    /// # Errors
    ///
    /// As for [`ShardedFleet::new`], plus store-open errors (including
    /// [`DetectorError::StoreBusy`] when another fleet owns a shard
    /// directory) and restore errors from a store that holds checkpoints
    /// but cannot be read back — [`DetectorError::CorruptCheckpoint`] when
    /// every manifest generation is corrupt, storage faults, and manifest
    /// parse errors. Nothing is started in that case: move the shard
    /// directory aside to start its pairs over deliberately.
    pub fn with_store_root(
        config: ShardedFleetConfig,
        root: impl Into<PathBuf>,
    ) -> Result<Self, DetectorError> {
        Self::build(config, Some(root.into()), None)
    }

    /// [`ShardedFleet::with_store_root`] with an explicit
    /// [`StorageMedium`] every shard store writes through — the storage
    /// fault-injection entry point: pass a
    /// [`crate::fault::StorageFaultInjector`] (keeping a clone as the
    /// control handle) to brown out and heal the whole fleet's
    /// persistence at runtime.
    ///
    /// # Errors
    ///
    /// As for [`ShardedFleet::with_store_root`].
    pub fn with_store_root_and_medium(
        config: ShardedFleetConfig,
        root: impl Into<PathBuf>,
        medium: Arc<dyn StorageMedium>,
    ) -> Result<Self, DetectorError> {
        Self::build(config, Some(root.into()), Some(medium))
    }

    fn build(
        config: ShardedFleetConfig,
        root: Option<PathBuf>,
        medium: Option<Arc<dyn StorageMedium>>,
    ) -> Result<Self, DetectorError> {
        config.validate()?;
        let tracer = span::global().clone();
        let resumed = root
            .as_ref()
            .is_some_and(|root| (0..config.shards).any(|i| shard_dir(root, i).exists()));
        let mut shards = Vec::with_capacity(config.shards);
        for i in 0..config.shards {
            shards.push(Self::build_shard(
                &config,
                root.as_deref(),
                medium.as_ref(),
                &tracer,
                i,
            )?);
        }
        let registry = Registry::new();
        let metrics = CoordinatorMetrics::register(&registry, config.shards);
        let mut fleet = ShardedFleet {
            config,
            store_root: root,
            medium,
            shards,
            table: Vec::new(),
            labels: HashSet::new(),
            orphans: 0,
            recovered: HashMap::new(),
            resumed,
            ingest_stats: Vec::new(),
            tick: 0,
            placement_unsettled: true,
            filing: Vec::new(),
            registry,
            metrics,
            tracer,
        };
        fleet.recover_stores()?;
        fleet.refresh_gauges();
        Ok(fleet)
    }

    /// The restart half of [`ShardedFleet::with_store_root`]: reads every
    /// shard store back into `recovered` and resumes the coordinator tick.
    /// An empty store is a first start; a store that holds checkpoints but
    /// cannot be read fails the open, so the pairs it held never come back
    /// silently fresh.
    fn recover_stores(&mut self) -> Result<(), DetectorError> {
        for shard in &self.shards {
            let Some(sup) = &shard.supervisor else {
                continue;
            };
            let Some(store) = sup.store() else {
                continue;
            };
            let Some(roster) = Roster::read(store, &self.config.base)? else {
                continue;
            };
            for listed in &roster.records {
                let Some((record, window)) = roster.recall(store, &listed.label, listed.kind)
                else {
                    continue;
                };
                let newer = self
                    .recovered
                    .get(&*record.label)
                    .is_none_or(|(tick, ..)| roster.tick > *tick);
                if newer {
                    let label = Arc::clone(&record.label);
                    self.recovered.insert(label, (roster.tick, record, window));
                }
            }
            sup.note_restore(&roster);
            self.tick = self.tick.max(roster.tick);
        }
        self.metrics.ticks.seed(self.tick);
        Ok(())
    }

    fn build_shard(
        config: &ShardedFleetConfig,
        root: Option<&Path>,
        medium: Option<&Arc<dyn StorageMedium>>,
        tracer: &Tracer,
        index: usize,
    ) -> Result<Shard, DetectorError> {
        let registry = Registry::new();
        let mut supervisor = Supervisor::new(config.base, registry.clone(), tracer.clone())?;
        if let Some(root) = root {
            let dir = shard_dir(root, index);
            let owner = format!("shard-{index:02}");
            let store = open_store(dir, config.keep_generations, owner, medium)?;
            supervisor = supervisor.with_store(store);
        }
        let ingest = config.ingest.map(IngestPipeline::new).transpose()?;
        let suspicion = config.latency_slo.as_ref().map(|slo| SloState {
            window: Histogram::latency_us(),
            tracker: SuspicionTracker::new(slo.suspicion),
        });
        Ok(Shard {
            supervisor: Some(supervisor),
            registry,
            enforcer: Box::new(AdvisoryEnforcer),
            ingest,
            batch: ShardBatch::default(),
            suspicion,
            misses: 0,
            deaths: 0,
            panics: 0,
            tick_deadline_misses: 0,
            last_tick_us: 0,
            faults: Armed::default(),
        })
    }

    /// Redirects the fleet's structured events — coordinator and every
    /// shard — to `tracer` (builder style). The default is the
    /// `CCHUNTER_TRACE`-controlled [`span::global`] tracer.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        for shard in &mut self.shards {
            if let Some(sup) = shard.supervisor.as_mut() {
                sup.set_tracer(tracer.clone());
            }
        }
        self.tracer = tracer;
        self
    }

    /// Attaches a caller-owned ingest pipeline's shared counters (see
    /// [`IngestPipeline::stats`]): the handle's totals are summed into
    /// [`MetricsSnapshot::ingest`] alongside the shards' own pipelines.
    /// Attach one handle per pipeline.
    pub fn attach_ingest_stats(&mut self, stats: IngestStats) {
        self.ingest_stats.push(stats);
    }

    /// Replaces `shard`'s mitigation actuation backend (default:
    /// [`AdvisoryEnforcer`], shadow mode). The enforcer survives shard
    /// death and revival — it models the hardware/scheduler interface of
    /// the failure domain, not the shard's pair table.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] for an out-of-range index.
    pub fn set_enforcer(
        &mut self,
        shard: usize,
        enforcer: Box<dyn MitigationEnforcer + Send>,
    ) -> Result<(), DetectorError> {
        let slot = self
            .shards
            .get_mut(shard)
            .ok_or_else(|| DetectorError::invalid(format!("no shard {shard}")))?;
        slot.enforcer = enforcer;
        Ok(())
    }

    /// The fleet configuration.
    pub fn config(&self) -> &ShardedFleetConfig {
        &self.config
    }

    /// Coordinator ticks completed so far.
    pub fn tick_count(&self) -> u64 {
        self.tick
    }

    /// Total pairs in the global table (monitored, degraded, or orphaned).
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the fleet has no pairs.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Number of shards (failure domains), live or dead.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Indices of currently live shards.
    pub fn live_shard_ids(&self) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.supervisor.is_some().then_some(i))
            .collect()
    }

    /// One shard's liveness (None for an out-of-range index).
    pub fn shard_health(&self, shard: usize) -> Option<ShardHealth> {
        self.shards.get(shard).map(|s| {
            if s.supervisor.is_some() {
                ShardHealth::Live
            } else {
                ShardHealth::Dead
            }
        })
    }

    /// The shard currently hosting `pair` (None for an out-of-range index
    /// or an orphaned pair).
    pub fn shard_of(&self, pair: usize) -> Option<usize> {
        match self.table.get(pair)?.home {
            PairHome::Assigned { shard, .. } => Some(shard),
            PairHome::Orphaned => None,
        }
    }

    /// The coordinator's own registry (per-shard instruments live in the
    /// shard registries; see [`ShardedFleet::render_prometheus`] for the
    /// merged exposition).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// One shard's metrics registry (None for an out-of-range index). A
    /// dead shard's registry keeps its last values until the shard is
    /// revived (post-mortem scrape), then starts fresh.
    pub fn shard_registry(&self, shard: usize) -> Option<&Registry> {
        self.shards.get(shard).map(|s| &s.registry)
    }

    /// Mutable access to one shard's hardened ingest pipeline (None when
    /// the shard is out of range or [`ShardedFleetConfig::ingest`] is
    /// unset). Offer raw events and call
    /// [`IngestPipeline::end_quantum`] between fleet ticks; feed the
    /// resulting [`Harvest`](crate::Harvest) back through your [`ProbeSource`].
    pub fn ingest_mut(&mut self, shard: usize) -> Option<&mut IngestPipeline> {
        self.shards.get_mut(shard)?.ingest.as_mut()
    }

    /// Adds a contention (combinational-resource) pair, placing it on a
    /// live shard by rendezvous hashing of its label; returns its global
    /// index. With no live shard the pair starts orphaned (and is adopted,
    /// degraded, when a shard revives).
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] for a label the checkpoint
    /// manifest could not carry back (empty, with control characters, or
    /// with leading or trailing whitespace) or one already in the fleet,
    /// and [`DetectorError::CheckpointMismatch`] for a recovered label
    /// re-added under the other pair kind.
    pub fn add_contention_pair(
        &mut self,
        label: impl Into<String>,
    ) -> Result<usize, DetectorError> {
        self.add_pair(label.into().into(), PairKind::Contention)
    }

    /// Adds an oscillation (memory-resource) pair; see
    /// [`ShardedFleet::add_contention_pair`].
    ///
    /// # Errors
    ///
    /// As for [`ShardedFleet::add_contention_pair`].
    pub fn add_oscillation_pair(
        &mut self,
        label: impl Into<String>,
    ) -> Result<usize, DetectorError> {
        self.add_pair(label.into().into(), PairKind::Oscillation)
    }

    fn add_pair(&mut self, label: Arc<str>, kind: PairKind) -> Result<usize, DetectorError> {
        if label.is_empty() || label.trim() != &*label || label.chars().any(char::is_control) {
            return Err(DetectorError::invalid(format!(
                "pair label {label:?} cannot be checkpointed: it must be nonempty, without \
                 control characters or leading or trailing whitespace"
            )));
        }
        if self.labels.contains(&label) {
            return Err(DetectorError::invalid(format!(
                "pair label {label:?} is already in the fleet"
            )));
        }
        if let Some((_, record, _)) = self.recovered.get(&*label) {
            if record.kind != kind {
                return Err(DetectorError::CheckpointMismatch {
                    reason: format!(
                        "pair {label:?} was checkpointed as a {} pair, not {kind}",
                        record.kind
                    ),
                });
            }
        }
        let recovered = self.recovered.remove(&*label);
        // A recovered record already holds the label: share its `Arc`.
        let label = recovered
            .as_ref()
            .map_or(label, |(_, record, _)| Arc::clone(&record.label));
        let key = pair_key(&label);
        let global = self.table.len();
        self.labels.insert(Arc::clone(&label));
        self.table.push(PairEntry {
            label,
            kind,
            key,
            home: PairHome::Orphaned,
        });
        self.orphans += 1;
        self.placement_unsettled = true;
        match (rendezvous_shard(key, &self.live_shard_ids()), recovered) {
            (Some(shard), None) => {
                let source = match self.resumed {
                    true => WindowSource::Unlisted,
                    false => WindowSource::Fresh,
                };
                self.adopt(global, shard, None, source);
            }
            // A restart: the pair comes back the way a migrated pair does.
            (Some(shard), Some((_, record, window))) => {
                self.adopt(global, shard, Some(record), window);
            }
            // Revival adopts orphans degraded, as after a migration with no
            // live shard.
            (None, _) => {}
        }
        self.refresh_gauges();
        Ok(global)
    }

    /// Runs one fleet tick: asks the breakers which pairs are held back,
    /// probes the due ones (the fleet's only retry/backoff loop) chunk by
    /// chunk into each shard's batch while the pool steps the previous
    /// chunk under the panic + deadline watchdogs, settles heartbeats, and
    /// migrates the pairs of any shard declared dead. Never panics and
    /// never blocks on a wedged shard beyond the deadline fan-out itself.
    pub fn tick<S: ProbeSource + ?Sized>(&mut self, source: &mut S) -> FleetTickReport {
        let tick = self.tick;
        let started = Instant::now();
        let shard_count = self.shards.len();
        let mut tick_span = self.tracer.span("fleet", "tick");

        // Which pairs are due, decided before any shard work: a breaker's
        // answer is pure, and a pair's breaker moves only in its own step.
        let mut held = Vec::new();
        for sup in self.shards.iter().filter_map(|s| s.supervisor.as_ref()) {
            sup.held_back(tick, &mut held);
        }
        held.sort_unstable();
        let (config, table) = (&self.config, &self.table);
        let (mut filed, mut probe_retries, mut overflow_degraded) = (vec![0; shard_count], 0, 0);
        // Probes the due pairs from fleet index `from` on, in order, into
        // their shards' batches (a held pair as `None`), until the table
        // ends or, past `MIN_CHUNK_PAIRS` pairs, `idle` says the pool waits
        // for them; returns the fleet index to probe next.
        let mut probe = |from: usize, batches: &mut [ShardBatch], idle: &dyn Fn() -> bool| {
            for (global, entry) in table.iter().enumerate().skip(from) {
                if global >= from + MIN_CHUNK_PAIRS && idle() {
                    return global;
                }
                let PairHome::Assigned { shard, slot } = entry.home else {
                    continue;
                };
                let filed = &mut filed[shard];
                let probed = held.binary_search(&global).is_err().then(|| {
                    let seed = mix_seed(config.base.seed, global as u64, tick);
                    let mut probed =
                        probe_with_retry(source, &config.base.backoff, seed, global, tick);
                    probe_retries += u64::from(probed.retries);
                    if config.mailbox_capacity > 0 && *filed >= config.mailbox_capacity {
                        overflow_degraded += 1;
                        probed.input.widen_loss(config.overflow_loss);
                    }
                    *filed += 1;
                    probed
                });
                batches[shard].file(slot, entry.kind, probed);
            }
            table.len()
        };
        let mut runs: Vec<ShardRun> = (self.shards.iter())
            .map(|s| ShardRun {
                room: Vec::with_capacity(s.pairs()),
                ..ShardRun::default()
            })
            .collect();
        self.filing.resize_with(shard_count, ShardBatch::default);
        self.filing.iter_mut().for_each(ShardBatch::reset);

        // Scope k steps chunk k - 1 on the pool while its body probes chunk
        // k. A shard runs in one job per scope, so its chunks run in order
        // and never on two threads at once.
        let mut next = 0;
        for k in 0.. {
            let (first, last) = (k == 1, next == table.len());
            threadpool::scope(|scope| {
                // While the coordinator probes, the jobs leave it a worker;
                // after the probes, it steps a lone job itself.
                let workers = scope.threads().max(2) - 1;
                let jobs = if last { shard_count } else { workers };
                let mut groups: Vec<Vec<_>> = (0..jobs).map(|_| Vec::new()).collect();
                let shards = self.shards.iter_mut().zip(&mut runs).zip(&mut self.filing);
                for (i, ((shard, run), filing)) in shards.enumerate().filter(|_| k > 0) {
                    std::mem::swap(&mut shard.batch, filing);
                    filing.reset();
                    if run.ended.is_none() && shard.supervisor.is_some() {
                        groups[i % jobs].push((shard, run));
                    }
                }
                let step = move |group: Vec<(&mut Shard, &mut ShardRun)>| {
                    for (shard, run) in group {
                        run.step(shard, tick, first, last);
                    }
                };
                groups.retain(|g| !g.is_empty());
                let inline = (last && groups.len() == 1).then(|| groups.pop()).flatten();
                for group in groups {
                    scope.execute(move || step(group));
                }
                inline.into_iter().for_each(step);
                next = probe(next, &mut self.filing, &|| scope.is_idle());
            });
            if k > 0 && last {
                break;
            }
        }
        // The last chunk's inputs drop on the thread that allocated them.
        self.shards.iter_mut().for_each(|s| s.batch.reset());
        if probe_retries > 0 {
            self.metrics.probe_retries.inc_by(probe_retries);
        }
        if overflow_degraded > 0 {
            self.metrics
                .mailbox_overflow
                .inc_by(overflow_degraded as u64);
        }

        // Heartbeat settlement and death declaration (serial).
        let mut shard_reports: Vec<Option<TickReport>> = (0..shard_count).map(|_| None).collect();
        let mut heartbeat_misses = Vec::new();
        let mut deaths = Vec::new();
        let mut suspected = Vec::new();
        let mut cleared = Vec::new();
        let deadline_us = self.config.shard_deadline_us;
        for (i, run) in runs.into_iter().enumerate() {
            // Dead shards ran no tick.
            let Some(result) = run.ended else {
                continue;
            };
            // A shard's tick time is its busy time, summed over its chunks.
            let elapsed_us = run.busy.as_micros().min(u64::MAX as u128) as u64;
            let shard = &mut self.shards[i];
            // The gray-failure (latency-SLO) verdict for this shard tick:
            // Some(over_budget) to feed the suspicion tracker, None to
            // leave it alone.
            let mut slo_breach = None;
            let miss = match result {
                Err(panic) => {
                    shard.panics += 1;
                    // A panicked tick produced no latency sample, but it is
                    // certainly not *within* the latency budget.
                    slo_breach = Some(true);
                    Some(("shard-panic", panic.message))
                }
                Ok(report) => {
                    shard.last_tick_us = elapsed_us;
                    self.metrics.observe_shard_tick(i, elapsed_us);
                    if let (Some(slo), Some(state)) =
                        (&self.config.latency_slo, shard.suspicion.as_mut())
                    {
                        state.window.observe(elapsed_us as f64);
                        slo_breach = Some(state.window.quantile(0.99) > slo.p99_budget_us as f64);
                        // Windows end on the coordinator's clock, like
                        // checkpoints, so a revived shard's windows stay
                        // in phase with its checkpoint ticks.
                        if (tick + 1).is_multiple_of(slo.window_ticks) {
                            state.window.reset();
                        }
                    }
                    shard_reports[i] = Some(report);
                    (deadline_us > 0 && elapsed_us > deadline_us).then(|| {
                        shard.tick_deadline_misses += 1;
                        let detail = format!("{elapsed_us} µs > {deadline_us} µs budget");
                        ("shard-deadline-miss", detail)
                    })
                }
            };
            match miss {
                Some((event, detail)) => {
                    shard.misses += 1;
                    heartbeat_misses.push(i);
                    self.metrics.heartbeat_miss(i);
                    if self.tracer.is_enabled() {
                        self.tracer.event(
                            "fleet",
                            event,
                            format_args!("shard {i}: {detail} (miss {})", shard.misses),
                        );
                    }
                }
                None => shard.misses = 0,
            }
            if let (Some(over), Some(state)) = (slo_breach, shard.suspicion.as_mut()) {
                let transition = state.tracker.observe(over);
                if transition.is_some() {
                    self.placement_unsettled = true;
                }
                match transition {
                    Some(SuspicionTransition::Suspected) => {
                        suspected.push(i);
                        if self.tracer.is_enabled() {
                            self.tracer.event(
                                "fleet",
                                "shard-suspected",
                                format_args!(
                                    "shard {i}: tick p99 breached the latency SLO; draining"
                                ),
                            );
                        }
                    }
                    Some(SuspicionTransition::Cleared) => {
                        cleared.push(i);
                        if self.tracer.is_enabled() {
                            self.tracer.event(
                                "fleet",
                                "shard-suspicion-cleared",
                                format_args!("shard {i}: back within the latency SLO"),
                            );
                        }
                    }
                    None => {}
                }
            }
            if self.shards[i].misses >= self.config.dead_after {
                deaths.push(i);
            }
        }

        let mut migration = MigrationReport::default();
        for &i in &deaths {
            let report = self.bury_shard(i);
            migration.migrated += report.migrated;
            migration.degraded_imports += report.degraded_imports;
            migration.orphaned += report.orphaned;
        }

        // Bounded-churn placement repair (serial): drain
        // suspected shards and walk migrated pairs back to their
        // rendezvous homes.
        let (drained, rebalanced) = self.rebalance_pass();

        self.tick = tick + 1;
        let tick_elapsed_us = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.metrics.ticks.inc();
        self.metrics.tick_latency_us.observe(tick_elapsed_us as f64);
        self.refresh_gauges();
        if self.tracer.is_enabled() {
            tick_span.detail(format_args!(
                "tick {tick}: {} pairs, {} live shards, {} deaths",
                self.table.len(),
                self.live_shard_ids().len(),
                deaths.len()
            ));
        }
        drop(tick_span);

        FleetTickReport {
            tick,
            shard_reports,
            heartbeat_misses,
            deaths,
            migration,
            overflow_degraded,
            suspected,
            cleared,
            drained,
            rebalanced,
        }
    }

    /// One bounded-churn pass of the placement repairer. Each assigned
    /// pair's *preferred* shard is its rendezvous choice over the
    /// **eligible** set (live and unsuspected); a pair hosted elsewhere is
    /// moved there by value ([`ShardedFleet::move_pair`]), window and
    /// containment intact. Two budgets cap the churn:
    ///
    /// * moves *off a suspected shard* (the proactive drain, racing the
    ///   watchdog) spend [`LatencySloConfig::drain_per_tick`];
    /// * all other moves (rebalancing onto a revived or
    ///   suspicion-cleared shard) spend
    ///   [`ShardedFleetConfig::rebalance_per_tick`].
    ///
    /// The scan is skipped while placement is settled (see
    /// `placement_unsettled`): once a pass finds every pair home, later
    /// passes do nothing until a pair is added, a shard dies or revives, or
    /// suspicion changes.
    ///
    /// Returns `(drained, rebalanced)`.
    fn rebalance_pass(&mut self) -> (usize, usize) {
        if !self.placement_unsettled {
            return (0, 0);
        }
        let mut drain_left = self
            .config
            .latency_slo
            .as_ref()
            .map_or(0, |slo| slo.drain_per_tick);
        let mut rebalance_left = self.config.rebalance_per_tick;
        if drain_left == 0 && rebalance_left == 0 {
            return (0, 0);
        }
        let eligible: Vec<usize> = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| (s.supervisor.is_some() && !s.is_suspected()).then_some(i))
            .collect();
        if eligible.is_empty() {
            // Every live shard is suspected: moving pairs between equally
            // sick shards is pure churn.
            return (0, 0);
        }
        let mut drained = 0usize;
        let mut rebalanced = 0usize;
        // Whether this pass leaves a pair off its preferred shard: a budget
        // ran out before the scan finished, or a move failed.
        let mut unsettled = false;
        for global in 0..self.table.len() {
            if drain_left == 0 && rebalance_left == 0 {
                unsettled = true;
                break;
            }
            let PairHome::Assigned { shard: current, .. } = self.table[global].home else {
                continue;
            };
            let Some(preferred) = rendezvous_shard(self.table[global].key, &eligible) else {
                continue;
            };
            if preferred == current {
                continue;
            }
            let from_suspected = self.shards[current].is_suspected();
            let budget = if from_suspected {
                &mut drain_left
            } else {
                &mut rebalance_left
            };
            if *budget == 0 {
                unsettled = true;
                continue;
            }
            // A move always lands: the target is live and admission
            // cannot fail.
            let Some(degraded) = self.move_pair(global, preferred) else {
                unsettled = true;
                continue;
            };
            if from_suspected {
                drained += 1;
                drain_left -= 1;
                self.metrics.drained_pairs.inc();
            } else {
                rebalanced += 1;
                rebalance_left -= 1;
                self.metrics.rebalanced_pairs.inc();
            }
            if self.tracer.is_enabled() {
                self.tracer.event(
                    "fleet",
                    if from_suspected {
                        "pair-drained"
                    } else {
                        "pair-rebalanced"
                    },
                    format_args!(
                        "{}: shard {current} -> {preferred}{}",
                        self.table[global].label,
                        if degraded { " (degraded)" } else { "" }
                    ),
                );
            }
        }
        self.placement_unsettled = unsettled;
        (drained, rebalanced)
    }

    /// Moves one assigned pair to the live shard `target` by value: its
    /// record and live window leave the source table and are admitted on
    /// the target ([`Supervisor::remove_pair`] → [`Supervisor::admit`]),
    /// window, verdict streaks and containment intact, with no checkpoint
    /// text in between. The source supervisor's removal is a `swap_remove`,
    /// so its last pair takes the vacated slot, and its table entry moves
    /// with it. Returns whether the pair runs degraded, or `None`
    /// when it is not hosted by a live shard or `target` is dead (the pair
    /// is then orphaned).
    fn move_pair(&mut self, global: usize, target: usize) -> Option<bool> {
        let PairHome::Assigned {
            shard: source,
            slot,
        } = self.table[global].home
        else {
            return None;
        };
        let sup = self.shards[source].supervisor.as_mut()?;
        let (record, window) = sup.remove_pair(slot)?;
        let moved = sup.hosted().nth(slot);
        if let Some(moved_global) = moved {
            let home = PairHome::Assigned {
                shard: source,
                slot,
            };
            self.set_home(moved_global, home);
        }
        self.adopt(global, target, Some(record), WindowSource::Live(window))
    }

    /// Admits pair `global` onto shard `target` with `record` (a new one
    /// when `None`) and its window from `source`, and records its new
    /// home. Returns whether the pair runs degraded, or `None` when
    /// `target` is dead and the pair was orphaned instead — carried, never
    /// lost.
    fn adopt(
        &mut self,
        global: usize,
        target: usize,
        record: Option<PairRecord>,
        source: WindowSource,
    ) -> Option<bool> {
        let entry = &self.table[global];
        let host = &mut self.shards[target];
        let Some(sup) = host.supervisor.as_mut() else {
            self.set_home(global, PairHome::Orphaned);
            return None;
        };
        let record = record.unwrap_or_else(|| sup.record(Arc::clone(&entry.label), entry.kind));
        let (slot, degraded) = sup.admit(global, record, source);
        self.set_home(
            global,
            PairHome::Assigned {
                shard: target,
                slot,
            },
        );
        Some(degraded)
    }

    /// Records pair `global`'s new `home`, keeping the orphan count.
    fn set_home(&mut self, global: usize, home: PairHome) {
        let orphaned = |home| usize::from(matches!(home, PairHome::Orphaned));
        let entry = &mut self.table[global];
        self.orphans = self.orphans + orphaned(home) - orphaned(entry.home);
        entry.home = home;
    }

    /// Declares `shard` dead immediately (as if its heartbeat budget had
    /// run out) and migrates its pairs: the forced-death entry point for
    /// the same path the watchdog takes. Crash semantics — no parting
    /// checkpoint is written; recovery works from whatever the shard's
    /// store already holds. A no-op report for an already-dead shard.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] for an out-of-range index.
    pub fn kill_shard(&mut self, shard: usize) -> Result<MigrationReport, DetectorError> {
        if shard >= self.shards.len() {
            return Err(DetectorError::invalid(format!("no shard {shard}")));
        }
        let report = self.bury_shard(shard);
        self.refresh_gauges();
        Ok(report)
    }

    /// Arms `fault` inside the fleet's machinery, where the watchdogs must
    /// contain it (see [`FleetFault`]). A pair's armed faults stay with it
    /// until fired; they are not carried through a migration.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] for a shard that is unknown
    /// or dead, or a pair that is unknown or has no live home.
    pub fn arm(&mut self, fault: FleetFault) -> Result<(), DetectorError> {
        let armed = match fault {
            FleetFault::ShardPanic(shard, _) | FleetFault::ShardStall(shard, _) => {
                match self.shards.get_mut(shard) {
                    Some(live) if live.supervisor.is_some() => Some(&mut live.faults),
                    _ => None,
                }
            }
            FleetFault::PairPanic(pair, _) | FleetFault::PairStall(pair, _) => {
                match self.table.get(pair).map(|entry| entry.home) {
                    Some(PairHome::Assigned { shard, slot }) => self.shards[shard]
                        .supervisor
                        .as_mut()
                        .and_then(|sup| sup.faults_mut(slot)),
                    _ => None,
                }
            }
        };
        let reason = format!("no live target for {fault:?}");
        armed.ok_or(DetectorError::invalid(reason))?.arm(fault);
        Ok(())
    }

    /// Buries a dead shard: drops its pair table (releasing the store's
    /// exclusive claim — no parting checkpoint), recovers what the stores
    /// hold ([`ShardedFleet::recall_newest`]), and re-homes every one of
    /// its pairs onto survivors (or orphans them when none remain). The
    /// global table is authoritative: pairs no store lists have no
    /// snapshot and are re-created degraded — counted, never lost.
    fn bury_shard(&mut self, victim: usize) -> MigrationReport {
        {
            let shard = &mut self.shards[victim];
            let Some(buried) = shard.supervisor.take() else {
                return MigrationReport::default();
            };
            // Its pairs are about to be counted where they land.
            buried.clear_pair_gauges();
            drop(buried);
            shard.ingest = None;
            shard.misses = 0;
            shard.deaths += 1;
            self.placement_unsettled = true;
            // Death supersedes suspicion; the next life starts healthy.
            if let Some(state) = shard.suspicion.as_mut() {
                state.tracker.reset();
                state.window.reset();
            }
        }
        self.metrics.shard_deaths.inc();
        if self.tracer.is_enabled() {
            self.tracer.event(
                "fleet",
                "shard-dead",
                format_args!("shard {victim}: declared dead, migrating pairs"),
            );
        }

        let victims: Vec<usize> = self
            .table
            .iter()
            .enumerate()
            .filter_map(|(global, entry)| match entry.home {
                PairHome::Assigned { shard, .. } if shard == victim => Some(global),
                _ => None,
            })
            .collect();
        let recalled = self.recall_newest(&victims);
        self.rehome(victims, recalled, &format!("shard {victim}"))
    }

    /// Revives a dead shard with a fresh pair table (wiping its store
    /// directory first — its recoverable state already migrated away, and
    /// stale windows under recycled slot indices must not leak into the
    /// next life). Previously migrated pairs stay on their adoptive
    /// shards; orphaned pairs are adopted now, by rendezvous over the new
    /// live set, each with what the newest manifest listing it in any
    /// shard store holds, or degraded when none does.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] for an out-of-range or
    /// still-live shard, and propagates store/supervisor construction
    /// errors (in which case the shard stays dead).
    pub fn revive_shard(&mut self, shard: usize) -> Result<MigrationReport, DetectorError> {
        if shard >= self.shards.len() {
            return Err(DetectorError::invalid(format!("no shard {shard}")));
        }
        if self.shards[shard].supervisor.is_some() {
            return Err(DetectorError::invalid(format!(
                "shard {shard} is still live"
            )));
        }
        // Orphans come back with what the stores hold, this shard's
        // included, before it is wiped.
        let orphans: Vec<usize> = (0..self.table.len())
            .filter(|&global| matches!(self.table[global].home, PairHome::Orphaned))
            .collect();
        let recalled = self.recall_newest(&orphans);
        if let Some(root) = &self.store_root {
            let _ = std::fs::remove_dir_all(shard_dir(root, shard));
        }
        let rebuilt = Self::build_shard(
            &self.config,
            self.store_root.as_deref(),
            self.medium.as_ref(),
            &self.tracer,
            shard,
        )?;
        {
            let slot = &mut self.shards[shard];
            slot.supervisor = rebuilt.supervisor;
            slot.registry = rebuilt.registry;
            slot.ingest = rebuilt.ingest;
            slot.suspicion = rebuilt.suspicion;
            slot.misses = 0;
            self.placement_unsettled = true;
            // The enforcer is the failure domain's actuation backend; it
            // survives the supervisor's death and revival.
        }
        if self.tracer.is_enabled() {
            self.tracer
                .event("fleet", "shard-revived", format_args!("shard {shard}"));
        }

        // Adopt orphans: there is a live shard again, so nothing may stay
        // unmonitored.
        let report = self.rehome(orphans, recalled, "orphan");
        self.refresh_gauges();
        Ok(report)
    }

    /// Re-homes `pairs` by rendezvous over the live shards, each with its
    /// `recalled` record and window ([`ShardedFleet::recall_newest`]; a
    /// pair with none imports degraded), and orphans them when no shard
    /// is live. Each move is traced as coming `from` there.
    fn rehome(
        &mut self,
        pairs: Vec<usize>,
        recalled: Vec<(Option<PairRecord>, WindowSource)>,
        from: &str,
    ) -> MigrationReport {
        let mut report = MigrationReport::default();
        let live = self.live_shard_ids();
        for (global, (record, window)) in pairs.into_iter().zip(recalled) {
            let entry = &self.table[global];
            let adopted = rendezvous_shard(entry.key, &live)
                .and_then(|target| Some((target, self.adopt(global, target, record, window)?)));
            let Some((target, degraded)) = adopted else {
                self.set_home(global, PairHome::Orphaned);
                report.orphaned += 1;
                continue;
            };
            report.migrated += 1;
            report.degraded_imports += usize::from(degraded);
            if self.tracer.is_enabled() {
                self.tracer.event(
                    "fleet",
                    "pair-migrated",
                    format_args!(
                        "{}: {from} -> {target}{}",
                        self.table[global].label,
                        if degraded { " (degraded)" } else { "" }
                    ),
                );
            }
        }
        self.metrics.migrated_pairs.inc_by(report.migrated as u64);
        self.metrics
            .degraded_imports
            .inc_by(report.degraded_imports as u64);
        report
    }

    /// Reads back, for each of `pairs`, the record its own label lists in
    /// the newest checkpoint of any shard store that lists it, with the
    /// window that checkpoint holds for it: live shards' stores through
    /// their supervisors, then dead ones' under a temporary exclusive
    /// claim, one store's checkpoint in memory at a time (on equal ticks
    /// the later store read wins). The newest listing is the pair's last
    /// durable state wherever it ran then, so a pair moved since that
    /// checkpoint comes back from the store it left. A store that cannot
    /// be read is passed over, never fatal; a pair no store lists comes
    /// back `(None, Lost)`.
    fn recall_newest(&self, pairs: &[usize]) -> Vec<(Option<PairRecord>, WindowSource)> {
        let mut found: Vec<_> = pairs.iter().map(|_| (None, WindowSource::Lost)).collect();
        let (Some(root), false) = (&self.store_root, pairs.is_empty()) else {
            return found;
        };
        let (keep, medium) = (self.config.keep_generations, self.medium.as_ref());
        let mut ticks: Vec<Option<u64>> = vec![None; pairs.len()];
        let (live, dead): (Vec<usize>, Vec<usize>) =
            (0..self.shards.len()).partition(|&shard| self.shards[shard].supervisor.is_some());
        for shard in live.into_iter().chain(dead) {
            let claimed;
            let store = match &self.shards[shard].supervisor {
                Some(sup) => sup.store(),
                None => {
                    let owner = format!("migrator:shard-{shard:02}");
                    claimed = open_store(shard_dir(root, shard), keep, owner, medium).ok();
                    claimed.as_ref()
                }
            };
            let Some(store) = store else {
                continue;
            };
            let Ok(Some(roster)) = Roster::read(store, &self.config.base) else {
                continue;
            };
            for (slot, &global) in pairs.iter().enumerate() {
                let entry = &self.table[global];
                if ticks[slot].is_some_and(|tick| tick > roster.tick) {
                    continue;
                }
                if let Some((record, window)) = roster.recall(store, &entry.label, entry.kind) {
                    ticks[slot] = Some(roster.tick);
                    found[slot] = (Some(record), window);
                }
            }
        }
        found
    }

    /// Manually checkpoints every live shard at the current tick; returns
    /// `(shard, generation)` pairs. (Shards also auto-checkpoint through
    /// [`SupervisorConfig::checkpoint_every`].)
    ///
    /// # Errors
    ///
    /// Fails fast on the first shard whose checkpoint fails.
    pub fn checkpoint(&self) -> Result<Vec<(usize, u64)>, DetectorError> {
        let mut out = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            if let Some(sup) = &shard.supervisor {
                if sup.store().is_some() {
                    out.push((i, sup.checkpoint(self.tick)?));
                }
            }
        }
        Ok(out)
    }

    /// The live shard hosting `pair`, with the pair's slot there.
    fn host_of(&self, pair: usize) -> Option<(usize, &Supervisor, usize)> {
        let PairHome::Assigned { shard, slot } = self.table.get(pair)?.home else {
            return None;
        };
        Some((shard, self.shards.get(shard)?.supervisor.as_ref()?, slot))
    }

    /// One pair's containment standing, routed through the global table
    /// (None for an out-of-range index;
    /// [`ContainmentState::Inactive`] for orphans).
    pub fn containment(&self, pair: usize) -> Option<ContainmentState> {
        match self.table.get(pair)?.home {
            PairHome::Assigned { .. } => {
                let (_, sup, slot) = self.host_of(pair)?;
                sup.mitigation(slot).map(MitigationPolicy::state)
            }
            PairHome::Orphaned => Some(ContainmentState::Inactive),
        }
    }

    /// One pair's detection-to-containment latency in ticks, once the
    /// current episode's first rung has taken force (None for orphans).
    pub fn containment_latency_ticks(&self, pair: usize) -> Option<u64> {
        let (_, sup, slot) = self.host_of(pair)?;
        sup.mitigation(slot)?.containment_latency_ticks()
    }

    /// Feeds a post-mitigation re-measurement into `pair`'s containment
    /// policy: `residual_fraction` is the channel's goodput as a fraction
    /// of its unmitigated baseline, `overhead_fraction` the benign
    /// co-runner slowdown (see [`ResidualProbe`](crate::ResidualProbe)).
    /// A residual under the configured cap lets the policy step the ladder
    /// down; one above it escalates.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] for an out-of-range or
    /// orphaned pair, or a non-finite fraction.
    pub fn report_residual(
        &mut self,
        pair: usize,
        residual_fraction: f64,
        overhead_fraction: f64,
    ) -> Result<(), DetectorError> {
        if !residual_fraction.is_finite() || !overhead_fraction.is_finite() {
            return Err(DetectorError::invalid(
                "residual and overhead fractions must be finite",
            ));
        }
        let unhosted =
            || DetectorError::invalid(format!("pair {pair} is not hosted by a live shard"));
        let PairHome::Assigned { shard, slot } = self.table.get(pair).ok_or_else(unhosted)?.home
        else {
            return Err(unhosted());
        };
        let sup = self.shards[shard].supervisor.as_mut();
        let policy = sup.and_then(|sup| sup.mitigation_mut(slot));
        policy
            .ok_or_else(unhosted)?
            .record_residual(ResidualReading {
                residual_fraction: residual_fraction.clamp(0.0, 1.0),
                overhead_fraction: overhead_fraction.clamp(0.0, 1.0),
                tick: self.tick,
            });
        self.tracer.event(
            "mitigation",
            "residual",
            format_args!(
                "{}: residual {residual_fraction:.3} of baseline, overhead {overhead_fraction:.3}",
                self.table[pair].label
            ),
        );
        Ok(())
    }

    /// Whether checkpoints are landing durably: `Degraded` (since the
    /// earliest such tick) while any live shard is checkpointing
    /// shadow-only.
    pub fn durability(&self) -> Durability {
        self.shards
            .iter()
            .filter_map(|s| s.supervisor.as_ref())
            .map(Supervisor::durability)
            .min_by_key(|d| match d {
                Durability::Degraded { since_tick } => *since_tick,
                Durability::Durable => u64::MAX,
            })
            .unwrap_or(Durability::Durable)
    }

    /// `shard`'s freshest in-memory shadow checkpoint, taken while its
    /// storage browned out, so an operator can spool it to a healthy
    /// medium.
    pub fn shadow_checkpoint(&self, shard: usize) -> Option<&ShadowCheckpoint> {
        self.shards
            .get(shard)?
            .supervisor
            .as_ref()?
            .shadow_checkpoint()
    }

    /// Per-shard standing, indexed by shard.
    pub fn shard_statuses(&self) -> Vec<ShardStatus> {
        self.shards
            .iter()
            .enumerate()
            .map(|(index, shard)| ShardStatus {
                index,
                health: if shard.supervisor.is_some() {
                    ShardHealth::Live
                } else {
                    ShardHealth::Dead
                },
                pairs: shard.pairs(),
                heartbeat_misses: shard.misses,
                suspected: shard.is_suspected(),
                deaths: shard.deaths,
                panics: shard.panics,
                tick_deadline_misses: shard.tick_deadline_misses,
                last_tick_us: shard.last_tick_us,
            })
            .collect()
    }

    /// Every pair's fleet-wide standing, in global pair order — the
    /// zero-lost-pairs ledger: each pair is monitored, degraded, or
    /// orphaned-Inconclusive, never missing and never silently Clean
    /// after its shard died without state.
    pub fn pair_statuses(&self) -> Vec<FleetPairStatus> {
        self.table
            .iter()
            .enumerate()
            .map(|(global, entry)| {
                let hosted = self
                    .host_of(global)
                    .and_then(|(shard, sup, slot)| sup.pair_status(slot, shard));
                match hosted {
                    Some(status) => status,
                    None => FleetPairStatus {
                        pair: global,
                        label: entry.label.to_string(),
                        kind: entry.kind,
                        shard: None,
                        verdict: Verdict::Inconclusive,
                        degraded: true,
                        containment: ContainmentState::Inactive,
                        health: None,
                        restored_from: None,
                        confidence: 0.0,
                        failure_rate: 0.0,
                        failures: 0,
                        panics: 0,
                        deadline_misses: 0,
                        retries: 0,
                    },
                }
            })
            .collect()
    }

    /// Indices of shards the latency-SLO watchdog currently suspects.
    pub fn suspected_shard_ids(&self) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_suspected().then_some(i))
            .collect()
    }

    /// The migration-accounting reconciliation check: asserts that the
    /// global pair table, the shard pair tables, and the exported
    /// `cchunter_shard_pairs` / orphan gauges all agree on where every
    /// pair is — no pair double-counted, none vanished — whatever sequence
    /// of kills, migrations, revivals, drains, and rebalances came before.
    ///
    /// Cheap enough to run after every fault-injection step; the soak
    /// scenarios call it at each epoch.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] naming the first
    /// inconsistency found.
    pub fn verify_accounting(&self) -> Result<(), DetectorError> {
        let broken = |reason: String| DetectorError::InvalidConfig { reason };
        // 1. Table -> shard direction: every assigned pair's slot must
        //    exist on a live shard.
        let mut assigned = 0usize;
        let mut orphaned = 0usize;
        for (global, entry) in self.table.iter().enumerate() {
            match entry.home {
                PairHome::Orphaned => orphaned += 1,
                PairHome::Assigned { shard, slot } => {
                    assigned += 1;
                    let sup = self.shards.get(shard).and_then(|s| s.supervisor.as_ref());
                    let sup = sup.ok_or_else(|| {
                        broken(format!(
                            "pair {global} assigned to missing or dead shard {shard}"
                        ))
                    })?;
                    if slot >= sup.len() {
                        return Err(broken(format!(
                            "pair {global} claims shard {shard} slot {slot}, beyond its {} pairs",
                            sup.len()
                        )));
                    }
                }
            }
        }
        // 2. Shard -> table direction: every hosted pair's table entry must
        //    place it at its slot. With the totals below, that makes hosted
        //    pairs and assigned entries one-to-one.
        let mut hosted = 0usize;
        for (i, shard) in self.shards.iter().enumerate() {
            let Some(sup) = &shard.supervisor else {
                continue;
            };
            hosted += sup.len();
            for (slot, global) in sup.hosted().enumerate() {
                let entry = self.table.get(global).ok_or_else(|| {
                    broken(format!("shard {i} slot {slot} hosts unknown pair {global}"))
                })?;
                if entry.home != (PairHome::Assigned { shard: i, slot }) {
                    return Err(broken(format!(
                        "shard {i} slot {slot} hosts pair {global}, whose table entry says {:?}",
                        entry.home
                    )));
                }
            }
        }
        // 3. Totals: assigned + orphaned = table, and the exported
        //    per-shard gauge family sums to the same fleet total.
        if assigned != hosted || assigned + orphaned != self.table.len() {
            return Err(broken(format!(
                "pair totals disagree: {assigned} assigned + {orphaned} orphaned vs {} in the \
                 table, {hosted} hosted",
                self.table.len()
            )));
        }
        self.refresh_gauges();
        let gauge_pairs: f64 = self.metrics.per_shard.iter().map(|s| s.pairs.get()).sum();
        let gauge_orphans = self.metrics.orphaned_pairs.get();
        let held = self.table.len() + self.recovered.len();
        if gauge_pairs + gauge_orphans != held as f64 {
            return Err(broken(format!(
                "metric families disagree: sum(cchunter_shard_pairs) {gauge_pairs} + orphans \
                 {gauge_orphans} vs {} pairs + {} unclaimed recovered",
                self.table.len(),
                self.recovered.len()
            )));
        }
        Ok(())
    }

    /// The whole fleet's standing: per-shard table, per-pair ledger, and
    /// the rolled-up digest.
    pub fn fleet_status(&self) -> ShardedFleetStatus {
        ShardedFleetStatus {
            tick: self.tick,
            shards: self.shard_statuses(),
            pairs: self.pair_statuses(),
            metrics: self.metrics_snapshot(),
        }
    }

    /// The hierarchical rollup: every live shard's digest merged into one
    /// [`MetricsSnapshot`]. `ticks` is the coordinator tick, `pairs` the
    /// global table size (orphans count with zero confidence),
    /// `tick_latency` the whole-fleet tick distribution, `audit_latency`
    /// the merge of every live shard's per-pair distribution, and `ingest`
    /// the shards' pipelines plus every attached handle. A dead shard's
    /// monotonic totals leave the sum until it revives — the coordinator's
    /// own counters (deaths, migrations, orphans) never reset.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let audit_latency = Histogram::latency_us();
        let mut snap = MetricsSnapshot::default();
        for shard in &self.shards {
            let Some(sup) = &shard.supervisor else {
                continue;
            };
            snap.merge(&sup.metrics_snapshot());
            audit_latency.merge_from(sup.audit_latency());
            if let Some(pipeline) = &shard.ingest {
                snap.ingest.merge(&IngestSnapshot::from(&pipeline.stats()));
            }
        }
        for stats in &self.ingest_stats {
            snap.ingest.merge(&IngestSnapshot::from(stats));
        }
        if !self.table.is_empty() {
            snap.mean_confidence *= snap.pairs as f64 / self.table.len() as f64;
        }
        snap.pairs = self.table.len();
        snap.ticks = self.tick;
        snap.audit_latency = LatencySummary::from_histogram(&audit_latency);
        snap.tick_latency = LatencySummary::from_histogram(&self.metrics.tick_latency_us);
        snap
    }

    /// Renders the coordinator registry plus every shard registry as one
    /// Prometheus exposition, each shard's series labeled `shard="N"`.
    /// First refreshes the gauges derived from pair state in one plain
    /// pass over each live shard's pair table: the shard's pair counts and
    /// confidence distribution, and the fleet's top-[`TOP_SUSPICIOUS`]
    /// `cchunter_suspicious_pair` members.
    pub fn render_prometheus(&self) -> String {
        let mut suspects = Suspects::new();
        for sup in self.shards.iter().filter_map(|s| s.supervisor.as_ref()) {
            sup.refresh_gauges(|share, label| suspects.offer(share, label));
        }
        self.publish_suspects(suspects);
        let labels: Vec<String> = (0..self.shards.len()).map(shard_label).collect();
        let mut parts: Vec<(Option<(&str, &str)>, &Registry)> = vec![(None, &self.registry)];
        for (i, shard) in self.shards.iter().enumerate() {
            parts.push((Some(("shard", labels[i].as_str())), &shard.registry));
        }
        render_prometheus_merged(&parts)
    }

    /// Refills `cchunter_suspicious_pair` with `suspects`, and drops
    /// members that fell out of the top.
    fn publish_suspects(&self, suspects: Suspects<'_>) {
        let family = &self.metrics.suspicious_pair;
        let top = suspects.top;
        family.retain(|member| top.iter().any(|(_, label)| &***label == member));
        for (share, label) in top {
            family.with_label(label).set(share);
        }
    }

    /// Pushes the derived gauges (live shards, per-shard pair counts,
    /// orphan and degraded totals) from counts kept where they change: no
    /// pair is walked, so every tick can end with it.
    fn refresh_gauges(&self) {
        let mut live = 0usize;
        let mut degraded = 0usize;
        let mut suspected = 0usize;
        for (shard, instruments) in self.shards.iter().zip(&self.metrics.per_shard) {
            let is_live = shard.supervisor.is_some();
            if is_live {
                live += 1;
            }
            if let Some(sup) = &shard.supervisor {
                degraded += sup.counts().degraded;
            }
            let is_suspected = shard.is_suspected();
            if is_suspected {
                suspected += 1;
            }
            instruments.live.set(if is_live { 1.0 } else { 0.0 });
            instruments
                .suspected
                .set(if is_suspected { 1.0 } else { 0.0 });
            instruments.pairs.set(shard.pairs() as f64);
        }
        self.metrics.suspected_shards.set(suspected as f64);
        let orphans = self.orphans;
        self.metrics.live_shards.set(live as f64);
        // Recovered labels not yet re-added are held but unmonitored, too.
        self.metrics
            .orphaned_pairs
            .set((orphans + self.recovered.len()) as f64);
        self.metrics.degraded_pairs.set((degraded + orphans) as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auditor::ConflictRecord;
    use crate::density::{DensityHistogram, HISTOGRAM_BINS};
    use crate::mitigation::{ApplyError, MitigationLevel};
    use crate::online::{Harvest, OnlineWindow};
    use crate::policy::{BackoffConfig, QuarantineConfig};
    use crate::supervisor::{PairInput, PairOutcome, ProbeFault};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn covert_histogram() -> DensityHistogram {
        let mut bins = vec![0u64; HISTOGRAM_BINS];
        bins[0] = 2_400;
        bins[19] = 20;
        bins[20] = 25;
        bins[21] = 20;
        DensityHistogram::from_bins(bins, 1_000).unwrap()
    }

    fn quiet_histogram() -> DensityHistogram {
        let mut bins = vec![0u64; HISTOGRAM_BINS];
        bins[0] = 2_400;
        bins[1] = 40;
        bins[2] = 12;
        DensityHistogram::from_bins(bins, 1_000).unwrap()
    }

    fn test_config(shards: usize) -> ShardedFleetConfig {
        ShardedFleetConfig {
            shards,
            base: SupervisorConfig {
                window_quanta: 8,
                backoff: BackoffConfig {
                    max_retries: 2,
                    ..BackoffConfig::default()
                },
                ..SupervisorConfig::default()
            },
            ..ShardedFleetConfig::default()
        }
    }

    fn covert_source(pair: usize, _tick: u64, _attempt: u32) -> Result<PairInput, ProbeFault> {
        let _ = pair;
        Ok(PairInput::Harvest(Harvest::Complete(covert_histogram())))
    }

    #[test]
    fn rendezvous_is_stable_and_minimal() {
        let shards: Vec<usize> = (0..8).collect();
        for pair in 0..256 {
            let key = pair_key(&format!("pair {pair}"));
            let full = rendezvous_shard(key, &shards).unwrap();
            assert_eq!(rendezvous_shard(key, &shards).unwrap(), full);
            // Removing any shard other than the chosen one never moves
            // this pair.
            for &removed in &shards {
                if removed == full {
                    continue;
                }
                let remaining: Vec<usize> =
                    shards.iter().copied().filter(|&s| s != removed).collect();
                assert_eq!(rendezvous_shard(key, &remaining).unwrap(), full);
            }
        }
    }

    #[test]
    fn pairs_spread_across_shards() {
        let mut fleet = ShardedFleet::new(test_config(4)).unwrap();
        for pair in 0..64 {
            fleet
                .add_contention_pair(format!("memory-bus: pair {pair}"))
                .unwrap();
        }
        let statuses = fleet.shard_statuses();
        assert!(
            statuses.iter().filter(|s| s.pairs > 0).count() >= 3,
            "64 pairs should land on at least 3 of 4 shards: {statuses:?}"
        );
        assert_eq!(statuses.iter().map(|s| s.pairs).sum::<usize>(), 64);
    }

    #[test]
    fn shard_count_does_not_change_verdicts() {
        let verdicts = |shards: usize| {
            let mut fleet = ShardedFleet::new(test_config(shards)).unwrap();
            for pair in 0..4 {
                fleet
                    .add_contention_pair(format!("memory-bus: pair {pair}"))
                    .unwrap();
            }
            for _ in 0..16 {
                fleet.tick(&mut covert_source);
            }
            fleet
                .pair_statuses()
                .iter()
                .map(|p| p.verdict)
                .collect::<Vec<Verdict>>()
        };
        assert_eq!(verdicts(1), verdicts(4));
    }

    #[test]
    fn mailbox_overflow_degrades_instead_of_dropping() {
        let mut config = test_config(1);
        config.mailbox_capacity = 2;
        config.overflow_loss = 0.3;
        let mut fleet = ShardedFleet::new(config).unwrap();
        for pair in 0..5 {
            fleet
                .add_contention_pair(format!("memory-bus: pair {pair}"))
                .unwrap();
        }
        let report = fleet.tick(&mut |_pair: usize, _tick: u64, _attempt: u32| {
            Ok::<PairInput, ProbeFault>(PairInput::Harvest(Harvest::Complete(quiet_histogram())))
        });
        assert_eq!(report.overflow_degraded, 3);
        // Every pair still got its input analyzed (degraded, not dropped).
        let shard_report = report.shard_reports[0].as_ref().unwrap();
        assert_eq!(shard_report.reports.len(), 5);
    }

    #[test]
    fn storeless_kill_degrades_and_never_acquits() {
        let mut fleet = ShardedFleet::new(test_config(2)).unwrap();
        for pair in 0..8 {
            fleet
                .add_contention_pair(format!("memory-bus: pair {pair}"))
                .unwrap();
        }
        let mut quiet = |_pair: usize, _tick: u64, _attempt: u32| {
            Ok::<PairInput, ProbeFault>(PairInput::Harvest(Harvest::Complete(quiet_histogram())))
        };
        for _ in 0..12 {
            fleet.tick(&mut quiet);
        }
        let victim = fleet.shard_of(0).unwrap();
        let report = fleet.kill_shard(victim).unwrap();
        assert!(report.migrated > 0);
        // Storeless: every migrated pair must be degraded.
        assert_eq!(report.degraded_imports, report.migrated);
        for _ in 0..12 {
            fleet.tick(&mut quiet);
        }
        for status in fleet.pair_statuses() {
            if status.degraded {
                assert_ne!(
                    status.verdict,
                    Verdict::Clean,
                    "degraded pair {} must not acquit",
                    status.label
                );
            }
        }
        assert_eq!(fleet.pair_statuses().len(), 8, "no pair may be lost");
    }

    #[test]
    fn killing_every_shard_orphans_pairs_and_revival_adopts_them() {
        let mut fleet = ShardedFleet::new(test_config(2)).unwrap();
        for pair in 0..6 {
            fleet
                .add_contention_pair(format!("memory-bus: pair {pair}"))
                .unwrap();
        }
        fleet.kill_shard(0).unwrap();
        let report = fleet.kill_shard(1).unwrap();
        assert!(report.orphaned > 0);
        let statuses = fleet.pair_statuses();
        assert_eq!(statuses.len(), 6);
        for status in &statuses {
            assert_eq!(status.shard, None);
            assert_eq!(status.verdict, Verdict::Inconclusive);
            assert!(status.degraded);
        }
        let adopted = fleet.revive_shard(0).unwrap();
        assert_eq!(adopted.migrated, 6);
        for status in fleet.pair_statuses() {
            assert_eq!(status.shard, Some(0));
            assert!(status.degraded);
        }
    }

    #[test]
    fn an_armed_pair_panic_counts_once_against_that_pair_only() {
        let mut fleet = ShardedFleet::new(test_config(2)).unwrap();
        for pair in 0..6 {
            fleet
                .add_contention_pair(format!("memory-bus: pair {pair}"))
                .unwrap();
        }
        fleet.arm(FleetFault::PairPanic(4, 1)).unwrap();
        for _ in 0..3 {
            fleet.tick(&mut covert_source);
        }
        let snap = fleet.metrics_snapshot();
        assert_eq!(snap.panics, 1, "{snap:?}");
        let panics: Vec<u64> = fleet.pair_statuses().iter().map(|s| s.panics).collect();
        assert_eq!(panics, [0, 0, 0, 0, 1, 0]);
        assert!(fleet.shard_statuses().iter().all(|s| s.panics == 0));

        let out_of_range = [
            FleetFault::PairPanic(6, 1),
            FleetFault::PairStall(usize::MAX, 1),
            FleetFault::ShardPanic(2, 1),
            FleetFault::ShardStall(9, 1),
        ];
        for fault in out_of_range {
            assert!(
                matches!(fleet.arm(fault), Err(DetectorError::InvalidConfig { .. })),
                "{fault:?}"
            );
        }
        // A dead shard, and an orphaned pair, have nothing live to arm.
        fleet.kill_shard(0).unwrap();
        fleet.kill_shard(1).unwrap();
        for fault in [FleetFault::ShardPanic(0, 1), FleetFault::PairPanic(0, 1)] {
            assert!(
                matches!(fleet.arm(fault), Err(DetectorError::InvalidConfig { .. })),
                "{fault:?}"
            );
        }
    }

    /// Checks a scrape of `fleet` against a recount from its pair
    /// statuses and pair tables: the pair-state gauges and confidence
    /// distributions summed over every `shard` label, dead shards' too,
    /// the coordinator's orphaned and degraded gauges (and every live
    /// shard's kept counts), and the suspicious-pair members against a
    /// full sort of the hosted pairs by share (descending), then label.
    fn assert_scrape_matches_recount(fleet: &ShardedFleet, phase: &str) {
        let scrape = crate::metrics::parse_prometheus(&fleet.render_prometheus());
        assert!(scrape.is_clean(), "{phase}: {:?}", scrape.skipped);
        let label = |sample: &crate::metrics::ParsedSample, key: &str| {
            let found = sample.labels.iter().find(|(k, _)| k == key);
            found.map(|(_, value)| value.clone())
        };
        let shard_sum = |name: &str, le: Option<f64>| -> f64 {
            let samples = scrape.samples.iter().filter(|sample| {
                sample.name == name
                    && label(sample, "shard").is_some()
                    && le.is_none_or(|bound| {
                        label(sample, "le").and_then(|v| v.parse::<f64>().ok()) == Some(bound)
                    })
            });
            samples.map(|sample| sample.value).sum()
        };
        let fleet_gauge = |name: &str| {
            let sample = scrape.samples.iter().find(|sample| sample.name == name);
            sample.map(|sample| sample.value).unwrap()
        };

        let statuses = fleet.pair_statuses();
        let hosted: Vec<&FleetPairStatus> = statuses.iter().filter(|s| s.shard.is_some()).collect();
        let count = |keep: &dyn Fn(&FleetPairStatus) -> bool| {
            hosted.iter().filter(|s| keep(s)).count() as f64
        };
        let covert = count(&|s| s.verdict.is_covert());
        let quarantined = count(&|s| !matches!(s.health, Some(BreakerState::Closed)));
        let contained = count(&|s| s.containment.is_active());
        assert_eq!(shard_sum("cchunter_pairs_covert", None), covert, "{phase}");
        assert_eq!(
            shard_sum("cchunter_pairs_quarantined", None),
            quarantined,
            "{phase}"
        );
        assert_eq!(
            shard_sum("cchunter_contained_pairs", None),
            contained,
            "{phase}"
        );
        let orphans = statuses.iter().filter(|s| s.shard.is_none()).count() + fleet.recovered.len();
        let orphans = orphans as f64;
        let degraded = statuses.iter().filter(|s| s.degraded).count() as f64;
        for sup in fleet.shards.iter().filter_map(|s| s.supervisor.as_ref()) {
            assert_eq!(sup.counts(), sup.recount(), "{phase}");
        }
        assert_eq!(
            fleet_gauge("cchunter_fleet_orphaned_pairs"),
            orphans,
            "{phase}"
        );
        assert_eq!(
            fleet_gauge("cchunter_fleet_degraded_pairs"),
            degraded,
            "{phase}"
        );

        for bound in [0.25, 0.5, 0.75, 0.9, 0.99, 1.0, f64::INFINITY] {
            let below = count(&|s| s.confidence.max(0.0) <= bound);
            let scraped = shard_sum("cchunter_pairs_confidence_bucket", Some(bound));
            assert_eq!(scraped, below, "{phase}: le {bound}");
        }
        let count_series = shard_sum("cchunter_pairs_confidence_count", None);
        assert_eq!(count_series, hosted.len() as f64, "{phase}");
        let sum: f64 = hosted.iter().map(|s| s.confidence).sum();
        let scraped_sum = shard_sum("cchunter_pairs_confidence_sum", None);
        assert!(
            (scraped_sum - sum).abs() < 1e-9,
            "{phase}: {scraped_sum} vs {sum}"
        );

        let mut ranked: Vec<(f64, String)> = Vec::new();
        for sup in fleet.shards.iter().filter_map(|s| s.supervisor.as_ref()) {
            for slot in 0..sup.len() {
                let (label, share) = sup.evidence_of(slot).unwrap();
                ranked.push((share, label.to_string()));
            }
        }
        assert_eq!(ranked.len(), hosted.len(), "{phase}");
        let by_rank =
            |a: &(f64, String), b: &(f64, String)| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1));
        ranked.sort_by(by_rank);
        ranked.truncate(TOP_SUSPICIOUS);
        let mut members: Vec<(f64, String)> = scrape
            .samples
            .iter()
            .filter(|sample| sample.name == "cchunter_suspicious_pair")
            .map(|sample| (sample.value, label(sample, "pair").unwrap()))
            .collect();
        members.sort_by(by_rank);
        assert_eq!(members, ranked, "{phase}");
    }

    /// A scrape reads what a recount of the pair table reads, through
    /// quarantined, contained, panicked, degraded and orphaned pairs, and
    /// with evidence shares tied both below and across the top-k's edge;
    /// the shard counters published once per tick equal the count of the
    /// tick reports' outcomes.
    #[test]
    fn a_scrape_equals_a_recount_of_the_pair_table() {
        const PAIRS: usize = 40;
        let mut fleet = ShardedFleet::new(test_config(3)).unwrap();
        for pair in 0..PAIRS {
            fleet
                .add_contention_pair(format!("memory-bus: pair {pair:02}"))
                .unwrap();
        }
        // Ticks `fleet` `ticks` times, pairs below `covert_below` reading
        // covert (all with equal shares) and every tenth pair's probe
        // failing; returns how many pair reports were analysed, degraded,
        // skipped and failed.
        fn run(fleet: &mut ShardedFleet, covert_below: usize, ticks: usize) -> [u64; 4] {
            let mut source = |pair: usize, _tick: u64, _attempt: u32| {
                if pair % 10 == 3 {
                    return Err(ProbeFault {
                        reason: "harvest lost".to_string(),
                    });
                }
                let histogram = if pair < covert_below {
                    covert_histogram()
                } else {
                    quiet_histogram()
                };
                Ok(PairInput::Harvest(Harvest::Complete(histogram)))
            };
            let mut counts = [0; 4];
            for _ in 0..ticks {
                let report = fleet.tick(&mut source);
                for pair in report
                    .shard_reports
                    .iter()
                    .flatten()
                    .flat_map(|r| &r.reports)
                {
                    counts[match pair.outcome {
                        PairOutcome::Analyzed(_) => 0,
                        PairOutcome::Degraded { .. } => 1,
                        PairOutcome::Skipped { .. } => 2,
                        PairOutcome::Failed { .. } => 3,
                    }] += 1;
                }
            }
            counts
        }

        fleet.arm(FleetFault::PairPanic(35, 1)).unwrap();
        let first = run(&mut fleet, 10, 12);
        let nonzero = fleet
            .shards
            .iter()
            .filter_map(|s| s.supervisor.as_ref())
            .flat_map(|sup| (0..sup.len()).map(move |slot| sup.evidence_of(slot).unwrap().1))
            .filter(|&share| share > 0.0)
            .count();
        assert!(
            (2..TOP_SUSPICIOUS).contains(&nonzero),
            "{nonzero} nonzero shares"
        );
        assert_scrape_matches_recount(&fleet, "fewer nonzero shares than the top");

        let second = run(&mut fleet, 30, 12);
        let [analyzed, degraded, skipped, failed] = [0, 1, 2, 3].map(|i| first[i] + second[i]);
        let statuses = fleet.pair_statuses();
        assert!(statuses.iter().filter(|s| s.verdict.is_covert()).count() > TOP_SUSPICIOUS);
        assert!(statuses.iter().any(|s| s.containment.is_active()));
        assert!(statuses
            .iter()
            .any(|s| s.health != Some(BreakerState::Closed)));
        assert!(statuses.iter().any(|s| s.panics > 0));
        assert_scrape_matches_recount(&fleet, "more nonzero shares than the top");

        // Every analysed pair-tick counted once, on every shard.
        let snap = fleet.metrics_snapshot();
        assert!(analyzed > 0 && degraded > 0 && skipped > 0 && failed == 1);
        assert_eq!(snap.analyzed, analyzed);
        assert_eq!(snap.degraded, degraded);
        assert_eq!(snap.quarantine_skips, skipped);
        assert_eq!(snap.recoveries, failed);
        assert_eq!(snap.audit_latency.count, analyzed + degraded);

        // A storeless kill: the migrated pairs come back degraded.
        fleet.kill_shard(fleet.shard_of(0).unwrap()).unwrap();
        run(&mut fleet, 30, 3);
        assert!(fleet.pair_statuses().iter().any(|s| s.degraded));
        assert_scrape_matches_recount(&fleet, "after a kill");

        for shard in fleet.live_shard_ids() {
            fleet.kill_shard(shard).unwrap();
        }
        assert!(fleet.pair_statuses().iter().all(|s| s.shard.is_none()));
        assert_scrape_matches_recount(&fleet, "every pair orphaned");
        fleet.revive_shard(1).unwrap();
        run(&mut fleet, 30, 2);
        assert_scrape_matches_recount(&fleet, "after a revival");

        // A buried shard's pair-state series read zero: summed over every
        // shard label, eight covert pairs count once after a kill.
        let mut fleet = ShardedFleet::new(test_config(2)).unwrap();
        for pair in 0..8 {
            fleet
                .add_contention_pair(format!("memory-bus: pair {pair}"))
                .unwrap();
        }
        for _ in 0..4 {
            fleet.tick(&mut covert_source);
        }
        assert!(fleet.pair_statuses().iter().all(|s| s.verdict.is_covert()));
        assert!(fleet
            .live_shard_ids()
            .iter()
            .all(|&i| fleet.shards[i].pairs() > 0));
        assert_scrape_matches_recount(&fleet, "two shards, eight covert pairs");
        fleet.kill_shard(0).unwrap();
        assert_scrape_matches_recount(&fleet, "shard 0 killed");

        // A restart: the pairs not yet re-added are held as orphans.
        let root = temp_root("scrape-restart");
        let mut fleet = ShardedFleet::with_store_root(test_config(2), &root).unwrap();
        for pair in 0..PAIRS {
            fleet
                .add_contention_pair(format!("memory-bus: pair {pair:02}"))
                .unwrap();
        }
        run(&mut fleet, 30, 4);
        fleet.checkpoint().unwrap();
        drop(fleet);
        let mut fleet = ShardedFleet::with_store_root(test_config(2), &root).unwrap();
        assert_scrape_matches_recount(&fleet, "reopened, nothing re-added");
        for pair in 0..PAIRS / 2 {
            fleet
                .add_contention_pair(format!("memory-bus: pair {pair:02}"))
                .unwrap();
        }
        assert!(!fleet.recovered.is_empty());
        assert_scrape_matches_recount(&fleet, "restarted, half re-added");
        run(&mut fleet, 30, 2);
        assert_scrape_matches_recount(&fleet, "restarted and ticked");
        drop(fleet);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// An enforcer whose every apply panics, as a buggy actuation backend
    /// would.
    struct PanickingEnforcer;

    impl MitigationEnforcer for PanickingEnforcer {
        fn apply(&mut self, _pair: usize, _level: MitigationLevel) -> Result<(), ApplyError> {
            panic!("injected fleet fault");
        }

        fn release(&mut self, _pair: usize, _level: MitigationLevel) -> Result<(), ApplyError> {
            Ok(())
        }
    }

    /// A shard tick that unwinds part-way through its pair table still
    /// publishes what the pairs before the panic counted, and keeps its
    /// pair counts equal to a recount when the panicking step also moved
    /// its pair's breaker.
    #[test]
    fn a_tick_that_unwinds_still_publishes_its_counts() {
        const PAIRS: usize = 8;
        let mut fleet = ShardedFleet::new(test_config(1)).unwrap();
        for pair in 0..PAIRS {
            fleet
                .add_contention_pair(format!("memory-bus: pair {pair}"))
                .unwrap();
        }
        fleet.set_enforcer(0, Box::new(PanickingEnforcer)).unwrap();
        // The last slot convicts, so its first apply panics the tick after
        // every other pair was analysed.
        let mut source = |pair: usize, _tick: u64, _attempt: u32| {
            let histogram = if pair == PAIRS - 1 {
                covert_histogram()
            } else {
                quiet_histogram()
            };
            Ok::<PairInput, ProbeFault>(PairInput::Harvest(Harvest::Complete(histogram)))
        };
        let mut analyzed = 0;
        for _ in 0..32 {
            let before = fleet.metrics_snapshot();
            let report = fleet.tick(&mut source);
            let Some(Some(shard)) = report.shard_reports.first() else {
                let (after, counted) = (fleet.metrics_snapshot(), PAIRS as u64 - 1);
                assert_eq!(after.analyzed, before.analyzed + counted);
                assert_eq!(
                    after.audit_latency.count,
                    before.audit_latency.count + counted
                );
                return;
            };
            analyzed += shard.reports.len() as u64;
            assert_eq!(fleet.metrics_snapshot().analyzed, analyzed);
        }
        panic!("the covert pair was never contained");
    }

    /// The covert pair's harvest goes missing on the tick it is convicted:
    /// one step trips its breaker open, then panics in the enforcer before
    /// `report` sees the transition.
    #[test]
    fn a_tick_that_unwinds_recounts_the_breaker_it_tripped() {
        const PAIRS: usize = 8;
        const CONVICTED: u64 = 3;
        let mut config = test_config(1);
        config.base.quarantine = QuarantineConfig {
            min_observations: 1,
            trip_threshold: f64::EPSILON,
            ..QuarantineConfig::default()
        };
        let mut fleet = ShardedFleet::new(config).unwrap();
        for pair in 0..PAIRS {
            fleet
                .add_contention_pair(format!("memory-bus: pair {pair}"))
                .unwrap();
        }
        fleet.set_enforcer(0, Box::new(PanickingEnforcer)).unwrap();
        let mut source = |pair: usize, tick: u64, _attempt: u32| {
            let harvest = match pair {
                p if p != PAIRS - 1 => Harvest::Complete(quiet_histogram()),
                _ if tick == CONVICTED => Harvest::Missed,
                _ => Harvest::Complete(covert_histogram()),
            };
            Ok::<PairInput, ProbeFault>(PairInput::Harvest(harvest))
        };
        // Quarantined, the pair is skipped until its breaker's probe
        // interval (4) has passed; each probe from then on panics again,
        // until the third panic in a row buries the shard.
        for tick in 0..=8 {
            let report = fleet.tick(&mut source);
            let unwound = !matches!(report.shard_reports.first(), Some(Some(_)));
            assert_eq!(unwound, [CONVICTED, 7, 8].contains(&tick), "tick {tick}");
            if tick == CONVICTED {
                let health = fleet.pair_statuses()[PAIRS - 1].health;
                assert!(matches!(health, Some(BreakerState::Open { .. })));
            }
            let sup = fleet.shards[0].supervisor.as_ref().unwrap();
            assert_eq!(sup.counts(), sup.recount(), "tick {tick}");
        }
    }

    /// A shard whose enforcer panics on a pair far into the fleet unwinds
    /// in a late chunk of the tick, after earlier chunks were stepped:
    /// one shard panic and no report from it, its tally published with
    /// its counts recounted, and the other shard unharmed.
    #[test]
    fn a_shard_that_panics_in_a_late_chunk_still_publishes_its_counts() {
        const PAIRS: usize = 4 * MIN_CHUNK_PAIRS;
        let mut fleet = ShardedFleet::new(test_config(2)).unwrap();
        for pair in 0..PAIRS {
            fleet
                .add_contention_pair(format!("memory-bus: pair {pair}"))
                .unwrap();
        }
        let covert = PAIRS - 1;
        let victim = fleet.shard_of(covert).unwrap();
        fleet
            .set_enforcer(victim, Box::new(PanickingEnforcer))
            .unwrap();
        let mut source = |pair: usize, _tick: u64, _attempt: u32| {
            let histogram = match pair == covert {
                true => covert_histogram(),
                false => quiet_histogram(),
            };
            Ok::<PairInput, ProbeFault>(PairInput::Harvest(Harvest::Complete(histogram)))
        };
        for tick in 0..32 {
            let before = fleet.metrics_snapshot();
            let report = fleet.tick(&mut source);
            let sup = fleet.shards[victim].supervisor.as_ref().unwrap();
            assert_eq!(sup.counts(), sup.recount(), "tick {tick}");
            if report.shard_reports[victim].is_some() {
                continue;
            }
            assert_eq!(report.heartbeat_misses, [victim]);
            assert_eq!(fleet.shard_statuses()[victim].panics, 1);
            let survivor = report.shard_reports[1 - victim].as_ref().unwrap();
            let hosted = fleet.shards[1 - victim].pairs();
            assert_eq!(survivor.reports.len(), hosted);
            // Every pair but the panicking one was analysed and counted.
            let after = fleet.metrics_snapshot();
            assert_eq!(after.analyzed, before.analyzed + PAIRS as u64 - 1);
            return;
        }
        panic!("the covert pair was never contained");
    }

    /// Moves leave a shard's slot order unlike fleet-index order; a tick
    /// still steps every hosted pair once, reports each shard's pairs in
    /// fleet-index order, reports what the pair table holds, and keeps
    /// each shard's counts equal to a recount. Pairs that stayed put read
    /// as in a twin fleet that moved nothing.
    #[test]
    fn a_tick_steps_every_pair_once_in_fleet_order_whatever_the_slots() {
        const PAIRS: usize = 5 * MIN_CHUNK_PAIRS;
        let kind = |pair: usize| match pair % 4 {
            3 => PairKind::Oscillation,
            _ => PairKind::Contention,
        };
        let build = || {
            let mut fleet = ShardedFleet::new(test_config(2)).unwrap();
            for pair in 0..PAIRS {
                let label = format!("pair {pair}");
                match kind(pair) {
                    PairKind::Contention => fleet.add_contention_pair(label),
                    PairKind::Oscillation => fleet.add_oscillation_pair(label),
                }
                .unwrap();
            }
            fleet
        };
        let mut source = |pair: usize, tick: u64, _attempt: u32| {
            Ok::<PairInput, ProbeFault>(scheduled_input(pair, tick, kind(pair)))
        };
        let (mut fleet, mut twin) = (build(), build());
        for _ in 0..4 {
            fleet.tick(&mut source);
            twin.tick(&mut source);
        }
        let moved: Vec<usize> = (0..PAIRS).rev().filter(|p| p % 3 == 0).collect();
        for &pair in &moved {
            let shard = fleet.shard_of(pair).unwrap();
            fleet.move_pair(pair, 1 - shard).unwrap();
        }
        let slot_order = |shard: usize| {
            let mut hosted: Vec<(usize, usize)> = (fleet.table.iter().enumerate())
                .filter_map(|(pair, entry)| match entry.home {
                    PairHome::Assigned { shard: s, slot } if s == shard => Some((slot, pair)),
                    _ => None,
                })
                .collect();
            hosted.sort_unstable();
            hosted
                .into_iter()
                .map(|(_, pair)| pair)
                .collect::<Vec<usize>>()
        };
        assert!((0..2).all(|shard| !slot_order(shard).is_sorted()));
        for tick in 0..8 {
            let report = fleet.tick(&mut source);
            twin.tick(&mut source);
            let statuses = fleet.pair_statuses();
            let mut stepped = vec![0; PAIRS];
            for (shard, shard_report) in report.shard_reports.iter().enumerate() {
                let reports = &shard_report.as_ref().unwrap().reports;
                assert!(reports.is_sorted_by_key(|r| r.pair), "tick {tick}");
                for r in reports {
                    stepped[r.pair] += 1;
                    let status = &statuses[r.pair];
                    assert_eq!(status.shard, Some(shard));
                    assert_eq!(
                        (status.health, status.containment),
                        (Some(r.health), r.containment)
                    );
                }
                let sup = fleet.shards[shard].supervisor.as_ref().unwrap();
                assert_eq!(sup.counts(), sup.recount(), "tick {tick}");
            }
            assert!(stepped.iter().all(|&n| n == 1), "tick {tick}");
            for (pair, (ours, theirs)) in statuses.iter().zip(twin.pair_statuses()).enumerate() {
                if !moved.contains(&pair) {
                    let theirs = FleetPairStatus {
                        shard: ours.shard,
                        ..theirs
                    };
                    assert_eq!(format!("{ours:?}"), format!("{theirs:?}"), "pair {pair}");
                }
            }
        }
        assert_scrape_matches_recount(&fleet, "after the moves");
    }

    #[test]
    fn heartbeat_watchdog_declares_death_after_consecutive_panics() {
        let mut config = test_config(2);
        config.dead_after = 2;
        let mut fleet = ShardedFleet::new(config).unwrap();
        for pair in 0..8 {
            fleet
                .add_contention_pair(format!("memory-bus: pair {pair}"))
                .unwrap();
        }
        let victim = fleet.shard_of(0).unwrap();
        fleet.arm(FleetFault::ShardPanic(victim, 2)).unwrap();
        let first = fleet.tick(&mut covert_source);
        assert_eq!(first.heartbeat_misses, vec![victim]);
        assert!(first.deaths.is_empty());
        let second = fleet.tick(&mut covert_source);
        assert_eq!(second.deaths, vec![victim]);
        assert!(second.migration.migrated > 0);
        assert_eq!(fleet.shard_health(victim), Some(ShardHealth::Dead));
        // The survivor carries everything.
        assert_eq!(fleet.pair_statuses().len(), 8);
        assert!(fleet
            .pair_statuses()
            .iter()
            .all(|p| p.shard.is_some() && p.shard != Some(victim)));
    }

    /// A slow-but-alive shard breaches the latency SLO, gets suspected
    /// (not killed), and is drained proactively; once its latency
    /// recovers, suspicion clears and the bounded rebalance pass walks
    /// the pairs back to their rendezvous home. No watchdog death, no
    /// orphan, and the books balance at every step.
    #[test]
    fn suspicion_drains_slow_shard_and_rebalances_on_recovery() {
        let mut config = test_config(2);
        config.latency_slo = Some(LatencySloConfig {
            p99_budget_us: 25_000,
            window_ticks: 4,
            suspicion: SuspicionConfig {
                breach_ticks: 2,
                clear_ticks: 2,
            },
            drain_per_tick: 8,
        });
        let mut fleet = ShardedFleet::new(config).unwrap();
        for pair in 0..8 {
            fleet
                .add_contention_pair(format!("memory-bus: pair {pair}"))
                .unwrap();
        }
        let mut quiet = |_pair: usize, _tick: u64, _attempt: u32| {
            Ok::<PairInput, ProbeFault>(PairInput::Harvest(Harvest::Complete(quiet_histogram())))
        };
        for _ in 0..4 {
            fleet.tick(&mut quiet);
        }
        fleet.verify_accounting().unwrap();
        let victim = fleet.shard_of(0).unwrap();
        let homes: Vec<usize> = (0..8).map(|p| fleet.shard_of(p).unwrap()).collect();
        assert!(homes.contains(&victim));

        // Gray failure: the shard answers every tick, but slowly. The
        // stall is one-shot, so re-arm it before every tick.
        let mut drained_total = 0usize;
        let mut suspect_seen = false;
        for _ in 0..10 {
            fleet.arm(FleetFault::ShardStall(victim, 100_000)).unwrap();
            let report = fleet.tick(&mut quiet);
            drained_total += report.drained;
            if report.suspected.contains(&victim) {
                suspect_seen = true;
                break;
            }
        }
        assert!(suspect_seen, "sustained SLO breach must raise suspicion");
        assert_eq!(
            fleet.shard_health(victim),
            Some(ShardHealth::Live),
            "suspicion is not death: the shard stays live"
        );
        assert_eq!(fleet.suspected_shard_ids(), vec![victim]);
        assert!(fleet.shard_statuses()[victim].suspected);
        assert!(drained_total > 0, "drain must begin on the suspect tick");
        // Keep draining (and keep the shard slow) until it is empty.
        for _ in 0..4 {
            if fleet.shard_statuses()[victim].pairs == 0 {
                break;
            }
            fleet.arm(FleetFault::ShardStall(victim, 100_000)).unwrap();
            let report = fleet.tick(&mut quiet);
            drained_total += report.drained;
        }
        assert_eq!(
            fleet.shard_statuses()[victim].pairs,
            0,
            "a suspected shard must be fully drained"
        );
        assert_eq!(
            drained_total,
            homes.iter().filter(|&&h| h == victim).count()
        );
        fleet.verify_accounting().unwrap();
        // Nothing was orphaned or lost on the way out.
        assert!(fleet
            .pair_statuses()
            .iter()
            .all(|status| status.shard.is_some()));

        // Recovery: the stall is gone, latency falls back under budget,
        // and suspicion clears after a sustained quiet streak.
        let mut cleared_seen = false;
        for _ in 0..60 {
            let report = fleet.tick(&mut quiet);
            if report.cleared.contains(&victim) {
                cleared_seen = true;
                break;
            }
        }
        assert!(cleared_seen, "recovered latency must clear the suspicion");
        assert!(fleet.suspected_shard_ids().is_empty());

        // The rebalance pass now walks the drained pairs back to their
        // rendezvous home, bounded per tick.
        let mut rebalanced_total = 0usize;
        for _ in 0..8 {
            let report = fleet.tick(&mut quiet);
            assert!(report.rebalanced <= fleet.config.rebalance_per_tick);
            rebalanced_total += report.rebalanced;
        }
        assert!(
            rebalanced_total > 0,
            "pairs must return to the revived home"
        );
        for (pair, &home) in homes.iter().enumerate() {
            assert_eq!(
                fleet.shard_of(pair),
                Some(home),
                "pair {pair} must be back at its rendezvous home"
            );
        }
        fleet.verify_accounting().unwrap();
    }

    /// Killing and reviving a shard ends with every pair back at its
    /// rendezvous home: the rebalance pass moves at most
    /// `rebalance_per_tick` pairs per tick onto the revived shard, the
    /// accounting reconciliation holds at every step, and no verdict
    /// flips to Clean across the moves.
    #[test]
    fn revive_rebalances_home_pairs_with_bounded_churn() {
        let root = std::env::temp_dir().join(format!(
            "cchunter-shard-rebalance-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let mut config = test_config(3);
        config.rebalance_per_tick = 2;
        let mut fleet = ShardedFleet::with_store_root(config, &root).unwrap();
        for pair in 0..12 {
            fleet
                .add_contention_pair(format!("memory-bus: pair {pair}"))
                .unwrap();
        }
        for _ in 0..6 {
            fleet.tick(&mut covert_source);
        }
        fleet.verify_accounting().unwrap();
        fleet.checkpoint().unwrap();
        let homes: Vec<usize> = (0..12).map(|p| fleet.shard_of(p).unwrap()).collect();
        let victim = homes[0];
        let home_count = homes.iter().filter(|&&h| h == victim).count();

        fleet.kill_shard(victim).unwrap();
        fleet.verify_accounting().unwrap();
        fleet.tick(&mut covert_source);
        fleet.verify_accounting().unwrap();

        let adopted = fleet.revive_shard(victim).unwrap();
        assert_eq!(adopted.orphaned, 0);
        fleet.verify_accounting().unwrap();

        // The revived shard starts empty; each tick moves at most
        // `rebalance_per_tick` of its home pairs back.
        let mut rebalanced_total = 0usize;
        let mut ticks_needed = 0usize;
        for _ in 0..12 {
            let report = fleet.tick(&mut covert_source);
            assert!(
                report.rebalanced <= 2,
                "churn must respect the per-tick budget: {report:?}"
            );
            rebalanced_total += report.rebalanced;
            ticks_needed += 1;
            fleet.verify_accounting().unwrap();
            if rebalanced_total >= home_count {
                break;
            }
        }
        assert_eq!(
            rebalanced_total, home_count,
            "every home pair must be rebalanced onto the revived shard"
        );
        assert!(
            ticks_needed >= home_count.div_ceil(2),
            "the budget must actually bound the churn"
        );
        for (pair, &home) in homes.iter().enumerate() {
            assert_eq!(
                fleet.shard_of(pair),
                Some(home),
                "pair {pair} must end at its rendezvous home"
            );
        }
        // The moves never read as an acquittal.
        for status in fleet.pair_statuses() {
            assert_ne!(status.verdict, Verdict::Clean, "{}", status.label);
        }
        assert!(fleet.metrics_snapshot().ticks > 0);
        drop(fleet);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Adding a pair keeps every fleet gauge what a full refresh would set,
    /// on the fresh-pair fast path and on the orphaning path alike.
    #[test]
    fn adding_pairs_keeps_fleet_gauges_current() {
        fn gauges(fleet: &ShardedFleet) -> Vec<f64> {
            let m = &fleet.metrics;
            let mut out: Vec<f64> = m.per_shard.iter().map(|s| s.pairs.get()).collect();
            out.extend([m.orphaned_pairs.get(), m.degraded_pairs.get()]);
            out.extend([m.live_shards.get(), m.suspected_shards.get()]);
            out
        }
        let mut fleet = ShardedFleet::new(test_config(3)).unwrap();
        for pair in 0..12 {
            fleet
                .add_contention_pair(format!("memory-bus: pair {pair}"))
                .unwrap();
            let incremental = gauges(&fleet);
            fleet.refresh_gauges();
            assert_eq!(incremental, gauges(&fleet), "after adding pair {pair}");
        }
        for shard in 0..3 {
            fleet.kill_shard(shard).unwrap();
        }
        fleet.add_contention_pair("memory-bus: orphan").unwrap();
        assert_eq!(fleet.metrics.orphaned_pairs.get(), 13.0);
        let incremental = gauges(&fleet);
        fleet.refresh_gauges();
        assert_eq!(incremental, gauges(&fleet));
    }

    /// Ticks a quiet fleet until a rebalance pass settles placement, then
    /// asserts the following passes skip their scan and move nothing.
    fn settle(fleet: &mut ShardedFleet, source: &mut impl ProbeSource) {
        for _ in 0..16 {
            if !fleet.placement_unsettled {
                break;
            }
            fleet.tick(source);
        }
        assert!(!fleet.placement_unsettled, "placement must settle");
        for _ in 0..3 {
            let report = fleet.tick(source);
            assert_eq!((report.drained, report.rebalanced), (0, 0));
            assert!(!fleet.placement_unsettled);
        }
    }

    /// A settled fleet skips the rebalance scan, yet clearing a shard's
    /// suspicion or reviving a shard still walks that shard's home pairs
    /// back within the per-tick budget.
    #[test]
    fn settled_fleet_still_rebalances_after_clear_and_revive() {
        let mut config = test_config(3);
        config.rebalance_per_tick = 2;
        config.latency_slo = Some(LatencySloConfig {
            p99_budget_us: 25_000,
            window_ticks: 4,
            suspicion: SuspicionConfig {
                breach_ticks: 2,
                clear_ticks: 2,
            },
            drain_per_tick: 8,
        });
        let mut fleet = ShardedFleet::new(config).unwrap();
        for pair in 0..12 {
            fleet
                .add_contention_pair(format!("memory-bus: pair {pair}"))
                .unwrap();
        }
        let mut quiet = |_pair: usize, _tick: u64, _attempt: u32| {
            Ok::<PairInput, ProbeFault>(PairInput::Harvest(Harvest::Complete(quiet_histogram())))
        };
        settle(&mut fleet, &mut quiet);
        let homes: Vec<usize> = (0..12).map(|p| fleet.shard_of(p).unwrap()).collect();
        let victim = homes[0];
        let home_count = homes.iter().filter(|&&h| h == victim).count();
        // `already` counts moves made by the tick that unsettled placement.
        let walk_home = |fleet: &mut ShardedFleet, quiet: &mut dyn ProbeSource, already| {
            let mut rebalanced_total = already;
            for _ in 0..2 * home_count {
                let report = fleet.tick(quiet);
                assert!(report.rebalanced <= 2, "budget exceeded: {report:?}");
                rebalanced_total += report.rebalanced;
                fleet.verify_accounting().unwrap();
            }
            assert_eq!(rebalanced_total, home_count);
            for (pair, &home) in homes.iter().enumerate() {
                assert_eq!(fleet.shard_of(pair), Some(home), "pair {pair}");
            }
        };

        // Suspect the victim until it is drained, then settle around it.
        for _ in 0..12 {
            if fleet.shard_statuses()[victim].pairs == 0 {
                break;
            }
            fleet.arm(FleetFault::ShardStall(victim, 100_000)).unwrap();
            fleet.tick(&mut quiet);
        }
        assert_eq!(fleet.suspected_shard_ids(), vec![victim]);
        assert_eq!(fleet.shard_statuses()[victim].pairs, 0);
        settle(&mut fleet, &mut quiet);
        // Recovery clears the suspicion; the pass resumes and walks home.
        let mut cleared = None;
        for _ in 0..60 {
            let report = fleet.tick(&mut quiet);
            if report.cleared.contains(&victim) {
                cleared = Some(report.rebalanced);
                break;
            }
        }
        let already = cleared.expect("recovered latency must clear the suspicion");
        walk_home(&mut fleet, &mut quiet, already);
        settle(&mut fleet, &mut quiet);

        // Kill the victim, settle on the survivors, then revive it.
        fleet.kill_shard(victim).unwrap();
        settle(&mut fleet, &mut quiet);
        assert_eq!(fleet.revive_shard(victim).unwrap().orphaned, 0);
        walk_home(&mut fleet, &mut quiet, 0);
        settle(&mut fleet, &mut quiet);
    }

    #[test]
    fn env_knob_parses_and_clamps() {
        // Only exercises the parse/clamp logic through the public default
        // path — the variable itself is process-global state the test
        // suite must not mutate.
        assert_eq!(shard_count_from_env(6).clamp(1, MAX_SHARDS), 6);
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        assert!(ShardedFleet::new(ShardedFleetConfig {
            shards: 0,
            ..ShardedFleetConfig::default()
        })
        .is_err());
        assert!(ShardedFleet::new(ShardedFleetConfig {
            overflow_loss: 1.5,
            ..ShardedFleetConfig::default()
        })
        .is_err());
        assert!(ShardedFleet::new(ShardedFleetConfig {
            dead_after: 0,
            ..ShardedFleetConfig::default()
        })
        .is_err());
    }

    /// One seeded contention histogram: all zero, one `u64::MAX` bin,
    /// every bin at or near the 16-bit register ceiling, covert-shaped or
    /// quiet, with a Δt whose varint takes one to ten bytes.
    fn random_histogram(rng: &mut SmallRng) -> DensityHistogram {
        let mut bins = vec![0u64; HISTOGRAM_BINS];
        match rng.gen_range(0u32..5) {
            0 => {}
            1 => bins[rng.gen_range(0..HISTOGRAM_BINS)] = u64::MAX,
            2 => bins
                .iter_mut()
                .for_each(|b| *b = u64::from(u16::MAX) - rng.gen_range(0..2)),
            3 => {
                bins[0] = 2_400;
                let peak = rng.gen_range(16usize..24);
                bins[peak] = rng.gen_range(80..160);
                bins[peak + 1] = rng.gen_range(5..30);
            }
            _ => {
                bins[0] = 2_400;
                bins[1] = rng.gen_range(0..60);
                bins[2] = rng.gen_range(0..20);
            }
        }
        let delta_t = [1, 1_000, 100_000, u64::MAX][rng.gen_range(0..4)];
        DensityHistogram::from_bins(bins, delta_t).unwrap()
    }

    /// One seeded input for a `kind` pair: complete, partial (NaN and
    /// out-of-range losses among them) or missed, with a wrong-kind input
    /// now and then and, for oscillation pairs, drains naming a context
    /// outside the 3-bit range.
    fn random_input(rng: &mut SmallRng, kind: PairKind) -> PairInput {
        let histogram = random_histogram(rng);
        let harvest = match rng.gen_range(0u32..6) {
            0 => Harvest::Missed,
            1 => Harvest::Complete(histogram),
            2 => Harvest::Partial {
                histogram,
                lost_fraction: f64::NAN,
            },
            3 => Harvest::Partial {
                histogram,
                lost_fraction: [-0.5, 1.5][rng.gen_range(0..2)],
            },
            _ => Harvest::Partial {
                histogram,
                lost_fraction: rng.gen_range(0.0..1.0),
            },
        };
        let wrong_kind = rng.gen_range(0u32..8) == 0;
        if (kind == PairKind::Contention) != wrong_kind {
            return PairInput::Harvest(harvest);
        }
        let group = rng.gen_range(4..40);
        let mut records: Vec<ConflictRecord> = (0..rng.gen_range(0..256))
            .map(|i| {
                let up = (i / group) % 2 == 0;
                ConflictRecord {
                    cycle: 50 * i as u64,
                    replacer: u8::from(up),
                    victim: u8::from(!up),
                }
            })
            .collect();
        if let (Some(r), true) = (records.first_mut(), rng.gen_range(0u32..6) == 0) {
            r.replacer = 200;
        }
        PairInput::Conflicts {
            records,
            lost_fraction: rng.gen_range(0.0..1.0),
        }
    }

    #[test]
    fn encoded_harvests_score_like_a_bare_window_replay() {
        // The coordinator encodes each contention harvest at the probe and
        // the shard scores it from those bytes. Over seeded schedules —
        // mailbox overflow widening the later pairs' losses — every fleet
        // tick reports the status a bare window reports for the same
        // (widened) input, wrong-kind and out-of-range inputs degrade the
        // pair with `BadHarvest` after a gap, and every window ends up
        // checkpointing byte for byte like its bare twin.
        const PAIRS: usize = 5;
        const MAILBOX: usize = 2;
        for case in 0..24u64 {
            let mut rng = SmallRng::seed_from_u64(0xE4C0_DE00 + case);
            let capacity = rng.gen_range(1usize..24);
            let overflow_loss = rng.gen_range(0.0..1.0);
            let config = ShardedFleetConfig {
                shards: 1,
                base: SupervisorConfig {
                    window_quanta: capacity,
                    backoff: BackoffConfig {
                        max_retries: 0,
                        ..BackoffConfig::default()
                    },
                    // Gaps must not quarantine a pair: every tick is analysed.
                    quarantine: QuarantineConfig {
                        min_observations: usize::MAX,
                        ..QuarantineConfig::default()
                    },
                    ..SupervisorConfig::default()
                },
                mailbox_capacity: MAILBOX,
                overflow_loss,
                ..ShardedFleetConfig::default()
            };
            let hunter = config.base.hunter;
            let mut fleet = ShardedFleet::new(config).unwrap();
            let kinds: Vec<PairKind> = (0..PAIRS)
                .map(|pair| match pair % 3 {
                    2 => PairKind::Oscillation,
                    _ => PairKind::Contention,
                })
                .collect();
            let mut bare = Vec::new();
            for (pair, &kind) in kinds.iter().enumerate() {
                match kind {
                    PairKind::Contention => fleet.add_contention_pair(format!("pair {pair}")),
                    PairKind::Oscillation => fleet.add_oscillation_pair(format!("pair {pair}")),
                }
                .unwrap();
                bare.push(OnlineWindow::new(kind, hunter, capacity).unwrap());
            }
            for step in 0..rng.gen_range(1usize..48) {
                let inputs: Vec<PairInput> =
                    kinds.iter().map(|&k| random_input(&mut rng, k)).collect();
                let report = fleet.tick(&mut |pair: usize, _tick: u64, _attempt: u32| {
                    Ok::<_, ProbeFault>(inputs[pair].clone())
                });
                let reports = &report.shard_reports[0].as_ref().unwrap().reports;
                for (pair, window) in bare.iter_mut().enumerate() {
                    let mut input = inputs[pair].clone();
                    if pair >= MAILBOX {
                        input.widen_loss(overflow_loss);
                    }
                    let pushed = match &input {
                        PairInput::Harvest(h) => window.push_harvest(h.clone()),
                        PairInput::Conflicts {
                            records,
                            lost_fraction,
                        } => window.push_conflicts(records, *lost_fraction),
                        _ => Ok(window.push_missed()),
                    };
                    let (expected, rejected) = match pushed {
                        Ok(status) => (status, false),
                        Err(_) => (window.push_missed(), true),
                    };
                    let at = format!("case {case} step {step} pair {pair}: {input:?}");
                    let status = match &reports[pair].outcome {
                        PairOutcome::Analyzed(status) => status,
                        PairOutcome::Degraded {
                            status,
                            error: DetectorError::BadHarvest { .. },
                        } => status,
                        other => panic!("{at}: {other:?}"),
                    };
                    assert_eq!(format!("{status:?}"), format!("{expected:?}"), "{at}");
                    if rejected {
                        assert!(
                            matches!(reports[pair].outcome, PairOutcome::Degraded { .. }),
                            "{at}"
                        );
                    }
                }
            }
            let supervisor = fleet.shards[0].supervisor.as_mut().unwrap();
            for (slot, window) in bare.iter().enumerate().rev() {
                let mut expected = Vec::new();
                window.checkpoint(&mut expected).unwrap();
                let (_, window) = supervisor.remove_pair(slot).unwrap();
                let mut written = Vec::new();
                window.checkpoint(&mut written).unwrap();
                assert_eq!(written, expected, "case {case} pair {slot}");
            }
        }
    }
    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cchunter-shard-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A panicked pair's window is rebuilt from the checkpoint listed
    /// under its own label, even after a move reused its slot: B takes
    /// A's slot when A moves away, and B's rebuild must not read A's
    /// checkpointed window (which would convict quiet B at once).
    #[test]
    fn panic_rebuild_after_a_move_restores_the_pairs_own_window() {
        let root = temp_root("rebuild");
        let mut fleet = ShardedFleet::with_store_root(test_config(2), &root).unwrap();
        for pair in 0..8 {
            fleet
                .add_contention_pair(format!("memory-bus: pair {pair}"))
                .unwrap();
        }
        let shard = fleet.shard_of(0).unwrap();
        let slots: Vec<usize> = fleet.shards[shard]
            .supervisor
            .as_ref()
            .unwrap()
            .hosted()
            .collect();
        let (a, b) = (slots[0], *slots.last().unwrap());
        assert_ne!(a, b, "shard {shard} hosts two pairs");
        let mut source = |pair: usize, _tick: u64, _attempt: u32| {
            let histogram = if pair == a {
                covert_histogram()
            } else {
                quiet_histogram()
            };
            Ok::<PairInput, ProbeFault>(PairInput::Harvest(Harvest::Complete(histogram)))
        };
        for _ in 0..6 {
            fleet.tick(&mut source);
        }
        assert!(fleet.pair_statuses()[a].verdict.is_covert());
        assert_eq!(fleet.pair_statuses()[b].verdict, Verdict::Clean);
        fleet.checkpoint().unwrap();
        let window = |fleet: &ShardedFleet, slot: usize| {
            let mut text = Vec::new();
            let sup = fleet.shards[shard].supervisor.as_ref().unwrap();
            sup.window_of(slot).unwrap().checkpoint(&mut text).unwrap();
            String::from_utf8(text).unwrap()
        };
        let checkpointed = window(&fleet, slots.len() - 1);

        fleet.move_pair(a, 1 - shard).unwrap();
        assert_eq!(fleet.table[b].home, PairHome::Assigned { shard, slot: 0 });
        fleet.arm(FleetFault::PairPanic(b, 1)).unwrap();
        fleet.tick(&mut source);
        assert_eq!(window(&fleet, 0), checkpointed, "B restores its own window");
        for _ in 0..4 {
            fleet.tick(&mut source);
            let status = &fleet.pair_statuses()[b];
            assert!(!status.verdict.is_covert(), "{status:?}");
        }
        assert!(fleet.pair_statuses()[a].verdict.is_covert());
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A label is a pair's store identity: one with leading or trailing
    /// whitespace would come back trimmed from the manifest, its state
    /// orphaned.
    #[test]
    fn labels_with_edge_whitespace_are_refused() {
        let mut fleet = ShardedFleet::new(test_config(2)).unwrap();
        for label in [" bus", "bus ", "bus\t", "\u{a0}bus", ""] {
            assert!(
                matches!(
                    fleet.add_contention_pair(label),
                    Err(DetectorError::InvalidConfig { .. })
                ),
                "{label:?}"
            );
        }
        assert!(fleet.is_empty());
        fleet.add_contention_pair("bus, core 0 <-> core 1").unwrap();
    }

    /// A control character would break the manifest line it rides in
    /// (a newline makes the shard's store unreadable).
    #[test]
    fn labels_with_control_characters_are_refused() {
        let mut fleet = ShardedFleet::new(test_config(2)).unwrap();
        for label in ["bus\nend", "bus\r", "bus\u{0}spy", "bus\u{7f}"] {
            assert!(
                matches!(
                    fleet.add_oscillation_pair(label),
                    Err(DetectorError::InvalidConfig { .. })
                ),
                "{label:?}"
            );
        }
        assert!(fleet.is_empty());
    }

    /// Two live pairs under one label would share one store identity, and
    /// a restart could bring back only one of them.
    #[test]
    fn duplicate_live_labels_are_refused() {
        let mut fleet = ShardedFleet::new(test_config(2)).unwrap();
        fleet.add_contention_pair("bus").unwrap();
        for kind in [PairKind::Contention, PairKind::Oscillation] {
            let added = match kind {
                PairKind::Contention => fleet.add_contention_pair("bus"),
                PairKind::Oscillation => fleet.add_oscillation_pair("bus"),
            };
            assert!(matches!(added, Err(DetectorError::InvalidConfig { .. })));
        }
        assert_eq!(fleet.len(), 1);
        fleet.verify_accounting().unwrap();
    }

    /// The quantum `tick` of pair `pair` in the move-equivalence schedule:
    /// even pairs covert, odd pairs quiet, with partial and missed quanta.
    fn scheduled_input(pair: usize, tick: u64, kind: PairKind) -> PairInput {
        let covert = pair.is_multiple_of(2);
        let lost_fraction = 0.25 + 0.125 * (tick % 3) as f64;
        let shape = (tick + pair as u64) % 5;
        match kind {
            _ if shape == 0 => PairInput::Missed,
            PairKind::Contention => {
                let histogram = if covert {
                    covert_histogram()
                } else {
                    quiet_histogram()
                };
                PairInput::Harvest(match shape {
                    1 => Harvest::Partial {
                        histogram,
                        lost_fraction,
                    },
                    _ => Harvest::Complete(histogram),
                })
            }
            PairKind::Oscillation => {
                let mut rng = SmallRng::seed_from_u64(tick << 8 | pair as u64);
                let records = (0..192)
                    .map(|i| {
                        let up = if covert {
                            (i / 16) % 2 == 0
                        } else {
                            rng.gen_range(0u32..2) == 0
                        };
                        ConflictRecord {
                            cycle: 50 * i as u64,
                            replacer: u8::from(up),
                            victim: u8::from(!up),
                        }
                    })
                    .collect();
                PairInput::Conflicts {
                    records,
                    lost_fraction: if shape == 1 { lost_fraction } else { 0.0 },
                }
            }
        }
    }

    /// Moving a pair by value is moving it through checkpoint text: for
    /// each pair of both kinds, contained or not, after complete, partial
    /// and missed quanta, two twin fleets — one moving the pair by value,
    /// the other after sending its window through `checkpoint` →
    /// `restore` and its breaker and containment through their text forms
    /// — report the same statuses, shard aside, for 16 ticks.
    #[test]
    fn moving_by_value_reports_like_moving_through_text() {
        let kinds = [
            PairKind::Contention,
            PairKind::Contention,
            PairKind::Oscillation,
            PairKind::Oscillation,
        ];
        let build = || {
            let mut fleet = ShardedFleet::new(test_config(2)).unwrap();
            for (pair, kind) in kinds.iter().enumerate() {
                let label = format!("pair {pair}");
                match kind {
                    PairKind::Contention => fleet.add_contention_pair(label),
                    PairKind::Oscillation => fleet.add_oscillation_pair(label),
                }
                .unwrap();
            }
            fleet
        };
        let mut source = |pair: usize, tick: u64, _attempt: u32| {
            Ok::<PairInput, ProbeFault>(scheduled_input(pair, tick, kinds[pair]))
        };
        let statuses = |fleet: &ShardedFleet| -> Vec<String> {
            let statuses = fleet.pair_statuses().into_iter();
            statuses
                .map(|status| {
                    format!(
                        "{:?}",
                        FleetPairStatus {
                            shard: None,
                            ..status
                        }
                    )
                })
                .collect()
        };
        let mut contained = [false; 4];
        for (moved, was_contained) in contained.iter_mut().enumerate() {
            let (mut by_value, mut by_text) = (build(), build());
            for _ in 0..12 {
                by_value.tick(&mut source);
                by_text.tick(&mut source);
            }
            *was_contained = by_value.containment(moved).unwrap().is_active();
            let PairHome::Assigned { shard, slot } = by_text.table[moved].home else {
                panic!("pair {moved} is hosted");
            };
            let sup = by_text.shards[shard].supervisor.as_mut().unwrap();
            sup.round_trip_through_text(slot);
            by_value.move_pair(moved, 1 - shard).unwrap();
            by_text.move_pair(moved, 1 - shard).unwrap();
            assert_eq!(
                by_value.pair_statuses()[moved].verdict,
                Verdict::Inconclusive
            );
            for tick in 0..16 {
                by_value.tick(&mut source);
                by_text.tick(&mut source);
                let value = statuses(&by_value);
                assert_eq!(value, statuses(&by_text), "pair {moved} tick {tick}");
            }
        }
        assert_eq!(contained, [true, false, true, false]);
    }

    /// Enforcement calls as `(shard, pair, level, release)`.
    type CallLog = Arc<std::sync::Mutex<Vec<(usize, usize, MitigationLevel, bool)>>>;

    /// Records every enforcement call of the shard it is installed on;
    /// clones share one log.
    #[derive(Clone)]
    struct LoggingEnforcer {
        shard: usize,
        log: CallLog,
    }

    impl LoggingEnforcer {
        fn record(&self, pair: usize, level: MitigationLevel, release: bool) {
            let mut log = self.log.lock().unwrap();
            log.push((self.shard, pair, level, release));
        }
    }

    impl MitigationEnforcer for LoggingEnforcer {
        fn apply(&mut self, pair: usize, level: MitigationLevel) -> Result<(), ApplyError> {
            self.record(pair, level, false);
            Ok(())
        }

        fn release(&mut self, pair: usize, level: MitigationLevel) -> Result<(), ApplyError> {
            self.record(pair, level, true);
            Ok(())
        }
    }

    /// The enforcer contains the pair that was convicted: every apply and
    /// release names the convicted pair's fleet index, never its slot
    /// (which, on a shard hosting other pairs, is another pair's fleet
    /// index), on its first shard and after a rebalance moved it.
    #[test]
    fn containment_names_the_convicted_pairs_fleet_index() {
        let mut fleet = ShardedFleet::new(test_config(2)).unwrap();
        for pair in 0..8 {
            fleet
                .add_contention_pair(format!("memory-bus: pair {pair}"))
                .unwrap();
        }
        let log = Arc::default();
        for shard in 0..2 {
            let log = Arc::clone(&log);
            fleet
                .set_enforcer(shard, Box::new(LoggingEnforcer { shard, log }))
                .unwrap();
        }
        let convicted = (0..8)
            .find(|&p| matches!(fleet.table[p].home, PairHome::Assigned { slot, .. } if slot != p))
            .expect("a pair whose slot is not its index");
        let mut source = |pair: usize, _tick: u64, _attempt: u32| {
            let histogram = if pair == convicted {
                covert_histogram()
            } else {
                quiet_histogram()
            };
            Ok::<PairInput, ProbeFault>(PairInput::Harvest(Harvest::Complete(histogram)))
        };
        // Conviction, then escalations (each releasing the rung below).
        for _ in 0..12 {
            fleet.tick(&mut source);
        }
        let home = fleet.shard_of(convicted).unwrap();
        fleet.move_pair(convicted, 1 - home).unwrap();
        for _ in 0..4 {
            fleet.tick(&mut source);
        }
        let log = log.lock().unwrap();
        let on = |shard: usize| log.iter().filter(|call| call.0 == shard).count();
        assert!(on(home) > 0 && on(1 - home) > 0, "{log:?}");
        assert!(
            log.iter().any(|call| call.3),
            "a rung was released: {log:?}"
        );
        assert!(log.iter().all(|call| call.1 == convicted), "{log:?}");
    }

    /// Pair 0's first probe attempt slips every tick, so it retries once a
    /// tick; every other attempt reads a quiet harvest.
    fn slipping_source(pair: usize, _tick: u64, attempt: u32) -> Result<PairInput, ProbeFault> {
        if pair == 0 && attempt == 0 {
            return Err(ProbeFault {
                reason: "slipped".to_string(),
            });
        }
        Ok(PairInput::Harvest(Harvest::Complete(quiet_histogram())))
    }

    /// A kill reads each of the dead shard's pairs back from the newest
    /// manifest listing it in any store. A pair moved onto the shard since
    /// its last checkpoint comes back from the store it left, counters
    /// and all, not fresh and degraded (a schedule found this at seed 24:
    /// a pair back with zero counters that a durable manifest listed).
    #[test]
    fn kill_restores_a_pair_moved_since_its_checkpoint_from_the_store_it_left() {
        let root = temp_root("moved-kill");
        let mut fleet = ShardedFleet::with_store_root(test_config(3), &root).unwrap();
        for pair in 0..6 {
            fleet.add_contention_pair(format!("bus: {pair}")).unwrap();
        }
        for _ in 0..4 {
            fleet.tick(&mut slipping_source);
        }
        fleet.checkpoint().unwrap();
        let listed = fleet.pair_statuses()[0].clone();
        assert_eq!(listed.retries, 4);
        let away = (fleet.shard_of(0).unwrap() + 1) % 3;
        fleet.move_pair(0, away).unwrap();
        fleet.kill_shard(away).unwrap();
        let back = &fleet.pair_statuses()[0];
        assert!(!back.degraded && back.restored_from.is_some(), "{back:?}");
        assert_eq!(counters(back), counters(&listed), "{back:?}");
        assert_eq!(back.verdict, Verdict::Inconclusive);
        fleet.verify_accounting().unwrap();
        drop(fleet);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Reviving a shard adopts the orphans with what the stores hold for
    /// them, read before the revived shard's own store is wiped, not
    /// fresh and degraded.
    #[test]
    fn revival_adopts_orphans_from_the_stores() {
        let root = temp_root("orphans");
        let mut fleet = ShardedFleet::with_store_root(test_config(2), &root).unwrap();
        for pair in 0..4 {
            fleet.add_contention_pair(format!("bus: {pair}")).unwrap();
        }
        for _ in 0..4 {
            fleet.tick(&mut slipping_source);
        }
        fleet.checkpoint().unwrap();
        let listed = fleet.pair_statuses();
        fleet.kill_shard(0).unwrap();
        fleet.kill_shard(1).unwrap();
        assert!(fleet.pair_statuses().iter().all(|s| s.shard.is_none()));
        let report = fleet.revive_shard(0).unwrap();
        assert_eq!((report.migrated, report.degraded_imports), (4, 0));
        for (now, was) in fleet.pair_statuses().iter().zip(&listed) {
            assert!(!now.degraded && now.restored_from.is_some(), "{now:?}");
            assert_eq!(counters(now), counters(was), "{now:?}");
            assert_eq!(now.verdict, Verdict::Inconclusive);
        }
        fleet.verify_accounting().unwrap();
        drop(fleet);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A restart cannot tell a label no store lists from one added since
    /// the last checkpoint, so it never acquits one: re-added over a root
    /// a fleet ran in, such a pair reads Inconclusive until analysed (a
    /// schedule found this at seed 4: a moved pair, Inconclusive before
    /// the crash, back Clean). Over a new root a new pair reads Clean.
    #[test]
    fn a_restart_never_acquits_a_pair_no_store_lists() {
        let root = temp_root("unlisted");
        let mut fleet = ShardedFleet::with_store_root(test_config(2), &root).unwrap();
        fleet.add_contention_pair("bus: moved").unwrap();
        assert_eq!(fleet.pair_statuses()[0].verdict, Verdict::Clean);
        let home = fleet.shard_of(0).unwrap();
        fleet.move_pair(0, 1 - home).unwrap();
        assert_eq!(fleet.pair_statuses()[0].verdict, Verdict::Inconclusive);
        drop(fleet);
        let mut fleet = ShardedFleet::with_store_root(test_config(2), &root).unwrap();
        fleet.add_contention_pair("bus: moved").unwrap();
        let status = &fleet.pair_statuses()[0];
        assert!(
            status.restored_from.is_none() && !status.degraded,
            "{status:?}"
        );
        assert_eq!(status.verdict, Verdict::Inconclusive);
        fleet.tick(&mut slipping_source);
        assert_eq!(fleet.pair_statuses()[0].verdict, Verdict::Clean);
        drop(fleet);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A pair's harvest: its fingerprint, a Δt no other pair's harvests
    /// carry, with covert or quiet bins.
    fn fingerprint(pair: usize, covert: bool) -> DensityHistogram {
        let histogram = if covert {
            covert_histogram()
        } else {
            quiet_histogram()
        };
        DensityHistogram::from_bins(histogram.bins().to_vec(), 10_000 + pair as u64).unwrap()
    }

    /// Contention pairs of the schedule test; the rest are oscillation
    /// pairs.
    const CONTENTION_PAIRS: usize = 6;

    /// Pair `pair`'s probe at `tick` in the schedule test, a pure
    /// function of its arguments. Even pairs run a covert channel for 16
    /// ticks in 32, odd pairs stay quiet. A pair is wedged (every attempt
    /// fails) for six ticks in 40, slips its first attempt now and then,
    /// and some quanta come back partial or missed.
    fn schedule_probe(pair: usize, tick: u64, attempt: u32) -> Result<PairInput, ProbeFault> {
        let fault = |reason: &str| {
            Err(ProbeFault {
                reason: reason.to_string(),
            })
        };
        if (tick / 8 + pair as u64).is_multiple_of(5) && tick % 8 < 6 {
            return fault("wedged");
        }
        if attempt == 0 && mix_seed(pair as u64, tick, 0x511D).is_multiple_of(5) {
            return fault("slipped");
        }
        let covert = pair.is_multiple_of(2) && (tick / 16 + pair as u64 / 2).is_multiple_of(2);
        if pair >= CONTENTION_PAIRS {
            return Ok(scheduled_input(
                if covert { 0 } else { 1 },
                tick,
                PairKind::Oscillation,
            ));
        }
        let histogram = fingerprint(pair, covert);
        Ok(PairInput::Harvest(match (tick + pair as u64) % 7 {
            0 => Harvest::Missed,
            1 => Harvest::Partial {
                histogram,
                lost_fraction: 0.5,
            },
            _ => Harvest::Complete(histogram),
        }))
    }

    /// Refuses an enforcement call as a pure function of the pair's fleet
    /// index, the rung, the call (apply or release) and the tick, which
    /// it reads from a clock the test sets before each tick.
    #[derive(Clone, Default)]
    struct ScriptedEnforcer(Arc<std::sync::atomic::AtomicU64>);

    impl ScriptedEnforcer {
        fn call(
            &self,
            pair: usize,
            level: MitigationLevel,
            release: bool,
        ) -> Result<(), ApplyError> {
            let tick = self.0.load(std::sync::atomic::Ordering::SeqCst);
            let site = 2 * pair as u64 + u64::from(release);
            if mix_seed(site, u64::from(level.rank()), tick).is_multiple_of(4) {
                return Err(ApplyError {
                    reason: format!("{level} refused at tick {tick}"),
                });
            }
            Ok(())
        }
    }

    impl MitigationEnforcer for ScriptedEnforcer {
        fn apply(&mut self, pair: usize, level: MitigationLevel) -> Result<(), ApplyError> {
            self.call(pair, level, false)
        }

        fn release(&mut self, pair: usize, level: MitigationLevel) -> Result<(), ApplyError> {
            self.call(pair, level, true)
        }
    }

    /// A pair's four persistent counters in a status.
    fn counters(status: &FleetPairStatus) -> [u64; 4] {
        [
            status.failures,
            status.panics,
            status.deadline_misses,
            status.retries,
        ]
    }

    /// Whether no counter of `now` is below its `floor`.
    fn no_lower(now: &FleetPairStatus, floor: &[u64; 4]) -> bool {
        counters(now).iter().zip(floor).all(|(n, f)| n >= f)
    }

    /// Pairs' counters by fleet index, as a manifest lists them.
    type Listed = HashMap<usize, [u64; 4]>;

    /// The counters of the `hosted` pairs: what a manifest written now
    /// lists for them.
    fn listed(statuses: &[FleetPairStatus], hosted: impl Iterator<Item = usize>) -> Listed {
        hosted
            .map(|pair| (pair, counters(&statuses[pair])))
            .collect()
    }

    /// What the schedule test remembers about one pair between steps.
    #[derive(Debug, Default)]
    struct Watch {
        /// The non-covert verdicts its ladder was driven with since the
        /// last covert one; `None` when a restore may have brought back a
        /// longer streak. Never shorter than the ladder's own clean streak.
        clean_run: Option<u32>,
        /// The last residual reported for its current containment state
        /// was above the cap.
        residual_over: bool,
        /// Held by the reference model: analysed on every tick's input
        /// since the schedule began, never restored, panicked, stalled past
        /// its deadline, or moved while contained.
        delivered: bool,
        /// Moved by value and not analysed since: reports Inconclusive.
        admitted: bool,
    }

    /// A seeded schedule test of every path a pair can take, checked
    /// against a reference model. A three-shard fleet with a shard and a
    /// per-pair deadline runs over a store root behind a storage fault
    /// injector, checkpointing itself every third tick, with contention
    /// and oscillation pairs and a scripted enforcer on every shard. Each
    /// step ticks, arms a pair panic, kills or revives a shard,
    /// checkpoints, restarts (drop the fleet, reopen the root, re-add every
    /// label), browns the storage out or heals it, reports a residual, or
    /// stalls a shard or a pair past its deadline.
    ///
    /// The model holds one fresh pair per label and steps it through the
    /// same `Pair::step`, with the same probes and enforcer, for as long
    /// as the fleet's own reports show the pair analysed on every tick's
    /// input. After every step the books balance; every pair the model
    /// holds reads what the model reads (a pair moved by value reads
    /// Inconclusive until analysed); every window holds only its own
    /// pair's harvests; no degraded pair reads Clean; no pair goes from
    /// Inconclusive to Clean without an analysis; a containment rung drops
    /// only after `step_down_streak` clean verdicts with no residual over
    /// the cap; and per-pair counters never fall, except back to the
    /// newest durable checkpoint a kill or restart reads them from.
    #[test]
    fn seeded_schedules_keep_every_pair_on_its_own_evidence() {
        use crate::fault::{StorageFaultClass, StorageFaultConfig, StorageFaultInjector};
        use crate::mitigation::MitigationConfig;
        use crate::supervisor::ShardBatch;
        const PAIRS: usize = 8;
        const SHARDS: usize = 3;
        let mut config = ShardedFleetConfig {
            rebalance_per_tick: 4,
            shard_deadline_us: 100_000,
            // A stalled shard is suspected at once and drained by value.
            latency_slo: Some(LatencySloConfig {
                p99_budget_us: 100_000,
                window_ticks: 4,
                suspicion: SuspicionConfig {
                    breach_ticks: 1,
                    clear_ticks: 2,
                },
                drain_per_tick: 4,
            }),
            ..test_config(SHARDS)
        };
        config.base.checkpoint_every = 3;
        config.base.deadline_us = 50_000;
        // Quick trips and recoveries, so contained pairs leave quarantine.
        config.base.quarantine = QuarantineConfig {
            failure_window: 4,
            min_observations: 2,
            probe_interval: 2,
            recovery_successes: 1,
            ..QuarantineConfig::default()
        };
        config.base.mitigation = MitigationConfig {
            step_down_streak: 3,
            ..MitigationConfig::default()
        };
        let (step_down_streak, residual_cap) = (3, config.base.mitigation.residual_cap);
        let labels: Vec<String> = (0..PAIRS)
            .map(|pair| match pair < CONTENTION_PAIRS {
                true => format!("bus: pair {pair}"),
                false => format!("l2: pair {pair}"),
            })
            .collect();
        let (injector, clock) = (
            StorageFaultInjector::new(StorageFaultConfig::none(), 7),
            ScriptedEnforcer::default(),
        );
        let open = |root: &Path| {
            let medium = Arc::new(injector.clone());
            let mut fleet =
                ShardedFleet::with_store_root_and_medium(config.clone(), root, medium).unwrap();
            for (pair, label) in labels.iter().enumerate() {
                match pair < CONTENTION_PAIRS {
                    true => fleet.add_contention_pair(label.as_str()),
                    false => fleet.add_oscillation_pair(label.as_str()),
                }
                .unwrap();
            }
            for shard in 0..SHARDS {
                fleet.set_enforcer(shard, Box::new(clock.clone())).unwrap();
            }
            fleet
        };
        let model_table =
            Supervisor::new(config.base, Registry::new(), Tracer::disabled()).unwrap();
        let (mut source, mut batch) = (schedule_probe, ShardBatch::default());
        let mut modelled_pair_ticks = 0usize;
        for seed in 0..48u64 {
            let root = temp_root(&format!("schedule-{seed}"));
            let mut rng = SmallRng::seed_from_u64(0x5C4E_D000 + seed);
            injector.set_config(StorageFaultConfig::none());
            let mut fleet = open(&root);
            let mut model: Vec<_> = (0..PAIRS)
                .map(|pair| {
                    let kind = fleet.table[pair].kind;
                    model_table.fresh_pair(pair, &labels[pair], kind)
                })
                .collect();
            let mut watch: Vec<Watch> = (0..PAIRS)
                .map(|_| Watch {
                    clean_run: Some(0),
                    delivered: true,
                    ..Watch::default()
                })
                .collect();
            // Pairs admitted onto a shard and not analyzed there since.
            let mut unanalyzed = HashSet::new();
            // Each shard store's newest durable manifest: its tick and the
            // counters of the pairs it lists.
            let mut durable: Vec<Option<(u64, Listed)>> = vec![None; SHARDS];
            for step in 0..60 {
                let at = format!("seed {seed} step {step}");
                let before = fleet.pair_statuses();
                // Pairs whose record this step reads back from the stores.
                let mut restored: Vec<usize> = Vec::new();
                let mut driven: Vec<Option<bool>> = vec![None; PAIRS];
                let mut analysed = [false; PAIRS];
                // The shard each pair's analysis this step ran on.
                let mut analysed_on: Vec<Option<usize>> = vec![None; PAIRS];
                match rng.gen_range(0u32..40) {
                    0..=23 => {
                        let tick = fleet.tick_count();
                        clock.0.store(tick, std::sync::atomic::Ordering::SeqCst);
                        let report = fleet.tick(&mut source);
                        let ticked = fleet.pair_statuses();
                        let mut outcomes: Vec<Option<&PairOutcome>> = vec![None; PAIRS];
                        for (shard, shard_report) in report.shard_reports.iter().enumerate() {
                            let Some(shard_report) = shard_report else {
                                continue;
                            };
                            for pair_report in &shard_report.reports {
                                outcomes[pair_report.pair] = Some(&pair_report.outcome);
                                if let PairOutcome::Analyzed(_) | PairOutcome::Degraded { .. } =
                                    pair_report.outcome
                                {
                                    analysed_on[pair_report.pair] = Some(shard);
                                }
                            }
                            if shard_report.checkpoint_generation.is_some() {
                                let hosted = shard_report.reports.iter().map(|r| r.pair);
                                durable[shard] = Some((tick + 1, listed(&ticked, hosted)));
                            }
                        }
                        for &dead in &report.deaths {
                            restored.extend((0..PAIRS).filter(|&p| before[p].shard == Some(dead)));
                        }
                        for (pair, outcome) in outcomes.into_iter().enumerate() {
                            let w = &mut watch[pair];
                            driven[pair] = match outcome {
                                Some(PairOutcome::Analyzed(status))
                                | Some(PairOutcome::Degraded { status, .. }) => {
                                    analysed[pair] = true;
                                    w.admitted = false;
                                    Some(status.verdict.is_covert())
                                }
                                Some(PairOutcome::Failed { .. }) => {
                                    Some(before[pair].verdict.is_covert())
                                }
                                Some(PairOutcome::Skipped { .. }) | None => None,
                            };
                            if analysed[pair] {
                                unanalyzed.remove(&pair);
                            }
                            // A contained pair's breaker closing from
                            // quarantine forgets the ladder's streaks.
                            let (was, now) = (before[pair].health, ticked[pair].health);
                            if was.is_some_and(|h| h != BreakerState::Closed)
                                && now == Some(BreakerState::Closed)
                                && matches!(
                                    before[pair].containment,
                                    ContainmentState::Contained { .. }
                                )
                            {
                                w.clean_run = Some(0);
                            }
                            w.clean_run = match driven[pair] {
                                Some(true) => Some(0),
                                Some(false) => w.clean_run.map(|run| run + 1),
                                None => w.clean_run,
                            };
                            w.delivered &= match outcome {
                                Some(PairOutcome::Analyzed(_) | PairOutcome::Skipped { .. }) => {
                                    true
                                }
                                Some(PairOutcome::Degraded { error, .. }) => {
                                    !matches!(error, DetectorError::DeadlineExceeded { .. })
                                }
                                Some(PairOutcome::Failed { .. }) | None => false,
                            };
                            if w.delivered {
                                let probed = model[pair].should_attempt(tick).then(|| {
                                    let seed = mix_seed(config.base.seed, pair as u64, tick);
                                    let backoff = &config.base.backoff;
                                    probe_with_retry(&mut source, backoff, seed, pair, tick)
                                });
                                let mut enforcer = clock.clone();
                                model[pair].step_probed(tick, probed, &mut batch, &mut enforcer);
                                modelled_pair_ticks += 1;
                            }
                        }
                    }
                    24 => {
                        let pair = rng.gen_range(0..PAIRS);
                        let _ = fleet.arm(FleetFault::PairPanic(pair, 1));
                    }
                    25 => {
                        let victim = rng.gen_range(0..SHARDS);
                        if fleet.shard_health(victim) == Some(ShardHealth::Live) {
                            restored
                                .extend((0..PAIRS).filter(|&p| before[p].shard == Some(victim)));
                        }
                        fleet.kill_shard(victim).unwrap();
                    }
                    26 | 27 => {
                        let dead: Vec<usize> = (0..SHARDS)
                            .filter(|&s| fleet.shard_health(s) == Some(ShardHealth::Dead))
                            .collect();
                        if !dead.is_empty() {
                            let revived = dead[rng.gen_range(0..dead.len())];
                            fleet.revive_shard(revived).unwrap();
                            // Orphans come back from the stores, which
                            // reviving wipes the shard's own after.
                            restored.extend((0..PAIRS).filter(|&p| before[p].shard.is_none()));
                            durable[revived] = None;
                        }
                    }
                    28 | 29 => {
                        // Fails (and lands nothing) while storage browns out.
                        if let Ok(written) = fleet.checkpoint() {
                            let statuses = fleet.pair_statuses();
                            for (shard, _) in written {
                                let hosted =
                                    (0..PAIRS).filter(|&p| statuses[p].shard == Some(shard));
                                durable[shard] =
                                    Some((fleet.tick_count(), listed(&statuses, hosted)));
                            }
                        }
                    }
                    30 => {
                        // Every pair is admitted anew, listed or not.
                        drop(fleet);
                        fleet = open(&root);
                        unanalyzed = (0..PAIRS).collect();
                        restored.extend(0..PAIRS);
                    }
                    31 => injector.set_config(
                        StorageFaultConfig::none().with_rate(StorageFaultClass::NoSpace, 1.0),
                    ),
                    32 | 33 => injector.set_config(StorageFaultConfig::none()),
                    34..=37 => {
                        let pair = rng.gen_range(0..PAIRS);
                        let residual = rng.gen_range(0.0..0.3);
                        if fleet.report_residual(pair, residual, 0.01).is_ok() {
                            watch[pair].residual_over = residual > residual_cap;
                            model[pair].record_residual(crate::mitigation::ResidualReading {
                                residual_fraction: residual,
                                overhead_fraction: 0.01,
                                tick: fleet.tick_count(),
                            });
                        }
                    }
                    // Past the shard's 100 ms and the pair's 50 ms deadline.
                    38 => {
                        let shard = rng.gen_range(0..SHARDS);
                        let _ = fleet.arm(FleetFault::ShardStall(shard, 120_000));
                    }
                    _ => {
                        let pair = rng.gen_range(0..PAIRS);
                        let _ = fleet.arm(FleetFault::PairStall(pair, 60_000));
                    }
                }
                let after = fleet.pair_statuses();
                fleet
                    .verify_accounting()
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
                for sup in fleet.shards.iter().filter_map(|s| s.supervisor.as_ref()) {
                    assert_eq!(sup.counts(), sup.recount(), "{at}");
                }

                // Reads back from the stores: counters no lower than the
                // newest durable manifest listing the pair in any of them.
                let is_restored = |pair: usize| restored.contains(&pair);
                for &pair in &restored {
                    let newest = (0..SHARDS)
                        .filter_map(|shard| {
                            let (tick, listed) = durable[shard].as_ref()?;
                            Some((*tick, listed.get(&pair)?))
                        })
                        .fold(
                            None,
                            |newest: Option<(u64, &[u64; 4])>, (tick, listed)| match newest {
                                Some((t, _)) if t >= tick => newest,
                                _ => Some((tick, listed)),
                            },
                        );
                    if let (Some((_, floor)), Some(_)) = (newest, after[pair].shard) {
                        let now = &after[pair];
                        assert!(no_lower(now, floor), "{at}: {now:?} below {floor:?}");
                    }
                    watch[pair] = Watch::default();
                }
                for (pair, (was, now)) in before.iter().zip(&after).enumerate() {
                    let w = &mut watch[pair];
                    // Admitted onto a shard, moved, migrated, restored or
                    // adopted: Inconclusive until analysed there.
                    let rehomed = now.shard.is_some() && was.shard != now.shard;
                    if rehomed && analysed_on[pair] != now.shard {
                        unanalyzed.insert(pair);
                    }
                    let moved = rehomed && was.shard.is_some();
                    if moved && !is_restored(pair) {
                        // Moved by value: the live record went along.
                        assert!(no_lower(now, &counters(was)), "{at}: {was:?} -> {now:?}");
                        w.residual_over = false;
                        w.admitted = true;
                        w.delivered &= !now.containment.is_active();
                    } else if !is_restored(pair) && was.shard.is_some() && now.shard.is_some() {
                        assert!(no_lower(now, &counters(was)), "{at}: {was:?} -> {now:?}");
                        let rank = |c: ContainmentState| c.level().map_or(0, MitigationLevel::rank);
                        if rank(now.containment) < rank(was.containment) {
                            assert_eq!(driven[pair], Some(false), "{at}: {was:?} -> {now:?}");
                            assert!(
                                w.clean_run.is_none_or(|run| run >= step_down_streak),
                                "{at}: {w:?}"
                            );
                            assert!(!w.residual_over, "{at}: {w:?} {was:?} -> {now:?}");
                        }
                    }
                    // A contained ladder driven over a residual above the
                    // cap escalates, or at the top rung drops the reading.
                    let consumed = matches!(was.containment, ContainmentState::Contained { .. })
                        && driven[pair].is_some();
                    if consumed || now.containment != was.containment {
                        w.residual_over = false;
                    }
                    let acquitted =
                        was.verdict == Verdict::Inconclusive && now.verdict == Verdict::Clean;
                    assert!(
                        !acquitted || analysed[pair],
                        "{at}: acquitted unanalysed: {was:?} -> {now:?}"
                    );
                }

                for status in &after {
                    let pair = status.pair;
                    assert!(
                        !(status.degraded && status.verdict == Verdict::Clean),
                        "{at}: {status:?}"
                    );
                    if unanalyzed.contains(&pair) {
                        assert_eq!(status.verdict, Verdict::Inconclusive, "{at}: {status:?}");
                    }
                    if watch[pair].delivered {
                        let mut expected = model[pair].status(status.shard);
                        if watch[pair].admitted {
                            expected.verdict = Verdict::Inconclusive;
                        }
                        assert_eq!(format!("{status:?}"), format!("{expected:?}"), "{at}");
                    }
                    let PairHome::Assigned { shard, slot } = fleet.table[pair].home else {
                        continue;
                    };
                    if pair >= CONTENTION_PAIRS {
                        continue;
                    }
                    let mut text = Vec::new();
                    let sup = fleet.shards[shard].supervisor.as_ref().unwrap();
                    sup.window_of(slot).unwrap().checkpoint(&mut text).unwrap();
                    let own = format!("hist,{},", 10_000 + pair);
                    for line in String::from_utf8(text).unwrap().lines() {
                        if line.starts_with("slot,") {
                            assert!(
                                line.ends_with(",missed") || line.contains(&own),
                                "{at}: pair {pair} holds {line:?}"
                            );
                        }
                    }
                }
            }
            drop(fleet);
            let _ = std::fs::remove_dir_all(&root);
        }
        // The model must have followed pairs, not only the fleet's books
        // (about 5 600 pair-ticks; deadline misses on a slow host only
        // shrink that, so the floor sits far below).
        assert!(modelled_pair_ticks > 1_000, "{modelled_pair_ticks}");
    }
}
