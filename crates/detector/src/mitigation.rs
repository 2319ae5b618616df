//! Closed-loop mitigation: convict a covert pair, contain it, measure the
//! residual leak, and step back down when the channel is gone.
//!
//! Detection alone (the paper's contribution) leaves the operator with a
//! verdict and no recourse. This module closes the loop: every supervised
//! pair carries a [`MitigationPolicy`] — a small state machine the
//! [`crate::ShardedFleet`] drives on each settled verdict, under its
//! shard's [`MitigationConfig`] — that walks an
//! **escalation ladder** of hardware responses:
//!
//! 1. [`MitigationLevel::FlushOnSwitch`] — flush the shared caches on every
//!    context switch (cheap; kills cross-quantum cache residue).
//! 2. [`MitigationLevel::TemporalPartition`] — strict alternating time
//!    slots for the suspect contexts (fence.t-style; no co-execution, so no
//!    fine-grained contention to modulate).
//! 3. [`MitigationLevel::WayPartition`] — way-partition the shared cache
//!    (Intel CAT-style allocation masks; each context fills only its own
//!    ways).
//! 4. [`MitigationLevel::Deschedule`] — park the suspect context entirely.
//!
//! The policy convicts on a covert-verdict streak, applies the first rung
//! through a [`MitigationEnforcer`] with a deadline and a budget of
//! immediate retries, and **escalates on any apply failure or deadline
//! miss — a mitigation that cannot be applied never silently no-ops**. Once
//! contained, a [`ResidualReading`] (re-measured channel bandwidth as a
//! fraction of the unmitigated baseline, plus benign-workload overhead)
//! drives the reverse walk: a sustained clean streak with the residual
//! under the configured cap steps the ladder back down rung by rung.
//!
//! Containment state serializes into the supervisor's checkpoint manifest
//! (`mit,…` lines) and survives kill-and-restore; a restored active
//! containment is re-asserted through the enforcer on the next tick, since
//! the hardware's state did not survive the crash.

use crate::DetectorError;
use std::fmt;

/// One rung of the escalation ladder, ordered from cheapest to most
/// disruptive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MitigationLevel {
    /// Flush the suspect core's caches on every context switch.
    FlushOnSwitch,
    /// Alternate the suspect contexts into disjoint time slots.
    TemporalPartition,
    /// Way-partition the shared cache between the suspect contexts.
    WayPartition,
    /// Park the suspect context off the machine entirely.
    Deschedule,
}

impl MitigationLevel {
    /// Every rung, cheapest first.
    pub const LADDER: [MitigationLevel; 4] = [
        MitigationLevel::FlushOnSwitch,
        MitigationLevel::TemporalPartition,
        MitigationLevel::WayPartition,
        MitigationLevel::Deschedule,
    ];

    /// The next (more disruptive) rung, or `None` at the top.
    pub fn escalate(self) -> Option<MitigationLevel> {
        match self {
            MitigationLevel::FlushOnSwitch => Some(MitigationLevel::TemporalPartition),
            MitigationLevel::TemporalPartition => Some(MitigationLevel::WayPartition),
            MitigationLevel::WayPartition => Some(MitigationLevel::Deschedule),
            MitigationLevel::Deschedule => None,
        }
    }

    /// The previous (cheaper) rung, or `None` at the bottom.
    pub fn step_down(self) -> Option<MitigationLevel> {
        match self {
            MitigationLevel::FlushOnSwitch => None,
            MitigationLevel::TemporalPartition => Some(MitigationLevel::FlushOnSwitch),
            MitigationLevel::WayPartition => Some(MitigationLevel::TemporalPartition),
            MitigationLevel::Deschedule => Some(MitigationLevel::WayPartition),
        }
    }

    /// Stable short name (used in checkpoints, metrics labels, traces).
    pub fn name(self) -> &'static str {
        match self {
            MitigationLevel::FlushOnSwitch => "flush-on-switch",
            MitigationLevel::TemporalPartition => "temporal-partition",
            MitigationLevel::WayPartition => "way-partition",
            MitigationLevel::Deschedule => "deschedule",
        }
    }

    /// Ladder rank, 1-based ([`MitigationLevel::FlushOnSwitch`] = 1);
    /// 0 is reserved for "no containment" in gauges.
    pub fn rank(self) -> u8 {
        match self {
            MitigationLevel::FlushOnSwitch => 1,
            MitigationLevel::TemporalPartition => 2,
            MitigationLevel::WayPartition => 3,
            MitigationLevel::Deschedule => 4,
        }
    }

    /// Parses a [`MitigationLevel::name`] back; `None` for anything else.
    pub fn from_name(name: &str) -> Option<MitigationLevel> {
        MitigationLevel::LADDER
            .iter()
            .copied()
            .find(|l| l.name() == name)
    }
}

impl fmt::Display for MitigationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Refused applies of one rung retried within the same tick before the
/// policy escalates past it.
pub const APPLY_RETRIES: u32 = 3;

/// Mitigation policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MitigationConfig {
    /// Consecutive covert verdicts needed to convict an uncontained pair
    /// (and, once contained, to escalate on fresh evidence).
    pub convict_streak: u32,
    /// Ticks an [`ContainmentState::Applying`] transition may stay pending
    /// before the policy escalates past it.
    pub apply_deadline_ticks: u64,
    /// Residual bandwidth (fraction of the unmitigated baseline) the
    /// channel must stay under before the policy steps down. The default
    /// 0.1 demands a ≥ 90 % bandwidth reduction.
    pub residual_cap: f64,
    /// Consecutive non-covert verdicts (with the residual under the cap,
    /// when a reading exists) needed to step down one rung.
    pub step_down_streak: u32,
    /// The rung a fresh conviction starts at.
    pub initial_level: MitigationLevel,
}

impl Default for MitigationConfig {
    fn default() -> Self {
        MitigationConfig {
            convict_streak: 3,
            apply_deadline_ticks: 4,
            residual_cap: 0.1,
            step_down_streak: 8,
            initial_level: MitigationLevel::FlushOnSwitch,
        }
    }
}

impl MitigationConfig {
    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] for a zero streak or
    /// deadline, or a residual cap outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), DetectorError> {
        if self.convict_streak == 0 || self.step_down_streak == 0 {
            return Err(DetectorError::invalid("mitigation streaks must be nonzero"));
        }
        if self.apply_deadline_ticks == 0 {
            return Err(DetectorError::invalid(
                "mitigation apply deadline must be at least one tick",
            ));
        }
        if !(0.0..=1.0).contains(&self.residual_cap) {
            return Err(DetectorError::invalid(format!(
                "residual cap {} outside [0, 1]",
                self.residual_cap
            )));
        }
        Ok(())
    }
}

/// Where a pair stands on the containment ladder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ContainmentState {
    /// No containment active.
    #[default]
    Inactive,
    /// A transition to `level` is pending: the enforcer has not yet
    /// accepted it (failed applies are retried, then escalated past).
    Applying {
        /// The rung being applied.
        level: MitigationLevel,
        /// Apply attempts spent on this rung so far.
        attempt: u32,
        /// Tick by which the rung must be in force before the policy
        /// escalates past it.
        deadline_tick: u64,
    },
    /// `level` is in force.
    Contained {
        /// The rung in force.
        level: MitigationLevel,
        /// Tick the rung was applied at.
        since_tick: u64,
    },
}

impl ContainmentState {
    /// The rung this state refers to, if any.
    pub fn level(&self) -> Option<MitigationLevel> {
        match self {
            ContainmentState::Inactive => None,
            ContainmentState::Applying { level, .. }
            | ContainmentState::Contained { level, .. } => Some(*level),
        }
    }

    /// Whether any containment is active or pending.
    pub fn is_active(&self) -> bool {
        !matches!(self, ContainmentState::Inactive)
    }
}

impl fmt::Display for ContainmentState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainmentState::Inactive => f.write_str("inactive"),
            ContainmentState::Applying { level, attempt, .. } => {
                write!(f, "applying {level} (attempt {attempt})")
            }
            ContainmentState::Contained { level, since_tick } => {
                write!(f, "contained at {level} since tick {since_tick}")
            }
        }
    }
}

/// An enforcement call the hardware/scheduler side refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApplyError {
    /// Human-readable cause.
    pub reason: String,
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mitigation refused: {}", self.reason)
    }
}

impl std::error::Error for ApplyError {}

/// The containment actuator: translates a rung into real scheduler /
/// cache-hardware state for one audited pair.
///
/// The detector crate stays hardware-agnostic; the simulator (or a real
/// OS agent) implements this trait. Calls must be **idempotent** — a
/// restored supervisor re-asserts active containments through the same
/// `apply` path.
///
/// `pair` is the pair's fleet index: the index
/// [`crate::ShardedFleet::add_contention_pair`] or
/// [`add_oscillation_pair`](crate::ShardedFleet::add_oscillation_pair)
/// returned, the same index the fleet's probe source is asked for. It
/// stays the pair's across shard moves, migrations and rebalances.
pub trait MitigationEnforcer {
    /// Puts `level` in force for `pair`.
    ///
    /// # Errors
    ///
    /// Returns [`ApplyError`] when the response cannot be applied; the
    /// policy retries under its retry budget and then escalates.
    fn apply(&mut self, pair: usize, level: MitigationLevel) -> Result<(), ApplyError>;

    /// Removes `level` for `pair`.
    ///
    /// # Errors
    ///
    /// Returns [`ApplyError`] when the release fails; the policy retries
    /// and, on exhaustion, keeps the rung in force (never leaves the
    /// hardware in an unknown state).
    fn release(&mut self, pair: usize, level: MitigationLevel) -> Result<(), ApplyError>;
}

/// The default enforcer: accepts everything and actuates nothing.
///
/// Containment decisions still run, serialize, and show up in metrics —
/// useful for shadow-mode deployments and for every fleet shard that does
/// not wire a real actuator.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdvisoryEnforcer;

impl MitigationEnforcer for AdvisoryEnforcer {
    fn apply(&mut self, _pair: usize, _level: MitigationLevel) -> Result<(), ApplyError> {
        Ok(())
    }

    fn release(&mut self, _pair: usize, _level: MitigationLevel) -> Result<(), ApplyError> {
        Ok(())
    }
}

/// A post-mitigation measurement of the channel and of collateral damage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidualReading {
    /// Channel goodput as a fraction of the unmitigated baseline
    /// (0 = leak closed, 1 = mitigation did nothing).
    pub residual_fraction: f64,
    /// Benign-workload slowdown caused by the mitigation, as a fraction
    /// (0.07 = benign co-runners lost 7 % throughput).
    pub overhead_fraction: f64,
    /// Tick the reading was taken at.
    pub tick: u64,
}

/// Converts raw re-measurements into [`ResidualReading`]s against a fixed
/// unmitigated baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidualProbe {
    baseline_bps: f64,
    baseline_benign_ops: f64,
}

impl ResidualProbe {
    /// Captures the unmitigated baseline: channel goodput in bits/sec (or
    /// any consistent rate unit) and benign co-runner throughput in
    /// ops (any consistent work unit).
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] when either baseline is
    /// non-positive or non-finite.
    pub fn new(baseline_bps: f64, baseline_benign_ops: f64) -> Result<Self, DetectorError> {
        if !(baseline_bps > 0.0 && baseline_bps.is_finite()) {
            return Err(DetectorError::invalid(format!(
                "baseline bandwidth must be positive and finite, got {baseline_bps}"
            )));
        }
        if !(baseline_benign_ops > 0.0 && baseline_benign_ops.is_finite()) {
            return Err(DetectorError::invalid(format!(
                "baseline benign throughput must be positive and finite, got {baseline_benign_ops}"
            )));
        }
        Ok(ResidualProbe {
            baseline_bps,
            baseline_benign_ops,
        })
    }

    /// The unmitigated channel baseline.
    pub fn baseline_bps(&self) -> f64 {
        self.baseline_bps
    }

    /// Builds a reading from a post-mitigation re-measurement. Fractions
    /// are clamped to `[0, 1]` (a mitigation cannot owe the channel
    /// bandwidth, and negative overhead is noise).
    pub fn reading(&self, measured_bps: f64, benign_ops: f64, tick: u64) -> ResidualReading {
        let residual = (measured_bps / self.baseline_bps).clamp(0.0, 1.0);
        let overhead = (1.0 - benign_ops / self.baseline_benign_ops).clamp(0.0, 1.0);
        ResidualReading {
            residual_fraction: residual,
            overhead_fraction: overhead,
            tick,
        }
    }
}

/// Channel goodput from a decode transcript: `max(0, 2·(correct/total) − 1)`.
///
/// A decoder guessing uniformly at random gets half the bits right, so raw
/// accuracy is rescaled to the usable information fraction; bits the spy
/// failed to decode at all count as incorrect. Returns 0 for an empty
/// transcript.
///
/// ```
/// use cchunter_detector::mitigation::goodput_fraction;
/// assert_eq!(goodput_fraction(64, 64), 1.0);
/// assert_eq!(goodput_fraction(32, 64), 0.0); // coin-flip decode: no information
/// assert_eq!(goodput_fraction(10, 64), 0.0); // worse than chance clamps to 0
/// ```
pub fn goodput_fraction(correct_bits: usize, total_bits: usize) -> f64 {
    if total_bits == 0 {
        return 0.0;
    }
    (2.0 * correct_bits as f64 / total_bits as f64 - 1.0).max(0.0)
}

/// What one [`MitigationPolicy::drive`] call did, for reports and metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MitigationTick {
    /// Containment state after the call.
    pub state: ContainmentState,
    /// The pair was convicted this tick (first transition out of
    /// [`ContainmentState::Inactive`] for this episode).
    pub convicted: bool,
    /// Enforcement calls accepted this tick.
    pub applied: u32,
    /// Enforcement calls refused this tick.
    pub apply_failures: u32,
    /// Rungs escalated past this tick (apply failure or deadline miss).
    pub escalations: u32,
    /// Rungs stepped down this tick.
    pub step_downs: u32,
    /// The ladder is exhausted and the top rung still is not in force —
    /// the operator must intervene; the policy keeps retrying.
    pub stuck: bool,
}

/// Per-pair closed-loop containment state machine.
///
/// Drive it once per settled verdict with [`MitigationPolicy::drive`];
/// feed re-measurements with [`MitigationPolicy::record_residual`].
///
/// The policy is state only: [`MitigationPolicy::drive`] takes the
/// [`MitigationConfig`] (one per shard, checked by
/// [`MitigationConfig::validate`]).
///
/// ```
/// use cchunter_detector::mitigation::{
///     AdvisoryEnforcer, ContainmentState, MitigationConfig, MitigationPolicy,
/// };
///
/// let (config, mut policy) = (MitigationConfig::default(), MitigationPolicy::default());
/// let mut enforcer = AdvisoryEnforcer;
/// for tick in 0..3 {
///     policy.drive(&config, true, tick, 0, &mut enforcer);
/// }
/// assert!(matches!(policy.state(), ContainmentState::Contained { .. }));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MitigationPolicy {
    state: ContainmentState,
    covert_streak: u32,
    clean_streak: u32,
    last_residual: Option<ResidualReading>,
    /// Tick of the conviction that opened the current episode.
    convicted_tick: Option<u64>,
    /// Tick the first rung of the current episode took force.
    contained_tick: Option<u64>,
    /// A restored active containment that has not yet been re-asserted
    /// through the (fresh) enforcer.
    needs_reassert: bool,
    escalations: u64,
    step_downs: u64,
    applies: u64,
    apply_failures: u64,
    release_failures: u64,
}

impl MitigationPolicy {
    /// The current containment state.
    pub fn state(&self) -> ContainmentState {
        self.state
    }

    /// Whether a rung is currently in force.
    pub fn is_contained(&self) -> bool {
        matches!(self.state, ContainmentState::Contained { .. })
    }

    /// The latest residual reading, if any.
    pub fn last_residual(&self) -> Option<ResidualReading> {
        self.last_residual
    }

    /// Ticks from conviction to the first rung taking force in the current
    /// (or last) episode — the headline detection-to-containment latency.
    pub fn containment_latency_ticks(&self) -> Option<u64> {
        match (self.convicted_tick, self.contained_tick) {
            (Some(c), Some(a)) if a >= c => Some(a - c),
            _ => None,
        }
    }

    /// Total rungs escalated past over the policy's lifetime.
    pub fn escalations(&self) -> u64 {
        self.escalations
    }

    /// Total rungs stepped down over the policy's lifetime.
    pub fn step_downs(&self) -> u64 {
        self.step_downs
    }

    /// Total accepted enforcement calls.
    pub fn applies(&self) -> u64 {
        self.applies
    }

    /// Total refused enforcement calls (apply and release).
    pub fn apply_failures(&self) -> u64 {
        self.apply_failures + self.release_failures
    }

    /// Records a post-mitigation re-measurement.
    pub fn record_residual(&mut self, reading: ResidualReading) {
        self.last_residual = Some(reading);
    }

    /// Forgets both verdict streaks, so escalating or stepping down must
    /// take fresh evidence: what a contained pair leaving quarantine
    /// needs, whose streaks froze while its probe was failing.
    pub fn forget_streaks(&mut self) {
        self.covert_streak = 0;
        self.clean_streak = 0;
    }

    /// Advances the state machine under `config` with one settled verdict
    /// and performs any due enforcement for `pair` through `enforcer`.
    pub fn drive<E: MitigationEnforcer + ?Sized>(
        &mut self,
        config: &MitigationConfig,
        covert: bool,
        tick: u64,
        pair: usize,
        enforcer: &mut E,
    ) -> MitigationTick {
        if covert {
            self.covert_streak = self.covert_streak.saturating_add(1);
            self.clean_streak = 0;
        } else {
            self.clean_streak = self.clean_streak.saturating_add(1);
            self.covert_streak = 0;
        }
        let mut report = MitigationTick::default();

        match self.state {
            ContainmentState::Inactive => {
                if self.covert_streak >= config.convict_streak {
                    report.convicted = true;
                    self.convicted_tick = Some(tick);
                    self.contained_tick = None;
                    self.state = ContainmentState::Applying {
                        level: config.initial_level,
                        attempt: 0,
                        deadline_tick: tick.saturating_add(config.apply_deadline_ticks),
                    };
                    self.covert_streak = 0;
                    self.pump_apply(config, tick, pair, enforcer, &mut report);
                }
            }
            ContainmentState::Applying { .. } => {
                self.pump_apply(config, tick, pair, enforcer, &mut report);
            }
            ContainmentState::Contained { level, .. } => {
                if self.needs_reassert {
                    // Restored containment: the hardware forgot it; put it
                    // back in force before anything else.
                    self.state = ContainmentState::Applying {
                        level,
                        attempt: 0,
                        deadline_tick: tick.saturating_add(config.apply_deadline_ticks),
                    };
                    self.needs_reassert = false;
                    self.pump_apply(config, tick, pair, enforcer, &mut report);
                } else if self.covert_streak >= config.convict_streak
                    || self.residual_above_cap(config.residual_cap)
                {
                    // The rung is not holding: fresh covert evidence (or a
                    // measured residual above the cap) escalates.
                    self.escalate_from(config, level, tick, pair, enforcer, &mut report);
                    self.covert_streak = 0;
                    self.clean_streak = 0;
                    self.last_residual = None;
                    if let ContainmentState::Applying { .. } = self.state {
                        self.pump_apply(config, tick, pair, enforcer, &mut report);
                    }
                } else if self.clean_streak >= config.step_down_streak
                    && self.residual_under_cap(config.residual_cap)
                {
                    self.try_step_down(level, tick, pair, enforcer, &mut report);
                }
            }
        }

        report.state = self.state;
        report
    }

    /// Whether the latest residual reading clears the step-down bar. A
    /// missing reading clears it (verdict streak alone then governs), a
    /// reading above the cap does not.
    fn residual_under_cap(&self, cap: f64) -> bool {
        self.last_residual
            .map(|r| r.residual_fraction <= cap)
            .unwrap_or(true)
    }

    fn residual_above_cap(&self, cap: f64) -> bool {
        self.last_residual
            .map(|r| r.residual_fraction > cap)
            .unwrap_or(false)
    }

    /// Retries the pending apply under the retry budget; a rung whose
    /// budget or deadline is exhausted is escalated past — never dropped.
    fn pump_apply<E: MitigationEnforcer + ?Sized>(
        &mut self,
        config: &MitigationConfig,
        tick: u64,
        pair: usize,
        enforcer: &mut E,
        report: &mut MitigationTick,
    ) {
        loop {
            let ContainmentState::Applying {
                level,
                attempt,
                deadline_tick,
            } = self.state
            else {
                return;
            };
            if tick > deadline_tick {
                self.escalate_from(config, level, tick, pair, enforcer, report);
                if report.stuck {
                    return;
                }
                continue;
            }
            match enforcer.apply(pair, level) {
                Ok(()) => {
                    self.applies += 1;
                    report.applied += 1;
                    self.state = ContainmentState::Contained {
                        level,
                        since_tick: tick,
                    };
                    if self.contained_tick.is_none() {
                        self.contained_tick = Some(tick);
                    }
                    self.clean_streak = 0;
                    self.last_residual = None;
                    return;
                }
                Err(_) => {
                    self.apply_failures += 1;
                    report.apply_failures += 1;
                    if attempt < APPLY_RETRIES {
                        self.state = ContainmentState::Applying {
                            level,
                            attempt: attempt + 1,
                            deadline_tick,
                        };
                    } else {
                        self.escalate_from(config, level, tick, pair, enforcer, report);
                        if report.stuck {
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Moves the episode to the rung above `level`, releasing `level` if it
    /// was in force. At the top of the ladder the policy stays put, flags
    /// `stuck`, and keeps retrying — an unenforceable mitigation is an
    /// operator page, not a silent no-op.
    fn escalate_from<E: MitigationEnforcer + ?Sized>(
        &mut self,
        config: &MitigationConfig,
        level: MitigationLevel,
        tick: u64,
        pair: usize,
        enforcer: &mut E,
        report: &mut MitigationTick,
    ) {
        let was_contained = matches!(self.state, ContainmentState::Contained { .. });
        match level.escalate() {
            Some(next) => {
                if was_contained && enforcer.release(pair, level).is_err() {
                    // Keep the old rung in force alongside the new one
                    // rather than leaving a gap; the failure is counted.
                    self.release_failures += 1;
                    report.apply_failures += 1;
                }
                self.escalations += 1;
                report.escalations += 1;
                self.state = ContainmentState::Applying {
                    level: next,
                    attempt: 0,
                    deadline_tick: tick.saturating_add(config.apply_deadline_ticks),
                };
            }
            None => {
                report.stuck = true;
                if !was_contained {
                    // Reset the attempt budget so the top rung keeps being
                    // retried on subsequent ticks.
                    self.state = ContainmentState::Applying {
                        level,
                        attempt: 0,
                        deadline_tick: tick.saturating_add(config.apply_deadline_ticks),
                    };
                }
            }
        }
    }

    /// Steps down one rung: applies the cheaper rung first (or none, at
    /// the bottom), then releases the current one. A failed release keeps
    /// the current rung in force; a failed downward apply cancels the
    /// step-down entirely.
    fn try_step_down<E: MitigationEnforcer + ?Sized>(
        &mut self,
        level: MitigationLevel,
        tick: u64,
        pair: usize,
        enforcer: &mut E,
        report: &mut MitigationTick,
    ) {
        if let Some(lower) = level.step_down() {
            if enforcer.apply(pair, lower).is_err() {
                self.apply_failures += 1;
                report.apply_failures += 1;
                self.clean_streak = 0;
                return;
            }
            self.applies += 1;
            report.applied += 1;
            if enforcer.release(pair, level).is_err() {
                // Roll the lower rung back out; stay where we were.
                self.release_failures += 1;
                report.apply_failures += 1;
                let _ = enforcer.release(pair, lower);
                self.clean_streak = 0;
                return;
            }
            self.step_downs += 1;
            report.step_downs += 1;
            self.state = ContainmentState::Contained {
                level: lower,
                since_tick: tick,
            };
        } else {
            if enforcer.release(pair, level).is_err() {
                self.release_failures += 1;
                report.apply_failures += 1;
                self.clean_streak = 0;
                return;
            }
            self.step_downs += 1;
            report.step_downs += 1;
            self.state = ContainmentState::Inactive;
            self.convicted_tick = None;
            self.contained_tick = None;
        }
        self.clean_streak = 0;
        self.last_residual = None;
    }

    /// Prepares the policy for another shard's enforcer, exactly as a
    /// checkpoint round trip does
    /// (`deserialize(&serialize())` equals the result): an active
    /// containment is flagged for re-assertion (the new enforcer never
    /// applied it), the last residual reading is dropped (it measured the
    /// old enforcer's rung), and refused releases fold into refused
    /// applies (the manifest keeps one refusal count).
    pub fn hand_over(&mut self) {
        self.needs_reassert = self.state.is_active();
        self.last_residual = None;
        self.apply_failures += std::mem::take(&mut self.release_failures);
    }

    /// Serializes the policy for the checkpoint manifest (one
    /// comma-free field; `;`-separated).
    pub fn serialize(&self) -> String {
        let (state, level, a, b) = match self.state {
            ContainmentState::Inactive => ("inactive", "-".to_string(), 0, 0),
            ContainmentState::Applying {
                level,
                attempt,
                deadline_tick,
            } => (
                "applying",
                level.name().to_string(),
                attempt as u64,
                deadline_tick,
            ),
            ContainmentState::Contained { level, since_tick } => {
                ("contained", level.name().to_string(), since_tick, 0)
            }
        };
        let opt = |v: Option<u64>| v.map_or("-".to_string(), |t| t.to_string());
        format!(
            "{state};{level};{a};{b};{};{};{};{};{};{};{};{}",
            self.covert_streak,
            self.clean_streak,
            self.escalations,
            self.step_downs,
            self.applies,
            self.apply_failures + self.release_failures,
            opt(self.convicted_tick),
            opt(self.contained_tick),
        )
    }

    /// Restores a policy from [`MitigationPolicy::serialize`] output.
    /// An active containment comes back flagged for re-assertion: the
    /// enforcer's hardware state did not survive the crash, so the next
    /// [`MitigationPolicy::drive`] re-applies the rung.
    ///
    /// Returns `None` for malformed input (the caller treats that as a
    /// corrupt manifest).
    pub fn deserialize(text: &str) -> Option<Self> {
        let mut policy = MitigationPolicy::default();
        let mut fields = text.split(';');
        let state = fields.next()?;
        let level_field = fields.next()?;
        let a: u64 = fields.next()?.trim().parse().ok()?;
        let b: u64 = fields.next()?.trim().parse().ok()?;
        let mut num = || -> Option<u64> { fields.next()?.trim().parse().ok() };
        policy.covert_streak = u32::try_from(num()?).ok()?;
        policy.clean_streak = u32::try_from(num()?).ok()?;
        policy.escalations = num()?;
        policy.step_downs = num()?;
        policy.applies = num()?;
        policy.apply_failures = num()?;
        let mut opt = || -> Option<Option<u64>> {
            match fields.next()? {
                "-" => Some(None),
                v => v.trim().parse().ok().map(Some),
            }
        };
        policy.convicted_tick = opt()?;
        policy.contained_tick = opt()?;
        if fields.next().is_some() {
            return None; // trailing garbage
        }
        policy.state = match state {
            "inactive" => {
                if level_field != "-" {
                    return None;
                }
                ContainmentState::Inactive
            }
            "applying" => ContainmentState::Applying {
                level: MitigationLevel::from_name(level_field)?,
                attempt: u32::try_from(a).ok()?,
                deadline_tick: b,
            },
            "contained" => ContainmentState::Contained {
                level: MitigationLevel::from_name(level_field)?,
                since_tick: a,
            },
            _ => return None,
        };
        policy.needs_reassert = policy.state.is_active();
        Some(policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An enforcer whose next `fail_applies` apply calls are refused.
    struct FlakyEnforcer {
        fail_applies: u32,
        fail_releases: u32,
        applied: Vec<(usize, MitigationLevel)>,
        released: Vec<(usize, MitigationLevel)>,
    }

    impl FlakyEnforcer {
        fn new() -> Self {
            FlakyEnforcer {
                fail_applies: 0,
                fail_releases: 0,
                applied: Vec::new(),
                released: Vec::new(),
            }
        }
    }

    impl MitigationEnforcer for FlakyEnforcer {
        fn apply(&mut self, pair: usize, level: MitigationLevel) -> Result<(), ApplyError> {
            if self.fail_applies > 0 {
                self.fail_applies -= 1;
                return Err(ApplyError {
                    reason: "injected apply failure".to_string(),
                });
            }
            self.applied.push((pair, level));
            Ok(())
        }

        fn release(&mut self, pair: usize, level: MitigationLevel) -> Result<(), ApplyError> {
            if self.fail_releases > 0 {
                self.fail_releases -= 1;
                return Err(ApplyError {
                    reason: "injected release failure".to_string(),
                });
            }
            self.released.push((pair, level));
            Ok(())
        }
    }

    fn quick_config() -> MitigationConfig {
        MitigationConfig {
            convict_streak: 2,
            step_down_streak: 2,
            ..MitigationConfig::default()
        }
    }

    #[test]
    fn ladder_is_total_and_ordered() {
        let mut walked = vec![MitigationLevel::FlushOnSwitch];
        while let Some(next) = walked.last().unwrap().escalate() {
            walked.push(next);
        }
        assert_eq!(walked, MitigationLevel::LADDER);
        for level in MitigationLevel::LADDER {
            assert_eq!(MitigationLevel::from_name(level.name()), Some(level));
            assert_eq!(
                level.step_down().map(|l| l.escalate()),
                level.step_down().map(|_| Some(level))
            );
        }
        assert_eq!(MitigationLevel::from_name("telepathy"), None);
    }

    #[test]
    fn config_validation_rejects_bad_knobs() {
        assert!(MitigationConfig::default().validate().is_ok());
        let bad = MitigationConfig {
            convict_streak: 0,
            ..MitigationConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = MitigationConfig {
            residual_cap: 1.5,
            ..MitigationConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = MitigationConfig {
            apply_deadline_ticks: 0,
            ..MitigationConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn covert_streak_convicts_and_contains() {
        let (config, mut policy) = (quick_config(), MitigationPolicy::default());
        let mut enforcer = FlakyEnforcer::new();
        let r0 = policy.drive(&config, true, 0, 3, &mut enforcer);
        assert_eq!(r0.state, ContainmentState::Inactive);
        let r1 = policy.drive(&config, true, 1, 3, &mut enforcer);
        assert!(r1.convicted);
        assert_eq!(
            r1.state,
            ContainmentState::Contained {
                level: MitigationLevel::FlushOnSwitch,
                since_tick: 1
            }
        );
        assert_eq!(enforcer.applied, vec![(3, MitigationLevel::FlushOnSwitch)]);
        assert_eq!(policy.containment_latency_ticks(), Some(0));
    }

    #[test]
    fn apply_failure_escalates_never_noops() {
        let (config, mut policy) = (quick_config(), MitigationPolicy::default());
        let mut enforcer = FlakyEnforcer::new();
        // Enough failures to burn the whole retry budget on rung 1: the
        // policy must land contained on rung 2, not give up.
        enforcer.fail_applies = APPLY_RETRIES + 1;
        policy.drive(&config, true, 0, 0, &mut enforcer);
        let r = policy.drive(&config, true, 1, 0, &mut enforcer);
        assert!(r.convicted);
        assert_eq!(r.apply_failures, APPLY_RETRIES + 1);
        assert_eq!(r.escalations, 1);
        assert_eq!(
            r.state,
            ContainmentState::Contained {
                level: MitigationLevel::TemporalPartition,
                since_tick: 1
            }
        );
    }

    #[test]
    fn exhausted_ladder_reports_stuck_and_keeps_retrying() {
        let (config, mut policy) = (quick_config(), MitigationPolicy::default());
        let mut enforcer = FlakyEnforcer::new();
        enforcer.fail_applies = u32::MAX; // nothing ever applies
        policy.drive(&config, true, 0, 0, &mut enforcer);
        let r = policy.drive(&config, true, 1, 0, &mut enforcer);
        assert!(r.stuck, "top of ladder with nothing in force is stuck");
        assert!(matches!(
            r.state,
            ContainmentState::Applying {
                level: MitigationLevel::Deschedule,
                ..
            }
        ));
        // Next tick it retries the top rung; once the enforcer recovers,
        // containment lands.
        enforcer.fail_applies = 0;
        let r2 = policy.drive(&config, true, 2, 0, &mut enforcer);
        assert!(!r2.stuck);
        assert!(matches!(
            r2.state,
            ContainmentState::Contained {
                level: MitigationLevel::Deschedule,
                ..
            }
        ));
    }

    #[test]
    fn contained_pair_escalates_on_fresh_covert_evidence() {
        let (config, mut policy) = (quick_config(), MitigationPolicy::default());
        let mut enforcer = FlakyEnforcer::new();
        policy.drive(&config, true, 0, 0, &mut enforcer);
        policy.drive(&config, true, 1, 0, &mut enforcer);
        assert!(policy.is_contained());
        // Two more covert verdicts: the rung is not holding.
        policy.drive(&config, true, 2, 0, &mut enforcer);
        let r = policy.drive(&config, true, 3, 0, &mut enforcer);
        assert_eq!(r.escalations, 1);
        assert_eq!(
            r.state,
            ContainmentState::Contained {
                level: MitigationLevel::TemporalPartition,
                since_tick: 3
            }
        );
        // The old rung was released when the new one took force.
        assert_eq!(enforcer.released, vec![(0, MitigationLevel::FlushOnSwitch)]);
    }

    #[test]
    fn high_residual_escalates_even_with_clean_verdicts() {
        let (config, mut policy) = (quick_config(), MitigationPolicy::default());
        let mut enforcer = FlakyEnforcer::new();
        policy.drive(&config, true, 0, 0, &mut enforcer);
        policy.drive(&config, true, 1, 0, &mut enforcer);
        assert!(policy.is_contained());
        policy.record_residual(ResidualReading {
            residual_fraction: 0.8,
            overhead_fraction: 0.02,
            tick: 2,
        });
        let r = policy.drive(&config, false, 2, 0, &mut enforcer);
        assert_eq!(r.escalations, 1, "a leaky rung escalates on measurement");
        assert!(matches!(
            r.state,
            ContainmentState::Contained {
                level: MitigationLevel::TemporalPartition,
                ..
            }
        ));
    }

    #[test]
    fn clean_streak_with_low_residual_steps_down_rung_by_rung() {
        let config = quick_config();
        let mut policy = MitigationPolicy::default();
        let mut enforcer = FlakyEnforcer::new();
        policy.drive(&config, true, 0, 0, &mut enforcer);
        policy.drive(&config, true, 1, 0, &mut enforcer);
        // Escalate once so we start at TemporalPartition.
        policy.drive(&config, true, 2, 0, &mut enforcer);
        policy.drive(&config, true, 3, 0, &mut enforcer);
        assert_eq!(
            policy.state().level(),
            Some(MitigationLevel::TemporalPartition)
        );

        let mut tick = 4;
        let mut seen = vec![policy.state()];
        while policy.state().is_active() && tick < 40 {
            policy.record_residual(ResidualReading {
                residual_fraction: 0.0,
                overhead_fraction: 0.05,
                tick,
            });
            policy.drive(&config, false, tick, 0, &mut enforcer);
            if Some(&policy.state()) != seen.last() {
                seen.push(policy.state());
            }
            tick += 1;
        }
        assert_eq!(policy.state(), ContainmentState::Inactive);
        // Walked down through FlushOnSwitch, never jumped.
        assert!(seen
            .iter()
            .any(|s| s.level() == Some(MitigationLevel::FlushOnSwitch)));
        assert_eq!(policy.step_downs(), 2);
    }

    #[test]
    fn residual_above_cap_blocks_step_down() {
        let (config, mut policy) = (quick_config(), MitigationPolicy::default());
        let mut enforcer = FlakyEnforcer::new();
        policy.drive(&config, true, 0, 0, &mut enforcer);
        policy.drive(&config, true, 1, 0, &mut enforcer);
        // Residual above cap: escalates (rung not holding) rather than
        // stepping down, even on clean verdicts.
        for tick in 2..10 {
            policy.record_residual(ResidualReading {
                residual_fraction: 0.5,
                overhead_fraction: 0.0,
                tick,
            });
            policy.drive(&config, false, tick, 0, &mut enforcer);
        }
        assert!(policy.state().is_active());
        assert!(policy.state().level() > Some(MitigationLevel::FlushOnSwitch));
    }

    #[test]
    fn failed_release_keeps_current_rung() {
        let (config, mut policy) = (quick_config(), MitigationPolicy::default());
        let mut enforcer = FlakyEnforcer::new();
        policy.drive(&config, true, 0, 0, &mut enforcer);
        policy.drive(&config, true, 1, 0, &mut enforcer);
        assert!(policy.is_contained());
        enforcer.fail_releases = u32::MAX;
        for tick in 2..12 {
            policy.drive(&config, false, tick, 0, &mut enforcer);
        }
        // Step-down kept being attempted but the release never succeeded:
        // the rung stays in force (never an unknown hardware state).
        assert_eq!(
            policy.state().level(),
            Some(MitigationLevel::FlushOnSwitch),
            "still contained at the original rung"
        );
        assert!(policy.apply_failures() > 0);
    }

    #[test]
    fn serialization_roundtrips_and_flags_reassert() {
        let config = quick_config();
        let mut policy = MitigationPolicy::default();
        let mut enforcer = FlakyEnforcer::new();
        policy.drive(&config, true, 0, 5, &mut enforcer);
        policy.drive(&config, true, 1, 5, &mut enforcer);
        policy.drive(&config, false, 2, 5, &mut enforcer);
        assert!(policy.is_contained());

        let text = policy.serialize();
        let restored = MitigationPolicy::deserialize(&text).expect("roundtrip");
        assert_eq!(restored.state(), policy.state());
        assert_eq!(restored.escalations(), policy.escalations());
        assert_eq!(
            restored.containment_latency_ticks(),
            policy.containment_latency_ticks()
        );

        // The restored containment re-asserts through the enforcer on the
        // next drive.
        let mut policy = restored;
        let mut fresh = FlakyEnforcer::new();
        let r = policy.drive(&config, false, 3, 5, &mut fresh);
        assert_eq!(r.applied, 1, "containment re-applied after restore");
        assert_eq!(fresh.applied, vec![(5, MitigationLevel::FlushOnSwitch)]);
        assert!(policy.is_contained());
    }

    /// Handing a policy over to another enforcer equals its checkpoint
    /// round trip at every point of a conviction, a refused apply, an
    /// escalation past a refused release, residual readings and a
    /// step-down.
    #[test]
    fn hand_over_equals_a_checkpoint_round_trip() {
        let config = quick_config();
        let mut policy = MitigationPolicy::default();
        let mut enforcer = FlakyEnforcer::new();
        let reading = |residual_fraction, tick| ResidualReading {
            residual_fraction,
            overhead_fraction: 0.0,
            tick,
        };
        let check = |policy: &MitigationPolicy, at: &str| {
            let mut handed = policy.clone();
            handed.hand_over();
            let text = MitigationPolicy::deserialize(&policy.serialize());
            assert_eq!(Some(handed), text, "{at}");
        };
        check(&policy, "idle");
        enforcer.fail_applies = 1;
        for tick in 0..2 {
            policy.drive(&config, true, tick, 5, &mut enforcer);
            check(&policy, "convicting");
        }
        assert!(policy.is_contained() && policy.apply_failures() == 1);
        policy.record_residual(reading(0.5, 2));
        check(&policy, "residual above the cap");
        enforcer.fail_releases = 1;
        policy.drive(&config, false, 2, 5, &mut enforcer);
        check(&policy, "escalated past a refused release");
        assert_eq!((policy.escalations(), policy.apply_failures()), (1, 2));
        policy.record_residual(reading(0.01, 3));
        for tick in 3..6 {
            policy.drive(&config, false, tick, 5, &mut enforcer);
            check(&policy, "stepping down");
        }
        assert!(policy.step_downs() >= 1, "{policy:?}");
    }

    #[test]
    fn deserialize_rejects_garbage() {
        for bad in [
            "",
            "contained",
            "contained;warp-drive;0;0;0;0;0;0;0;0;-;-",
            "inactive;flush-on-switch;0;0;0;0;0;0;0;0;-;-",
            "applying;deschedule;zero;0;0;0;0;0;0;0;-;-",
            "inactive;-;0;0;0;0;0;0;0;0;-;-;extra",
        ] {
            assert!(
                MitigationPolicy::deserialize(bad).is_none(),
                "accepted {bad:?}"
            );
        }
        let idle = MitigationPolicy::default();
        let restored = MitigationPolicy::deserialize(&idle.serialize()).unwrap();
        assert_eq!(restored.state(), ContainmentState::Inactive);
        assert!(!restored.needs_reassert);
    }

    #[test]
    fn residual_probe_normalizes_and_clamps() {
        let probe = ResidualProbe::new(100.0, 1_000.0).unwrap();
        let r = probe.reading(5.0, 930.0, 9);
        assert!((r.residual_fraction - 0.05).abs() < 1e-12);
        assert!((r.overhead_fraction - 0.07).abs() < 1e-12);
        let r = probe.reading(250.0, 1_100.0, 9);
        assert_eq!(r.residual_fraction, 1.0);
        assert_eq!(r.overhead_fraction, 0.0);
        assert!(ResidualProbe::new(0.0, 1.0).is_err());
        assert!(ResidualProbe::new(f64::NAN, 1.0).is_err());
        assert!(ResidualProbe::new(1.0, -3.0).is_err());
    }

    #[test]
    fn goodput_counts_chance_as_zero() {
        assert_eq!(goodput_fraction(0, 0), 0.0);
        assert_eq!(goodput_fraction(64, 64), 1.0);
        assert!((goodput_fraction(48, 64) - 0.5).abs() < 1e-12);
        assert_eq!(goodput_fraction(20, 64), 0.0);
    }
}
