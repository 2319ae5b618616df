//! Retry, backoff, quarantine and suspicion policy for supervised probe
//! harvests.
//!
//! A deployed CC-Hunter fleet polls many per-pair probes every quantum, and
//! individual probes fail in two very different ways:
//!
//! * **transiently** — a harvest deadline slips, a buffer read-out races —
//!   worth retrying immediately-ish, with exponential backoff so a
//!   struggling probe isn't hammered;
//! * **persistently** — a wedged monitor, a deprogrammed slot — where
//!   retrying forever would starve the healthy pairs of their audit budget.
//!
//! [`backoff_delay`] provides the first: deterministic exponential backoff
//! with seeded jitter, reproducible run to run so fault-injection tests can
//! replay exact schedules. [`CircuitBreaker`] provides the second: a
//! per-pair failure-rate window that trips into **quarantine** (open) when
//! failures exceed a threshold, periodically admits a recovery probe
//! (half-open), and closes again after enough consecutive successes.
//! [`SuspicionTracker`] is the shard-level counterpart: latency-SLO
//! suspicion with hysteresis. All state is tick-based (the supervisor's
//! quantum counter), never wall-clock, so behavior is exactly reproducible
//! and serializes cleanly into checkpoints.
//!
//! These are plain state machines: they count and trace nothing
//! themselves. The fleet shard that drives a pair's breaker compares its
//! state before and after each pair step, and counts and traces the
//! transition under the pair's label.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::fmt;

/// Exponential-backoff parameters for transient probe failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffConfig {
    /// Delay before the first retry, in microseconds.
    pub base_us: u64,
    /// Multiplier applied per subsequent retry.
    pub factor: f64,
    /// Ceiling on any single delay, in microseconds.
    pub max_us: u64,
    /// Retries per probe before the harvest is declared missed.
    pub max_retries: u32,
    /// Jitter as a fraction of the delay in `[0, 1]`: each delay is scaled
    /// by a factor drawn uniformly from `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            base_us: 50,
            factor: 2.0,
            max_us: 5_000,
            max_retries: 3,
            jitter: 0.25,
        }
    }
}

/// Mixes the supervisor seed with per-site coordinates into one RNG seed
/// (splitmix64-style), so every `(pair, tick, attempt)` gets an
/// independent, reproducible jitter draw without any serialized RNG state.
pub fn mix_seed(seed: u64, pair: u64, tick: u64) -> u64 {
    let mut z = seed
        .wrapping_add(pair.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(tick.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The delay (µs) to wait before retry number `attempt` (0-based), or
/// `None` when the retry budget is exhausted.
///
/// Deterministic: the jitter is drawn from an RNG seeded purely by
/// `(seed, attempt)`, so the same inputs always produce the same schedule —
/// a crash-restored supervisor replays identical backoff behavior.
///
/// ```
/// use cchunter_detector::policy::{backoff_delay, BackoffConfig};
/// let config = BackoffConfig::default();
/// let a = backoff_delay(&config, 7, 0);
/// assert_eq!(a, backoff_delay(&config, 7, 0), "reproducible");
/// assert!(backoff_delay(&config, 7, config.max_retries).is_none());
/// ```
pub fn backoff_delay(config: &BackoffConfig, seed: u64, attempt: u32) -> Option<u64> {
    if attempt >= config.max_retries {
        return None;
    }
    let exp = config.base_us as f64 * config.factor.powi(attempt as i32);
    let capped = exp.min(config.max_us as f64);
    let jitter = config.jitter.clamp(0.0, 1.0);
    let scale = if jitter > 0.0 {
        let mut rng = SmallRng::seed_from_u64(mix_seed(seed, attempt as u64, 0x5EED));
        1.0 - jitter + rng.gen_range(0.0..(2.0 * jitter))
    } else {
        1.0
    };
    Some((capped * scale).round().max(0.0) as u64)
}

/// Quarantine (circuit-breaker) parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuarantineConfig {
    /// Sliding window of recent probe outcomes the failure rate is
    /// computed over.
    pub failure_window: usize,
    /// Failure rate in `(0, 1]` that trips the breaker open.
    pub trip_threshold: f64,
    /// Minimum outcomes in the window before the breaker may trip (so one
    /// early failure is not a 100% rate).
    pub min_observations: usize,
    /// Ticks between recovery probes while quarantined.
    pub probe_interval: u64,
    /// Consecutive successful recovery probes required to close again.
    pub recovery_successes: u32,
    /// Per-skipped-tick multiplicative decay of a quarantined pair's
    /// reported confidence, in `(0, 1]`.
    pub confidence_decay: f64,
}

impl Default for QuarantineConfig {
    fn default() -> Self {
        QuarantineConfig {
            failure_window: 8,
            trip_threshold: 0.5,
            min_observations: 4,
            probe_interval: 4,
            recovery_successes: 2,
            confidence_decay: 0.8,
        }
    }
}

/// The breaker's externally visible state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Probes flow normally.
    Closed,
    /// Quarantined: probes are skipped except for periodic recovery probes.
    Open {
        /// Tick at which the breaker tripped.
        since_tick: u64,
    },
    /// A recovery probe succeeded; a few more must succeed to close.
    HalfOpen {
        /// Consecutive recovery successes so far.
        successes: u32,
    },
}

impl BreakerState {
    /// The state's bare name (`closed` / `open` / `half-open`), without the
    /// per-state data — the stable vocabulary used by trace events and
    /// metric labels.
    pub fn name(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen { .. } => "half-open",
        }
    }
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BreakerState::Closed => f.write_str("closed"),
            BreakerState::Open { since_tick } => write!(f, "open(since {since_tick})"),
            BreakerState::HalfOpen { successes } => write!(f, "half-open({successes})"),
        }
    }
}

/// Per-pair failure-rate circuit breaker with quarantine and recovery.
///
/// ```
/// use cchunter_detector::policy::{BreakerState, CircuitBreaker, QuarantineConfig};
/// let mut breaker = CircuitBreaker::new(QuarantineConfig::default());
/// for tick in 0..4 {
///     breaker.record_failure(tick);
/// }
/// assert!(matches!(breaker.state(), BreakerState::Open { .. }));
/// assert!(!breaker.should_attempt(5), "quarantined ticks are skipped");
/// ```
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: QuarantineConfig,
    /// Recent outcomes, oldest first; `true` = failure.
    outcomes: VecDeque<bool>,
    failures_in_window: usize,
    state: BreakerState,
}

impl CircuitBreaker {
    /// Creates a closed breaker. Degenerate configs are clamped: a zero
    /// window or threshold would otherwise trip instantly and permanently.
    pub fn new(config: QuarantineConfig) -> Self {
        let config = QuarantineConfig {
            failure_window: config.failure_window.max(1),
            trip_threshold: config.trip_threshold.clamp(f64::EPSILON, 1.0),
            min_observations: config.min_observations.max(1),
            probe_interval: config.probe_interval.max(1),
            recovery_successes: config.recovery_successes.max(1),
            confidence_decay: config.confidence_decay.clamp(f64::EPSILON, 1.0),
        };
        CircuitBreaker {
            config,
            outcomes: VecDeque::with_capacity(config.failure_window),
            failures_in_window: 0,
            state: BreakerState::Closed,
        }
    }

    /// The active (clamped) configuration.
    pub fn config(&self) -> &QuarantineConfig {
        &self.config
    }

    /// Current breaker state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Starts loading the oldest recorded outcome, which the next one
    /// evicts.
    pub(crate) fn prefetch(&self) {
        if let Some(oldest) = self.outcomes.front() {
            crate::window::prefetch(oldest);
        }
    }

    /// Whether the pair is quarantined (open or still proving recovery).
    pub fn is_quarantined(&self) -> bool {
        !matches!(self.state, BreakerState::Closed)
    }

    /// Failure rate over the current window (0.0 when empty).
    pub fn failure_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            self.failures_in_window as f64 / self.outcomes.len() as f64
        }
    }

    /// Whether the supervisor should probe this pair at `tick`: always when
    /// closed or half-open, and only on recovery-probe ticks while open.
    pub fn should_attempt(&self, tick: u64) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen { .. } => true,
            BreakerState::Open { since_tick } => {
                let elapsed = tick.saturating_sub(since_tick);
                elapsed > 0 && elapsed % self.config.probe_interval == 0
            }
        }
    }

    fn push_outcome(&mut self, failed: bool) {
        self.outcomes.push_back(failed);
        if failed {
            self.failures_in_window += 1;
        }
        if self.outcomes.len() > self.config.failure_window
            && self.outcomes.pop_front() == Some(true)
        {
            self.failures_in_window -= 1;
        }
    }

    /// Records a successful probe.
    pub fn record_success(&mut self) {
        self.push_outcome(false);
        match self.state {
            BreakerState::Closed => {}
            BreakerState::Open { .. } => {
                self.state = BreakerState::HalfOpen { successes: 1 };
                self.maybe_close();
            }
            BreakerState::HalfOpen { successes } => {
                self.state = BreakerState::HalfOpen {
                    successes: successes + 1,
                };
                self.maybe_close();
            }
        }
    }

    fn maybe_close(&mut self) {
        if let BreakerState::HalfOpen { successes } = self.state {
            if successes >= self.config.recovery_successes {
                self.state = BreakerState::Closed;
                self.outcomes.clear();
                self.failures_in_window = 0;
            }
        }
    }

    /// Records a failed probe at `tick`, possibly tripping the breaker.
    pub fn record_failure(&mut self, tick: u64) {
        self.push_outcome(true);
        match self.state {
            BreakerState::Closed => {
                if self.outcomes.len() >= self.config.min_observations
                    && self.failure_rate() >= self.config.trip_threshold
                {
                    self.state = BreakerState::Open { since_tick: tick };
                }
            }
            // A failed recovery probe re-opens the quarantine clock.
            BreakerState::HalfOpen { .. } | BreakerState::Open { .. } => {
                self.state = BreakerState::Open { since_tick: tick };
            }
        }
    }

    /// Serializes the breaker to one checkpoint field: `state;since;succ;`
    /// followed by the outcome window as `1`/`0` chars, oldest first.
    pub fn serialize(&self) -> String {
        let (state, since, successes) = match self.state {
            BreakerState::Closed => ("closed", 0, 0),
            BreakerState::Open { since_tick } => ("open", since_tick, 0),
            BreakerState::HalfOpen { successes } => ("half-open", 0, successes),
        };
        let window: String = self
            .outcomes
            .iter()
            .map(|&failed| if failed { '1' } else { '0' })
            .collect();
        format!("{state};{since};{successes};{window}")
    }

    /// Restores a breaker serialized by [`serialize`](Self::serialize).
    ///
    /// Returns `None` on any malformed field (the caller converts that to
    /// its own typed error).
    pub fn deserialize(config: QuarantineConfig, text: &str) -> Option<Self> {
        let mut fields = text.split(';');
        let state = fields.next()?;
        let since: u64 = fields.next()?.parse().ok()?;
        let successes: u32 = fields.next()?.parse().ok()?;
        let window = fields.next()?;
        if fields.next().is_some() || window.len() > 4096 {
            return None;
        }
        let mut breaker = CircuitBreaker::new(config);
        for c in window.chars() {
            match c {
                '0' => breaker.push_outcome(false),
                '1' => breaker.push_outcome(true),
                _ => return None,
            }
        }
        breaker.state = match state {
            "closed" => BreakerState::Closed,
            "open" => BreakerState::Open { since_tick: since },
            "half-open" => BreakerState::HalfOpen { successes },
            _ => return None,
        };
        Some(breaker)
    }
}

/// Hysteresis parameters for latency-SLO shard suspicion.
///
/// A gray-failing shard is *slow but alive*: it answers heartbeats, so the
/// hard watchdog never fires, yet its tick latency quietly starves the
/// fleet's observation windows. Suspicion is the soft counterpart — a
/// shard whose tick p99 breaches its budget for [`breach_ticks`]
/// *consecutive* ticks is **suspected** (and proactively drained), and
/// only [`clear_ticks`] consecutive in-budget ticks clear it again. Both
/// streaks reset on any opposite observation, so a shard oscillating
/// around the budget line settles into whichever side it actually
/// sustains instead of flapping.
///
/// [`breach_ticks`]: SuspicionConfig::breach_ticks
/// [`clear_ticks`]: SuspicionConfig::clear_ticks
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuspicionConfig {
    /// Consecutive over-budget ticks required to suspect (min 1).
    pub breach_ticks: u32,
    /// Consecutive in-budget ticks required to clear (min 1).
    pub clear_ticks: u32,
}

impl Default for SuspicionConfig {
    fn default() -> Self {
        SuspicionConfig {
            breach_ticks: 3,
            clear_ticks: 5,
        }
    }
}

/// An edge of the suspicion state machine, returned by
/// [`SuspicionTracker::observe`] when a streak completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuspicionTransition {
    /// The breach streak completed: the shard is now suspected.
    Suspected,
    /// The recovery streak completed: the shard is healthy again.
    Cleared,
}

/// Per-shard latency-SLO suspicion with hysteresis (see
/// [`SuspicionConfig`]).
///
/// ```
/// use cchunter_detector::policy::{SuspicionConfig, SuspicionTracker, SuspicionTransition};
/// let mut tracker = SuspicionTracker::new(SuspicionConfig {
///     breach_ticks: 2,
///     clear_ticks: 2,
/// });
/// assert_eq!(tracker.observe(true), None, "one breach is not a streak");
/// assert_eq!(tracker.observe(true), Some(SuspicionTransition::Suspected));
/// assert!(tracker.suspected());
/// // Strict alternation never completes either streak: no flapping.
/// for _ in 0..16 {
///     assert_eq!(tracker.observe(false), None);
///     assert_eq!(tracker.observe(true), None);
/// }
/// assert!(tracker.suspected());
/// ```
#[derive(Debug, Clone)]
pub struct SuspicionTracker {
    config: SuspicionConfig,
    suspected: bool,
    breach_streak: u32,
    clear_streak: u32,
}

impl SuspicionTracker {
    /// Creates a healthy (unsuspected) tracker. Zero streak lengths are
    /// clamped to 1 — a zero threshold would transition on every tick.
    pub fn new(config: SuspicionConfig) -> Self {
        SuspicionTracker {
            config: SuspicionConfig {
                breach_ticks: config.breach_ticks.max(1),
                clear_ticks: config.clear_ticks.max(1),
            },
            suspected: false,
            breach_streak: 0,
            clear_streak: 0,
        }
    }

    /// The active (clamped) configuration.
    pub fn config(&self) -> SuspicionConfig {
        self.config
    }

    /// Whether the shard is currently suspected.
    pub fn suspected(&self) -> bool {
        self.suspected
    }

    /// Feeds one tick's verdict (`over_budget`: did the tick-latency p99
    /// breach the budget?) and returns the transition it completes, if
    /// any.
    pub fn observe(&mut self, over_budget: bool) -> Option<SuspicionTransition> {
        if over_budget {
            self.clear_streak = 0;
            if self.suspected {
                return None;
            }
            self.breach_streak += 1;
            if self.breach_streak >= self.config.breach_ticks {
                self.suspected = true;
                self.breach_streak = 0;
                return Some(SuspicionTransition::Suspected);
            }
        } else {
            self.breach_streak = 0;
            if !self.suspected {
                return None;
            }
            self.clear_streak += 1;
            if self.clear_streak >= self.config.clear_ticks {
                self.suspected = false;
                self.clear_streak = 0;
                return Some(SuspicionTransition::Cleared);
            }
        }
        None
    }

    /// Forgets all streak state (e.g. after the shard is rebuilt); a
    /// revived shard starts healthy.
    pub fn reset(&mut self) {
        self.suspected = false;
        self.breach_streak = 0;
        self.clear_streak = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let config = BackoffConfig {
            base_us: 100,
            factor: 2.0,
            max_us: 1_000,
            max_retries: 6,
            jitter: 0.25,
        };
        let schedule: Vec<Option<u64>> = (0..8).map(|a| backoff_delay(&config, 42, a)).collect();
        assert_eq!(
            schedule,
            (0..8)
                .map(|a| backoff_delay(&config, 42, a))
                .collect::<Vec<_>>()
        );
        for (attempt, delay) in schedule.iter().enumerate() {
            if attempt < 6 {
                let d = delay.expect("within retry budget");
                // base·2^a capped at max, ±25% jitter.
                let nominal = (100.0 * 2f64.powi(attempt as i32)).min(1_000.0);
                assert!((d as f64) >= nominal * 0.74 && (d as f64) <= nominal * 1.26);
            } else {
                assert!(delay.is_none(), "attempt {attempt} exhausts the budget");
            }
        }
    }

    #[test]
    fn different_seeds_jitter_differently() {
        let config = BackoffConfig::default();
        let delays: Vec<u64> = (0..64)
            .filter_map(|seed| backoff_delay(&config, seed, 1))
            .collect();
        let first = delays[0];
        assert!(
            delays.iter().any(|&d| d != first),
            "jitter must depend on the seed"
        );
    }

    #[test]
    fn zero_jitter_is_exact() {
        let config = BackoffConfig {
            base_us: 100,
            factor: 2.0,
            max_us: 10_000,
            max_retries: 4,
            jitter: 0.0,
        };
        assert_eq!(backoff_delay(&config, 1, 0), Some(100));
        assert_eq!(backoff_delay(&config, 1, 1), Some(200));
        assert_eq!(backoff_delay(&config, 1, 3), Some(800));
    }

    #[test]
    fn breaker_trips_at_threshold_within_window() {
        let mut breaker = CircuitBreaker::new(QuarantineConfig {
            failure_window: 8,
            trip_threshold: 0.5,
            min_observations: 4,
            ..QuarantineConfig::default()
        });
        breaker.record_failure(0);
        breaker.record_failure(1);
        breaker.record_failure(2);
        assert_eq!(
            breaker.state(),
            BreakerState::Closed,
            "below min_observations"
        );
        breaker.record_failure(3);
        assert_eq!(breaker.state(), BreakerState::Open { since_tick: 3 });
        assert!(breaker.is_quarantined());
    }

    #[test]
    fn mixed_outcomes_below_threshold_stay_closed() {
        let mut breaker = CircuitBreaker::new(QuarantineConfig::default());
        for tick in 0..32 {
            if tick % 4 == 0 {
                breaker.record_failure(tick);
            } else {
                breaker.record_success();
            }
            assert_eq!(breaker.state(), BreakerState::Closed, "tick {tick}");
        }
        assert!((breaker.failure_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn quarantine_probes_periodically_and_recovers() {
        let config = QuarantineConfig {
            failure_window: 4,
            trip_threshold: 0.5,
            min_observations: 2,
            probe_interval: 3,
            recovery_successes: 2,
            ..QuarantineConfig::default()
        };
        let mut breaker = CircuitBreaker::new(config);
        breaker.record_failure(10);
        breaker.record_failure(11);
        assert_eq!(breaker.state(), BreakerState::Open { since_tick: 11 });
        // Skipped ticks until the probe interval elapses.
        assert!(!breaker.should_attempt(12));
        assert!(!breaker.should_attempt(13));
        assert!(breaker.should_attempt(14), "11 + 3 is a probe tick");
        breaker.record_success();
        assert_eq!(breaker.state(), BreakerState::HalfOpen { successes: 1 });
        assert!(breaker.should_attempt(15), "half-open probes every tick");
        breaker.record_success();
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert_eq!(breaker.failure_rate(), 0.0, "window cleared on close");
    }

    #[test]
    fn failed_recovery_probe_reopens() {
        let config = QuarantineConfig {
            failure_window: 4,
            trip_threshold: 0.5,
            min_observations: 2,
            probe_interval: 2,
            recovery_successes: 2,
            ..QuarantineConfig::default()
        };
        let mut breaker = CircuitBreaker::new(config);
        breaker.record_failure(0);
        breaker.record_failure(1);
        breaker.record_success();
        assert_eq!(breaker.state(), BreakerState::HalfOpen { successes: 1 });
        breaker.record_failure(4);
        assert_eq!(breaker.state(), BreakerState::Open { since_tick: 4 });
    }

    #[test]
    fn breaker_serialization_roundtrips() {
        let config = QuarantineConfig::default();
        let mut breaker = CircuitBreaker::new(config);
        breaker.record_success();
        breaker.record_failure(1);
        breaker.record_failure(2);
        breaker.record_failure(3);
        breaker.record_failure(4);
        let text = breaker.serialize();
        let back = CircuitBreaker::deserialize(config, &text).unwrap();
        assert_eq!(back.state(), breaker.state());
        assert_eq!(back.failure_rate(), breaker.failure_rate());
        assert_eq!(back.serialize(), text);
    }

    #[test]
    fn suspicion_requires_sustained_breach_and_sustained_recovery() {
        let mut tracker = SuspicionTracker::new(SuspicionConfig {
            breach_ticks: 3,
            clear_ticks: 4,
        });
        assert_eq!(tracker.observe(true), None);
        assert_eq!(tracker.observe(true), None);
        // An in-budget tick resets the breach streak entirely.
        assert_eq!(tracker.observe(false), None);
        assert_eq!(tracker.observe(true), None);
        assert_eq!(tracker.observe(true), None);
        assert_eq!(tracker.observe(true), Some(SuspicionTransition::Suspected));
        assert!(tracker.suspected());
        // Symmetrically, a breach resets the recovery streak.
        for _ in 0..3 {
            assert_eq!(tracker.observe(false), None);
        }
        assert_eq!(tracker.observe(true), None);
        for _ in 0..3 {
            assert_eq!(tracker.observe(false), None);
        }
        assert_eq!(tracker.observe(false), Some(SuspicionTransition::Cleared));
        assert!(!tracker.suspected());
    }

    #[test]
    fn suspicion_zero_thresholds_are_clamped() {
        let mut tracker = SuspicionTracker::new(SuspicionConfig {
            breach_ticks: 0,
            clear_ticks: 0,
        });
        assert_eq!(tracker.config().breach_ticks, 1);
        assert_eq!(tracker.config().clear_ticks, 1);
        assert_eq!(tracker.observe(true), Some(SuspicionTransition::Suspected));
        assert_eq!(tracker.observe(false), Some(SuspicionTransition::Cleared));
    }

    /// Property: over seeded latency traces that *oscillate* around the
    /// budget (no run of equal verdicts ever reaches the configured streak
    /// length), the tracker never transitions at all — and over arbitrary
    /// random traces, every transition is backed by a full streak, so the
    /// transition count is bounded by the number of sustained runs.
    #[test]
    fn suspicion_does_not_flap_on_oscillating_latency_traces() {
        for seed in 0..64u64 {
            let config = SuspicionConfig {
                breach_ticks: 2 + (seed % 4) as u32,
                clear_ticks: 2 + (seed % 3) as u32,
            };
            let mut rng = SmallRng::seed_from_u64(mix_seed(0x5105_71C5, seed, 0));
            // Build a trace whose runs are all strictly shorter than the
            // relevant streak threshold: the tracker must stay silent.
            let mut trace = Vec::with_capacity(512);
            let mut over = false;
            while trace.len() < 512 {
                over = !over;
                let cap = if over {
                    config.breach_ticks
                } else {
                    config.clear_ticks
                };
                let run = 1 + rng.gen_range(0..cap.max(2) - 1) as usize;
                for _ in 0..run.min(cap as usize - 1) {
                    trace.push(over);
                }
            }
            let mut tracker = SuspicionTracker::new(config);
            for &v in &trace {
                assert_eq!(
                    tracker.observe(v),
                    None,
                    "seed {seed}: sub-threshold oscillation must not transition"
                );
            }
            assert!(!tracker.suspected(), "seed {seed}");

            // Arbitrary trace: transitions must strictly alternate
            // (suspected, cleared, suspected, ...) and each one must be
            // preceded by a full same-verdict streak.
            let random: Vec<bool> = (0..512).map(|_| rng.gen_bool(0.5)).collect();
            let mut tracker = SuspicionTracker::new(config);
            let mut last = None;
            for (i, &v) in random.iter().enumerate() {
                if let Some(t) = tracker.observe(v) {
                    assert_ne!(Some(t), last, "seed {seed}: transitions alternate");
                    let needed = match t {
                        SuspicionTransition::Suspected => config.breach_ticks as usize,
                        SuspicionTransition::Cleared => config.clear_ticks as usize,
                    };
                    assert!(i + 1 >= needed, "seed {seed}");
                    assert!(
                        random[i + 1 - needed..=i].iter().all(|&x| x == v),
                        "seed {seed}: transition at {i} lacks a full streak"
                    );
                    last = Some(t);
                }
            }
        }
    }

    #[test]
    fn breaker_deserialize_rejects_garbage() {
        let config = QuarantineConfig::default();
        for bad in [
            "",
            "closed;0",
            "weird;0;0;",
            "closed;0;0;012",
            "closed;x;0;",
        ] {
            assert!(
                CircuitBreaker::deserialize(config, bad).is_none(),
                "{bad:?}"
            );
        }
    }
}
