//! Ring-buffered structured-event tracing for the audit stack.
//!
//! The numeric half of the observability layer ([`crate::metrics`]) tells
//! you *how much*; this module tells you *what happened, in order*. A
//! [`Tracer`] is a bounded ring of [`TraceEvent`]s — cheap enough to leave
//! compiled into the hot paths, disabled by default, and switchable at run
//! time. When disabled, recording an event is a single relaxed atomic load.
//!
//! Events carry a monotone sequence number, a wall-clock offset from the
//! tracer's epoch, and (when the caller is inside the simulator) the
//! simulated cycle, so an operator can line up a per-quantum audit
//! timeline against both clocks. Timed sections use RAII [`Span`] guards
//! that record their duration on drop.
//!
//! The process-wide [`global`] tracer is configured from the
//! `CCHUNTER_TRACE` environment variable at first use:
//!
//! * unset, empty, or `0` — disabled;
//! * `1` — enabled with the default ring capacity (4096 events);
//! * any other integer — enabled with that capacity.
//!
//! Components that need deterministic buffers in tests (or several
//! independent timelines) construct their own [`Tracer`] and inject it
//! (see [`ShardedFleet::with_tracer`](crate::ShardedFleet::with_tracer)).

use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default ring capacity for [`Tracer::from_env`] when `CCHUNTER_TRACE=1`.
pub const DEFAULT_CAPACITY: usize = 4096;

/// One recorded event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotone sequence number (counts every recorded event, including
    /// ones later evicted from the ring).
    pub seq: u64,
    /// Microseconds of wall clock since the tracer's epoch.
    pub wall_us: u64,
    /// Simulated cycle, when the event was recorded from inside (or about)
    /// the simulator.
    pub cycle: Option<u64>,
    /// Coarse subsystem: `"fleet"`, `"supervisor"`, `"mitigation"`,
    /// `"pipeline"`, `"policy"`, `"sim"`, ….
    pub scope: &'static str,
    /// Event kind, e.g. `"tick"`, `"verdict-flip"`, `"breaker-transition"`.
    pub name: String,
    /// Free-form detail (pair label, counts, states).
    pub detail: String,
    /// Duration in microseconds for span-style events; `None` for instants.
    pub dur_us: Option<u64>,
}

#[derive(Debug)]
struct TracerInner {
    enabled: AtomicBool,
    capacity: usize,
    seq: AtomicU64,
    dropped: AtomicU64,
    epoch: Instant,
    ring: Mutex<VecDeque<TraceEvent>>,
}

/// A cloneable handle to a shared bounded event ring.
#[derive(Clone, Debug)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    /// Creates an **enabled** tracer with room for `capacity` events
    /// (oldest evicted first). A zero capacity is bumped to one.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Tracer {
            inner: Arc::new(TracerInner {
                enabled: AtomicBool::new(true),
                capacity,
                seq: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                epoch: Instant::now(),
                ring: Mutex::new(VecDeque::with_capacity(capacity)),
            }),
        }
    }

    /// Creates a **disabled** tracer with the default capacity; flip it on
    /// later with [`set_enabled`](Tracer::set_enabled).
    pub fn disabled() -> Self {
        let t = Tracer::new(DEFAULT_CAPACITY);
        t.set_enabled(false);
        t
    }

    /// Builds a tracer from a `CCHUNTER_TRACE`-style setting (see the
    /// module docs for the accepted values).
    pub fn from_env_value(value: Option<&str>) -> Self {
        match capacity_from_env_value(value) {
            Some(capacity) => Tracer::new(capacity),
            None => Tracer::disabled(),
        }
    }

    /// Builds a tracer from the `CCHUNTER_TRACE` environment variable.
    pub fn from_env() -> Self {
        Tracer::from_env_value(std::env::var("CCHUNTER_TRACE").ok().as_deref())
    }

    /// Whether events are currently being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Enables or disables recording (existing events are kept).
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Records an instantaneous event.
    pub fn event(&self, scope: &'static str, name: &str, detail: impl fmt::Display) {
        self.record(None, scope, name, detail, None);
    }

    /// Opens a timed section; the event (with its duration) is recorded
    /// when the returned guard drops. When the tracer is disabled the
    /// guard is inert and costs nothing beyond construction.
    pub fn span(&self, scope: &'static str, name: &'static str) -> Span {
        if !self.is_enabled() {
            return Span {
                tracer: None,
                scope,
                name,
                detail: String::new(),
                cycle: None,
                start: None,
            };
        }
        Span {
            tracer: Some(self.clone()),
            scope,
            name,
            detail: String::new(),
            cycle: None,
            start: Some(Instant::now()),
        }
    }

    fn record(
        &self,
        cycle: Option<u64>,
        scope: &'static str,
        name: &str,
        detail: impl fmt::Display,
        dur_us: Option<u64>,
    ) {
        if !self.is_enabled() {
            return;
        }
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let wall_us = self.inner.epoch.elapsed().as_micros() as u64;
        let event = TraceEvent {
            seq,
            wall_us,
            cycle,
            scope,
            name: name.to_string(),
            detail: detail.to_string(),
            dur_us,
        };
        let mut ring = self.inner.ring.lock().expect("tracer ring poisoned");
        if ring.len() == self.inner.capacity {
            ring.pop_front();
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// Events currently in the ring, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner
            .ring
            .lock()
            .expect("tracer ring poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.inner.ring.lock().expect("tracer ring poisoned").len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Total events ever recorded.
    pub fn recorded(&self) -> u64 {
        self.inner.seq.load(Ordering::Relaxed)
    }

    /// Clears the ring (sequence numbers keep counting).
    pub fn clear(&self) {
        self.inner
            .ring
            .lock()
            .expect("tracer ring poisoned")
            .clear();
    }

    /// Renders the newest `limit` events as an aligned plain-text
    /// timeline, oldest of those first.
    pub fn render_timeline(&self, limit: usize) -> String {
        let events = self.events();
        let skip = events.len().saturating_sub(limit);
        let mut out = String::new();
        writeln!(
            out,
            "{:>6}  {:>10}  {:>10}  {:<10}  {:<18}  detail",
            "seq", "wall_us", "cycle", "scope", "event"
        )
        .expect("string write");
        for e in events.iter().skip(skip) {
            let cycle = e
                .cycle
                .map(|c| c.to_string())
                .unwrap_or_else(|| "-".to_string());
            let name = match e.dur_us {
                Some(d) => format!("{} [{d}us]", e.name),
                None => e.name.clone(),
            };
            writeln!(
                out,
                "{:>6}  {:>10}  {:>10}  {:<10}  {:<18}  {}",
                e.seq, e.wall_us, cycle, e.scope, name, e.detail
            )
            .expect("string write");
        }
        if skip > 0 || self.dropped() > 0 {
            writeln!(
                out,
                "({} shown, {} buffered, {} evicted from ring)",
                events.len() - skip,
                events.len(),
                self.dropped()
            )
            .expect("string write");
        }
        out
    }
}

/// Parses a `CCHUNTER_TRACE` setting into `Some(ring capacity)` when
/// tracing should be on, `None` when off. Exposed for tests so the env
/// parsing is checkable without mutating process environment.
pub fn capacity_from_env_value(value: Option<&str>) -> Option<usize> {
    let value = value?.trim();
    match value {
        "" | "0" => None,
        "1" => Some(DEFAULT_CAPACITY),
        other => match other.parse::<usize>() {
            Ok(n) if n > 1 => Some(n),
            _ => None,
        },
    }
}

/// An RAII guard for a timed section; records one event with `dur_us` on
/// drop. Obtained from [`Tracer::span`].
#[derive(Debug)]
pub struct Span {
    tracer: Option<Tracer>,
    scope: &'static str,
    name: &'static str,
    detail: String,
    cycle: Option<u64>,
    start: Option<Instant>,
}

impl Span {
    /// Replaces the span's detail text (shown on the recorded event).
    pub fn detail(&mut self, detail: impl fmt::Display) {
        if self.tracer.is_some() {
            self.detail = detail.to_string();
        }
    }

    /// Stamps the span with a simulated cycle.
    pub fn cycle(&mut self, cycle: u64) {
        self.cycle = Some(cycle);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let (Some(tracer), Some(start)) = (self.tracer.take(), self.start) {
            let dur_us = start.elapsed().as_micros() as u64;
            tracer.record(
                self.cycle,
                self.scope,
                self.name,
                std::mem::take(&mut self.detail),
                Some(dur_us),
            );
        }
    }
}

/// The process-wide tracer, configured from `CCHUNTER_TRACE` at first use.
/// Paths that have no injected tracer (pipeline batch audits, ingest, the
/// sim quantum loop) record here, and so does a fleet not built
/// [`with_tracer`](crate::ShardedFleet::with_tracer).
pub fn global() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(Tracer::from_env)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_ordered_and_bounded() {
        let t = Tracer::new(3);
        for i in 0..5u32 {
            t.event("test", "tick", i);
        }
        let events = t.events();
        assert_eq!(events.len(), 3, "ring keeps the newest 3");
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.recorded(), 5);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(events[2].detail, "4");
        assert!(events.windows(2).all(|w| w[0].wall_us <= w[1].wall_us));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.event("test", "ignored", "");
        {
            let mut span = t.span("test", "ignored-span");
            span.detail("also ignored");
        }
        assert!(t.is_empty());
        assert_eq!(t.recorded(), 0);
        t.set_enabled(true);
        t.event("test", "kept", "");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn spans_record_duration_on_drop() {
        let t = Tracer::new(8);
        {
            let mut span = t.span("supervisor", "tick");
            span.detail("pairs=4");
            span.cycle(1234);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let events = t.events();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.name, "tick");
        assert_eq!(e.detail, "pairs=4");
        assert_eq!(e.cycle, Some(1234));
        assert!(e.dur_us.expect("span has duration") >= 1_000);
    }

    #[test]
    fn env_value_parsing() {
        assert_eq!(capacity_from_env_value(None), None);
        assert_eq!(capacity_from_env_value(Some("")), None);
        assert_eq!(capacity_from_env_value(Some("0")), None);
        assert_eq!(capacity_from_env_value(Some("1")), Some(DEFAULT_CAPACITY));
        assert_eq!(capacity_from_env_value(Some("256")), Some(256));
        assert_eq!(capacity_from_env_value(Some(" 64 ")), Some(64));
        assert_eq!(capacity_from_env_value(Some("nope")), None);
    }

    #[test]
    fn timeline_renders_cycles_and_durations() {
        let t = Tracer::new(16);
        t.event("sim", "quantum", "bus=3");
        {
            let mut span = t.span("supervisor", "tick");
            span.cycle(777);
        }
        let text = t.render_timeline(10);
        assert!(text.contains("777"));
        assert!(text.contains("quantum"));
        assert!(text.contains("bus=3"));
        assert!(text.contains("tick ["), "span duration rendered: {text}");
    }
}
