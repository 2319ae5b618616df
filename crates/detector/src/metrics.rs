//! Zero-dependency metrics: atomic counters, gauges, fixed-bucket latency
//! histograms, labeled families, and a [`Registry`] with
//! Prometheus-text and JSON exposition.
//!
//! The detection stack is built to run unattended for months; what an
//! operator can *observe* about it — audit latency, quarantine churn,
//! rollback counts, verdict flips — matters as much as the verdicts
//! themselves. This module is the numeric half of the observability layer
//! (the event half is [`crate::span`]): every instrument is a cheap
//! `Arc`-shared handle over relaxed atomics, safe to clone into the thread
//! pool's fan-outs, and every registered instrument can be scraped at any
//! time without pausing the fleet.
//!
//! * [`Counter`] — monotonic `u64`, exact under concurrent increments.
//! * [`Gauge`] — an `f64` that can move both ways (confidence, fill levels).
//! * [`Histogram`] — fixed cumulative buckets + sum/count/max, for latency
//!   distributions; never allocates after construction.
//! * [`HistogramTally`] — a histogram's observations gathered without
//!   atomics by one loop and published into it in one call.
//! * [`Family`] — a labeled set of any of the above (one time series per
//!   label value, e.g. per shard). A family's label values must come from
//!   configuration or a bounded set, never from the data.
//! * [`Registry`] — named, help-texted instruments with
//!   [`render_prometheus`](Registry::render_prometheus) and
//!   [`render_json`](Registry::render_json) exposition.
//!
//! [`parse_prometheus`] is a deliberately small parser for the text format
//! this module emits — enough for round-trip property tests and for a
//! scrape-side consumer that wants typed samples without a dependency.
//!
//! A process-wide [`default_registry`] collects the module-level
//! instruments of the batch [`crate::pipeline`] and the [`crate::ingest`]
//! layer; components that want isolation (tests, multi-tenant embedders)
//! construct their own [`Registry`]. Every [`crate::ShardedFleet`] shard
//! and its coordinator own private ones (see
//! [`crate::ShardedFleet::render_prometheus`]), and the state machines
//! under a fleet (window, breaker, containment policy) register nothing:
//! a shard counts their changes.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// A monotonically increasing counter. Cloning shares the underlying value.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.inc_by(1);
    }

    /// Adds `n`.
    pub fn inc_by(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the counter to at least `floor` (used to re-seed monotonic
    /// counters from a persisted snapshot after a crash-restore; idempotent,
    /// so an in-process restore that shares the registry never
    /// double-counts).
    pub fn seed(&self, floor: u64) {
        self.value.fetch_max(floor, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A floating-point gauge that can move in both directions.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (atomic read-modify-write loop).
    pub fn add(&self, delta: f64) {
        add_f64(&self.bits, delta);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds of the finite buckets, strictly ascending; an implicit
    /// `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` slots, the last
    /// being the overflow bucket).
    buckets: Vec<AtomicU64>,
    /// Bit pattern of the running sum (CAS-updated f64).
    sum_bits: AtomicU64,
    /// Total observations.
    count: AtomicU64,
    /// Bit pattern of the largest observation (valid for the non-negative
    /// values this histogram is meant for — u64 bit order matches f64 order
    /// on non-negatives).
    max_bits: AtomicU64,
}

/// A fixed-bucket cumulative histogram for non-negative observations
/// (latencies in microseconds, batch sizes). Cloning shares the buckets.
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

/// Default latency buckets in microseconds: 1 µs to 1 s, roughly
/// logarithmic — wide enough for both a single counter bump and a wedged
/// analysis.
pub const LATENCY_BUCKETS_US: [f64; 14] = [
    1.0,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1_000.0,
    2_500.0,
    5_000.0,
    25_000.0,
    100_000.0,
    1_000_000.0,
];

impl Histogram {
    /// Creates a histogram with the given finite bucket upper bounds
    /// (strictly ascending; an overflow bucket is always appended).
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty, unsorted, or contains a non-finite
    /// bound — histogram shape is a compile-time-style decision, not data.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly ascending"
        );
        Histogram {
            inner: Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                sum_bits: AtomicU64::new(0.0f64.to_bits()),
                count: AtomicU64::new(0),
                max_bits: AtomicU64::new(0.0f64.to_bits()),
            }),
        }
    }

    /// A histogram over [`LATENCY_BUCKETS_US`].
    pub fn latency_us() -> Self {
        Histogram::new(&LATENCY_BUCKETS_US)
    }

    /// Records one observation (negative values clamp to zero).
    pub fn observe(&self, v: f64) {
        let v = clamp_observation(v);
        self.inner.buckets[self.bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner
            .max_bits
            .fetch_max(v.to_bits(), Ordering::Relaxed);
        add_f64(&self.inner.sum_bits, v);
    }

    /// The bucket a clamped observation `v` falls in.
    fn bucket_of(&self, v: f64) -> usize {
        let bounds = &self.inner.bounds;
        bounds.iter().position(|&b| v <= b).unwrap_or(bounds.len())
    }

    /// An empty [`HistogramTally`] that publishes into this histogram.
    pub fn tally(&self) -> HistogramTally {
        HistogramTally {
            histogram: self.clone(),
            buckets: vec![0; self.inner.buckets.len()],
            count: 0,
            sum: 0.0,
            max_bits: 0.0f64.to_bits(),
        }
    }

    /// Adds every observation recorded in `other` into this histogram
    /// (bucket-by-bucket, plus count, sum, and max), for hierarchical
    /// rollups that fold per-shard distributions into a fleet-wide one.
    /// Returns `false` — and merges nothing — when the bucket bounds
    /// differ, since merging across shapes would misbin. The snapshot of
    /// `other` is relaxed; a histogram being written concurrently merges
    /// some consistent-enough recent state, which is all a monitoring
    /// rollup needs.
    pub fn merge_from(&self, other: &Histogram) -> bool {
        if self.inner.bounds != other.inner.bounds {
            return false;
        }
        for (mine, theirs) in self.inner.buckets.iter().zip(&other.inner.buckets) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.inner.count.fetch_add(other.count(), Ordering::Relaxed);
        self.inner
            .max_bits
            .fetch_max(other.max().to_bits(), Ordering::Relaxed);
        add_f64(&self.inner.sum_bits, other.sum());
        true
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Zeroes every bucket, the count, the sum, and the max, keeping the
    /// bucket bounds. For *windowed* views (a latency-SLO tracker that
    /// judges each tick window on fresh data) — cumulative Prometheus
    /// series must never be reset.
    pub fn reset(&self) {
        for bucket in self.inner.buckets.iter() {
            bucket.store(0, Ordering::Relaxed);
        }
        self.inner.count.store(0, Ordering::Relaxed);
        self.inner
            .sum_bits
            .store(0.0f64.to_bits(), Ordering::Relaxed);
        self.inner
            .max_bits
            .store(0.0f64.to_bits(), Ordering::Relaxed);
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.inner.sum_bits.load(Ordering::Relaxed))
    }

    /// Largest observation seen (0 when empty).
    pub fn max(&self) -> f64 {
        f64::from_bits(self.inner.max_bits.load(Ordering::Relaxed))
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Cumulative `(upper_bound, count ≤ bound)` pairs, ending with the
    /// `(+Inf, total)` bucket.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        self.cumulative().collect()
    }

    /// [`Histogram::cumulative_buckets`], read as it is iterated.
    fn cumulative(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let bounds = self.inner.bounds.iter().copied().chain([f64::INFINITY]);
        let mut running = 0u64;
        bounds.zip(&self.inner.buckets).map(move |(bound, count)| {
            running += count.load(Ordering::Relaxed);
            (bound, running)
        })
    }

    /// Estimated `q`-quantile (0 ≤ q ≤ 1) by linear interpolation within
    /// the containing bucket — the usual Prometheus-style estimate, exact
    /// enough for latency summaries.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
        let mut lower_bound = 0.0f64;
        let mut cumulative = 0u64;
        for (i, bucket) in self.inner.buckets.iter().enumerate() {
            let in_bucket = bucket.load(Ordering::Relaxed);
            let next_cumulative = cumulative + in_bucket;
            if (next_cumulative as f64) >= rank {
                let upper = match self.inner.bounds.get(i) {
                    Some(&b) => b,
                    // Overflow bucket: cap at the observed max.
                    None => return self.max(),
                };
                if in_bucket == 0 {
                    return upper;
                }
                let fraction = (rank - cumulative as f64) / in_bucket as f64;
                return lower_bound + (upper - lower_bound) * fraction;
            }
            cumulative = next_cumulative;
            lower_bound = self.inner.bounds.get(i).copied().unwrap_or(lower_bound);
        }
        self.max()
    }
}

/// Observations gathered by one thread without atomics and added into a
/// [`Histogram`] by one [`HistogramTally::publish`]: how a loop records
/// one observation per pair (a shard tick's analysis latencies, a scrape's
/// pair confidences) for the cost of one. Clamps and bins as
/// [`Histogram::observe`] does and sums in observation order, so after
/// [`Histogram::reset`] a published tally leaves the histogram exactly as
/// observing each value would have; on top of earlier observations the
/// sum can differ in the last bit unless the values are whole numbers.
#[derive(Debug)]
pub struct HistogramTally {
    histogram: Histogram,
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    max_bits: u64,
}

impl HistogramTally {
    /// Records one observation (negative values clamp to zero).
    pub fn observe(&mut self, v: f64) {
        let v = clamp_observation(v);
        self.buckets[self.histogram.bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.max_bits = self.max_bits.max(v.to_bits());
    }

    /// Adds every gathered observation into the histogram (one atomic
    /// update per touched bucket, plus count, max and sum) and empties
    /// the tally.
    pub fn publish(&mut self) {
        if self.count == 0 {
            return;
        }
        let inner = &self.histogram.inner;
        for (bucket, n) in inner.buckets.iter().zip(&mut self.buckets) {
            if *n > 0 {
                bucket.fetch_add(std::mem::take(n), Ordering::Relaxed);
            }
        }
        inner
            .count
            .fetch_add(std::mem::take(&mut self.count), Ordering::Relaxed);
        inner.max_bits.fetch_max(self.max_bits, Ordering::Relaxed);
        add_f64(&inner.sum_bits, std::mem::take(&mut self.sum));
        self.max_bits = 0.0f64.to_bits();
    }
}

/// An observation as a histogram records it: non-finite values read 0,
/// negative ones clamp to 0.
fn clamp_observation(v: f64) -> f64 {
    if v.is_finite() {
        v.max(0.0)
    } else {
        0.0
    }
}

/// Adds `delta` to the `f64` whose bits `cell` holds (a relaxed
/// compare-and-swap loop).
fn add_f64(cell: &AtomicU64, delta: f64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(current) + delta).to_bits();
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => current = actual,
        }
    }
}

/// A labeled set of instruments: one member per label *value* under a
/// single label *name* (the registry's label scheme is one label per
/// family — e.g. `shard` for per-shard series).
pub struct Family<M> {
    label_name: String,
    factory: Arc<dyn Fn() -> M + Send + Sync>,
    members: Arc<Mutex<BTreeMap<String, M>>>,
}

impl<M> Clone for Family<M> {
    fn clone(&self) -> Self {
        Family {
            label_name: self.label_name.clone(),
            factory: Arc::clone(&self.factory),
            members: Arc::clone(&self.members),
        }
    }
}

impl<M> Family<M> {
    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, M>> {
        // The member map is always structurally valid, so a panicked
        // holder's poison is ignorable: a contained panic must not take
        // every later scrape and tick down with it.
        self.members.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Calls `f` on every `(label value, member)` pair, sorted by label
    /// value, under the family lock: the exposition's walk, which copies
    /// no label and clones no member. `f` must not touch this family.
    fn for_each_member(&self, mut f: impl FnMut(&str, &M)) {
        for (label, member) in self.lock().iter() {
            f(label, member);
        }
    }
}

impl<M> fmt::Debug for Family<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let members = self.lock();
        f.debug_struct("Family")
            .field("label_name", &self.label_name)
            .field("members", &members.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl<M: Clone> Family<M> {
    /// Creates a family whose members are built by `factory` on first use
    /// of each label value.
    pub fn new(
        label_name: impl Into<String>,
        factory: impl Fn() -> M + Send + Sync + 'static,
    ) -> Self {
        Family {
            label_name: label_name.into(),
            factory: Arc::new(factory),
            members: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// The family's label name.
    pub fn label_name(&self) -> &str {
        &self.label_name
    }

    /// The member for `value`, created on first use. The returned handle
    /// shares state with every other handle for the same value.
    ///
    /// This is the cold-path API: each call takes the family lock and
    /// walks the member map (allocating the key only when it inserts a new
    /// member). A hot loop resolves its handle once and keeps it.
    pub fn with_label(&self, value: &str) -> M {
        let mut members = self.lock();
        if let Some(member) = members.get(value) {
            return member.clone();
        }
        let member = (self.factory)();
        members.insert(value.to_string(), member.clone());
        member
    }

    /// Drops every member whose label value fails `keep`, so its series
    /// leaves the exposition. Handles already held on a dropped member
    /// keep working but are no longer exported; a later
    /// [`Family::with_label`] for the value starts a fresh member.
    pub fn retain(&self, mut keep: impl FnMut(&str) -> bool) {
        self.lock().retain(|label, _| keep(label));
    }

    /// All `(label value, member)` pairs, sorted by label value.
    pub fn snapshot(&self) -> Vec<(String, M)> {
        self.lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

/// Every instrument shape a [`Registry`] can hold.
#[derive(Clone, Debug)]
pub enum Metric {
    /// A plain counter.
    Counter(Counter),
    /// A plain gauge.
    Gauge(Gauge),
    /// A plain histogram.
    Histogram(Histogram),
    /// A labeled counter family.
    CounterFamily(Family<Counter>),
    /// A labeled gauge family.
    GaugeFamily(Family<Gauge>),
    /// A labeled histogram family.
    HistogramFamily(Family<Histogram>),
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) | Metric::CounterFamily(_) => "counter",
            Metric::Gauge(_) | Metric::GaugeFamily(_) => "gauge",
            Metric::Histogram(_) | Metric::HistogramFamily(_) => "histogram",
        }
    }
}

#[derive(Clone, Debug)]
struct Registration {
    name: String,
    help: String,
    metric: Metric,
}

/// A named collection of instruments with Prometheus-text and JSON
/// exposition. Cloning shares the underlying collection; registration is
/// get-or-create, so two components registering the same name (and kind)
/// share one instrument.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Arc<Mutex<Vec<Registration>>>,
}

/// One exported sample: a metric name, optional `(label name, label
/// value)`, and a value. Histograms export one sample per cumulative
/// bucket (suffix `_bucket`, extra `le` label) plus `_sum` and `_count`.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Metric (or derived series) name.
    pub name: String,
    /// Labels, sorted by label name.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Registration>> {
        // As for `Family::lock`: the registration list is always valid.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn is_valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.chars().enumerate().all(|(i, c)| {
                c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
            })
    }

    fn register_with(&self, name: &str, help: &str, build: impl FnOnce() -> Metric) -> Metric {
        assert!(
            Self::is_valid_name(name),
            "invalid metric name {name:?} (want [a-zA-Z_:][a-zA-Z0-9_:]*)"
        );
        let mut inner = self.lock();
        if let Some(existing) = inner.iter().find(|r| r.name == name) {
            return existing.metric.clone();
        }
        let registration = Registration {
            name: name.to_string(),
            help: help.to_string(),
            metric: build(),
        };
        let metric = registration.metric.clone();
        inner.push(registration);
        metric
    }

    /// Registers (or fetches) a counter.
    ///
    /// # Panics
    ///
    /// Panics if `name` is invalid or already registered as another kind.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        match self.register_with(name, help, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            other => panic!("{name} already registered as a {}", other.type_name()),
        }
    }

    /// Registers (or fetches) a gauge.
    ///
    /// # Panics
    ///
    /// Panics if `name` is invalid or already registered as another kind.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        match self.register_with(name, help, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            other => panic!("{name} already registered as a {}", other.type_name()),
        }
    }

    /// Registers (or fetches) a histogram. A later registration under the
    /// same name returns the existing histogram (its original bounds win).
    ///
    /// # Panics
    ///
    /// Panics if `name` is invalid or already registered as another kind.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        match self.register_with(name, help, || Metric::Histogram(Histogram::new(bounds))) {
            Metric::Histogram(h) => h,
            other => panic!("{name} already registered as a {}", other.type_name()),
        }
    }

    /// Registers (or fetches) a labeled counter family.
    ///
    /// # Panics
    ///
    /// Panics if `name` is invalid or already registered as another kind.
    pub fn counter_family(&self, name: &str, help: &str, label: &str) -> Family<Counter> {
        let label = label.to_string();
        match self.register_with(name, help, move || {
            Metric::CounterFamily(Family::new(label, Counter::new))
        }) {
            Metric::CounterFamily(f) => f,
            other => panic!("{name} already registered as a {}", other.type_name()),
        }
    }

    /// Registers (or fetches) a labeled gauge family.
    ///
    /// # Panics
    ///
    /// Panics if `name` is invalid or already registered as another kind.
    pub fn gauge_family(&self, name: &str, help: &str, label: &str) -> Family<Gauge> {
        let label = label.to_string();
        match self.register_with(name, help, move || {
            Metric::GaugeFamily(Family::new(label, Gauge::new))
        }) {
            Metric::GaugeFamily(f) => f,
            other => panic!("{name} already registered as a {}", other.type_name()),
        }
    }

    /// Registers (or fetches) a labeled histogram family.
    ///
    /// # Panics
    ///
    /// Panics if `name` is invalid or already registered as another kind.
    pub fn histogram_family(
        &self,
        name: &str,
        help: &str,
        label: &str,
        bounds: &[f64],
    ) -> Family<Histogram> {
        let label = label.to_string();
        let bounds = bounds.to_vec();
        match self.register_with(name, help, move || {
            Metric::HistogramFamily(Family::new(label, move || Histogram::new(&bounds)))
        }) {
            Metric::HistogramFamily(f) => f,
            other => panic!("{name} already registered as a {}", other.type_name()),
        }
    }

    /// All registered `(name, help, metric)` triples, in registration
    /// order.
    pub fn registrations(&self) -> Vec<(String, String, Metric)> {
        self.lock()
            .iter()
            .map(|r| (r.name.clone(), r.help.clone(), r.metric.clone()))
            .collect()
    }

    /// Flattens every instrument into exported [`Sample`]s (the same set
    /// the Prometheus exposition prints).
    pub fn samples(&self) -> Vec<Sample> {
        let mut out = Vec::new();
        for (name, _help, metric) in self.registrations() {
            match metric {
                Metric::Counter(c) => out.push(Sample {
                    name: name.clone(),
                    labels: Vec::new(),
                    value: c.get() as f64,
                }),
                Metric::Gauge(g) => out.push(Sample {
                    name: name.clone(),
                    labels: Vec::new(),
                    value: g.get(),
                }),
                Metric::Histogram(h) => histogram_samples(&mut out, &name, &[], &h),
                Metric::CounterFamily(f) => {
                    for (label, c) in f.snapshot() {
                        out.push(Sample {
                            name: name.clone(),
                            labels: vec![(f.label_name().to_string(), label)],
                            value: c.get() as f64,
                        });
                    }
                }
                Metric::GaugeFamily(f) => {
                    for (label, g) in f.snapshot() {
                        out.push(Sample {
                            name: name.clone(),
                            labels: vec![(f.label_name().to_string(), label)],
                            value: g.get(),
                        });
                    }
                }
                Metric::HistogramFamily(f) => {
                    for (label, h) in f.snapshot() {
                        let labels = [(f.label_name().to_string(), label)];
                        histogram_samples(&mut out, &name, &labels, &h);
                    }
                }
            }
        }
        out
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` headers followed by one sample
    /// per line, histograms expanded into cumulative `_bucket`/`_sum`/
    /// `_count` series.
    pub fn render_prometheus(&self) -> String {
        render_prometheus_merged(&[(None, self)])
    }

    /// Renders the registry as a JSON object: metric name → value
    /// (counters/gauges), or → `{label: value}` (families), or → a
    /// histogram object with `count`, `sum`, `max` and cumulative
    /// `buckets`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        let registrations = self.registrations();
        for (i, (name, _help, metric)) in registrations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "\n  {}: ", json_string(name)).expect("string write");
            match metric {
                Metric::Counter(c) => write!(out, "{}", c.get()).expect("string write"),
                Metric::Gauge(g) => write!(out, "{}", json_number(g.get())).expect("string write"),
                Metric::Histogram(h) => json_histogram(&mut out, h),
                Metric::CounterFamily(f) => {
                    out.push('{');
                    for (j, (label, c)) in f.snapshot().iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        write!(out, "{}: {}", json_string(label), c.get()).expect("string write");
                    }
                    out.push('}');
                }
                Metric::GaugeFamily(f) => {
                    out.push('{');
                    for (j, (label, g)) in f.snapshot().iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        write!(out, "{}: {}", json_string(label), json_number(g.get()))
                            .expect("string write");
                    }
                    out.push('}');
                }
                Metric::HistogramFamily(f) => {
                    out.push('{');
                    for (j, (label, h)) in f.snapshot().iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        write!(out, "{}: ", json_string(label)).expect("string write");
                        json_histogram(&mut out, h);
                    }
                    out.push('}');
                }
            }
        }
        out.push_str("\n}\n");
        out
    }
}

/// Renders several registries as one Prometheus text exposition, with an
/// optional extra `(label name, label value)` pair injected into every
/// sample of each part — the hierarchical-rollup exposition: a coordinator
/// registry plus one registry per shard, each shard's series tagged
/// `shard="N"`.
///
/// `# HELP` / `# TYPE` headers print once per metric name, in first-seen
/// order across the parts; the first part to register a name supplies its
/// help text. Same-named series from different parts stay distinguishable
/// through their injected labels (two unlabeled parts sharing a name will
/// emit duplicate series — give parts distinct labels).
pub fn render_prometheus_merged(parts: &[(Option<(&str, &str)>, &Registry)]) -> String {
    // Each metric name's headers and lines accumulate in its own buffer,
    // written straight from the instruments under the registry's lock:
    // no per-sample structs, and no copies of names, help texts or
    // handles beyond one key per name.
    let mut bodies: Vec<String> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    for (extra, registry) in parts {
        for r in registry.lock().iter() {
            let slot = match index.get(r.name.as_str()) {
                Some(&slot) => slot,
                None => {
                    let mut body = String::new();
                    write_headers(&mut body, &r.name, &r.help, r.metric.type_name());
                    index.insert(r.name.clone(), bodies.len());
                    bodies.push(body);
                    bodies.len() - 1
                }
            };
            write_metric_lines(&mut bodies[slot], &r.name, &r.metric, *extra);
        }
    }
    bodies.concat()
}

fn write_headers(out: &mut String, name: &str, help: &str, type_name: &str) {
    if !help.is_empty() {
        writeln!(out, "# HELP {name} {}", escape_help(help)).expect("string write");
    }
    writeln!(out, "# TYPE {name} {type_name}").expect("string write");
}

/// Writes one instrument's exposition lines (no headers), with `extra` as
/// the first label of every line.
fn write_metric_lines(out: &mut String, name: &str, metric: &Metric, extra: Option<(&str, &str)>) {
    match metric {
        Metric::Counter(c) => write_line(out, name, "", [extra, None], None, c.get() as f64),
        Metric::Gauge(g) => write_line(out, name, "", [extra, None], None, g.get()),
        Metric::Histogram(h) => write_histogram(out, name, [extra, None], h),
        Metric::CounterFamily(f) => f.for_each_member(|label, c| {
            let labels = [extra, Some((f.label_name(), label))];
            write_line(out, name, "", labels, None, c.get() as f64);
        }),
        Metric::GaugeFamily(f) => f.for_each_member(|label, g| {
            let labels = [extra, Some((f.label_name(), label))];
            write_line(out, name, "", labels, None, g.get());
        }),
        Metric::HistogramFamily(f) => f.for_each_member(|label, h| {
            write_histogram(out, name, [extra, Some((f.label_name(), label))], h);
        }),
    }
}

fn write_histogram(out: &mut String, name: &str, labels: [Option<(&str, &str)>; 2], h: &Histogram) {
    for (bound, cumulative) in h.cumulative() {
        write_line(out, name, "_bucket", labels, Some(bound), cumulative as f64);
    }
    write_line(out, name, "_sum", labels, None, h.sum());
    write_line(out, name, "_count", labels, None, h.count() as f64);
}

/// Writes one sample line: `name` + `suffix`, the present `labels` in
/// order then `le` (a histogram bucket bound), and the value.
fn write_line(
    out: &mut String,
    name: &str,
    suffix: &str,
    labels: [Option<(&str, &str)>; 2],
    le: Option<f64>,
    value: f64,
) {
    out.push_str(name);
    out.push_str(suffix);
    let mut first = true;
    for (key, label) in labels.into_iter().flatten() {
        out.push(if first { '{' } else { ',' });
        first = false;
        out.push_str(key);
        out.push_str("=\"");
        push_escaped_label(out, label);
        out.push('"');
    }
    if let Some(bound) = le {
        out.push_str(if first { "{le=\"" } else { ",le=\"" });
        first = false;
        if bound.is_infinite() {
            out.push_str("+Inf");
        } else {
            write_value(out, bound);
        }
        out.push('"');
    }
    if !first {
        out.push('}');
    }
    out.push(' ');
    write_value(out, value);
    out.push('\n');
}

fn histogram_samples(
    out: &mut Vec<Sample>,
    name: &str,
    labels: &[(String, String)],
    h: &Histogram,
) {
    for (bound, cumulative) in h.cumulative_buckets() {
        let mut bucket_labels = labels.to_vec();
        bucket_labels.push(("le".to_string(), format_bound(bound)));
        out.push(Sample {
            name: format!("{name}_bucket"),
            labels: bucket_labels,
            value: cumulative as f64,
        });
    }
    out.push(Sample {
        name: format!("{name}_sum"),
        labels: labels.to_vec(),
        value: h.sum(),
    });
    out.push(Sample {
        name: format!("{name}_count"),
        labels: labels.to_vec(),
        value: h.count() as f64,
    });
}

fn format_bound(bound: f64) -> String {
    if bound.is_infinite() {
        "+Inf".to_string()
    } else {
        format_value(bound)
    }
}

/// Formats a sample value so that it round-trips through `str::parse::<f64>`.
fn format_value(v: f64) -> String {
    let mut out = String::new();
    write_value(&mut out, v);
    out
}

/// Writes a sample value so that it round-trips through `str::parse::<f64>`.
fn write_value(out: &mut String, v: f64) {
    if v == v.trunc() && v.abs() < 1e15 {
        write!(out, "{}", v as i64).expect("string write");
    } else {
        write!(out, "{v}").expect("string write");
    }
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn push_escaped_label(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("string write");
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format_value(v)
    } else {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        "null".to_string()
    }
}

fn json_histogram(out: &mut String, h: &Histogram) {
    write!(
        out,
        "{{\"count\": {}, \"sum\": {}, \"max\": {}, \"buckets\": {{",
        h.count(),
        json_number(h.sum()),
        json_number(h.max())
    )
    .expect("string write");
    for (i, (bound, cumulative)) in h.cumulative_buckets().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{}: {cumulative}", json_string(&format_bound(*bound))).expect("string write");
    }
    out.push_str("}}");
}

/// The process-wide default registry: hot-path instruments in
/// [`crate::pipeline`], [`crate::online`] and [`crate::policy`] register
/// here (fleet instruments live in per-fleet registries).
pub fn default_registry() -> Registry {
    static DEFAULT: OnceLock<Registry> = OnceLock::new();
    DEFAULT.get_or_init(Registry::new).clone()
}

/// A sample parsed back from the Prometheus text format.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedSample {
    /// Series name.
    pub name: String,
    /// Labels in appearance order.
    pub labels: Vec<(String, String)>,
    /// Parsed value.
    pub value: f64,
}

/// One malformed exposition line skipped by the lossy parser.
#[derive(Clone, Debug, PartialEq)]
pub struct SkippedLine {
    /// 1-based line number in the scraped text.
    pub line_no: usize,
    /// The offending line, verbatim (trimmed).
    pub line: String,
    /// Why it could not be parsed.
    pub reason: String,
}

impl fmt::Display for SkippedLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}: {} ({:?})",
            self.line_no, self.reason, self.line
        )
    }
}

/// The result of a lossy [`parse_prometheus`] pass: every line that parsed,
/// plus a report of every line that did not.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LossyScrape {
    /// Samples from the well-formed lines, in appearance order.
    pub samples: Vec<ParsedSample>,
    /// Malformed lines, each with its line number and reason.
    pub skipped: Vec<SkippedLine>,
}

impl LossyScrape {
    /// Whether every non-comment line parsed.
    pub fn is_clean(&self) -> bool {
        self.skipped.is_empty()
    }
}

/// Parses the Prometheus text exposition format emitted by
/// [`Registry::render_prometheus`] (names, one-level labels with escapes,
/// `+Inf` bounds). Comment and blank lines are skipped silently.
///
/// The parse is *lossy*: a malformed or unknown line never fails the whole
/// scrape (a monitoring path must degrade, not die, when an exporter
/// glitches mid-write). Each bad line is recorded in
/// [`LossyScrape::skipped`] with its line number and reason; callers that
/// require a pristine scrape check [`LossyScrape::is_clean`].
pub fn parse_prometheus(text: &str) -> LossyScrape {
    let mut out = LossyScrape::default();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match parse_sample_line(line) {
            Ok(sample) => out.samples.push(sample),
            Err(reason) => out.skipped.push(SkippedLine {
                line_no: idx + 1,
                line: line.to_string(),
                reason,
            }),
        }
    }
    out
}

fn parse_sample_line(line: &str) -> Result<ParsedSample, String> {
    let (series, value_text) = match line.find('{') {
        Some(brace) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| "unterminated label set".to_string())?;
            if close < brace {
                return Err("mismatched label braces".to_string());
            }
            (&line[..close + 1], line[close + 1..].trim())
        }
        None => {
            let space = line
                .find(char::is_whitespace)
                .ok_or_else(|| "sample has no value".to_string())?;
            (&line[..space], line[space..].trim())
        }
    };
    let value: f64 = match value_text {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        other => other
            .parse()
            .map_err(|e| format!("bad value {other:?}: {e}"))?,
    };
    let (name, labels) = match series.find('{') {
        Some(brace) => {
            let inner = &series[brace + 1..series.len() - 1];
            (series[..brace].to_string(), parse_labels(inner)?)
        }
        None => (series.to_string(), Vec::new()),
    };
    if !Registry::is_valid_name(&name) {
        return Err(format!("invalid metric name {name:?}"));
    }
    Ok(ParsedSample {
        name,
        labels,
        value,
    })
}

fn parse_labels(inner: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = inner.chars().peekable();
    loop {
        // Skip separators and terminal whitespace.
        while matches!(chars.peek(), Some(',') | Some(' ')) {
            chars.next();
        }
        if chars.peek().is_none() {
            return Ok(labels);
        }
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if key.is_empty() {
            return Err("empty label name".to_string());
        }
        if chars.next() != Some('"') {
            return Err(format!("label {key} value is not quoted"));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                None => return Err(format!("unterminated value for label {key}")),
                Some('"') => break,
                Some('\\') => match chars.next() {
                    Some('n') => value.push('\n'),
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    other => return Err(format!("bad escape {other:?} in label {key}")),
                },
                Some(c) => value.push(c),
            }
        }
        labels.push((key, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_shares() {
        let c = Counter::new();
        let c2 = c.clone();
        c.inc();
        c2.inc_by(4);
        assert_eq!(c.get(), 5);
        c.seed(3);
        assert_eq!(c.get(), 5, "seed never lowers");
        c.seed(10);
        assert_eq!(c2.get(), 10);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.set(2.5);
        g.add(-4.0);
        assert!((g.get() + 1.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_sum_and_quantiles() {
        let h = Histogram::new(&[10.0, 100.0, 1000.0]);
        for v in [1.0, 5.0, 50.0, 500.0, 5000.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 5556.0).abs() < 1e-9);
        assert_eq!(h.max(), 5000.0);
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.len(), 4);
        assert_eq!(buckets[0], (10.0, 2));
        assert_eq!(buckets[1], (100.0, 3));
        assert_eq!(buckets[2], (1000.0, 4));
        assert_eq!(buckets[3].1, 5);
        assert!(buckets[3].0.is_infinite());
        // Median falls in the (10, 100] bucket.
        let p50 = h.quantile(0.5);
        assert!((10.0..=100.0).contains(&p50), "{p50}");
        // The tail estimate is capped at the observed max.
        assert_eq!(h.quantile(1.0), 5000.0);
        // Empty histogram quantile is defined.
        assert_eq!(Histogram::latency_us().quantile(0.9), 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[10.0, 5.0]);
    }

    #[test]
    fn family_members_are_shared_per_label() {
        let f: Family<Counter> = Family::new("pair", Counter::new);
        f.with_label("bus").inc();
        f.with_label("bus").inc();
        f.with_label("cache").inc();
        let snapshot = f.snapshot();
        assert_eq!(snapshot.len(), 2);
        assert_eq!(snapshot[0].0, "bus");
        assert_eq!(snapshot[0].1.get(), 2);
        assert_eq!(snapshot[1].1.get(), 1);
    }

    #[test]
    fn retain_drops_members_from_the_exposition() {
        let r = Registry::new();
        let f = r.gauge_family("cchunter_top", "Top members", "pair");
        for label in ["a", "b", "c"] {
            f.with_label(label).set(1.0);
        }
        let kept = f.with_label("b");
        f.retain(|label| label != "b");
        let text = r.render_prometheus();
        assert!(text.contains("cchunter_top{pair=\"a\"} 1"), "{text}");
        assert!(!text.contains("pair=\"b\""), "{text}");
        kept.set(2.0);
        assert_eq!(f.with_label("b").get(), 0.0, "a fresh member");
    }

    #[test]
    fn registry_is_get_or_create() {
        let r = Registry::new();
        let a = r.counter("cchunter_test_total", "a test counter");
        let b = r.counter("cchunter_test_total", "ignored duplicate help");
        a.inc();
        assert_eq!(b.get(), 1, "same name returns the same counter");
        assert_eq!(r.registrations().len(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registry_rejects_kind_mismatch() {
        let r = Registry::new();
        let _ = r.counter("cchunter_kind_clash", "");
        let _ = r.gauge("cchunter_kind_clash", "");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn registry_rejects_bad_names() {
        let _ = Registry::new().counter("0starts-with-digit", "");
    }

    #[test]
    fn prometheus_rendering_has_headers_and_samples() {
        let r = Registry::new();
        r.counter("cchunter_ticks_total", "Fleet ticks completed")
            .inc_by(7);
        let f = r.counter_family("cchunter_pair_panics_total", "Contained panics", "pair");
        f.with_label("bus: a <-> b").inc();
        let h = r.histogram("cchunter_latency_us", "Analysis latency", &[10.0, 100.0]);
        h.observe(42.0);
        let text = r.render_prometheus();
        assert!(text.contains("# HELP cchunter_ticks_total Fleet ticks completed"));
        assert!(text.contains("# TYPE cchunter_ticks_total counter"));
        assert!(text.contains("cchunter_ticks_total 7"));
        assert!(text.contains("cchunter_pair_panics_total{pair=\"bus: a <-> b\"} 1"));
        assert!(text.contains("cchunter_latency_us_bucket{le=\"100\"} 1"));
        assert!(text.contains("cchunter_latency_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("cchunter_latency_us_sum 42"));
        assert!(text.contains("cchunter_latency_us_count 1"));
    }

    #[test]
    fn parser_roundtrips_samples_exactly() {
        let r = Registry::new();
        r.counter("cchunter_a_total", "plain").inc_by(3);
        let g = r.gauge("cchunter_conf", "a gauge");
        g.set(-0.125);
        let f = r.counter_family("cchunter_lbl_total", "labels", "pair");
        f.with_label("weird \"label\"\\with\nnasties").inc_by(9);
        let h = r.histogram("cchunter_h_us", "hist", &[1.0, 2.5]);
        h.observe(2.0);
        h.observe(100.0);
        let rendered = r.render_prometheus();
        let scrape = parse_prometheus(&rendered);
        assert!(scrape.is_clean(), "{:?}", scrape.skipped);
        let parsed = scrape.samples;
        let expected: Vec<ParsedSample> = r
            .samples()
            .into_iter()
            .map(|s| ParsedSample {
                name: s.name,
                labels: s.labels,
                value: s.value,
            })
            .collect();
        assert_eq!(parsed, expected);
    }

    #[test]
    fn merged_rendering_prefixes_part_labels_and_prints_headers_once() {
        let parts: Vec<Registry> = (0..2)
            .map(|i| {
                let r = Registry::new();
                r.counter("cchunter_a_total", "plain").inc_by(i + 1);
                let f = r.counter_family("cchunter_lbl_total", "labels", "pair");
                f.with_label("weird \"label\"\\with\nnasties").inc_by(9);
                r.histogram("cchunter_h_us", "hist", &[1.0, 2.5])
                    .observe(2.0);
                r
            })
            .collect();
        let labels = ["0", "1"];
        let rendered = render_prometheus_merged(&[
            (Some(("shard", labels[0])), &parts[0]),
            (Some(("shard", labels[1])), &parts[1]),
        ]);
        assert_eq!(
            rendered.matches("# TYPE cchunter_h_us histogram").count(),
            1
        );
        let scrape = parse_prometheus(&rendered);
        assert!(scrape.is_clean(), "{:?}", scrape.skipped);
        // Series group by name, parts in order within each name.
        let mut expected: Vec<ParsedSample> = Vec::new();
        for name in ["cchunter_a_total", "cchunter_lbl_total", "cchunter_h_us"] {
            for (part, label) in parts.iter().zip(labels) {
                for s in part.samples() {
                    if s.name.strip_suffix("_bucket").unwrap_or(&s.name) == name
                        || s.name.strip_suffix("_sum") == Some(name)
                        || s.name.strip_suffix("_count") == Some(name)
                        || s.name == name
                    {
                        let mut labels = vec![("shard".to_string(), label.to_string())];
                        labels.extend(s.labels);
                        expected.push(ParsedSample {
                            name: s.name,
                            labels,
                            value: s.value,
                        });
                    }
                }
            }
        }
        assert_eq!(scrape.samples, expected);
    }

    #[test]
    fn parser_skips_garbage_lines_without_losing_good_ones() {
        for bad in [
            "name",                        // no value
            "name{x=\"y\" 3",              // unterminated labels
            "name{x=y} 3",                 // unquoted value
            "name{x=\"y\\q\"} 3",          // bad escape
            "0name 3",                     // bad name
            "name{x=\"\\\"} 3 extra junk", // unterminated + trailing
        ] {
            // The bad line is reported, not fatal: a valid neighbour on
            // either side still parses.
            let text = format!("cchunter_ok_total 1\n{bad}\ncchunter_also_ok 2.5");
            let scrape = parse_prometheus(&text);
            assert_eq!(scrape.samples.len(), 2, "{bad:?}");
            assert_eq!(scrape.skipped.len(), 1, "{bad:?}");
            assert_eq!(scrape.skipped[0].line_no, 2, "{bad:?}");
            assert_eq!(scrape.skipped[0].line, bad.trim());
            assert!(!scrape.is_clean());
        }
    }

    #[test]
    fn parser_fuzz_corrupted_exposition_never_panics_or_loses_prefix() {
        // Deterministic fuzz: render a real exposition, then corrupt it in
        // a few hundred seeded ways (truncation, byte flips, injected
        // garbage) and require the parser to (a) never panic, (b) parse
        // every line it reports as a sample, and (c) keep lines that were
        // not touched.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let r = Registry::new();
        r.counter("cchunter_fz_total", "c").inc_by(7);
        let f = r.counter_family("cchunter_fz_lbl_total", "f", "pair");
        f.with_label("a \"quoted\"\\pair\nname").inc_by(2);
        r.gauge("cchunter_fz_conf", "g").set(0.75);
        r.histogram("cchunter_fz_us", "h", &[1.0, 10.0])
            .observe(3.0);
        let pristine = r.render_prometheus();
        let clean = parse_prometheus(&pristine);
        assert!(clean.is_clean());
        let baseline = clean.samples.len();

        let mut rng = SmallRng::seed_from_u64(0x5C2A9E);
        for _ in 0..300 {
            let mut bytes = pristine.clone().into_bytes();
            match rng.gen_range(0..3u8) {
                0 => {
                    // Truncate mid-line.
                    let cut = rng.gen_range(0..bytes.len());
                    bytes.truncate(cut);
                }
                1 => {
                    // Flip a few bytes to printable garbage.
                    for _ in 0..rng.gen_range(1..6) {
                        let i = rng.gen_range(0..bytes.len());
                        bytes[i] = rng.gen_range(b' '..b'~');
                    }
                }
                _ => {
                    // Splice a garbage line into the middle.
                    let junk = b"}}%% not a sample {{\n";
                    let at = rng.gen_range(0..bytes.len());
                    let mut spliced = bytes[..at].to_vec();
                    spliced.extend_from_slice(junk);
                    spliced.extend_from_slice(&bytes[at..]);
                    bytes = spliced;
                }
            }
            let corrupted = String::from_utf8_lossy(&bytes);
            let scrape = parse_prometheus(&corrupted);
            assert!(
                scrape.samples.len() <= baseline + 1,
                "corruption cannot invent more than one accidental sample"
            );
            for skipped in &scrape.skipped {
                assert!(!skipped.reason.is_empty());
                assert!(skipped.line_no >= 1);
            }
        }
    }

    #[test]
    fn json_rendering_is_balanced_and_contains_values() {
        let r = Registry::new();
        r.counter("cchunter_j_total", "").inc_by(2);
        let f = r.gauge_family("cchunter_j_conf", "", "pair");
        f.with_label("p\"0").set(0.5);
        let h = r.histogram_family("cchunter_j_lat", "", "pair", &[1.0]);
        h.with_label("p0").observe(3.0);
        let json = r.render_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert!(json.contains("\"cchunter_j_total\": 2"));
        assert!(json.contains("\"p\\\"0\": 0.5"));
        assert!(json.contains("\"count\": 1"));
    }

    #[test]
    fn default_registry_is_shared() {
        let a = default_registry();
        let b = default_registry();
        let c = a.counter("cchunter_default_shared_total", "");
        c.inc();
        assert_eq!(b.counter("cchunter_default_shared_total", "").get(), 1);
    }
}
