//! The measurement loop shared by every workload: set-up and window
//! warm-up, closed-loop fleet ticks with the verdict check, maintenance
//! calls between ticks, scrapes, and (in a traced run) spans, allocation
//! counts and kernel replays. [`end_to_end`] reduces the raw samples of
//! several set-ups to the end-to-end metrics.

use crate::alloc;
use crate::harness::{Harness, Workload};
use crate::ledger::VerdictLedger;
use crate::replay;
use crate::stats::{mean, median, percentile, samples_beyond, tail_percentile};
use crate::trace::{self_times, totals_by_name};
use cc_hunter::detector::{ShardHealth, ShardedFleet};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A built workload: the fleet, its probe, and the planted truth.
pub struct Scenario<W> {
    /// The fleet under test.
    pub fleet: ShardedFleet,
    /// The probe source.
    pub harness: Harness<W>,
    /// `truth[pair]`: whether the pair is a planted covert channel.
    pub truth: Vec<bool>,
    /// The fleet's checkpoint root, removed when the scenario is dropped.
    pub store_root: Option<PathBuf>,
}

impl<W> Drop for Scenario<W> {
    fn drop(&mut self) {
        if let Some(root) = &self.store_root {
            // Best effort: the directory is scratch space of this run.
            let _ = fs::remove_dir_all(root);
        }
    }
}

/// How one set-up exercises a workload.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Ticks run during set-up so every window is full before timing.
    pub warmup_ticks: u64,
    /// Ticks measured back to back.
    pub measured_ticks: u64,
    /// Scrapes (`render_prometheus`, then `metrics_snapshot`) spread
    /// evenly over the measured ticks, between ticks.
    pub scrapes: u64,
    /// Explicit `checkpoint()` every this many measured ticks (0 = never).
    pub checkpoint_every: u64,
    /// Measured ticks before which one `kill_shard` → `revive_shard` cycle
    /// runs.
    pub kill_at: Vec<u64>,
    /// Shard count (the kill cycle's victim is chosen among them).
    pub shards: usize,
    /// The fleet's online window, for the kernel replays.
    pub window: usize,
}

/// Run-wide settings from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Traced run: per-layer metrics instead of end-to-end samples.
    pub trace: bool,
    /// When set-up started (the process start, for the first set-up).
    pub start: Instant,
}

/// A named metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one set-up observed, before any aggregation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples {
    /// Pair-quanta attempted over the measured ticks.
    pub attempted: u64,
    /// Failed checks: wrong verdicts, accounting breaks, refused probe
    /// deliveries, containments of benign pairs.
    pub failed: u64,
    /// Why the run is not correct, one line per failed check.
    pub problems: Vec<String>,
    /// Pairs whose verdict contradicts the planted truth.
    pub wrong_verdicts: u64,
    /// Pair-quanta whose outcome was not `Analyzed`, over `attempted`.
    pub failed_fraction: f64,
    /// Median over covert pairs of the ticks to first conviction.
    pub detect_ticks: u64,
    /// Set-up start (process start, for the first set-up) to the first
    /// measured tick.
    pub setup_s: f64,
    /// Wall time of every untraced measured tick.
    pub tick_ms: Vec<f64>,
    /// Wall time of every `render_prometheus` call.
    pub scrape_ms: Vec<f64>,
    /// Wall time of every explicit `checkpoint` call.
    pub checkpoint_ms: Vec<f64>,
    /// Wall time of every `kill_shard` + `revive_shard` cycle.
    pub recovery_ms: Vec<f64>,
    /// `VmHWM` when the set-up's measurement ended.
    pub peak_rss_mb: f64,
}

impl Samples {
    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// A run's result as printed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Pair-quanta attempted.
    pub attempted: u64,
    /// Failed checks.
    pub failed: u64,
    /// Why the run is not correct.
    pub problems: Vec<String>,
    /// The metrics of the JSON line.
    pub metrics: Vec<Metric>,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set (`VmHWM`) in MiB, 0 where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(files, bytes)` under `root`, recursively.
fn walk(root: &Path) -> (u64, u64) {
    let mut files = 0;
    let mut bytes = 0;
    let Ok(entries) = fs::read_dir(root) else {
        return (0, 0);
    };
    for entry in entries.flatten() {
        let Ok(meta) = entry.metadata() else {
            continue;
        };
        if meta.is_dir() {
            let (f, b) = walk(&entry.path());
            files += f;
            bytes += b;
        } else {
            files += 1;
            bytes += meta.len();
        }
    }
    (files, bytes)
}

fn fmt_median(v: &[f64]) -> String {
    median(v).map_or("-".to_string(), |m| format!("{m:.3}"))
}

/// Ticks in one block of [`blocks`]: enough for a p90 with ten samples
/// beyond it.
pub const BLOCK_TICKS: usize = 100;

/// Splits one set-up's ticks into as many consecutive blocks of at least
/// [`BLOCK_TICKS`] ticks as fit, their sizes differing by at most one (one
/// shorter block when there are fewer ticks).
fn blocks(ticks: &[f64]) -> Vec<&[f64]> {
    let n = (ticks.len() / BLOCK_TICKS).max(1);
    let (base, extra) = (ticks.len() / n, ticks.len() % n);
    let mut out = Vec::with_capacity(n);
    let mut rest = ticks;
    for i in 0..n {
        let (block, tail) = rest.split_at(base + usize::from(i < extra));
        out.push(block);
        rest = tail;
    }
    out
}

/// Reduces the samples of every set-up to the end-to-end metrics. Each
/// block of consecutive measured ticks is one repetition of the
/// measurement, and host contention only ever slows a repetition down, so
/// the tick metrics come from the fastest repetition: the lowest block
/// median and p90 tick, and the highest block throughput. Each scrape is a
/// repetition too, and `scrape_ms` is the fastest. `setup_s` is the median
/// of the set-up times, and `peak_rss_mb` the run's high-water mark.
///
/// # Errors
///
/// When a set-up's ticks are too few for a p90 with ten samples beyond it.
pub fn end_to_end(workload: &str, runs: &[Samples]) -> Result<Outcome, String> {
    let pool = |f: fn(&Samples) -> &Vec<f64>| -> Vec<f64> {
        runs.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    let checkpoints = pool(|s| &s.checkpoint_ms);
    let recoveries = pool(|s| &s.recovery_ms);
    let setups: Vec<f64> = runs.iter().map(|s| s.setup_s).collect();
    // VmHWM never falls, so the largest reading is the one at run end.
    let rss = runs.iter().map(|s| s.peak_rss_mb).fold(0.0, f64::max);
    let attempted: u64 = runs.iter().map(|s| s.attempted).sum();
    // Every repetition (block), with its set-up's pairs per tick.
    let reps: Vec<(f64, &[f64])> = runs
        .iter()
        .flat_map(|s| {
            let pairs = s.attempted as f64 / s.tick_ms.len().max(1) as f64;
            blocks(&s.tick_ms).into_iter().map(move |b| (pairs, b))
        })
        .collect();
    let fewest = reps.iter().map(|(_, b)| b.len()).min().unwrap_or(0);
    let tail = tail_percentile(fewest);
    if tail.is_none_or(|p| p < 90) {
        return Err(format!(
            "{fewest} ticks in a block cannot support a p90 with ten samples beyond it"
        ));
    }
    let p50s: Vec<f64> = reps.iter().filter_map(|(_, b)| median(b)).collect();
    let p90s = reps.iter().filter_map(|(_, b)| percentile(b, 90.0));
    let throughput = reps.iter().map(|(pairs, b)| {
        let tick_s = b.iter().sum::<f64>() / 1e3;
        pairs * b.len() as f64 / tick_s.max(1e-9)
    });
    let first = runs.first().cloned().unwrap_or_default();
    let mut problems: Vec<String> = runs.iter().flat_map(|s| s.problems.clone()).collect();
    if runs.iter().any(|s| {
        (s.wrong_verdicts, s.failed_fraction, s.detect_ticks)
            != (
                first.wrong_verdicts,
                first.failed_fraction,
                first.detect_ticks,
            )
    }) {
        problems.push("deterministic counts differ between set-ups".to_string());
    }
    let notes = vec![
        format!(
            "{workload}: {} set-ups, {} blocks of at least {fewest} ticks (tail percentile \
             p{} with {} samples beyond it), {attempted} pair-quanta, closed loop; block \
             median ticks {} ms",
            runs.len(),
            reps.len(),
            tail.unwrap_or(0),
            samples_beyond(fewest, tail.unwrap_or(0)),
            p50s.iter()
                .map(|m| format!("{m:.3}"))
                .collect::<Vec<_>>()
                .join(" / "),
        ),
        format!(
            "wrong_verdicts {} | failed_fraction {} | detect_ticks {} | checkpoint_ms {} | \
             recovery_ms {}",
            first.wrong_verdicts,
            first.failed_fraction,
            first.detect_ticks,
            fmt_median(&checkpoints),
            fmt_median(&recoveries),
        ),
    ];
    let metric = |name, value: Option<f64>, unit| Metric {
        name,
        value: value.unwrap_or(0.0),
        unit,
    };
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed: runs.iter().map(|s| s.failed).sum(),
        problems,
        metrics: vec![
            metric("tick_p50_ms", p50s.iter().copied().reduce(f64::min), "ms"),
            metric("tick_p90_ms", p90s.reduce(f64::min), "ms"),
            metric("pair_quanta_per_s", throughput.reduce(f64::max), "1/s"),
            metric("setup_s", median(&setups), "s"),
            metric("peak_rss_mb", Some(rss), "MiB"),
            // Equal in every set-up, or the run already failed above.
            metric("detect_ticks", Some(first.detect_ticks as f64), "ticks"),
            metric(
                "scrape_ms",
                runs.iter()
                    .flat_map(|s| s.scrape_ms.iter().copied())
                    .reduce(f64::min),
                "ms",
            ),
        ],
        notes,
    })
}

/// Sets `build`'s scenario up once (inputs, fleet, pair registration,
/// window warm-up), measures it under `plan`, and checks every verdict.
/// Returns the raw samples, plus the per-layer metrics when `run.trace`.
pub fn measure<W: Workload>(
    plan: &Plan,
    run: RunConfig,
    out_dir: &Path,
    workload_name: &str,
    build: impl FnOnce() -> Result<Scenario<W>, String>,
) -> Result<(Samples, Vec<Metric>), String> {
    let mut samples = Samples::default();
    let mut sc = build()?;
    let mut ledger = VerdictLedger::new(sc.truth.clone());
    for _ in 0..plan.warmup_ticks {
        let report = sc.fleet.tick(&mut sc.harness);
        ledger.observe_tick(&report);
    }
    samples.setup_s = run.start.elapsed().as_secs_f64();
    let pairs = sc.truth.len() as u64;
    sc.harness.layers = Default::default();
    sc.harness.probes = Default::default();

    // Measured ticks, closed loop. A traced run cycles plain, span-traced,
    // plain and allocation-counted ticks, so neither instrument slows the
    // other's ticks and the plain ones give the tracing overhead.
    let mut traced_ms = Vec::new();
    let mut counted_ms = Vec::new();
    let mut snapshot_ms = Vec::new();
    let mut scrape_bytes = 0usize;
    let mut series = 0usize;
    let scrape_every = (plan.measured_ticks / plan.scrapes.max(1)).max(1);
    let mut migrate_ms = Vec::new();
    let mut revive_ms = Vec::new();
    let mut store_usage = (0u64, 0u64);
    let mut not_analyzed = 0u64;
    let mut accounting_failures = 0u64;
    let mut shard_max_us = Vec::new();
    let mut shard_mean_us = Vec::new();
    let mut kill_cycle = 0u64;
    let (mut allocs, mut alloc_bytes) = (0u64, 0u64);
    let mut spans_per_tick = 0usize;
    for i in 0..plan.measured_ticks {
        if plan.checkpoint_every > 0 && i > 0 && i % plan.checkpoint_every == 0 {
            let t = Instant::now();
            sc.fleet
                .checkpoint()
                .map_err(|e| format!("checkpoint before measured tick {i}: {e}"))?;
            samples.checkpoint_ms.push(ms(t.elapsed()));
            if let Some(root) = &sc.store_root {
                store_usage = walk(root);
            }
        }
        if plan.kill_at.contains(&i) {
            let victim = (run.seed.wrapping_add(kill_cycle) % plan.shards as u64) as usize;
            kill_cycle += 1;
            let t = Instant::now();
            sc.fleet
                .kill_shard(victim)
                .map_err(|e| format!("kill shard {victim}: {e}"))?;
            let killed = t.elapsed();
            if let Err(e) = sc.fleet.verify_accounting() {
                accounting_failures += 1;
                samples.problems.push(format!("accounting after kill: {e}"));
            }
            let t = Instant::now();
            sc.fleet
                .revive_shard(victim)
                .map_err(|e| format!("revive shard {victim}: {e}"))?;
            let revived = t.elapsed();
            if let Err(e) = sc.fleet.verify_accounting() {
                accounting_failures += 1;
                samples
                    .problems
                    .push(format!("accounting after revive: {e}"));
            }
            migrate_ms.push(ms(killed));
            revive_ms.push(ms(revived));
            samples.recovery_ms.push(ms(killed + revived));
        }

        let (traced, counted) = match (run.trace, i % 4) {
            (true, 1) => (true, false),
            (true, 3) => (false, true),
            _ => (false, false),
        };
        if traced {
            // Room for this tick's spans, so recording never reallocates
            // inside a timed tick.
            let expect = spans_per_tick.max(pairs as usize * 4) + 64;
            sc.harness.spans.reserve(expect * 2);
        }
        sc.harness.spans.set_enabled(traced);
        let before = sc.harness.spans.spans().len();
        let tick_span = sc.harness.spans.open("fleet.tick");
        let (a0, b0) = alloc::counts();
        alloc::set_counting(counted);
        let t = Instant::now();
        let report = sc.fleet.tick(&mut sc.harness);
        let elapsed = ms(t.elapsed());
        alloc::set_counting(false);
        let (a1, b1) = alloc::counts();
        sc.harness.spans.close(tick_span);
        sc.harness.spans.set_enabled(false);
        if traced {
            traced_ms.push(elapsed);
            spans_per_tick = sc.harness.spans.spans().len() - before;
            let live: Vec<f64> = sc
                .fleet
                .shard_statuses()
                .iter()
                .filter(|s| s.health == ShardHealth::Live)
                .map(|s| s.last_tick_us as f64)
                .collect();
            shard_max_us.push(live.iter().copied().fold(0.0, f64::max));
            shard_mean_us.push(mean(&live));
        } else if counted {
            counted_ms.push(elapsed);
            allocs += a1 - a0;
            alloc_bytes += b1 - b0;
        } else {
            samples.tick_ms.push(elapsed);
        }
        let tally = ledger.observe_tick(&report);
        not_analyzed += tally.not_analyzed + pairs.saturating_sub(tally.reported);

        if (i + 1) % scrape_every == 0 {
            let t = Instant::now();
            let text = std::hint::black_box(sc.fleet.render_prometheus());
            samples.scrape_ms.push(ms(t.elapsed()));
            scrape_bytes = text.len();
            series = text
                .lines()
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .count();
            let t = Instant::now();
            std::hint::black_box(sc.fleet.metrics_snapshot());
            snapshot_ms.push(ms(t.elapsed()));
        }
    }
    samples.attempted = plan.measured_ticks * pairs;
    samples.failed_fraction = not_analyzed as f64 / samples.attempted.max(1) as f64;

    // Correctness: planted truth, accounting, refused probes, containment.
    if let Err(e) = sc.fleet.verify_accounting() {
        accounting_failures += 1;
        samples.problems.push(format!("final accounting: {e}"));
    }
    let statuses = sc.fleet.pair_statuses();
    samples.wrong_verdicts = ledger.wrong_verdicts(&statuses);
    if samples.wrong_verdicts > 0 {
        let named: Vec<&str> = ledger
            .wrong_pairs(&statuses)
            .iter()
            .filter_map(|&p| statuses.get(p).map(|s| s.label.as_str()))
            .take(8)
            .collect();
        samples.problems.push(format!(
            "{} pairs' verdicts contradict the planted truth, e.g. {named:?}",
            samples.wrong_verdicts
        ));
    }
    let probe_faults = sc.harness.workload.probe_faults();
    if probe_faults > 0 {
        samples.problems.push(format!(
            "{probe_faults} probe deliveries refused by the auditor"
        ));
    }
    let benign_contained = statuses
        .iter()
        .filter(|s| s.containment.is_active() && !sc.truth.get(s.pair).copied().unwrap_or(false))
        .count() as u64;
    if benign_contained > 0 {
        samples
            .problems
            .push(format!("{benign_contained} benign pairs contained"));
    }
    match ledger.detect_ticks() {
        Some(t) => samples.detect_ticks = t,
        None => samples
            .problems
            .push("no covert pair convicted".to_string()),
    }
    samples.failed = samples.wrong_verdicts + probe_faults + benign_contained + accounting_failures;
    samples.peak_rss_mb = peak_rss_mb();
    if !run.trace {
        return Ok((samples, Vec::new()));
    }

    // Traced run: per-layer metrics.
    let spans = sc.harness.spans.spans();
    let totals = totals_by_name(spans);
    let mut tick_probe_us = Vec::new();
    let mut tick_self_us = Vec::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        if span.name == "fleet.tick" {
            tick_self_us.push(self_ns as f64 / 1e3);
            tick_probe_us.push((span.duration_ns() - self_ns) as f64 / 1e3);
        }
    }
    let per_call_us = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e3 / t.count.max(1) as f64)
    };
    let ticks = plan.measured_ticks.max(1) as f64;
    let counted_ticks = counted_ms.len().max(1) as f64;
    let layers = sc.harness.layers;
    let probes = sc.harness.probes;
    let (conflict_misses, total_misses) = sc.harness.workload.cache_miss_counts();
    let kernels = replay::replay(
        &sc.harness.recording,
        sc.fleet.config().base.hunter,
        plan.window,
        plan.warmup_ticks as usize,
    );
    let probe_mean = mean(&tick_probe_us);
    let self_mean = mean(&tick_self_us);
    let plain_p50 = median(&samples.tick_ms).unwrap_or(0.0);
    let overhead_ms = median(&traced_ms).unwrap_or(0.0) - plain_p50;
    let alloc_overhead_ms = median(&counted_ms).unwrap_or(0.0) - plain_p50;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let m = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        m("sim.run_us", per_call_us("sim.run"), "us"),
        m(
            "sim.events",
            ratio(layers.sim_events as f64, layers.sim_quanta as f64),
            "count",
        ),
        m("audit.harvest_us", per_call_us("audit.harvest"), "us"),
        m(
            "audit.conflicts",
            ratio(layers.conflicts as f64, layers.cache_quanta as f64),
            "count",
        ),
        m(
            "audit.conflict_ratio",
            ratio(conflict_misses as f64, total_misses as f64),
            "ratio",
        ),
        m("audit.probe_faults", probe_faults as f64, "count"),
        m(
            "ingest.offer_ns",
            ratio(
                totals
                    .get("ingest.offer")
                    .map_or(0.0, |t| t.total_ns as f64),
                layers.ingest_offered_traced as f64,
            ),
            "ns",
        ),
        m(
            "ingest.end_quantum_us",
            per_call_us("ingest.end_quantum"),
            "us",
        ),
        m(
            "ingest.shed_fraction",
            ratio(layers.ingest_shed as f64, layers.ingest_offered as f64),
            "ratio",
        ),
        m(
            "ingest.sanitize_dropped",
            layers.ingest_dropped as f64 / ticks,
            "count",
        ),
        m(
            "online.contention_push_us",
            kernels.contention_push_us,
            "us",
        ),
        m("burst.analyze_ns", kernels.burst_analyze_ns, "ns"),
        m("cluster.kmeans_us", kernels.kmeans_us, "us"),
        m(
            "online.oscillation_push_us",
            kernels.oscillation_push_us,
            "us",
        ),
        m("autocorr.compute_us", kernels.autocorr_us, "us"),
        m("fleet.probe_us", probe_mean, "us"),
        m("fleet.self_us", self_mean, "us"),
        m(
            "fleet.accounted_pct",
            100.0 * ratio(probe_mean + self_mean, mean(&samples.tick_ms) * 1e3),
            "%",
        ),
        m("fleet.probe_calls", probes.calls as f64 / ticks, "count"),
        m(
            "fleet.retry_ratio",
            ratio(
                probes.retries as f64,
                (probes.calls - probes.retries) as f64,
            ),
            "ratio",
        ),
        m("fleet.failed_fraction", samples.failed_fraction, "ratio"),
        m("shard.tick_us_max", mean(&shard_max_us), "us"),
        m("shard.tick_us_mean", mean(&shard_mean_us), "us"),
        m("alloc.per_tick", allocs as f64 / counted_ticks, "count"),
        m(
            "alloc.bytes_per_tick",
            alloc_bytes as f64 / counted_ticks,
            "B",
        ),
        m(
            "alloc.overhead_pct",
            100.0 * ratio(alloc_overhead_ms, plain_p50),
            "%",
        ),
        m("store.bytes", store_usage.1 as f64, "B"),
        m("store.files", store_usage.0 as f64, "count"),
        m(
            "store.checkpoint_ms",
            median(&samples.checkpoint_ms).unwrap_or(0.0),
            "ms",
        ),
        m("store.migrate_ms", median(&migrate_ms).unwrap_or(0.0), "ms"),
        m("store.revive_ms", median(&revive_ms).unwrap_or(0.0), "ms"),
        m("metrics.series", series as f64, "count"),
        m("metrics.scrape_bytes", scrape_bytes as f64, "B"),
        m(
            "metrics.snapshot_us",
            median(&snapshot_ms).unwrap_or(0.0) * 1e3,
            "us",
        ),
        m(
            "mitigation.contained",
            sc.fleet.metrics_snapshot().contained_pairs as f64,
            "count",
        ),
        m("trace.overhead_ms", overhead_ms, "ms"),
        m(
            "trace.overhead_pct",
            100.0 * ratio(overhead_ms, plain_p50),
            "%",
        ),
    ];

    // Keep the spans: one TSV per traced run.
    fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("spans-{workload_name}-seed{}.tsv", run.seed));
    let file = fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    sc.harness
        .spans
        .write_tsv(std::io::BufWriter::new(file))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((samples, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(ticks: usize, scale: f64) -> Samples {
        Samples {
            attempted: 10 * ticks as u64,
            detect_ticks: 2,
            failed_fraction: 0.125,
            setup_s: 1.5 * scale,
            tick_ms: (1..=ticks).map(|t| t as f64 * scale).collect(),
            scrape_ms: vec![3.0 * scale],
            checkpoint_ms: vec![4.0],
            peak_rss_mb: 100.0,
            ..Samples::default()
        }
    }

    #[test]
    fn end_to_end_reports_the_fastest_setup() {
        // A host slowed the first set-up down by half and the last by a
        // quarter; the second ran undisturbed.
        let mut last = samples(100, 1.5);
        last.peak_rss_mb = 120.0;
        let runs = [samples(100, 2.0), samples(100, 1.0), last];
        let outcome = end_to_end("w", &runs).expect("100 ticks per set-up");
        assert!(outcome.correct);
        assert_eq!(outcome.attempted, 3_000);
        let get = |name: &str| {
            outcome
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect("metric present")
        };
        // The undisturbed set-up's ticks are 1..=100 ms.
        assert_eq!(get("tick_p50_ms"), 50.0);
        assert_eq!(get("tick_p90_ms"), 90.0);
        assert!((get("pair_quanta_per_s") - 1_000.0 / 5.05).abs() < 1e-9);
        assert_eq!(get("scrape_ms"), 3.0);
        // Set-up time is the median over set-ups, not the fastest.
        assert_eq!(get("setup_s"), 2.25);
        // The run's high-water mark, not a median over set-ups.
        assert_eq!(get("peak_rss_mb"), 120.0);
        assert_eq!(get("detect_ticks"), 2.0);
    }

    #[test]
    fn a_burst_within_a_setup_is_left_out() {
        // A host burst doubles the first 100 ticks of a 200-tick set-up.
        let mut s = samples(200, 1.0);
        s.tick_ms = (1..=100)
            .map(|t| 2.0 * f64::from(t))
            .chain((1..=100).map(f64::from))
            .collect();
        let outcome = end_to_end("w", &[s]).expect("two blocks");
        let get = |name: &str| {
            outcome
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect("metric present")
        };
        assert_eq!(get("tick_p50_ms"), 50.0);
        assert_eq!(get("tick_p90_ms"), 90.0);
        // Ten pairs per tick over the undisturbed block's 5.05 s.
        assert!((get("pair_quanta_per_s") - 1_000.0 / 5.05).abs() < 1e-9);
    }

    #[test]
    fn blocks_split_a_setup_into_consecutive_repetitions() {
        let ticks: Vec<f64> = (0..330).map(f64::from).collect();
        let sizes =
            |n: usize| -> Vec<usize> { blocks(&ticks[..n]).iter().map(|b| b.len()).collect() };
        assert_eq!(sizes(330), vec![110, 110, 110]);
        assert_eq!(sizes(205), vec![103, 102]);
        assert_eq!(sizes(199), vec![199]);
        assert_eq!(sizes(99), vec![99]);
        assert_eq!(blocks(&ticks).concat(), ticks);
    }

    #[test]
    fn every_setup_needs_a_p90_with_ten_beyond() {
        assert!(end_to_end("w", &[samples(99, 1.0)]).is_err());
        assert!(end_to_end("w", &[samples(200, 1.0), samples(99, 1.0)]).is_err());
        assert!(end_to_end("w", &[samples(100, 1.0)]).is_ok());
    }

    #[test]
    fn differing_deterministic_counts_fail_the_run() {
        let mut b = samples(100, 1.0);
        b.failed_fraction = 0.25;
        let outcome = end_to_end("w", &[samples(100, 1.0), b]).expect("enough ticks");
        assert!(!outcome.correct);
    }
}
