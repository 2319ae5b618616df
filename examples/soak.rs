//! The soak runner: one table of fault scenarios, each driving a fleet
//! through failures CC-Hunter's audit daemon must survive and recording
//! one row per check of its robustness contract.
//!
//! * `ingest` — hardened ingest under floods, hostile trains, a flaky
//!   collector and analysis panics.
//! * `sharded` — ten thousand pairs on eight shards through forced kills,
//!   a watchdog death and revivals.
//! * `grayfail` — a storage brownout and heal, a slow shard suspected and
//!   drained, a kill, revive and rebalance.
//! * `mitigation` — the live simulated bus channel convicted, contained
//!   past a refused rung, restored after a crash and stepped down.
//!
//! Shard and pair panics and stalls are armed with [`ShardedFleet::arm`],
//! storage faults go through a [`StorageFaultInjector`] and harvest faults
//! through a [`FaultInjector`]. Every run writes `soak.json`: per scenario
//! its name, ticks, `elapsed_ms`, a metrics map and its rows (`check`,
//! `pass`, `observed`). The runner exits 1 if any row fails.
//!
//! ```sh
//! cargo run --release --example soak                          # full sizes
//! CCHUNTER_SOAK_QUICK=1 cargo run --release --example soak    # CI smoke
//! ```

use std::cell::Cell;
use std::fmt::{Debug, Display};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use cc_hunter::audit::{AuditSession, QuantumRunner};
use cc_hunter::channels::{
    BitClock, BusChannelConfig, BusSpy, BusTrojan, DecodeRule, Message, SpyLog, SpyLogHandle,
};
use cc_hunter::detector::mitigation::{
    goodput_fraction, ApplyError, ContainmentState, MitigationConfig, MitigationEnforcer,
    MitigationLevel, ResidualProbe,
};
use cc_hunter::detector::policy::{mix_seed, QuarantineConfig};
use cc_hunter::detector::shard::{FleetTickReport, MigrationReport};
use cc_hunter::detector::supervisor::{PairInput, ProbeFault, ProbeSource, SupervisorConfig};
use cc_hunter::detector::{
    shard_count_from_env, AdmissionConfig, CcHunterConfig, DeltaTPolicy, DensityHistogram,
    FleetFault, Harvest, IngestConfig, IngestPipeline, LatencySloConfig, RawEvent, ShardHealth,
    ShardedFleet, ShardedFleetConfig, ShedPolicy, StorageFaultClass, StorageFaultConfig,
    StorageFaultInjector, SuspicionConfig, Verdict, HISTOGRAM_BINS,
};
use cc_hunter::sim::{ContextId, FnProgram, Machine, MachineConfig, Op};
use cc_hunter::{FaultClass, FaultConfig, FaultInjector};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A scenario body: it fills the report, and stops at a failed gate.
type Scenario = fn(bool, &mut Report) -> Result<(), Stopped>;

const SCENARIOS: [(&str, Scenario); 4] = [
    ("ingest", ingest),
    ("sharded", sharded),
    ("grayfail", grayfail),
    ("mitigation", mitigation),
];

fn main() {
    let quick = std::env::var("CCHUNTER_SOAK_QUICK").is_ok_and(|v| v == "1");
    // Armed fleet faults panic on purpose, inside the watchdogs that
    // contain them; keep the default hook for every other panic.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("injected fleet fault"));
        if !injected {
            default_hook(info);
        }
    }));

    let mut failed = 0;
    let mut scenarios = Vec::new();
    for (name, run) in SCENARIOS {
        println!("{name}:");
        let started = Instant::now();
        let mut report = Report::default();
        // A stopped scenario's failed gate is already a failed row.
        let _ = run(quick, &mut report);
        let elapsed_ms = started.elapsed().as_millis();
        println!("  {} ticks in {elapsed_ms} ms", report.ticks);
        failed += report.failed;
        let sep = ",\n        ";
        scenarios.push(format!(
            "    {{\n      \"name\": {}, \"ticks\": {}, \"elapsed_ms\": {elapsed_ms},\n      \
             \"metrics\": {{\n        {}\n      }},\n      \"rows\": [\n        {}\n      ]\n    }}",
            json_str(name),
            report.ticks,
            report.metrics.join(sep),
            report.rows.join(sep)
        ));
    }
    let json = format!(
        "{{\n  \"quick\": {quick},\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        scenarios.join(",\n")
    );
    std::fs::write("soak.json", json).expect("soak.json written");
    println!("summary written to soak.json");
    if failed > 0 {
        eprintln!("{failed} row(s) failed");
        std::process::exit(1);
    }
}

// --- Rows, metrics and the JSON writer ----------------------------------

/// What one scenario recorded: its rows and metrics, as JSON.
#[derive(Default)]
struct Report {
    ticks: u64,
    failed: usize,
    metrics: Vec<String>,
    rows: Vec<String>,
}

/// A failed gate: the rest of the scenario needs what it checked.
struct Stopped;

impl Report {
    /// Records and prints a row: the contract it checks, whether it held
    /// and what was observed. Returns whether it held.
    fn check(&mut self, check: impl Display, pass: bool, observed: impl Debug) -> bool {
        let (check, observed) = (check.to_string(), format!("{observed:?}"));
        let verdict = if pass { "pass" } else { "FAIL" };
        println!("  {verdict}  {check}: {observed}");
        self.failed += usize::from(!pass);
        let (check, observed) = (json_str(&check), json_str(&observed));
        let row = format!("{{ \"check\": {check}, \"pass\": {pass}, \"observed\": {observed} }}");
        self.rows.push(row);
        pass
    }

    /// Records a row that the rest of the scenario depends on.
    fn gate(&mut self, check: &str, pass: bool, observed: impl Debug) -> Result<(), Stopped> {
        self.check(check, pass, observed)
            .then_some(())
            .ok_or(Stopped)
    }

    /// The row `what >= bound`.
    fn at_least<T: PartialOrd + Debug>(&mut self, what: &str, seen: T, bound: T) -> bool {
        let check = format!("{what} >= {bound:?}");
        self.check(check, seen >= bound, seen)
    }

    /// The row `what <= bound`.
    fn at_most<T: PartialOrd + Debug>(&mut self, what: &str, seen: T, bound: T) -> bool {
        let check = format!("{what} <= {bound:?}");
        self.check(check, seen <= bound, seen)
    }

    /// The row `what == expected`.
    fn equals<T: PartialEq + Debug>(&mut self, what: &str, seen: T, expected: T) -> bool {
        let check = format!("{what} == {expected:?}");
        self.check(check, seen == expected, seen)
    }

    /// Records a metric; `value` must already be JSON (see [`json_str`]).
    fn metric(&mut self, name: &str, value: impl Display) {
        self.metrics.push(format!("{}: {value}", json_str(name)));
    }
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

// --- Shared fixtures ----------------------------------------------------

/// A covert-looking per-quantum histogram, varied by tick.
fn covert_histogram(tick: u64) -> DensityHistogram {
    let mut bins = vec![0u64; HISTOGRAM_BINS];
    bins[0] = 2_400 + (tick % 7) * 3;
    bins[19] = 20;
    bins[20] = 150 + (tick % 5);
    bins[21] = 25;
    DensityHistogram::from_bins(bins, 100_000).expect("valid bins")
}

/// A benign per-quantum histogram.
fn quiet_histogram(tick: u64) -> DensityHistogram {
    let mut bins = vec![0u64; HISTOGRAM_BINS];
    bins[0] = 2_490 + (tick % 9);
    bins[1] = 5;
    DensityHistogram::from_bins(bins, 100_000).expect("valid bins")
}

/// A fresh per-process store root for scenario `tag`.
fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cchunter-soak-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fleet_config(shards: usize, base: SupervisorConfig) -> ShardedFleetConfig {
    ShardedFleetConfig {
        shards,
        base,
        ..ShardedFleetConfig::default()
    }
}

/// Pair analysis windows of `quanta` quanta, otherwise the defaults.
fn windowed(quanta: usize) -> SupervisorConfig {
    SupervisorConfig {
        window_quanta: quanta,
        ..SupervisorConfig::default()
    }
}

/// Adds the synthetic fleet: pair 0 is the planted covert channel, the
/// other `pairs - 1` are benign.
fn add_synthetic_pairs(fleet: &mut ShardedFleet, pairs: usize) {
    fleet
        .add_contention_pair("covert-bus: pid 17 <-> pid 23")
        .expect("covert pair");
    for i in 1..pairs {
        let label = format!("pair-{i:05}: pid {} <-> pid {}", 100 + i, 20_000 + i);
        fleet.add_contention_pair(label).expect("benign pair");
    }
}

/// The synthetic fleet's probe: covert harvests for pair 0, benign ones
/// for the chatty pairs below `active`, and misses for the long tail of
/// co-scheduled pairs with nothing to report.
fn synthetic(active: usize) -> impl FnMut(usize, u64, u32) -> Result<PairInput, ProbeFault> {
    move |pair, tick, _attempt| {
        Ok(match pair {
            0 => PairInput::Harvest(Harvest::Complete(covert_histogram(tick))),
            p if p < active => {
                PairInput::Harvest(Harvest::Complete(quiet_histogram(tick + p as u64)))
            }
            _ => PairInput::Missed,
        })
    }
}

// --- Scenario `ingest` --------------------------------------------------

const QUANTUM: u64 = 2_500_000;
const CAPACITY: usize = 512;

/// Per-(pair, tick) deterministic event streams.
///
/// * pair 0 — benign trickle: sparse well-formed events.
/// * pair 1 — flooded covert channel: bursty foreground + a ~5× uniform
///   benign flood that overwhelms the admission queue every quantum.
/// * pair 2 — hostile feed: duplicates, zero-Δt packing, time travel, and
///   out-of-range context IDs on top of a benign base train.
/// * pair 3 — benign trickle whose *harvest* is then mangled by the fault
///   injector (dropped/truncated read-outs).
fn events_for(pair: usize, tick: u64, start: u64, end: u64) -> Vec<RawEvent> {
    let mut rng = SmallRng::seed_from_u64(mix_seed(0x50CC, pair as u64, tick));
    let span = end - start;
    let mut events = Vec::new();
    let event = |time: u64, context: u8| RawEvent {
        time,
        weight: 1,
        context,
    };
    match pair {
        1 => {
            // The covert channel: 10 bursts of 30 back-to-back events.
            for burst in 0..10u64 {
                let base = start + burst * span / 10;
                for i in 0..30u64 {
                    events.push(event(base + i * 97, (i % 2) as u8));
                }
            }
            // The flood: chatty neighbours at ~4× the channel's volume.
            for _ in 0..1_200 {
                let time = start + rng.gen_range(0..span);
                events.push(event(time, rng.gen_range(2..8u64) as u8));
            }
            events.sort_by_key(|e| e.time);
        }
        2 => {
            for _ in 0..300 {
                let time = start + rng.gen_range(0..span);
                events.push(event(time, rng.gen_range(0..8u64) as u8));
            }
            events.sort_by_key(|e| e.time);
            for i in 0..25usize {
                let dup = events[i * events.len() / 25];
                events.push(dup); // exact duplicates
            }
            for i in 0..2_000u64 {
                events.push(event(start + span / 2, (i % 8) as u8)); // zero-Δt packing
            }
            for _ in 0..20 {
                events.push(event(start.saturating_sub(500_000), 0)); // time travel
            }
            for _ in 0..20 {
                events.push(event(end - 1, 250)); // out-of-range context
            }
        }
        _ => {
            // Benign trickle (pairs 0 and 3).
            for _ in 0..rng.gen_range(10..40) {
                let time = start + rng.gen_range(0..span);
                events.push(event(time, rng.gen_range(0..8u64) as u8));
            }
            events.sort_by_key(|e| e.time);
            if pair == 3 {
                // The flaky collector also delivers slightly out of order,
                // within the sanitizer's bounded repair tolerance.
                for i in (3..events.len()).step_by(5) {
                    events[i].time = events[i - 1].time.saturating_sub(300);
                }
            }
        }
    }
    events
}

/// A one-shard fleet fed through admission queues, sanitizers and
/// saturating accumulators for 2 500 quanta (250 quick) while an adversary
/// floods the buses, feeds hostile event trains, a collector mangles
/// harvests and pair 2's analysis panics every 97 quanta. Memory stays
/// within the admission capacity, a push stays O(1)-cheap, the benign pair
/// never flips covert, the flooded covert pair is convicted under
/// reservoir shedding, and every shed, repair and drop shows in metrics.
fn ingest(quick: bool, r: &mut Report) -> Result<(), Stopped> {
    let ticks: u64 = if quick { 250 } else { 2_500 };
    let mut fleet = ShardedFleet::new(fleet_config(1, windowed(32))).expect("valid config");
    let labels = [
        "benign-bus: pid 8 <-> pid 31",
        "flooded-bus: pid 17 <-> pid 23",
        "hostile-feed: pid 50 <-> pid 51",
        "faulty-collector: pid 4 <-> pid 9",
    ];
    for label in labels {
        fleet.add_contention_pair(label).expect("valid pair");
    }
    let mut pipelines: Vec<IngestPipeline> = (0..labels.len())
        .map(|pair| {
            // Δt per resource, following each pair's mean event rate.
            let (policy, delta_t) = match pair {
                1 => (ShedPolicy::Reservoir { seed: 0xD1CE }, 100_000),
                2 => (ShedPolicy::DropOldest, 100_000),
                _ => (ShedPolicy::DropOldest, 10_000),
            };
            let capacity = CAPACITY;
            IngestPipeline::new(IngestConfig {
                admission: AdmissionConfig { capacity, policy },
                delta_t,
                ..IngestConfig::default()
            })
            .expect("valid ingest config")
        })
        .collect();
    let stats: Vec<_> = pipelines.iter().map(|p| p.stats()).collect();
    for s in &stats {
        fleet.attach_ingest_stats(s.clone());
    }
    let faults = FaultConfig::only(FaultClass::DroppedQuantum)
        .with_rate(FaultClass::DroppedQuantum, 0.1)
        .with_rate(FaultClass::TruncatedHistogram, 0.2);
    let mut injector = FaultInjector::new(faults, 0xB5_0003);

    let (mut offers, mut offer_ns, mut max_queue, mut benign_flips) = (0u64, 0u128, 0, 0);
    let mut probe = |pair: usize, tick: u64, _attempt: u32| -> Result<PairInput, ProbeFault> {
        let start = tick * QUANTUM;
        let end = start + QUANTUM;
        let pipeline = &mut pipelines[pair];
        let events = events_for(pair, tick, start, end);
        let t0 = Instant::now();
        for event in events {
            pipeline.offer(event);
            max_queue = max_queue.max(pipeline.queue_len());
            offers += 1;
        }
        offer_ns += t0.elapsed().as_nanos();
        let (harvest, _report) = pipeline.end_quantum(start, end);
        Ok(PairInput::Harvest(match (pair, harvest.histogram()) {
            // The collector between pipeline and daemon is flaky.
            (3, Some(h)) => injector.perturb_harvest(h.clone()),
            _ => harvest,
        }))
    };
    for tick in 0..ticks {
        if tick.is_multiple_of(97) {
            let fault = FleetFault::PairPanic(2, 1);
            fleet.arm(fault).expect("pair 2 is hosted");
        }
        fleet.tick(&mut probe);
        let sampled = tick.is_multiple_of(25) || tick + 1 == ticks;
        if sampled && fleet.pair_statuses()[0].verdict.is_covert() {
            benign_flips += 1;
        }
    }
    r.ticks = ticks;

    let snap = fleet.metrics_snapshot();
    let ingest = &snap.ingest;
    let statuses = fleet.pair_statuses();
    let push_ns = offer_ns as f64 / offers.max(1) as f64;
    let handles: u64 = stats.iter().map(|s| s.events_offered.get()).sum();
    r.at_most("max queue length", max_queue, CAPACITY);
    r.equals("benign covert flips", benign_flips, 0);
    r.equals("benign verdict", statuses[0].verdict, Verdict::Clean);
    let flooded = statuses[1].verdict;
    r.check("flooded pair convicted", flooded.is_covert(), flooded);
    r.check("mean push < 10 000 ns", push_ns < 10_000.0, push_ns);
    r.at_least("contained failures", snap.failures, 1);
    r.check("ingest in metrics", !ingest.is_empty(), ingest.quanta);
    r.at_least("events shed", ingest.events_shed, 1);
    r.at_least("events dropped", ingest.events_dropped, 1);
    r.at_least("events repaired", ingest.events_repaired, 1);
    let offered = ingest.events_offered;
    r.equals("offered vs handles' sum", offered, handles);
    r.equals("offered vs probe offers", offered, offers);

    r.metric("mean_push_ns", format!("{push_ns:.1}"));
    r.metric("saturated_quanta", ingest.saturated_quanta);
    r.metric("partial_harvests", ingest.partial_harvests);
    r.metric("missed_harvests", ingest.missed_harvests);
    let verdicts: Vec<String> = statuses
        .iter()
        .map(|s| json_str(&s.verdict.to_string()))
        .collect();
    r.metric("verdicts", format!("[{}]", verdicts.join(", ")));
    Ok(())
}

// --- Scenarios `sharded` and `grayfail` --------------------------------

/// The per-tick books of a synthetic-fleet scenario.
#[derive(Default)]
struct Books {
    /// Chatty pairs: the probe's `active` (see [`synthetic`]).
    active: usize,
    pairs: usize,
    /// Ticks between audits of the pair table.
    sample_every: u64,
    tick: u64,
    tick_us: Vec<u64>,
    moved: MigrationReport,
    deaths: usize,
    heartbeat_misses: usize,
    suspected: usize,
    cleared: usize,
    drained: usize,
    rebalanced: usize,
    max_rebalanced: usize,
    degraded_ticks: u32,
    short_samples: u32,
    unbalanced_samples: u32,
    benign_flips: u32,
    covert_samples: u32,
}

impl Books {
    /// One tick of the synthetic fleet; every `sample_every`-th also
    /// audits the pair count, the verdicts and the books.
    fn tick(&mut self, fleet: &mut ShardedFleet) -> FleetTickReport {
        let t0 = Instant::now();
        let report = fleet.tick(&mut synthetic(self.active));
        self.tick_us.push(t0.elapsed().as_micros() as u64);
        self.tick += 1;
        self.moved(report.migration);
        self.deaths += report.deaths.len();
        self.heartbeat_misses += report.heartbeat_misses.len();
        self.suspected += report.suspected.len();
        self.cleared += report.cleared.len();
        self.drained += report.drained;
        self.rebalanced += report.rebalanced;
        self.max_rebalanced = self.max_rebalanced.max(report.rebalanced);
        self.degraded_ticks += u32::from(fleet.durability().is_degraded());
        if self.tick.is_multiple_of(self.sample_every) {
            let statuses = fleet.pair_statuses();
            self.short_samples += u32::from(statuses.len() != self.pairs);
            self.unbalanced_samples += u32::from(fleet.verify_accounting().is_err());
            self.benign_flips += u32::from(statuses[1..].iter().any(|s| s.verdict.is_covert()));
            self.covert_samples += u32::from(statuses[0].verdict.is_covert());
        }
        report
    }

    /// Adds a migration's moves to the books.
    fn moved(&mut self, m: MigrationReport) {
        self.moved.migrated += m.migrated;
        self.moved.degraded_imports += m.degraded_imports;
        self.moved.orphaned += m.orphaned;
    }

    /// Ticks until `done` holds after a tick, at most `max` ticks, arming
    /// `fault` (when given) before each. Returns whether `done` held.
    fn until(
        &mut self,
        fleet: &mut ShardedFleet,
        max: usize,
        fault: Option<FleetFault>,
        done: impl Fn(&ShardedFleet, &FleetTickReport) -> bool,
    ) -> bool {
        (0..max).any(|_| {
            if let Some(fault) = fault {
                fleet.arm(fault).expect("the target shard exists");
            }
            let report = self.tick(fleet);
            done(fleet, &report)
        })
    }

    /// Ticks `n` times.
    fn run(&mut self, fleet: &mut ShardedFleet, n: usize) {
        self.until(fleet, n, None, |_, _| false);
    }

    /// Ticks (at most 60) until every one of `pairs` is hosted on `home`
    /// again; returns how many are.
    fn walk_home(&mut self, fleet: &mut ShardedFleet, pairs: &[usize], home: usize) -> usize {
        let away = |f: &ShardedFleet| pairs.iter().any(|&p| f.shard_of(p) != Some(home));
        if away(fleet) {
            self.until(fleet, 60, None, |f, _| !away(f));
        }
        let home = |&&p: &&usize| fleet.shard_of(p) == Some(home);
        pairs.iter().filter(home).count()
    }

    /// The rows every synthetic scenario owes at its end.
    fn check_end(&self, r: &mut Report, fleet: &ShardedFleet, shards: usize) {
        let statuses = fleet.pair_statuses();
        let covert = statuses[0].verdict;
        r.equals("samples short of pairs", self.short_samples, 0);
        r.equals("samples with unbalanced books", self.unbalanced_samples, 0);
        r.equals("samples with a quiet pair covert", self.benign_flips, 0);
        let orphans = statuses.iter().filter(|s| s.shard.is_none()).count();
        r.equals("orphans at the end", orphans, 0);
        r.equals("pairs at the end", statuses.len(), self.pairs);
        r.equals("live shards", fleet.live_shard_ids().len(), shards);
        r.check("covert pair convicted", covert.is_covert(), covert);
        let quiet_covert = statuses[1..].iter().filter(|s| s.verdict.is_covert());
        r.equals("quiet pairs covert at the end", quiet_covert.count(), 0);
    }
}

/// Ten thousand pairs (1 024 quick) hashed across eight crash-contained
/// shards, killed and revived over 500 ticks (80 quick) while a planted
/// covert channel keeps transmitting. Every pair is accounted for on every
/// sampled tick, shard deaths migrate pairs onto survivors by checkpoint
/// restore, the covert pair is re-convicted after each forced migration,
/// and quiet pairs never flip.
fn sharded(quick: bool, r: &mut Report) -> Result<(), Stopped> {
    let ticks: u64 = if quick { 80 } else { 500 };
    let pairs: usize = if quick { 1_024 } else { 10_240 };
    let shards = shard_count_from_env(8);
    let root = temp_root("sharded");
    let config = fleet_config(shards, windowed(8));
    let mut fleet = ShardedFleet::with_store_root(config, &root).expect("valid fleet");
    add_synthetic_pairs(&mut fleet, pairs);
    r.equals("pairs added", fleet.len(), pairs);

    // The fault schedule, in coordinator ticks.
    let checkpoint_every = ticks / 4;
    let kill_first = checkpoint_every + 2; // covert pair's home, post-checkpoint
    let kill_second = kill_first + 5; // its *new* home (fresh state → degraded import)
    let revive_all_at = ticks / 2;
    let panic_kill_at = revive_all_at + ticks / 8; // death by the heartbeat watchdog
    let revive_last_at = ticks - ticks / 8;
    let dead_after = fleet.config().dead_after;

    let mut books = Books {
        active: 64,
        pairs,
        sample_every: 25,
        ..Books::default()
    };
    let (mut forced_migrations, mut covert_before_kills) = (0, 0);
    for tick in 0..ticks {
        if tick > 0 && tick.is_multiple_of(checkpoint_every) {
            fleet.checkpoint().expect("fleet checkpoint");
        }
        let home = fleet.shard_of(0);
        if tick == kill_first || tick == kill_second {
            let home = home.expect("covert pair is hosted");
            books.moved(fleet.kill_shard(home).expect("shard killed"));
            books.deaths += 1;
            if forced_migrations == 0 {
                covert_before_kills = books.covert_samples;
            }
            forced_migrations += 1;
        }
        if tick == panic_kill_at {
            // Let the heartbeat watchdog declare this death on its own.
            let (shard, ticks) = (home.expect("covert pair is hosted"), dead_after);
            let fault = FleetFault::ShardPanic(shard, ticks);
            fleet.arm(fault).expect("a shard");
        }
        if tick == revive_all_at || tick == revive_last_at {
            for status in fleet.shard_statuses() {
                if status.health == ShardHealth::Dead {
                    books.moved(fleet.revive_shard(status.index).expect("revived"));
                }
            }
        }
        if tick.is_multiple_of(37) {
            // A chatty neighbour's analysis panics inside its shard.
            let fault = FleetFault::PairPanic(7, 1);
            fleet.arm(fault).expect("pair 7 is hosted");
        }
        books.tick(&mut fleet);
    }
    r.ticks = ticks;
    books.check_end(r, &fleet, shards);
    let snap = fleet.metrics_snapshot();
    r.at_least("deaths (two forced, one watchdog)", books.deaths, 3);
    r.at_least("forced migrations", forced_migrations, 2);
    r.at_least("pairs migrated", books.moved.migrated, 1);
    let reconvictions = books.covert_samples - covert_before_kills;
    r.at_least("convictions after migration", reconvictions, 1);
    r.at_least("contained pair panics", snap.panics, 1);
    let misses = books.heartbeat_misses;
    r.at_least("heartbeat misses", misses, dead_after as usize);

    books.tick_us.sort_unstable();
    let pct = |p: f64| books.tick_us[((books.tick_us.len() - 1) as f64 * p) as usize];
    r.metric("tick_p50_us", pct(0.50));
    r.metric("tick_p99_us", pct(0.99));
    r.metric("degraded_imports", books.moved.degraded_imports);
    r.metric("transient_orphans", books.moved.orphaned);
    r.metric("contained_failures", snap.failures);
    let _ = std::fs::remove_dir_all(&root);
    Ok(())
}

const REBALANCE_PER_TICK: usize = 24;

/// Gray failures while a planted covert channel keeps transmitting, over
/// 512 pairs (160 quick) on four shards: an ENOSPC brownout degrades
/// durability to in-memory shadows and healing re-persists; a shard
/// stalled past the latency SLO is suspected (not killed) and drained, and
/// walks its pairs back once it recovers; a killed-and-revived shard gets
/// its rendezvous-home pairs back within the churn budget. No pair is lost
/// and the books balance throughout.
fn grayfail(quick: bool, r: &mut Report) -> Result<(), Stopped> {
    let pairs: usize = if quick { 160 } else { 512 };
    let shards = shard_count_from_env(4);
    let root = temp_root("grayfail");
    let base = SupervisorConfig {
        checkpoint_every: 4,
        ..windowed(8)
    };
    let config = ShardedFleetConfig {
        latency_slo: Some(LatencySloConfig {
            p99_budget_us: 25_000,
            window_ticks: 4,
            suspicion: SuspicionConfig {
                breach_ticks: 3,
                clear_ticks: 4,
            },
            drain_per_tick: 64,
        }),
        rebalance_per_tick: REBALANCE_PER_TICK,
        ..fleet_config(shards, base)
    };
    // The injector clone is the live control handle: flipping its config
    // browns out (and heals) every shard store at once.
    let injector = StorageFaultInjector::new(StorageFaultConfig::none(), 0x6AF1);
    let medium = Arc::new(injector.clone());
    let mut fleet =
        ShardedFleet::with_store_root_and_medium(config, &root, medium).expect("valid fleet");
    add_synthetic_pairs(&mut fleet, pairs);
    let mut books = Books {
        active: 48,
        pairs,
        sample_every: 5,
        ..Books::default()
    };
    gray_phases(r, &mut fleet, &mut books, &injector);
    r.ticks = books.tick;
    let _ = std::fs::remove_dir_all(&root);

    books.check_end(r, &fleet, shards);
    let snap = fleet.metrics_snapshot();
    r.at_most("max rebalanced", books.max_rebalanced, REBALANCE_PER_TICK);
    let balance = fleet.verify_accounting();
    r.check("final books balance", balance.is_ok(), balance);
    r.equals("watchdog deaths", books.deaths, 0);
    r.at_least("suspicions raised", books.suspected, 1);
    r.at_least("suspicions cleared", books.cleared, 1);
    r.at_least("pairs drained", books.drained, 1);
    r.at_least("pairs rebalanced", books.rebalanced, 1);
    r.check("durable", !snap.durability_degraded, fleet.durability());

    r.metric("degraded_ticks", books.degraded_ticks);
    r.metric("shadow_checkpoints", snap.shadow_checkpoints);
    r.metric("durability_heals", snap.durability_heals);
    r.metric("checkpoint_errors", snap.checkpoint_errors);
    Ok(())
}

/// The six phases of the `grayfail` scenario.
fn gray_phases(
    r: &mut Report,
    fleet: &mut ShardedFleet,
    books: &mut Books,
    injector: &StorageFaultInjector,
) {
    // Phase 1: warmup — the covert pair convicts under healthy storage.
    books.run(fleet, 24);
    let covert = fleet.pair_statuses()[0].verdict;
    r.check("warmup: covert pair convicted", covert.is_covert(), covert);
    let before = fleet.metrics_snapshot().checkpoints;
    r.at_least("warmup: checkpoints", before, 1);

    // Phase 2: ENOSPC brownout. Every durable write fails; the fleet must
    // keep detecting and fall back to shadow checkpoints.
    injector.set_config(StorageFaultConfig::none().with_rate(StorageFaultClass::NoSpace, 1.0));
    books.run(fleet, 12);
    let snap = fleet.metrics_snapshot();
    let durability = fleet.durability();
    r.check("brownout: degraded", snap.durability_degraded, durability);
    r.at_least("brownout: shadow checkpoints", snap.shadow_checkpoints, 1);
    r.at_least("brownout: checkpoint errors", snap.checkpoint_errors, 1);
    let covert = fleet.pair_statuses()[0].verdict;
    r.check("brownout: covert convicted", covert.is_covert(), covert);

    // Phase 3: heal. Durable writes resume with a full re-persist.
    injector.set_config(StorageFaultConfig::none());
    books.run(fleet, 12);
    let snap = fleet.metrics_snapshot();
    let durability = fleet.durability();
    r.check("heal: durable", !snap.durability_degraded, durability);
    r.at_least("heal: durability heals", snap.durability_heals, 1);
    r.at_least("heal: checkpoints", snap.checkpoints, before + 1);

    // Phase 4: a gray-slow shard. The covert pair's home stalls past the
    // latency SLO every tick until it is suspected and drained — it must
    // never be declared dead for being slow. A stall is one-shot.
    let victim = fleet.shard_of(0).expect("covert pair hosted");
    let stall = Some(FleetFault::ShardStall(victim, 100_000));
    let homed: Vec<usize> = (0..books.pairs)
        .filter(|&p| fleet.shard_of(p) == Some(victim))
        .collect();
    let suspected = books.until(fleet, 20, stall, |_, t| t.suspected.contains(&victim));
    r.check("slow shard: suspected", suspected, suspected);
    let health = fleet.shard_health(victim);
    r.equals("slow shard health", health, Some(ShardHealth::Live));
    let drained = |f: &ShardedFleet| f.shard_statuses()[victim].pairs == 0;
    if !drained(fleet) {
        books.until(fleet, 8, stall, |f, _| drained(f));
    }
    let left = fleet.shard_statuses()[victim].pairs;
    r.equals("slow shard: pairs left", left, 0);

    // Phase 5: the stall is gone; suspicion clears and the drained pairs
    // rebalance back onto their rendezvous home within the churn budget.
    let cleared = books.until(fleet, 80, None, |_, t| t.cleared.contains(&victim));
    r.check("recovery: suspicion cleared", cleared, cleared);
    let (back, n) = (books.walk_home(fleet, &homed, victim), homed.len());
    r.at_least("recovery: 10 x pairs home", back * 10, n * 9);

    // Phase 6: hard kill and revive. The revived shard starts empty and
    // gets its rendezvous-home pairs back, bounded per tick.
    fleet.checkpoint().expect("pre-kill checkpoint");
    let homes: Vec<usize> = (0..books.pairs)
        .map(|p| fleet.shard_of(p).expect("hosted"))
        .collect();
    let killed = homes[0];
    let homed: Vec<usize> = (0..books.pairs).filter(|&p| homes[p] == killed).collect();
    let report = fleet.kill_shard(killed).expect("shard killed");
    r.equals("kill: pairs orphaned", report.orphaned, 0);
    books.tick(fleet);
    fleet.revive_shard(killed).expect("shard revived");
    let (back, n) = (books.walk_home(fleet, &homed, killed), homed.len());
    r.at_least("revive: 10 x pairs home", back * 10, n * 9);
    books.run(fleet, 8);
    let away = (0..books.pairs).filter(|&p| fleet.shard_of(p) != Some(homes[p]));
    r.equals("settled: pairs off their rendezvous home", away.count(), 0);
}

// --- Scenario `mitigation` ----------------------------------------------

const BIT_CYCLES: u64 = 250_000;
/// The paper's evaluation platform runs at 2.5 GHz.
const CLOCK_HZ: f64 = 2.5e9;
const NOMINAL_BPS: f64 = CLOCK_HZ / BIT_CYCLES as f64;
/// Long enough that no phase runs the trojan out of message.
const MESSAGE_BITS: usize = 800;
const MAX_CONTAIN_TICKS: u64 = 40;
const RIG_PAIR: &str = "memory-bus: trojan core 0 <-> spy core 1";

/// One simulated machine carrying the bus covert channel (trojan on core 0,
/// spy on core 1) and a benign streaming co-runner on core 2 whose op
/// rate measures mitigation collateral.
struct DrillRig {
    machine: Machine,
    session: AuditSession,
    runner: QuantumRunner,
    injector: FaultInjector,
    log: SpyLogHandle,
    sent: Message,
    benign_ops: Rc<Cell<u64>>,
    trojan_ctx: ContextId,
    spy_ctx: ContextId,
    quanta: u64,
    last_clean: Option<DensityHistogram>,
}

impl DrillRig {
    fn new(fault_seed: u64) -> Self {
        let config = MachineConfig::builder()
            .quantum_cycles(QUANTUM)
            .build()
            .expect("valid machine config");
        let mut machine = Machine::new(config);
        let trojan_ctx = machine.config().context_id(0, 0);
        let spy_ctx = machine.config().context_id(1, 0);
        let benign_ctx = machine.config().context_id(2, 0);

        let sent = Message::alternating(MESSAGE_BITS);
        let channel = BusChannelConfig::new(sent.clone(), BitClock::new(0, BIT_CYCLES));
        let log: SpyLogHandle = SpyLog::new_handle();
        let trojan = BusTrojan::new(channel.clone(), 0x1000_0000);
        machine.spawn(Box::new(trojan), trojan_ctx);
        let spy = BusSpy::new(channel, 0x4000_0000, log.clone());
        machine.spawn(Box::new(spy), spy_ctx);

        // Benign co-runner: a streaming reader whose executed-op count is the
        // collateral-damage meter.
        let benign_ops = Rc::new(Cell::new(0u64));
        let counter = benign_ops.clone();
        let mut cursor = 0u64;
        let benign = FnProgram::new("benign-stream", move |_v| {
            counter.set(counter.get() + 1);
            cursor = cursor.wrapping_add(1);
            if cursor.is_multiple_of(4) {
                Op::Compute { cycles: 400 }
            } else {
                let addr = 0x7000_0000 + (cursor % 65_536) * 64;
                Op::Load { addr }
            }
        });
        machine.spawn(Box::new(benign), benign_ctx);

        let mut session = AuditSession::new();
        session.audit_bus(100_000).expect("bus audit");
        session.attach(&mut machine);
        let drops = FaultClass::DroppedQuantum;
        let faults = FaultConfig::only(drops).with_rate(drops, 0.10);
        DrillRig {
            machine,
            session,
            runner: QuantumRunner::new(QUANTUM).expect("nonzero quantum"),
            injector: FaultInjector::new(faults, fault_seed),
            log,
            sent,
            benign_ops,
            trojan_ctx,
            spy_ctx,
            quanta: 0,
            last_clean: None,
        }
    }

    /// Message bits whose transmission window has fully elapsed.
    fn bits_transmitted(&self) -> usize {
        ((self.quanta * QUANTUM / BIT_CYCLES) as usize).min(MESSAGE_BITS)
    }

    /// Goodput fraction over decoded bits `[lo, hi)`, judged against the
    /// sent message.
    fn goodput_between(&self, lo: usize, hi: usize) -> f64 {
        let decoded = self.log.borrow().decode(DecodeRule::Midpoint, MESSAGE_BITS);
        let correct = (lo..hi)
            .filter(|&i| decoded.bit(i) == self.sent.bit(i))
            .count();
        goodput_fraction(correct, hi - lo)
    }

    /// Carries the rung changes `enforcer` accepted during the last tick
    /// out onto the machine's scheduler and cache-hardware controls.
    /// Returns the reason of a control write the hardware rejected.
    fn actuate(&mut self, enforcer: &MachineEnforcer) -> Result<(), String> {
        let pending = std::mem::take(&mut enforcer.log().pending);
        let m = &mut self.machine;
        let (trojan, spy) = (self.trojan_ctx, self.spy_ctx);
        let mut rejected = Ok(());
        for (level, engage) in pending {
            match (level, engage) {
                (MitigationLevel::FlushOnSwitch, on) => m.set_flush_on_switch(on),
                (MitigationLevel::TemporalPartition, on) => {
                    m.set_temporal_phase(trojan, on.then_some(0));
                    m.set_temporal_phase(spy, on.then_some(1));
                }
                (MitigationLevel::WayPartition, true) => {
                    let write = m
                        .set_l2_way_mask(trojan, 0x0F)
                        .and_then(|()| m.set_l2_way_mask(spy, 0xF0));
                    if write.is_err() {
                        rejected = write;
                    }
                }
                (MitigationLevel::WayPartition, false) => {
                    m.clear_l2_way_mask(trojan);
                    m.clear_l2_way_mask(spy);
                }
                (MitigationLevel::Deschedule, true) => m.park_context(trojan),
                (MitigationLevel::Deschedule, false) => m.resume_context(trojan),
            }
        }
        rejected
    }
}

/// The fleet's probe source for the rig pair: a first attempt advances
/// one quantum and hands back the bus harvest; a retry re-reads the last
/// clean histogram.
impl ProbeSource for DrillRig {
    fn probe(&mut self, _pair: usize, _tick: u64, attempt: u32) -> Result<PairInput, ProbeFault> {
        if attempt > 0 {
            let reread = self.last_clean.take().map(Harvest::Complete);
            return Ok(reread.map_or(PairInput::Missed, PairInput::Harvest));
        }
        self.quanta += 1;
        let quantum = self
            .runner
            .run_quantum_with_injector(&mut self.machine, &mut self.session, &mut self.injector)
            .expect("audit harvest");
        Ok(match quantum.bus.expect("bus is audited") {
            Harvest::Missed => {
                self.last_clean = self.session.harvest_bus_histogram(quantum.boundary).ok();
                PairInput::Missed
            }
            harvest => PairInput::Harvest(harvest),
        })
    }
}

/// The fleet-side actuator: a shard owns it, so it must be `Send`, and the
/// single-threaded machine is not — it only records. Accepted rung changes
/// queue up for [`DrillRig::actuate`], which maps them onto the machine
/// before the next quantum runs; a control write rejected there reaches
/// the ladder as a residual reading (see [`step`]). Refusals in `refuse`
/// model a wedged firmware interface — the policy must escalate past
/// them, never silently no-op. Clones share one log.
#[derive(Clone, Default)]
struct MachineEnforcer(Arc<Mutex<EnforcerLog>>);

#[derive(Default)]
struct EnforcerLog {
    refuse: Vec<MitigationLevel>,
    refusals_served: u64,
    applied: Vec<MitigationLevel>,
    released: Vec<MitigationLevel>,
    /// Accepted changes not yet actuated: `(rung, engage)`.
    pending: Vec<(MitigationLevel, bool)>,
}

impl MachineEnforcer {
    /// An enforcer refusing `refuse`, installed as shard 0's backend.
    fn install(fleet: &mut ShardedFleet, refuse: Vec<MitigationLevel>) -> Self {
        let enforcer = MachineEnforcer::default();
        enforcer.log().refuse = refuse;
        let backend = Box::new(enforcer.clone());
        fleet.set_enforcer(0, backend).expect("shard 0 exists");
        enforcer
    }

    fn log(&self) -> MutexGuard<'_, EnforcerLog> {
        self.0.lock().expect("enforcer log")
    }
}

impl MitigationEnforcer for MachineEnforcer {
    fn apply(&mut self, _pair: usize, level: MitigationLevel) -> Result<(), ApplyError> {
        let mut log = self.log();
        if log.refuse.contains(&level) {
            log.refusals_served += 1;
            let reason = format!("injected: firmware rejected {level} control write");
            return Err(ApplyError { reason });
        }
        log.applied.push(level);
        log.pending.push((level, true));
        Ok(())
    }

    fn release(&mut self, _pair: usize, level: MitigationLevel) -> Result<(), ApplyError> {
        let mut log = self.log();
        log.released.push(level);
        log.pending.push((level, false));
        Ok(())
    }
}

/// One fleet tick against the rig, then the accepted rung changes land on
/// the machine. A rung the hardware rejected leaves the channel at its
/// unmitigated baseline and is reported so: a residual above the cap
/// escalates the ladder on the next tick. Returns the tick's number.
fn step(fleet: &mut ShardedFleet, rig: &mut DrillRig, enforcer: &MachineEnforcer) -> u64 {
    let tick = fleet.tick(rig).tick;
    if rig.actuate(enforcer).is_err() {
        fleet
            .report_residual(0, 1.0, 0.0)
            .expect("the rig pair is hosted");
    }
    tick
}

fn rig_fleet_config(convict_streak: u32) -> ShardedFleetConfig {
    let base = SupervisorConfig {
        hunter: CcHunterConfig {
            quantum_cycles: QUANTUM,
            delta_t: DeltaTPolicy::Fixed(100_000),
            ..CcHunterConfig::default()
        },
        deadline_us: 0,
        checkpoint_every: 10,
        quarantine: QuarantineConfig {
            failure_window: 6,
            trip_threshold: 0.9,
            min_observations: 5,
            probe_interval: 4,
            recovery_successes: 2,
            confidence_decay: 0.7,
        },
        mitigation: MitigationConfig {
            convict_streak,
            // Hold whatever rung ends up containing the channel for the
            // whole measurement window; the synthetic fleet steps down.
            step_down_streak: 1_000,
            ..MitigationConfig::default()
        },
        ..windowed(8)
    };
    fleet_config(1, base)
}

/// A rig whose channel is contained, with the fleet that contained it.
struct Contained {
    rig: DrillRig,
    fleet: ShardedFleet,
    enforcer: MachineEnforcer,
    /// The tick containment took force.
    tick: u64,
    /// The run's point of the latency-vs-leak curve, as JSON.
    point: String,
}

/// Drives a fresh rig under a fleet (checkpointing under `store_root`,
/// when given) until containment is in force; the `what` row gates the
/// 40-quanta bound.
fn contain(
    r: &mut Report,
    what: &str,
    convict_streak: u32,
    refuse: Vec<MitigationLevel>,
    store_root: Option<&Path>,
    fault_seed: u64,
) -> Result<Contained, Stopped> {
    let mut rig = DrillRig::new(fault_seed);
    let config = rig_fleet_config(convict_streak);
    let mut fleet = match store_root {
        Some(root) => ShardedFleet::with_store_root(config, root),
        None => ShardedFleet::new(config),
    }
    .expect("valid fleet config");
    let enforcer = MachineEnforcer::install(&mut fleet, refuse);
    fleet.add_contention_pair(RIG_PAIR).expect("valid pair");

    let (mut conviction, mut contained) = (None, None);
    while contained.is_none() && fleet.tick_count() < MAX_CONTAIN_TICKS {
        let tick = step(&mut fleet, &mut rig, &enforcer);
        let containment = fleet.containment(0).expect("pair 0 exists");
        if containment.is_active() {
            conviction.get_or_insert(tick);
        }
        if matches!(containment, ContainmentState::Contained { .. }) {
            contained = Some(tick);
        }
    }
    let check = format!("{what}: contained within {MAX_CONTAIN_TICKS} quanta");
    r.gate(&check, contained.is_some(), fleet.containment(0))?;
    let (conviction, tick) = (conviction.unwrap_or(0), contained.unwrap_or(0));
    let latency = fleet
        .containment_latency_ticks(0)
        .expect("recorded once a rung holds");
    let bits = rig.bits_transmitted();
    let leaked = (rig.goodput_between(0, bits) * bits as f64).round();
    let point = format!(
        "{{ \"convict_streak\": {convict_streak}, \"conviction_tick\": {conviction}, \
         \"containment_tick\": {tick}, \"latency_ticks\": {latency}, \"latency_cycles\": {}, \
         \"bits_transmitted\": {bits}, \"bits_leaked\": {leaked} }}",
        latency * QUANTUM
    );
    Ok(Contained {
        rig,
        fleet,
        enforcer,
        tick,
        point,
    })
}

/// Closed-loop containment of the live simulated bus channel (10 kbps
/// nominal at 2.5 GHz): an unmitigated baseline; conviction and
/// containment past an injected refusal of the first rung; the residual
/// loop, escalating until the leak is down ≥ 90%; a kill and restore that
/// containment survives and re-asserts; a synthetic pair stepping down
/// once its leak closes; and the latency-vs-leak sweep over the
/// conviction threshold (one point quick, four full).
fn mitigation(quick: bool, r: &mut Report) -> Result<(), Stopped> {
    // Quanta of the baseline and of each residual measurement window.
    let window_quanta: u64 = if quick { 8 } else { 12 };
    let sweep_streaks: &[u32] = if quick { &[2] } else { &[1, 2, 3, 4] };

    // Phase A: unmitigated baseline.
    let mut baseline_rig = DrillRig::new(0xD11_0000);
    for _ in 0..window_quanta {
        let _ = baseline_rig.probe(0, 0, 0);
    }
    let base_goodput = baseline_rig.goodput_between(0, baseline_rig.bits_transmitted());
    let baseline_bps = base_goodput * NOMINAL_BPS;
    let baseline_benign_rate = baseline_rig.benign_ops.get() as f64 / window_quanta as f64;
    r.check("baseline goodput > 0.5", base_goodput > 0.5, base_goodput);
    r.metric("baseline_goodput", format!("{base_goodput:.4}"));
    r.metric("baseline_bps", format!("{baseline_bps:.1}"));

    // Phase B: conviction + containment with an injected refusal.
    let store = temp_root("mitigation");
    let refuse = vec![MitigationLevel::FlushOnSwitch];
    let mut run = contain(r, "containment", 2, refuse, Some(&store), 0xD11_0001)?;
    let level = |fleet: &ShardedFleet| fleet.containment(0).and_then(|c| c.level());
    let contained = level(&run.fleet).expect("containment holds a rung");
    let refusals = run.enforcer.log().refusals_served;
    r.at_least("containment: refusals served", refusals, 1);
    let applied = run.enforcer.log().applied.clone();
    let flush = applied.contains(&MitigationLevel::FlushOnSwitch);
    r.check("containment: refused rung unapplied", !flush, applied);
    let temporal = MitigationLevel::TemporalPartition.rank();
    r.at_least("containment: rung rank", contained.rank(), temporal);
    let escalations = run.fleet.metrics_snapshot().mitigation_escalations;
    r.at_least("containment: escalations", escalations, 1);

    // Phase C: the closed residual loop. Re-measure the leak under the
    // rung in force, report it back, and let the policy escalate while
    // the reading stays above the cap.
    let probe = ResidualProbe::new(baseline_bps, baseline_benign_rate).expect("valid baseline");
    let mut trajectory = Vec::new();
    let reading = loop {
        let rung = level(&run.fleet).expect("containment stays active");
        let (bits_lo, benign_lo) = (run.rig.bits_transmitted(), run.rig.benign_ops.get());
        for _ in 0..window_quanta {
            step(&mut run.fleet, &mut run.rig, &run.enforcer);
        }
        let goodput = run.rig.goodput_between(bits_lo, run.rig.bits_transmitted());
        let benign_rate = (run.rig.benign_ops.get() - benign_lo) as f64 / window_quanta as f64;
        let reading = probe.reading(goodput * NOMINAL_BPS, benign_rate, run.fleet.tick_count());
        let (residual, overhead) = (reading.residual_fraction, reading.overhead_fraction);
        run.fleet
            .report_residual(0, residual, overhead)
            .expect("residual report accepted");
        trajectory.push(format!(
            "{{ \"level\": \"{rung}\", \"goodput\": {goodput:.4}, \
             \"fraction_of_baseline\": {residual:.4}, \"benign_overhead_fraction\": {overhead:.4} }}"
        ));
        if residual <= 0.1 {
            break reading;
        }
        let (windows, rungs) = (trajectory.len(), MitigationLevel::LADDER.len());
        r.gate("residual: windows <= rungs", windows <= rungs, windows)?;
        // One transition tick: the policy sees the over-cap reading and
        // escalates, so the next window measures the stronger rung.
        step(&mut run.fleet, &mut run.rig, &run.enforcer);
    };
    r.at_most("residual: of baseline", reading.residual_fraction, 0.1);
    let escalations = run.fleet.metrics_snapshot().mitigation_escalations as usize;
    let windows = trajectory.len();
    let escalated = windows <= 1 || escalations >= windows;
    r.check("residual: escalated", escalated, (escalations, windows));
    r.metric("first_contained_level", json_str(&contained.to_string()));
    r.metric("containment", &run.point);
    let drop_percent = (1.0 - reading.residual_fraction) * 100.0;
    r.metric("residual_drop_percent", format!("{drop_percent:.1}"));
    r.metric("trajectory", format!("[{}]", trajectory.join(", ")));

    // Phase D: the audit service dies; containment must survive.
    let generation = run.fleet.checkpoint().expect("checkpoint written")[0].1;
    let before = run.fleet.containment(0).expect("pair exists");
    let latency_before = run.fleet.containment_latency_ticks(0);
    r.ticks += run.fleet.tick_count();
    drop(run.fleet);
    let mut restored = ShardedFleet::with_store_root(rig_fleet_config(2), &store).expect("reopens");
    restored.add_contention_pair(RIG_PAIR).expect("valid pair");
    let after = restored.containment(0);
    r.equals("restore: containment", after, Some(before));
    let latency = restored.containment_latency_ticks(0);
    r.equals("restore: latency", latency, latency_before);
    // A restarted service cannot trust the hardware state it inherited:
    // the first tick must re-assert the rung through the enforcer.
    let fresh = MachineEnforcer::install(&mut restored, Vec::new());
    step(&mut restored, &mut run.rig, &fresh);
    r.ticks += 1;
    let reasserted = before.level().expect("containment is active at the crash");
    let applied = fresh.log().applied.clone();
    let asserted = applied.contains(&reasserted);
    r.check("restore: rung re-asserted", asserted, applied);
    r.metric("restore_generation", generation);
    let _ = std::fs::remove_dir_all(&store);

    // Phase E: the ladder steps down when the leak closes. The pair is
    // synthetic, so the enforcer actuates an idle spare machine: only the
    // apply/release bookkeeping matters here.
    let base = SupervisorConfig {
        deadline_us: 0,
        mitigation: MitigationConfig {
            convict_streak: 2,
            step_down_streak: 2,
            ..MitigationConfig::default()
        },
        ..windowed(8)
    };
    let mut fleet = ShardedFleet::new(fleet_config(1, base)).expect("valid step-down config");
    let label = "divider: synthetic step-down pair";
    fleet.add_contention_pair(label).expect("valid pair");
    let mut spare = DrillRig::new(0xD11_0002);
    let advisory = MachineEnforcer::install(&mut fleet, Vec::new());
    let active = |fleet: &ShardedFleet| fleet.containment(0).is_some_and(|c| c.is_active());
    while !active(&fleet) && fleet.tick_count() < 30 {
        fleet.tick(&mut synthetic(1));
        spare.actuate(&advisory).expect("spare takes every rung");
    }
    let convicted = active(&fleet);
    r.gate("step-down: convicted by 30", convicted, fleet.tick_count())?;
    let mut quiet = |_p: usize, tick: u64, _a: u32| {
        Ok::<_, ProbeFault>(PairInput::Harvest(Harvest::Complete(quiet_histogram(tick))))
    };
    let mut quiet_ticks = 0u64;
    while active(&fleet) && quiet_ticks < 60 {
        fleet.report_residual(0, 0.02, 0.01).expect("pair 0 hosted");
        fleet.tick(&mut quiet);
        spare.actuate(&advisory).expect("spare takes every rung");
        quiet_ticks += 1;
    }
    let stepped = !active(&fleet);
    r.gate("step-down: inactive by 60", stepped, fleet.containment(0))?;
    let step_downs = fleet.metrics_snapshot().mitigation_stepdowns;
    r.at_least("step-down: step-downs", step_downs, 1);
    let released = advisory.log().released.clone();
    let flush = released.contains(&MitigationLevel::FlushOnSwitch);
    r.check("step-down: final rung released", flush, released);
    r.metric("stepdown_quiet_quanta", quiet_ticks);
    r.ticks += fleet.tick_count();

    // Phase F: latency-vs-leak sweep over the conviction threshold. One
    // fault seed for every point: the runs differ only in the threshold.
    let (mut points, mut containment_ticks) = (Vec::new(), Vec::new());
    for &streak in sweep_streaks {
        let what = format!("sweep convict_streak {streak}");
        let run = contain(r, &what, streak, Vec::new(), None, 0xD11_0100)?;
        r.ticks += run.fleet.tick_count();
        containment_ticks.push(run.tick);
        points.push(run.point);
    }
    let monotone = containment_ticks.windows(2).all(|w| w[1] >= w[0]);
    r.check("sweep: containment ascends", monotone, containment_ticks);
    r.metric("latency_vs_leak", format!("[{}]", points.join(", ")));
    Ok(())
}
