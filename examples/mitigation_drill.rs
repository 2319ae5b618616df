//! Closed-loop mitigation drill: convict a live simulated bus channel,
//! contain it through the escalation ladder (with an injected enforcement
//! refusal), re-measure the residual leak and the benign overhead, survive
//! a kill-and-restore of the audit service, and step back down once the
//! leak closes.
//!
//! The headline artifact is `mitigation_drill.json`: detection-to-
//! containment latency versus bits leaked, swept over the conviction
//! threshold, plus the residual-bandwidth drop the applied rung achieved.
//!
//! ```sh
//! cargo run --release --example mitigation_drill
//! CCHUNTER_MITIGATION_QUICK=1 cargo run --release --example mitigation_drill
//! ```

use std::cell::{Cell, RefCell};
use std::path::Path;
use std::rc::Rc;
use std::sync::{Arc, Mutex, MutexGuard};

use cc_hunter::audit::{AuditSession, QuantumRunner};
use cc_hunter::channels::{
    BitClock, BusChannelConfig, BusSpy, BusTrojan, DecodeRule, Message, SpyLog, SpyLogHandle,
};
use cc_hunter::detector::density::{DensityHistogram, HISTOGRAM_BINS};
use cc_hunter::detector::mitigation::{
    goodput_fraction, ApplyError, ContainmentState, MitigationConfig, MitigationEnforcer,
    MitigationLevel, ResidualProbe,
};
use cc_hunter::detector::online::Harvest;
use cc_hunter::detector::policy::QuarantineConfig;
use cc_hunter::detector::shard::{FleetTickReport, ShardedFleet, ShardedFleetConfig};
use cc_hunter::detector::supervisor::{PairInput, ProbeFault, ProbeSource, SupervisorConfig};
use cc_hunter::detector::{CcHunterConfig, DeltaTPolicy};
use cc_hunter::sim::{ContextId, FnProgram, Machine, MachineConfig, Op};
use cc_hunter::{FaultClass, FaultConfig, FaultInjector};

const QUANTUM: u64 = 2_500_000;
const BIT_CYCLES: u64 = 250_000;
/// The paper's evaluation platform runs at 2.5 GHz.
const CLOCK_HZ: f64 = 2.5e9;
const NOMINAL_BPS: f64 = CLOCK_HZ / BIT_CYCLES as f64;
/// Long enough that no drill phase runs the trojan out of message.
const MESSAGE_BITS: usize = 800;
const MAX_CONTAIN_TICKS: u64 = 40;

fn quick_mode() -> bool {
    std::env::var("CCHUNTER_MITIGATION_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// One simulated machine carrying the bus covert channel (trojan on core 0,
/// spy on core 1) and a benign streaming co-runner on core 2 whose issue
/// rate measures mitigation collateral.
struct DrillRig {
    machine: Rc<RefCell<Machine>>,
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
        let clock = BitClock::new(0, BIT_CYCLES);
        let channel = BusChannelConfig::new(sent.clone(), clock);
        let log: SpyLogHandle = SpyLog::new_handle();
        machine.spawn(
            Box::new(BusTrojan::new(channel.clone(), 0x1000_0000)),
            trojan_ctx,
        );
        machine.spawn(
            Box::new(BusSpy::new(channel, 0x4000_0000, log.clone())),
            spy_ctx,
        );

        // Benign co-runner: a streaming reader whose issued-op count is the
        // drill's collateral-damage meter.
        let benign_ops = Rc::new(Cell::new(0u64));
        let counter = benign_ops.clone();
        let mut cursor = 0u64;
        machine.spawn(
            Box::new(FnProgram::new("benign-stream", move |_v| {
                counter.set(counter.get() + 1);
                cursor = cursor.wrapping_add(1);
                if cursor.is_multiple_of(4) {
                    Op::Compute { cycles: 400 }
                } else {
                    Op::Load {
                        addr: 0x7000_0000 + (cursor % 65_536) * 64,
                    }
                }
            })),
            benign_ctx,
        );

        let mut session = AuditSession::new();
        session.audit_bus(100_000).expect("bus audit");
        session.attach(&mut machine);

        DrillRig {
            machine: Rc::new(RefCell::new(machine)),
            session,
            runner: QuantumRunner::new(QUANTUM).expect("nonzero quantum"),
            injector: FaultInjector::new(
                FaultConfig::only(FaultClass::DroppedQuantum)
                    .with_rate(FaultClass::DroppedQuantum, 0.10),
                fault_seed,
            ),
            log,
            sent,
            benign_ops,
            trojan_ctx,
            spy_ctx,
            quanta: 0,
            last_clean: None,
        }
    }

    /// Probe-source body for the fleet: advance one quantum and hand
    /// back the bus harvest, with the re-read retry path of
    /// `supervised_audit`.
    fn probe(&mut self, attempt: u32) -> PairInput {
        if attempt > 0 {
            if let Some(h) = self.last_clean.take() {
                return PairInput::Harvest(Harvest::Complete(h));
            }
            return PairInput::Missed;
        }
        self.quanta += 1;
        let quantum = self
            .runner
            .run_quantum_with_injector(
                &mut self.machine.borrow_mut(),
                &mut self.session,
                &mut self.injector,
            )
            .expect("audit harvest");
        match quantum.bus.expect("bus is audited") {
            Harvest::Missed => {
                self.last_clean = self.session.harvest_bus_histogram(quantum.boundary).ok();
                PairInput::Missed
            }
            harvest => PairInput::Harvest(harvest),
        }
    }

    /// Message bits whose transmission window has fully elapsed.
    fn bits_transmitted(&self) -> usize {
        ((self.quanta * QUANTUM / BIT_CYCLES) as usize).min(MESSAGE_BITS)
    }

    /// Correct-bit count and goodput fraction over decoded bits
    /// `[lo, hi)`, judged against the sent message.
    fn goodput_between(&self, lo: usize, hi: usize) -> (usize, f64) {
        let decoded = self.log.borrow().decode(DecodeRule::Midpoint, MESSAGE_BITS);
        let correct = (lo..hi)
            .filter(|&i| decoded.bit(i) == self.sent.bit(i))
            .count();
        (correct, goodput_fraction(correct, hi - lo))
    }

    /// Carries the rung changes `enforcer` accepted during the last tick
    /// out onto the machine's scheduler and cache-hardware controls.
    /// Returns the reason of a control write the hardware rejected.
    fn actuate(&self, enforcer: &MachineEnforcer) -> Result<(), String> {
        let pending = std::mem::take(&mut enforcer.log().pending);
        let mut m = self.machine.borrow_mut();
        let mut rejected = Ok(());
        for (level, engage) in pending {
            match (level, engage) {
                (MitigationLevel::FlushOnSwitch, on) => m.set_flush_on_switch(on),
                (MitigationLevel::TemporalPartition, true) => {
                    m.set_temporal_phase(self.trojan_ctx, Some(0));
                    m.set_temporal_phase(self.spy_ctx, Some(1));
                }
                (MitigationLevel::TemporalPartition, false) => {
                    m.set_temporal_phase(self.trojan_ctx, None);
                    m.set_temporal_phase(self.spy_ctx, None);
                }
                (MitigationLevel::WayPartition, true) => {
                    let write = m
                        .set_l2_way_mask(self.trojan_ctx, 0x0F)
                        .and_then(|()| m.set_l2_way_mask(self.spy_ctx, 0xF0));
                    if write.is_err() {
                        rejected = write;
                    }
                }
                (MitigationLevel::WayPartition, false) => {
                    m.clear_l2_way_mask(self.trojan_ctx);
                    m.clear_l2_way_mask(self.spy_ctx);
                }
                (MitigationLevel::Deschedule, true) => m.park_context(self.trojan_ctx),
                (MitigationLevel::Deschedule, false) => m.resume_context(self.trojan_ctx),
            }
        }
        rejected
    }
}

/// Adapter presenting one rig as the supervisor's probe source for pair 0.
struct RigSource<'a>(&'a mut DrillRig);

impl ProbeSource for RigSource<'_> {
    fn probe(&mut self, _pair: usize, _tick: u64, attempt: u32) -> Result<PairInput, ProbeFault> {
        Ok(self.0.probe(attempt))
    }
}

/// The fleet-side actuator: a shard owns it, so it must be `Send`, and the
/// single-threaded machine is not — it only records. Accepted rung changes
/// queue up for [`DrillRig::actuate`], which maps them onto the machine's
/// scheduler and cache-hardware controls before the next quantum runs; a
/// control write rejected there reaches the ladder as a residual reading
/// (see [`step`]). Refusals in `refuse` model a wedged firmware interface
/// — the policy must escalate past them, never silently no-op. Clones
/// share one log.
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
    fn new(refuse: Vec<MitigationLevel>) -> Self {
        let enforcer = MachineEnforcer::default();
        enforcer.log().refuse = refuse;
        enforcer
    }

    fn log(&self) -> MutexGuard<'_, EnforcerLog> {
        self.0.lock().expect("enforcer log")
    }

    /// Makes this enforcer shard 0's actuation backend.
    fn install(&self, fleet: &mut ShardedFleet) {
        fleet
            .set_enforcer(0, Box::new(self.clone()))
            .expect("shard 0 exists");
    }
}

impl MitigationEnforcer for MachineEnforcer {
    fn apply(&mut self, _pair: usize, level: MitigationLevel) -> Result<(), ApplyError> {
        let mut log = self.log();
        if log.refuse.contains(&level) {
            log.refusals_served += 1;
            return Err(ApplyError {
                reason: format!("injected: firmware rejected {level} control write"),
            });
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
/// unmitigated baseline, and is reported so: a residual above the cap
/// escalates the ladder on the next tick.
fn step(
    fleet: &mut ShardedFleet,
    rig: &mut DrillRig,
    enforcer: &MachineEnforcer,
) -> FleetTickReport {
    let report = fleet.tick(&mut RigSource(rig));
    if let Err(reason) = rig.actuate(enforcer) {
        println!("  control write rejected: {reason}");
        fleet
            .report_residual(0, 1.0, 0.0)
            .expect("the rig pair is hosted");
    }
    report
}

fn one_shard(base: SupervisorConfig) -> ShardedFleetConfig {
    ShardedFleetConfig {
        shards: 1,
        base,
        ..ShardedFleetConfig::default()
    }
}

fn rig_fleet_config(convict_streak: u32) -> ShardedFleetConfig {
    one_shard(SupervisorConfig {
        hunter: CcHunterConfig {
            quantum_cycles: QUANTUM,
            delta_t: DeltaTPolicy::Fixed(100_000),
            ..CcHunterConfig::default()
        },
        window_quanta: 8,
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
            // whole measurement window; the step-down path is exercised by
            // the synthetic fleet below.
            step_down_streak: 1_000,
            ..MitigationConfig::default()
        },
        ..SupervisorConfig::default()
    })
}

const RIG_PAIR: &str = "memory-bus: trojan core 0 <-> spy core 1";

/// Outcome of one conviction run against a fresh rig.
struct ContainRun {
    rig: DrillRig,
    fleet: ShardedFleet,
    enforcer: MachineEnforcer,
    conviction_tick: u64,
    containment_tick: u64,
    latency_ticks: u64,
    bits_leaked: usize,
    bits_before_containment: usize,
}

/// Drives a fresh rig under a fleet (checkpointing under `store_root`,
/// when given) until containment is in force, returning the
/// latency/leakage point for the headline curve.
fn run_until_contained(
    convict_streak: u32,
    refuse: Vec<MitigationLevel>,
    store_root: Option<&Path>,
    fault_seed: u64,
) -> ContainRun {
    let mut rig = DrillRig::new(fault_seed);
    let enforcer = MachineEnforcer::new(refuse);
    let config = rig_fleet_config(convict_streak);
    let mut fleet = match store_root {
        Some(root) => ShardedFleet::with_store_root(config, root),
        None => ShardedFleet::new(config),
    }
    .expect("valid fleet config");
    enforcer.install(&mut fleet);
    fleet.add_contention_pair(RIG_PAIR).expect("valid pair");

    let mut conviction_tick = None;
    let (containment_tick, latency_ticks) = loop {
        assert!(
            fleet.tick_count() < MAX_CONTAIN_TICKS,
            "channel must be contained within {MAX_CONTAIN_TICKS} quanta \
             (convict_streak {convict_streak}); containment: {:?}",
            fleet.containment(0)
        );
        let report = step(&mut fleet, &mut rig, &enforcer);
        let containment = fleet.containment(0).expect("pair 0 exists");
        if conviction_tick.is_none() && containment.is_active() {
            conviction_tick = Some(report.tick);
        }
        if matches!(containment, ContainmentState::Contained { .. }) {
            break (
                report.tick,
                fleet
                    .containment_latency_ticks(0)
                    .expect("containment latency is recorded once a rung holds"),
            );
        }
    };

    let bits_before_containment = rig.bits_transmitted();
    let (_, goodput) = rig.goodput_between(0, bits_before_containment);
    let bits_leaked = (goodput * bits_before_containment as f64).round() as usize;
    ContainRun {
        rig,
        fleet,
        enforcer,
        conviction_tick: conviction_tick.expect("conviction precedes containment"),
        containment_tick,
        latency_ticks,
        bits_leaked,
        bits_before_containment,
    }
}

/// A covert-looking synthetic histogram for the step-down fleet.
fn covert_histogram(tick: u64) -> DensityHistogram {
    let mut bins = vec![0u64; HISTOGRAM_BINS];
    bins[0] = 2_400 + (tick % 7) * 3;
    bins[19] = 20;
    bins[20] = 150 + (tick % 5);
    bins[21] = 25;
    DensityHistogram::from_bins(bins, 100_000).expect("valid bins")
}

/// A benign synthetic histogram.
fn quiet_histogram(tick: u64) -> DensityHistogram {
    let mut bins = vec![0u64; HISTOGRAM_BINS];
    bins[0] = 2_490 + (tick % 9);
    bins[1] = 5;
    DensityHistogram::from_bins(bins, 100_000).expect("valid bins")
}

fn main() {
    let quick = quick_mode();
    let baseline_quanta: u64 = if quick { 8 } else { 12 };
    let residual_quanta: u64 = if quick { 8 } else { 12 };
    let sweep_streaks: &[u32] = if quick { &[2] } else { &[1, 2, 3, 4] };
    let started = std::time::Instant::now();

    println!(
        "mitigation drill ({} mode): bus channel at {NOMINAL_BPS:.0} bps nominal",
        if quick { "quick" } else { "full" }
    );

    // --- Phase A: unmitigated baseline. -----------------------------------
    let mut baseline_rig = DrillRig::new(0xD11_0000);
    for _ in 0..baseline_quanta {
        let _ = baseline_rig.probe(0);
    }
    let baseline_bits = baseline_rig.bits_transmitted();
    let (_, baseline_goodput) = baseline_rig.goodput_between(0, baseline_bits);
    let baseline_bps = baseline_goodput * NOMINAL_BPS;
    let baseline_benign_rate = baseline_rig.benign_ops.get() as f64 / baseline_quanta as f64;
    println!(
        "baseline: goodput {baseline_goodput:.3} over {baseline_bits} bits \
         -> {baseline_bps:.0} bps; benign {baseline_benign_rate:.0} ops/quantum"
    );
    assert!(
        baseline_goodput > 0.5,
        "unmitigated channel must decode well, got goodput {baseline_goodput:.3}"
    );

    // --- Phase B: conviction + containment with an injected refusal. ------
    let store_dir =
        std::env::temp_dir().join(format!("cchunter-mitigation-drill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut run = run_until_contained(
        2,
        vec![MitigationLevel::FlushOnSwitch],
        Some(&store_dir),
        0xD11_0001,
    );
    let contained_level = run
        .fleet
        .containment(0)
        .and_then(|c| c.level())
        .expect("containment holds a rung");
    println!(
        "contained: convicted at tick {}, rung `{contained_level}` in force at tick {} \
         (latency {} ticks); {} injected refusal(s) forced {} escalation(s)",
        run.conviction_tick,
        run.containment_tick,
        run.latency_ticks,
        run.enforcer.log().refusals_served,
        run.fleet.metrics_snapshot().mitigation_escalations,
    );
    assert!(
        run.enforcer.log().refusals_served > 0,
        "the injected first-rung refusal must have been exercised"
    );
    assert!(
        !run.enforcer
            .log()
            .applied
            .contains(&MitigationLevel::FlushOnSwitch),
        "a refused rung must never be recorded as applied"
    );
    assert!(
        contained_level.rank() >= MitigationLevel::TemporalPartition.rank(),
        "refusing flush-on-switch must escalate to a stronger rung, got {contained_level}"
    );
    assert!(
        run.fleet.metrics_snapshot().mitigation_escalations >= 1,
        "escalation must be visible in metrics"
    );

    // --- Phase C: the closed residual loop. -------------------------------
    // Re-measure the leak under the rung in force, report it back, and let
    // the policy escalate whenever the reading stays above the cap — until
    // the residual bandwidth is down >= 90% from the unmitigated baseline.
    let probe = ResidualProbe::new(baseline_bps, baseline_benign_rate).expect("valid baseline");
    let mut trajectory: Vec<(MitigationLevel, f64, f64, f64)> = Vec::new();
    let final_reading = loop {
        let level = run
            .fleet
            .containment(0)
            .and_then(|c| c.level())
            .expect("containment stays active through the residual loop");
        let bits_lo = run.rig.bits_transmitted();
        let benign_lo = run.rig.benign_ops.get();
        for _ in 0..residual_quanta {
            step(&mut run.fleet, &mut run.rig, &run.enforcer);
        }
        let (_, window_goodput) = run.rig.goodput_between(bits_lo, run.rig.bits_transmitted());
        let window_bps = window_goodput * NOMINAL_BPS;
        let benign_rate = (run.rig.benign_ops.get() - benign_lo) as f64 / residual_quanta as f64;
        let reading = probe.reading(window_bps, benign_rate, run.fleet.tick_count());
        run.fleet
            .report_residual(0, reading.residual_fraction, reading.overhead_fraction)
            .expect("residual report accepted");
        println!(
            "residual under `{level}`: goodput {window_goodput:.3} -> {window_bps:.0} bps \
             ({:.1}% of baseline); benign overhead {:.1}%",
            reading.residual_fraction * 100.0,
            reading.overhead_fraction * 100.0,
        );
        trajectory.push((
            level,
            window_goodput,
            reading.residual_fraction,
            reading.overhead_fraction,
        ));
        if reading.residual_fraction <= 0.1 {
            break reading;
        }
        assert!(
            trajectory.len() <= MitigationLevel::LADDER.len(),
            "the ladder must close the leak before it runs out of rungs: {trajectory:?}"
        );
        // One transition tick: the policy sees the over-cap reading and
        // escalates, so the next window measures the stronger rung.
        step(&mut run.fleet, &mut run.rig, &run.enforcer);
    };
    let drop_percent = (1.0 - final_reading.residual_fraction) * 100.0;
    let residual_windows = trajectory.len() as u64;
    assert!(
        final_reading.residual_fraction <= 0.1,
        "containment must cut the leak by >= 90%, residual fraction {:.3}",
        final_reading.residual_fraction
    );
    if trajectory.len() > 1 {
        assert!(
            run.fleet.metrics_snapshot().mitigation_escalations >= trajectory.len() as u64,
            "each over-cap reading must escalate the ladder"
        );
    }

    // --- Phase D: the audit service dies; containment must survive. -------
    let generation = run.fleet.checkpoint().expect("checkpoint written")[0].1;
    let containment_before = run.fleet.containment(0).expect("pair exists");
    let latency_before = run.fleet.containment_latency_ticks(0);
    drop(run.fleet);
    let mut restored =
        ShardedFleet::with_store_root(rig_fleet_config(2), &store_dir).expect("store reopens");
    restored.add_contention_pair(RIG_PAIR).expect("valid pair");
    assert_eq!(
        restored.containment(0),
        Some(containment_before),
        "containment round-trips the checkpoint"
    );
    assert_eq!(
        restored.containment_latency_ticks(0),
        latency_before,
        "containment latency round-trips the checkpoint"
    );
    // A restarted service cannot trust the hardware state it inherited:
    // the first tick must re-assert the rung through the enforcer.
    let fresh_enforcer = MachineEnforcer::new(Vec::new());
    fresh_enforcer.install(&mut restored);
    step(&mut restored, &mut run.rig, &fresh_enforcer);
    let reasserted = containment_before
        .level()
        .expect("containment is active at the crash");
    assert!(
        fresh_enforcer.log().applied.contains(&reasserted),
        "restored fleet must re-assert `{reasserted}` through the enforcer, applied: {:?}",
        fresh_enforcer.log().applied
    );
    println!(
        "restore: containment `{}` survived generation {generation} and was re-asserted",
        containment_before.name()
    );

    // --- Phase E: the ladder steps down when the leak closes. -------------
    let mut stepdown_fleet = ShardedFleet::new(one_shard(SupervisorConfig {
        window_quanta: 8,
        deadline_us: 0,
        mitigation: MitigationConfig {
            convict_streak: 2,
            step_down_streak: 2,
            ..MitigationConfig::default()
        },
        ..SupervisorConfig::default()
    }))
    .expect("valid step-down config");
    stepdown_fleet
        .add_contention_pair("divider: synthetic step-down pair")
        .expect("valid pair");
    // The step-down pair is synthetic, so the enforcer actuates an idle
    // spare machine — only the apply/release bookkeeping matters here.
    let dummy_rig = DrillRig::new(0xD11_0002);
    let advisory = MachineEnforcer::new(Vec::new());
    advisory.install(&mut stepdown_fleet);
    let mut covert_source = |_p: usize, tick: u64, _a: u32| {
        Ok::<_, ProbeFault>(PairInput::Harvest(Harvest::Complete(covert_histogram(
            tick,
        ))))
    };
    while !stepdown_fleet
        .containment(0)
        .expect("pair exists")
        .is_active()
    {
        assert!(stepdown_fleet.tick_count() < 30, "synthetic pair convicts");
        stepdown_fleet.tick(&mut covert_source);
        dummy_rig
            .actuate(&advisory)
            .expect("the spare machine takes every rung");
    }
    let mut quiet_source = |_p: usize, tick: u64, _a: u32| {
        Ok::<_, ProbeFault>(PairInput::Harvest(Harvest::Complete(quiet_histogram(tick))))
    };
    let mut stepdown_ticks = 0u64;
    while stepdown_fleet
        .containment(0)
        .expect("pair exists")
        .is_active()
    {
        assert!(
            stepdown_ticks < 60,
            "quiet pair must step all the way down, stuck at {:?}",
            stepdown_fleet.containment(0)
        );
        stepdown_fleet
            .report_residual(0, 0.02, 0.01)
            .expect("residual accepted");
        stepdown_fleet.tick(&mut quiet_source);
        dummy_rig
            .actuate(&advisory)
            .expect("the spare machine takes every rung");
        stepdown_ticks += 1;
    }
    let step_downs = stepdown_fleet.metrics_snapshot().mitigation_stepdowns;
    assert!(step_downs >= 1, "at least one step-down must be recorded");
    assert!(
        advisory
            .log()
            .released
            .contains(&MitigationLevel::FlushOnSwitch),
        "the final rung must be released through the enforcer"
    );
    println!(
        "step-down: synthetic pair released to inactive after {stepdown_ticks} quiet quanta \
         ({step_downs} step-down(s))"
    );

    // --- Phase F: latency-vs-leak sweep over the conviction threshold. ----
    let mut sweep = Vec::new();
    for &streak in sweep_streaks {
        // Same fault seed for every point: the runs differ only in the
        // conviction threshold, so the latency curve is monotone by
        // construction.
        let point = run_until_contained(streak, Vec::new(), None, 0xD11_0100);
        println!(
            "sweep: convict_streak {streak} -> contained at tick {} \
             (latency {} ticks), ~{} bits leaked of {} transmitted",
            point.containment_tick,
            point.latency_ticks,
            point.bits_leaked,
            point.bits_before_containment,
        );
        sweep.push((streak, point));
    }
    // More patience before conviction can only leak more bits.
    for pair in sweep.windows(2) {
        assert!(
            pair[1].1.containment_tick >= pair[0].1.containment_tick,
            "a higher conviction threshold cannot contain earlier"
        );
    }

    // --- The diffable artifact. -------------------------------------------
    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|(streak, p)| {
            format!(
                "    {{ \"convict_streak\": {streak}, \"conviction_tick\": {}, \
                 \"containment_tick\": {}, \"latency_ticks\": {}, \"latency_cycles\": {}, \
                 \"bits_transmitted\": {}, \"bits_leaked\": {} }}",
                p.conviction_tick,
                p.containment_tick,
                p.latency_ticks,
                p.latency_ticks * QUANTUM,
                p.bits_before_containment,
                p.bits_leaked,
            )
        })
        .collect();
    let trajectory_json: Vec<String> = trajectory
        .iter()
        .map(|(level, goodput, fraction, overhead)| {
            format!(
                "      {{ \"level\": \"{level}\", \"goodput\": {goodput:.4}, \
                 \"fraction_of_baseline\": {fraction:.4}, \
                 \"benign_overhead_fraction\": {overhead:.4} }}"
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"quick\": {quick},\n  \"elapsed_ms\": {},\n  \"clock_hz\": {CLOCK_HZ},\n  \
         \"nominal_bps\": {NOMINAL_BPS},\n  \"baseline\": {{\n    \"quanta\": {baseline_quanta},\n    \
         \"goodput\": {baseline_goodput:.4},\n    \"bandwidth_bps\": {baseline_bps:.1},\n    \
         \"benign_ops_per_quantum\": {baseline_benign_rate:.1}\n  }},\n  \"containment\": {{\n    \
         \"convict_streak\": 2,\n    \"injected_refusals\": {},\n    \
         \"first_contained_level\": \"{contained_level}\",\n    \"final_level\": \"{reasserted}\",\n    \
         \"conviction_tick\": {},\n    \"containment_tick\": {},\n    \"latency_ticks\": {},\n    \
         \"bits_leaked_before_containment\": {},\n    \"residual\": {{\n      \
         \"window_quanta\": {residual_quanta},\n      \"windows\": {residual_windows},\n      \
         \"fraction_of_baseline\": {:.4},\n      \"drop_percent\": {drop_percent:.1},\n      \
         \"benign_overhead_fraction\": {:.4},\n      \"trajectory\": [\n{}\n      ]\n    }}\n  }},\n  \
         \"restore\": {{\n    \"generation\": {generation},\n    \"containment_preserved\": true,\n    \
         \"reasserted_level\": \"{reasserted}\"\n  }},\n  \"step_down\": {{\n    \
         \"quiet_quanta\": {stepdown_ticks},\n    \"step_downs\": {step_downs},\n    \
         \"released_to_inactive\": true\n  }},\n  \"latency_vs_leak\": [\n{}\n  ]\n}}\n",
        started.elapsed().as_millis(),
        run.enforcer.log().refusals_served,
        run.conviction_tick,
        run.containment_tick,
        run.latency_ticks,
        run.bits_leaked,
        final_reading.residual_fraction,
        final_reading.overhead_fraction,
        trajectory_json.join(",\n"),
        sweep_json.join(",\n"),
    );
    std::fs::write("mitigation_drill.json", &json).expect("summary written");
    let _ = std::fs::remove_dir_all(&store_dir);
    println!();
    println!("summary written to mitigation_drill.json");
}
