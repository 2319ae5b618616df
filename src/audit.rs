//! Wiring between the simulator's probe events and the CC-auditor: the
//! "event signals wired from the hardware units" of paper §V-A, plus the
//! per-quantum harvesting loop of the software daemon (§V-B).

use cchunter_detector::auditor::{
    AuditorConfig, AuditorError, CcAuditor, ConflictRecord, HardwareUnit, Privilege, SlotId,
};
use cchunter_detector::conflict::{
    ConflictClass, GenerationTracker, IdealLruTracker, MissClassifier,
};
use cchunter_detector::density::DensityHistogram;
use cchunter_detector::metrics::{default_registry, Counter, Family};
use cchunter_detector::span;
use cchunter_detector::{DetectorError, FaultInjector, Harvest};
use cchunter_sim::{CacheLevel, Machine, ProbeEvent, ProbeSink};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::OnceLock;

/// OS time quanta simulated through [`QuantumRunner`].
fn sim_quanta_total() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        default_registry().counter(
            "cchunter_sim_quanta_total",
            "OS time quanta simulated through the quantum runner.",
        )
    })
}

/// Engine events dispatched by audited machines, summed per quantum.
fn sim_events_total() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        default_registry().counter(
            "cchunter_sim_events_total",
            "Engine events dispatched by audited machines.",
        )
    })
}

/// Per-unit harvests taken at quantum boundaries.
fn sim_harvests_total() -> &'static Family<Counter> {
    static F: OnceLock<Family<Counter>> = OnceLock::new();
    F.get_or_init(|| {
        default_registry().counter_family(
            "cchunter_sim_harvests_total",
            "Harvests taken at quantum boundaries, by audited unit.",
            "unit",
        )
    })
}

/// Which conflict-miss tracker implementation the cache audit uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrackerKind {
    /// The paper's practical generation-bit + Bloom-filter tracker.
    #[default]
    Practical,
    /// The fully-associative LRU-stack oracle (for fidelity comparisons).
    Ideal,
}

struct CacheAudit {
    slot: SlotId,
    core: u8,
    tracker: Box<dyn MissClassifier>,
    /// The most recent L2 miss: `(block, was_conflict)`.
    last_miss: Option<(u64, bool)>,
    conflict_misses: u64,
    total_misses: u64,
}

struct Inner {
    auditor: CcAuditor,
    bus_slot: Option<SlotId>,
    divider_slot: Option<(SlotId, u8)>,
    multiplier_slot: Option<(SlotId, u8)>,
    cache: Option<CacheAudit>,
    smt_per_core: u8,
    /// Stable principal id per hardware context. The OS tracks thread
    /// migration across context switches (paper §V-A), so the daemon can
    /// keep labeling conflicts by *software principal* even when the
    /// trojan or spy lands on a different hardware context.
    principals: [u8; 8],
    /// Probe deliveries the auditor refused (e.g. a time-travelling event
    /// from a buggy or hostile probe source). The probe path cannot
    /// return errors, so refusals are counted and the last one stashed
    /// instead of panicking inside the event loop.
    probe_faults: u64,
    last_probe_fault: Option<AuditorError>,
}

impl Inner {
    /// Records an auditor refusal instead of unwinding: the hardware
    /// would drop a malformed signal on the floor, and the daemon reads
    /// the fault back at the next harvest.
    fn note_fault(&mut self, error: AuditorError) {
        self.probe_faults += 1;
        self.last_probe_fault = Some(error);
    }

    fn on_event(&mut self, event: &ProbeEvent) {
        match *event {
            ProbeEvent::BusLock { cycle, .. } => {
                if let Some(slot) = self.bus_slot {
                    if let Err(error) = self.auditor.signal(slot, cycle.as_u64(), 1) {
                        self.note_fault(error);
                    }
                }
            }
            ProbeEvent::DividerWait {
                start,
                cycles,
                waiter,
                ..
            } => {
                if let Some((slot, core)) = self.divider_slot {
                    if waiter.core() == core {
                        let weight = cycles.min(u32::MAX as u64) as u32;
                        if let Err(error) = self.auditor.signal(slot, start.as_u64(), weight) {
                            self.note_fault(error);
                        }
                    }
                }
            }
            ProbeEvent::MultiplierWait {
                start,
                cycles,
                waiter,
                ..
            } => {
                if let Some((slot, core)) = self.multiplier_slot {
                    if waiter.core() == core {
                        let weight = cycles.min(u32::MAX as u64) as u32;
                        if let Err(error) = self.auditor.signal(slot, start.as_u64(), weight) {
                            self.note_fault(error);
                        }
                    }
                }
            }
            ProbeEvent::CacheAccess {
                level: CacheLevel::L2,
                core,
                block,
                hit,
                ..
            } => {
                if let Some(cache) = self.cache.as_mut() {
                    if cache.core == core {
                        if hit {
                            cache.tracker.record_access(block);
                            cache.last_miss = None;
                        } else {
                            let class = cache.tracker.classify_miss(block);
                            cache.tracker.record_access(block);
                            cache.total_misses += 1;
                            let is_conflict = class == ConflictClass::Conflict;
                            if is_conflict {
                                cache.conflict_misses += 1;
                            }
                            cache.last_miss = Some((block, is_conflict));
                        }
                    }
                }
            }
            ProbeEvent::CacheReplacement {
                level: CacheLevel::L2,
                core,
                cycle,
                replacer,
                new_block,
                victim_block,
                victim_owner,
                ..
            } => {
                if let Some(cache) = self.cache.as_mut() {
                    if cache.core == core {
                        cache.tracker.record_replacement(victim_block);
                        if let Some((miss_block, true)) = cache.last_miss {
                            if miss_block == new_block {
                                let smt = self.smt_per_core;
                                let slot = cache.slot;
                                let replacer = self.principals[replacer.index(smt) as usize];
                                let victim = self.principals[victim_owner.index(smt) as usize];
                                if let Err(error) = self.auditor.record_conflict(
                                    slot,
                                    cycle.as_u64(),
                                    replacer,
                                    victim,
                                ) {
                                    self.note_fault(error);
                                }
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

impl ProbeSink for Inner {
    fn on_event(&mut self, event: &ProbeEvent) {
        Inner::on_event(self, event);
    }
}

/// An audit session: programs up to two hardware units on the CC-auditor,
/// attaches to a [`Machine`] as a probe, and exposes the daemon-side
/// harvest operations.
pub struct AuditSession {
    inner: Rc<RefCell<Inner>>,
}

impl std::fmt::Debug for AuditSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("AuditSession")
            .field("units", &inner.auditor.audited_units())
            .finish()
    }
}

impl Default for AuditSession {
    fn default() -> Self {
        Self::new()
    }
}

impl AuditSession {
    /// Creates a session with the default auditor sizing for a 4-core,
    /// 2-SMT machine.
    pub fn new() -> Self {
        Self::with_config(AuditorConfig::default(), 2)
    }

    /// Creates a session with explicit auditor sizing and SMT width.
    pub fn with_config(config: AuditorConfig, smt_per_core: u8) -> Self {
        AuditSession {
            inner: Rc::new(RefCell::new(Inner {
                auditor: CcAuditor::new(config),
                bus_slot: None,
                divider_slot: None,
                multiplier_slot: None,
                cache: None,
                smt_per_core,
                principals: [0, 1, 2, 3, 4, 5, 6, 7],
                probe_faults: 0,
                last_probe_fault: None,
            })),
        }
    }

    /// Probe deliveries the auditor refused so far (a healthy session
    /// reports 0; a nonzero count means a probe source emitted events the
    /// hardware contract rejects, e.g. non-monotonic times).
    pub fn probe_fault_count(&self) -> u64 {
        self.inner.borrow().probe_faults
    }

    /// Takes the most recent refused probe delivery, if any, as a typed
    /// error — the daemon-side readback for faults that happen inside the
    /// event loop, where nothing can be returned. The count from
    /// [`AuditSession::probe_fault_count`] is not reset.
    pub fn take_probe_fault(&self) -> Option<DetectorError> {
        self.inner
            .borrow_mut()
            .last_probe_fault
            .take()
            .map(DetectorError::from)
    }

    /// Programs the memory bus for auditing with the given Δt.
    ///
    /// # Errors
    ///
    /// Propagates [`AuditorError`] (e.g. both slots taken).
    pub fn audit_bus(&mut self, delta_t: u64) -> Result<(), AuditorError> {
        let mut inner = self.inner.borrow_mut();
        let slot =
            inner
                .auditor
                .program(HardwareUnit::MemoryBus, delta_t, Privilege::Supervisor)?;
        inner.bus_slot = Some(slot);
        Ok(())
    }

    /// Programs `core`'s divider bank for auditing with the given Δt.
    ///
    /// # Errors
    ///
    /// Propagates [`AuditorError`].
    pub fn audit_divider(&mut self, core: u8, delta_t: u64) -> Result<(), AuditorError> {
        let mut inner = self.inner.borrow_mut();
        let slot = inner.auditor.program(
            HardwareUnit::IntegerDivider { core },
            delta_t,
            Privilege::Supervisor,
        )?;
        inner.divider_slot = Some((slot, core));
        Ok(())
    }

    /// Programs `core`'s multiplier bank for auditing with the given Δt.
    ///
    /// # Errors
    ///
    /// Propagates [`AuditorError`].
    pub fn audit_multiplier(&mut self, core: u8, delta_t: u64) -> Result<(), AuditorError> {
        let mut inner = self.inner.borrow_mut();
        let slot = inner.auditor.program(
            HardwareUnit::IntegerMultiplier { core },
            delta_t,
            Privilege::Supervisor,
        )?;
        inner.multiplier_slot = Some((slot, core));
        Ok(())
    }

    /// Programs `core`'s shared L2 for auditing. `total_blocks` sizes the
    /// conflict-miss tracker (4096 for the paper's 256 KB L2).
    ///
    /// # Errors
    ///
    /// Returns [`AuditorError::CacheTooSmall`] if the tracker cannot be
    /// sized for `total_blocks` (fewer than 4 for the practical tracker,
    /// 0 for the ideal one); otherwise propagates [`AuditorError`].
    pub fn audit_cache(
        &mut self,
        core: u8,
        total_blocks: usize,
        tracker: TrackerKind,
    ) -> Result<(), AuditorError> {
        let tracker: Result<Box<dyn MissClassifier>, _> = match tracker {
            TrackerKind::Practical => {
                GenerationTracker::for_cache(total_blocks).map(|t| Box::new(t) as _)
            }
            TrackerKind::Ideal => IdealLruTracker::new(total_blocks).map(|t| Box::new(t) as _),
        };
        let tracker = tracker.map_err(|_| AuditorError::CacheTooSmall)?;
        let mut inner = self.inner.borrow_mut();
        let slot =
            inner
                .auditor
                .program(HardwareUnit::SharedCache { core }, 0, Privilege::Supervisor)?;
        inner.cache = Some(CacheAudit {
            slot,
            core,
            tracker,
            last_miss: None,
            conflict_misses: 0,
            total_misses: 0,
        });
        Ok(())
    }

    /// Attaches this session's probe to a machine. Call once per machine,
    /// before running.
    pub fn attach(&self, machine: &mut Machine) {
        machine.attach_probe(self.inner.clone());
    }

    /// Harvests the bus histogram buffer, finalizing windows through
    /// `until`.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::NotAudited`] if the bus is not under audit.
    pub fn harvest_bus_histogram(&self, until: u64) -> Result<DensityHistogram, DetectorError> {
        let mut inner = self.inner.borrow_mut();
        let slot = inner
            .bus_slot
            .ok_or(DetectorError::NotAudited { unit: "memory-bus" })?;
        Ok(inner.auditor.harvest_histogram(slot, until)?)
    }

    /// Harvests the bus as a [`Harvest`], carrying the auditor's own
    /// saturation-based degradation estimate.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::NotAudited`] if the bus is not under audit.
    pub fn harvest_bus(&self, until: u64) -> Result<Harvest, DetectorError> {
        let mut inner = self.inner.borrow_mut();
        let slot = inner
            .bus_slot
            .ok_or(DetectorError::NotAudited { unit: "memory-bus" })?;
        Ok(inner.auditor.harvest(slot, until)?)
    }

    /// Harvests the divider histogram buffer, finalizing windows through
    /// `until`.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::NotAudited`] if no divider is under audit.
    pub fn harvest_divider_histogram(&self, until: u64) -> Result<DensityHistogram, DetectorError> {
        let mut inner = self.inner.borrow_mut();
        let (slot, _) = inner.divider_slot.ok_or(DetectorError::NotAudited {
            unit: "integer-divider",
        })?;
        Ok(inner.auditor.harvest_histogram(slot, until)?)
    }

    /// Harvests the divider as a [`Harvest`], carrying the auditor's own
    /// saturation-based degradation estimate.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::NotAudited`] if no divider is under audit.
    pub fn harvest_divider(&self, until: u64) -> Result<Harvest, DetectorError> {
        let mut inner = self.inner.borrow_mut();
        let (slot, _) = inner.divider_slot.ok_or(DetectorError::NotAudited {
            unit: "integer-divider",
        })?;
        Ok(inner.auditor.harvest(slot, until)?)
    }

    /// Harvests the multiplier histogram buffer, finalizing windows through
    /// `until`.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::NotAudited`] if no multiplier is under
    /// audit.
    pub fn harvest_multiplier_histogram(
        &self,
        until: u64,
    ) -> Result<DensityHistogram, DetectorError> {
        let mut inner = self.inner.borrow_mut();
        let (slot, _) = inner.multiplier_slot.ok_or(DetectorError::NotAudited {
            unit: "integer-multiplier",
        })?;
        Ok(inner.auditor.harvest_histogram(slot, until)?)
    }

    /// Harvests the multiplier as a [`Harvest`], carrying the auditor's own
    /// saturation-based degradation estimate.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::NotAudited`] if no multiplier is under
    /// audit.
    pub fn harvest_multiplier(&self, until: u64) -> Result<Harvest, DetectorError> {
        let mut inner = self.inner.borrow_mut();
        let (slot, _) = inner.multiplier_slot.ok_or(DetectorError::NotAudited {
            unit: "integer-multiplier",
        })?;
        Ok(inner.auditor.harvest(slot, until)?)
    }

    /// Drains all recorded conflict-miss records.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::NotAudited`] if no cache is under audit.
    pub fn drain_conflicts(&self) -> Result<Vec<ConflictRecord>, DetectorError> {
        let mut inner = self.inner.borrow_mut();
        let slot = inner
            .cache
            .as_ref()
            .ok_or(DetectorError::NotAudited {
                unit: "shared-cache",
            })?
            .slot;
        Ok(inner.auditor.drain_conflicts(slot)?)
    }

    /// Updates the stable principal id attributed to a hardware context.
    /// The OS calls this when it migrates a monitored thread, so the
    /// conflict labels keep identifying the same software principals
    /// (paper §V-A: "we can identify trojan/spy pairs correctly despite
    /// their migration").
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] if `ctx_index` is not a
    /// valid 3-bit context index.
    pub fn set_principal(&self, ctx_index: u8, principal: u8) -> Result<(), DetectorError> {
        let mut inner = self.inner.borrow_mut();
        let slot = inner
            .principals
            .get_mut(ctx_index as usize)
            .ok_or_else(|| DetectorError::InvalidConfig {
                reason: format!("context index {ctx_index} exceeds the 3-bit context space"),
            })?;
        *slot = principal;
        Ok(())
    }

    /// `(conflict misses, total misses)` seen by the cache audit so far.
    pub fn cache_miss_counts(&self) -> (u64, u64) {
        let inner = self.inner.borrow();
        inner
            .cache
            .as_ref()
            .map(|c| (c.conflict_misses, c.total_misses))
            .unwrap_or((0, 0))
    }
}

/// Data harvested over an audited run.
#[derive(Debug, Default)]
pub struct AuditData {
    /// Per-quantum bus-lock density histograms (empty when the bus was not
    /// audited).
    pub bus_histograms: Vec<DensityHistogram>,
    /// Per-quantum divider-wait density histograms.
    pub divider_histograms: Vec<DensityHistogram>,
    /// Per-quantum multiplier-wait density histograms.
    pub multiplier_histograms: Vec<DensityHistogram>,
    /// All conflict-miss records in time order.
    pub conflicts: Vec<ConflictRecord>,
    /// First cycle of the run.
    pub start: u64,
    /// First cycle after the run.
    pub end: u64,
}

/// Runs a machine quantum by quantum, harvesting the CC-auditor at every
/// quantum boundary — the software daemon's loop.
#[derive(Debug, Clone, Copy)]
pub struct QuantumRunner {
    quantum_cycles: u64,
}

impl QuantumRunner {
    /// Creates a runner with the given OS time quantum.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] if `quantum_cycles` is
    /// zero (the machine could never reach a quantum boundary).
    pub fn new(quantum_cycles: u64) -> Result<Self, DetectorError> {
        if quantum_cycles == 0 {
            return Err(DetectorError::InvalidConfig {
                reason: "OS time quantum must be nonzero".to_string(),
            });
        }
        Ok(QuantumRunner { quantum_cycles })
    }

    /// Runs `quanta` OS time quanta from the machine's current time,
    /// harvesting the session's programmed units at each boundary.
    ///
    /// # Errors
    ///
    /// Propagates harvest failures ([`DetectorError`]) from the session;
    /// on error, the machine stays wherever the failing quantum left it.
    pub fn run(
        &self,
        machine: &mut Machine,
        session: &mut AuditSession,
        quanta: usize,
    ) -> Result<AuditData, DetectorError> {
        let start = machine.now().as_u64();
        let mut data = AuditData {
            start,
            ..AuditData::default()
        };
        let (has_bus, has_div, has_mul, has_cache) = {
            let inner = session.inner.borrow();
            (
                inner.bus_slot.is_some(),
                inner.divider_slot.is_some(),
                inner.multiplier_slot.is_some(),
                inner.cache.is_some(),
            )
        };
        for q in 0..quanta {
            let boundary = start + (q as u64 + 1) * self.quantum_cycles;
            let events_before = machine.stats().events_dispatched;
            let mut quantum_span = span::global().span("sim", "quantum");
            machine.run_until(boundary.into());
            if has_bus {
                data.bus_histograms
                    .push(session.harvest_bus_histogram(boundary)?);
                sim_harvests_total().with_label("bus").inc();
            }
            if has_div {
                data.divider_histograms
                    .push(session.harvest_divider_histogram(boundary)?);
                sim_harvests_total().with_label("divider").inc();
            }
            if has_mul {
                data.multiplier_histograms
                    .push(session.harvest_multiplier_histogram(boundary)?);
                sim_harvests_total().with_label("multiplier").inc();
            }
            if has_cache {
                data.conflicts.extend(session.drain_conflicts()?);
                sim_harvests_total().with_label("cache").inc();
            }
            let events = machine.stats().events_dispatched - events_before;
            sim_quanta_total().inc();
            sim_events_total().inc_by(events);
            if span::global().is_enabled() {
                quantum_span.cycle(boundary);
                quantum_span.detail(format_args!("quantum {q}: {events} engine events"));
            }
        }
        data.end = machine.now().as_u64();
        Ok(data)
    }

    /// Runs `quanta` OS time quanta like [`QuantumRunner::run`], but routes
    /// every harvest through a [`FaultInjector`] that models a degraded
    /// collection path. The result carries [`Harvest`] values (which may be
    /// `Partial` or `Missed`) instead of bare histograms, and per-quantum
    /// conflict batches annotated with their estimated lost fraction —
    /// ready to feed the gap-aware online detectors.
    ///
    /// # Errors
    ///
    /// Propagates harvest failures ([`DetectorError`]) from the session.
    pub fn run_with_injector(
        &self,
        machine: &mut Machine,
        session: &mut AuditSession,
        quanta: usize,
        injector: &mut FaultInjector,
    ) -> Result<DegradedAuditData, DetectorError> {
        let start = machine.now().as_u64();
        let mut data = DegradedAuditData {
            start,
            ..DegradedAuditData::default()
        };
        for _ in 0..quanta {
            let quantum = self.run_quantum_with_injector(machine, session, injector)?;
            if let Some(h) = quantum.bus {
                data.bus_harvests.push(h);
            }
            if let Some(h) = quantum.divider {
                data.divider_harvests.push(h);
            }
            if let Some(h) = quantum.multiplier {
                data.multiplier_harvests.push(h);
            }
            if let Some(batch) = quantum.conflicts {
                data.conflicts.push(batch);
            }
        }
        data.end = machine.now().as_u64();
        Ok(data)
    }

    /// Runs exactly one OS time quantum through the fault injector and
    /// returns its harvests — the incremental step a supervised service
    /// loop takes between checkpoints, so callers can stop (or crash and
    /// restore) at any quantum boundary instead of committing to a whole
    /// run up front.
    ///
    /// # Errors
    ///
    /// Propagates harvest failures ([`DetectorError`]) from the session.
    pub fn run_quantum_with_injector(
        &self,
        machine: &mut Machine,
        session: &mut AuditSession,
        injector: &mut FaultInjector,
    ) -> Result<DegradedQuantum, DetectorError> {
        let (has_bus, has_div, has_mul, has_cache) = {
            let inner = session.inner.borrow();
            (
                inner.bus_slot.is_some(),
                inner.divider_slot.is_some(),
                inner.multiplier_slot.is_some(),
                inner.cache.is_some(),
            )
        };
        let boundary = machine.now().as_u64() + self.quantum_cycles;
        let events_before = machine.stats().events_dispatched;
        let mut quantum_span = span::global().span("sim", "quantum");
        machine.run_until(boundary.into());
        let mut quantum = DegradedQuantum {
            boundary,
            ..DegradedQuantum::default()
        };
        if has_bus {
            let histogram = session.harvest_bus_histogram(boundary)?;
            quantum.bus = Some(injector.perturb_harvest(histogram));
            sim_harvests_total().with_label("bus").inc();
        }
        if has_div {
            let histogram = session.harvest_divider_histogram(boundary)?;
            quantum.divider = Some(injector.perturb_harvest(histogram));
            sim_harvests_total().with_label("divider").inc();
        }
        if has_mul {
            let histogram = session.harvest_multiplier_histogram(boundary)?;
            quantum.multiplier = Some(injector.perturb_harvest(histogram));
            sim_harvests_total().with_label("multiplier").inc();
        }
        if has_cache {
            let records = session.drain_conflicts()?;
            quantum.conflicts = Some(injector.perturb_conflicts(records));
            sim_harvests_total().with_label("cache").inc();
        }
        let events = machine.stats().events_dispatched - events_before;
        sim_quanta_total().inc();
        sim_events_total().inc_by(events);
        if span::global().is_enabled() {
            quantum_span.cycle(boundary);
            quantum_span.detail(format_args!("boundary {boundary}: {events} engine events"));
        }
        Ok(quantum)
    }
}

/// One quantum's degraded harvests from
/// [`QuantumRunner::run_quantum_with_injector`]. A field is `None` when
/// the corresponding unit is not under audit.
#[derive(Debug, Default)]
pub struct DegradedQuantum {
    /// Bus-lock harvest, possibly `Partial` or `Missed`.
    pub bus: Option<Harvest>,
    /// Divider-wait harvest.
    pub divider: Option<Harvest>,
    /// Multiplier-wait harvest.
    pub multiplier: Option<Harvest>,
    /// Conflict records with their estimated lost fraction.
    pub conflicts: Option<(Vec<ConflictRecord>, f64)>,
    /// The cycle this quantum ended on.
    pub boundary: u64,
}

/// Data harvested over an audited run through a [`FaultInjector`].
///
/// Unlike [`AuditData`], per-quantum results are [`Harvest`] values: a
/// quantum whose histogram was dropped appears as [`Harvest::Missed`], and
/// a damaged one as [`Harvest::Partial`] with its estimated lost fraction.
#[derive(Debug, Default)]
pub struct DegradedAuditData {
    /// Per-quantum bus-lock harvests (empty when the bus was not audited).
    pub bus_harvests: Vec<Harvest>,
    /// Per-quantum divider-wait harvests.
    pub divider_harvests: Vec<Harvest>,
    /// Per-quantum multiplier-wait harvests.
    pub multiplier_harvests: Vec<Harvest>,
    /// Per-quantum conflict-record batches with their estimated lost
    /// fraction after fault injection.
    pub conflicts: Vec<(Vec<ConflictRecord>, f64)>,
    /// First cycle of the run.
    pub start: u64,
    /// First cycle after the run.
    pub end: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cchunter_sim::{MachineConfig, Op, OpScript};

    fn machine() -> Machine {
        Machine::new(
            MachineConfig::builder()
                .quantum_cycles(100_000)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn bus_audit_counts_locks() {
        let mut m = machine();
        let mut session = AuditSession::new();
        session.audit_bus(10_000).unwrap();
        session.attach(&mut m);
        let ctx = m.config().context_id(0, 0);
        m.spawn(
            Box::new(OpScript::new(
                "locker",
                vec![
                    Op::AtomicUnaligned { addr: 0x40 },
                    Op::AtomicUnaligned { addr: 0x40 },
                ],
            )),
            ctx,
        );
        let data = QuantumRunner::new(100_000)
            .expect("nonzero quantum")
            .run(&mut m, &mut session, 1)
            .expect("audit harvest");
        assert_eq!(data.bus_histograms.len(), 1);
        let h = &data.bus_histograms[0];
        assert_eq!(h.contended_windows(), 1, "both locks land in one window");
        assert_eq!(h.frequency(2), 1);
    }

    #[test]
    fn divider_audit_only_counts_its_core() {
        let mut m = machine();
        let mut session = AuditSession::new();
        session.audit_divider(0, 500).unwrap();
        session.attach(&mut m);
        // Contention on core 1: must not be counted.
        m.spawn(
            Box::new(OpScript::new("d1", vec![Op::Div { count: 50 }])),
            m.config().context_id(1, 0),
        );
        m.spawn(
            Box::new(OpScript::new("d2", vec![Op::Div { count: 50 }])),
            m.config().context_id(1, 1),
        );
        let data = QuantumRunner::new(100_000)
            .expect("nonzero quantum")
            .run(&mut m, &mut session, 1)
            .expect("audit harvest");
        assert_eq!(data.divider_histograms[0].contended_windows(), 0);
    }

    #[test]
    fn cache_audit_records_cross_context_conflicts() {
        let mut m = machine();
        let mut session = AuditSession::new();
        session
            .audit_cache(
                0,
                m.config().l2.total_blocks() as usize,
                TrackerKind::Practical,
            )
            .unwrap();
        session.attach(&mut m);
        // Two hyperthreads ping-pong 9 lines in one L2 set (8-way): every
        // round-trip evicts the other's line.
        let set_stride = 512 * 64;
        let mk_ops = |base: u64| -> Vec<Op> {
            let mut ops = Vec::new();
            for round in 0..20u64 {
                for i in 0..5u64 {
                    ops.push(Op::Load {
                        addr: base + ((round * 5 + i) % 9) * set_stride,
                    });
                }
                ops.push(Op::Compute { cycles: 100 });
            }
            ops
        };
        m.spawn(
            Box::new(OpScript::new("a", mk_ops(0x100_0000))),
            m.config().context_id(0, 0),
        );
        m.spawn(
            Box::new(OpScript::new("b", mk_ops(0x100_0000 + 9 * set_stride))),
            m.config().context_id(0, 1),
        );
        let data = QuantumRunner::new(100_000)
            .expect("nonzero quantum")
            .run(&mut m, &mut session, 1)
            .expect("audit harvest");
        let (conflicts, total) = session.cache_miss_counts();
        assert!(total > 0);
        assert!(conflicts > 0, "ping-pong must classify as conflict misses");
        assert!(!data.conflicts.is_empty());
    }

    #[test]
    fn two_audits_max() {
        let mut session = AuditSession::new();
        session.audit_bus(1_000).unwrap();
        session.audit_divider(0, 500).unwrap();
        let err = session
            .audit_cache(0, 4096, TrackerKind::Practical)
            .unwrap_err();
        assert_eq!(err, AuditorError::SlotsExhausted);
    }

    #[test]
    fn undersized_cache_audit_is_refused_without_taking_a_slot() {
        let mut session = AuditSession::new();
        for (blocks, kind) in [(3, TrackerKind::Practical), (0, TrackerKind::Ideal)] {
            let err = session.audit_cache(0, blocks, kind).unwrap_err();
            assert_eq!(err, AuditorError::CacheTooSmall);
        }
        session.audit_bus(1_000).unwrap();
        session.audit_divider(0, 500).unwrap();
    }

    #[test]
    fn harvest_without_audit_is_typed_error() {
        let session = AuditSession::new();
        assert!(matches!(
            session.harvest_bus_histogram(1_000),
            Err(DetectorError::NotAudited { unit: "memory-bus" })
        ));
        assert!(matches!(
            session.harvest_divider(1_000),
            Err(DetectorError::NotAudited {
                unit: "integer-divider"
            })
        ));
        assert!(matches!(
            session.drain_conflicts(),
            Err(DetectorError::NotAudited {
                unit: "shared-cache"
            })
        ));
    }

    #[test]
    fn zero_quantum_is_typed_error() {
        assert!(matches!(
            QuantumRunner::new(0),
            Err(DetectorError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn refused_probe_deliveries_are_counted_and_read_back() {
        let session = AuditSession::new();
        assert_eq!(session.probe_fault_count(), 0);
        assert!(session.take_probe_fault().is_none());
        // The event loop cannot return errors, so a refusal lands in the
        // session-side fault stash instead of unwinding.
        session
            .inner
            .borrow_mut()
            .note_fault(AuditorError::WrongDatapath);
        assert_eq!(session.probe_fault_count(), 1);
        assert!(matches!(
            session.take_probe_fault(),
            Some(DetectorError::Auditor(AuditorError::WrongDatapath))
        ));
        // The stash is take-once; the count keeps the history.
        assert!(session.take_probe_fault().is_none());
        assert_eq!(session.probe_fault_count(), 1);
    }

    #[test]
    fn set_principal_rejects_out_of_range_context() {
        let session = AuditSession::new();
        session.set_principal(7, 3).unwrap();
        assert!(matches!(
            session.set_principal(8, 0),
            Err(DetectorError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn injector_runner_yields_complete_harvests_when_fault_free() {
        use cchunter_detector::FaultConfig;
        let mut m = machine();
        let mut session = AuditSession::new();
        session.audit_bus(1_000).unwrap();
        session.attach(&mut m);
        let mut injector = FaultInjector::new(FaultConfig::none(), 1);
        let data = QuantumRunner::new(50_000)
            .expect("nonzero quantum")
            .run_with_injector(&mut m, &mut session, 4, &mut injector)
            .expect("audit harvest");
        assert_eq!(data.bus_harvests.len(), 4);
        assert!(data
            .bus_harvests
            .iter()
            .all(|h| matches!(h, Harvest::Complete(_))));
        assert_eq!(data.end - data.start, 200_000);
    }

    #[test]
    fn injector_runner_drops_quanta_at_full_drop_rate() {
        use cchunter_detector::{FaultClass, FaultConfig};
        let mut m = machine();
        let mut session = AuditSession::new();
        session.audit_bus(1_000).unwrap();
        session.attach(&mut m);
        let config = FaultConfig::none().with_rate(FaultClass::DroppedQuantum, 1.0);
        let mut injector = FaultInjector::new(config, 1);
        let data = QuantumRunner::new(50_000)
            .expect("nonzero quantum")
            .run_with_injector(&mut m, &mut session, 4, &mut injector)
            .expect("audit harvest");
        assert!(data
            .bus_harvests
            .iter()
            .all(|h| matches!(h, Harvest::Missed)));
        assert_eq!(injector.injected(FaultClass::DroppedQuantum), 4);
    }

    #[test]
    fn quantum_runner_advances_time() {
        let mut m = machine();
        let mut session = AuditSession::new();
        session.audit_bus(1_000).unwrap();
        session.attach(&mut m);
        let data = QuantumRunner::new(50_000)
            .expect("nonzero quantum")
            .run(&mut m, &mut session, 4)
            .expect("audit harvest");
        assert_eq!(m.now().as_u64(), 200_000);
        assert_eq!(data.bus_histograms.len(), 4);
        assert_eq!(data.end - data.start, 200_000);
    }
}
