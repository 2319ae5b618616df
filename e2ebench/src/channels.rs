//! Simulated machines under audit: each runs one of the paper's covert
//! channels and is stepped one quantum per fleet tick inside the probe
//! callback, so the simulator and the audit glue (probe sink, conflict
//! labelling, harvest) are part of the measured tick. `churn_1k` audits two
//! of them: the bus channel and the L2 cache channel.

use crate::harness::ProbeCx;
use crate::inputs;
use cc_hunter::audit::{AuditSession, TrackerKind};
use cc_hunter::channels::{
    BitClock, BusChannelConfig, BusSpy, BusTrojan, CacheChannelConfig, CacheSpy, CacheTrojan,
    Message, SpyLog,
};
use cc_hunter::detector::supervisor::{PairInput, ProbeFault};
use cc_hunter::detector::DetectorError;
use cc_hunter::sim::{Machine, MachineConfig};
use cc_hunter::workloads::noise::spawn_standard_noise;
use rand::rngs::SmallRng;

/// Scheduler quantum of every simulated machine, and the cycles it
/// advances per fleet tick (1 ms at 2.5 GHz).
const QUANTUM: u64 = 2_500_000;
/// Bit time of the bus channel (ten bits per quantum).
const BUS_BIT: u64 = 250_000;
/// Bit time of the cache channel: four bits per quantum, so one quantum's
/// conflict train spans several oscillation periods (one period ≈ the sets
/// the channel uses).
const CACHE_BIT: u64 = QUANTUM / 4;
/// Sets the cache channel uses.
const CACHE_SETS: u32 = 64;

/// An audited hardware unit. The discriminants key the seeded input
/// streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// The memory bus (bus-lock density).
    Bus = 0,
    /// Core 0's shared L2 (conflict-miss oscillation).
    Cache = 2,
}

/// One audited machine, stepped one quantum per probe.
pub struct SimPair {
    machine: Machine,
    session: AuditSession,
    unit: Unit,
    /// End of the last simulated quantum.
    now: u64,
}

fn fault(e: DetectorError) -> ProbeFault {
    ProbeFault {
        reason: e.to_string(),
    }
}

impl SimPair {
    /// Probe deliveries the auditor refused.
    pub fn probe_faults(&self) -> u64 {
        self.session.probe_fault_count()
    }

    /// `(conflict misses, total misses)` of a cache audit, else zeros.
    pub fn cache_miss_counts(&self) -> (u64, u64) {
        if self.unit == Unit::Cache {
            self.session.cache_miss_counts()
        } else {
            (0, 0)
        }
    }

    /// Simulates the next quantum and harvests the audited unit: the probe
    /// of this machine's pair.
    ///
    /// # Errors
    ///
    /// A [`ProbeFault`] when the harvest fails.
    pub fn step(&mut self, attempt: u32, cx: ProbeCx<'_>) -> Result<PairInput, ProbeFault> {
        if attempt > 0 {
            // The quantum was already simulated and harvested; a retry
            // has nothing new to read.
            return Ok(PairInput::Missed);
        }
        let boundary = self.now + QUANTUM;
        let events_before = self.machine.stats().events_dispatched;
        let span = cx.spans.open("sim.run");
        self.machine.run_until(boundary.into());
        cx.spans.close(span);
        self.now = boundary;
        cx.layers.sim_quanta += 1;
        cx.layers.sim_events += self.machine.stats().events_dispatched - events_before;

        let span = cx.spans.open("audit.harvest");
        let input = match self.unit {
            Unit::Bus => self.session.harvest_bus(boundary).map(PairInput::Harvest),
            Unit::Cache => self.session.drain_conflicts().map(|records| {
                cx.layers.cache_quanta += 1;
                cx.layers.conflicts += records.len() as u64;
                PairInput::Conflicts {
                    records,
                    lost_fraction: 0.0,
                }
            }),
        };
        cx.spans.close(span);
        input.map_err(fault)
    }
}

/// A message of `bits` bits: a fixed alternating preamble of `preamble`
/// bits (the channel's synchronisation header), then random bits each
/// followed by its complement (Manchester coding). Every quantum carries
/// the same number of ones whatever the seed, and the preamble makes the
/// first quanta identical, so the seed changes the bits but neither the
/// load nor the tick of first conviction.
fn message(rng: &mut SmallRng, bits: u64, preamble: u64) -> Message {
    let payload = Message::random(rng, bits.saturating_sub(preamble).div_ceil(2) as usize);
    let header = (0..preamble).map(|i| i % 2 == 0);
    let coded = payload.bits().iter().flat_map(|&b| [b, !b]);
    Message::from_bits(header.chain(coded).collect())
}

/// A machine running the paper's covert channel on `unit` beside the
/// standard background noise, audited on `unit` and transmitting a random
/// message long enough for `ticks` fleet ticks.
pub fn covert(unit: Unit, seed: u64, ticks: u64) -> Result<SimPair, String> {
    let mut machine = MachineConfig::builder()
        .quantum_cycles(QUANTUM)
        .build()
        .map(Machine::new)
        .map_err(|e| e.to_string())?;
    let mut rng = inputs::rng(seed, 20 + unit as u64);
    let log = SpyLog::new_handle();
    let bit = match unit {
        Unit::Bus => BUS_BIT,
        Unit::Cache => CACHE_BIT,
    };
    // The preamble spans the first four quanta.
    let message = message(&mut rng, (ticks + 2) * QUANTUM / bit, 4 * QUANTUM / bit);
    let trojan = machine.config().context_id(0, 0);
    match unit {
        Unit::Bus => {
            let spy = machine.config().context_id(1, 0);
            let config = BusChannelConfig::new(message, BitClock::new(50_000, bit));
            machine.spawn(
                Box::new(BusTrojan::new(config.clone(), 0x1000_0000)),
                trojan,
            );
            machine.spawn(Box::new(BusSpy::new(config, 0x4000_0000, log)), spy);
        }
        Unit::Cache => {
            let spy = machine.config().context_id(0, 1);
            let config =
                CacheChannelConfig::new(message, BitClock::new(1_000_000, bit), CACHE_SETS);
            machine.spawn(Box::new(CacheTrojan::new(config.clone())), trojan);
            machine.spawn(Box::new(CacheSpy::new(config, log)), spy);
        }
    }

    spawn_standard_noise(&mut machine, 0, 3, inputs::mix(seed, 30, unit as u64));
    let mut session = AuditSession::new();
    match unit {
        Unit::Bus => session.audit_bus(100_000),
        Unit::Cache => {
            let blocks = machine.config().l2.total_blocks() as usize;
            session.audit_cache(0, blocks, TrackerKind::Practical)
        }
    }
    .map_err(|e| e.to_string())?;
    session.attach(&mut machine);
    Ok(SimPair {
        machine,
        session,
        unit,
        now: 0,
    })
}
