//! The CC-auditor hardware datapath model (paper §V-A).
//!
//! The CC-auditor accumulates event signals wired from the hardware units
//! under audit:
//!
//! * two 32-bit count-down registers initialized to Δt,
//! * two 16-bit accumulators counting event occurrences within Δt,
//! * two 128-entry histogram buffers recording the event-density histogram,
//! * two alternating 128-byte vector registers recording the replacer and
//!   victim context IDs of every conflict miss (for cache audits), drained
//!   by the software daemon in the background.
//!
//! Programming the auditor is a *privileged* operation — the special
//! instruction is available to the system administrator only, and the OS
//! performs authorization checks before granting access (§V-B). At most two
//! hardware units can be audited simultaneously; the deliberate limit keeps
//! the hardware cost negligible (Table I).
//!
//! One deliberate deviation: the paper specifies 16-bit histogram buffer
//! entries, but its own divider-channel figures report bin frequencies near
//! 500,000 per 0.1 s quantum (500,000 Δt windows of 500 cycles each), which
//! a 16-bit entry cannot hold between per-quantum harvests. We default the
//! entry width to 32 bits and expose the width so the strict 16-bit
//! behaviour (with saturation) can be modeled too.

use crate::density::{DensityHistogram, HISTOGRAM_BINS};
use crate::online::Harvest;
use std::fmt;

/// A shared hardware unit the CC-auditor can monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HardwareUnit {
    /// The shared memory bus (indicator event: bus locks).
    MemoryBus,
    /// The integer divider bank of one core (indicator event: cross-context
    /// wait cycles).
    IntegerDivider {
        /// Core whose divider bank is audited.
        core: u8,
    },
    /// The integer multiplier bank of one core (indicator event:
    /// cross-context wait cycles, as for the divider).
    IntegerMultiplier {
        /// Core whose multiplier bank is audited.
        core: u8,
    },
    /// The shared cache of one core (indicator event: conflict misses with
    /// replacer/victim context IDs).
    SharedCache {
        /// Core whose cache is audited.
        core: u8,
    },
}

impl HardwareUnit {
    /// Whether this unit uses the oscillation (vector-register) datapath
    /// rather than the contention (histogram) datapath.
    pub fn is_memory_structure(&self) -> bool {
        matches!(self, HardwareUnit::SharedCache { .. })
    }
}

impl fmt::Display for HardwareUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HardwareUnit::MemoryBus => write!(f, "memory-bus"),
            HardwareUnit::IntegerDivider { core } => write!(f, "integer-divider(core{core})"),
            HardwareUnit::IntegerMultiplier { core } => {
                write!(f, "integer-multiplier(core{core})")
            }
            HardwareUnit::SharedCache { core } => write!(f, "shared-cache(core{core})"),
        }
    }
}

/// Privilege level presented when programming the auditor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Privilege {
    /// System administrator via the OS's authorized API.
    Supervisor,
    /// Unprivileged user code — rejected, preventing attackers from
    /// exploiting the system activity information (§V-B).
    User,
}

/// Errors returned by the auditor programming interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditorError {
    /// The caller is not privileged to program the auditor.
    NotPrivileged,
    /// Both audit slots are in use.
    SlotsExhausted,
    /// The slot id does not name a programmed slot.
    BadSlot,
    /// The operation does not match the slot's datapath (e.g. feeding
    /// conflict records to a contention slot).
    WrongDatapath,
    /// The unit is already under audit.
    AlreadyAudited,
    /// The audited cache has too few blocks for its conflict-miss
    /// tracker (the generation tracker needs one per generation).
    CacheTooSmall,
}

impl fmt::Display for AuditorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            AuditorError::NotPrivileged => "auditor programming requires supervisor privilege",
            AuditorError::SlotsExhausted => "both audit slots are in use",
            AuditorError::BadSlot => "no such audit slot",
            AuditorError::WrongDatapath => "operation does not match the slot's datapath",
            AuditorError::AlreadyAudited => "unit is already under audit",
            AuditorError::CacheTooSmall => "cache is too small for a conflict-miss tracker",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for AuditorError {}

/// Handle to a programmed audit slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotId(usize);

/// A conflict-miss record drained from the vector registers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConflictRecord {
    /// Cycle of the conflict miss.
    pub cycle: u64,
    /// Context that requested the cache block (3-bit ID).
    pub replacer: u8,
    /// Owner context of the evicted block (3-bit ID).
    pub victim: u8,
}

/// Hardware sizing of the auditor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditorConfig {
    /// Simultaneous audit slots (2 in the paper).
    pub max_slots: usize,
    /// Histogram buffer entry width in bits (see module docs).
    pub histogram_entry_bits: u32,
    /// Accumulator width in bits (16 in the paper).
    pub accumulator_bits: u32,
    /// Capacity of one conflict vector register in entries (128 bytes, one
    /// byte per replacer/victim pair).
    pub vector_entries: usize,
}

impl Default for AuditorConfig {
    fn default() -> Self {
        AuditorConfig {
            max_slots: 2,
            histogram_entry_bits: 32,
            accumulator_bits: 16,
            vector_entries: 128,
        }
    }
}

impl AuditorConfig {
    /// The paper's strict sizing: 16-bit histogram entries that saturate.
    pub fn paper_strict() -> Self {
        AuditorConfig {
            histogram_entry_bits: 16,
            ..AuditorConfig::default()
        }
    }
}

#[derive(Debug)]
enum SlotState {
    Contention {
        delta_t: u64,
        /// Absolute index of the window currently accumulating.
        current_window: u64,
        /// Origin cycle of window 0 (continuous across harvests).
        origin: u64,
        accumulator: u64,
        bins: Vec<u64>,
        last_signal: u64,
        /// Δt windows whose observation was lost or distorted by register
        /// saturation since the last harvest (histogram entries clamped at
        /// the entry cap, or the 16-bit accumulator topping out mid-window).
        degraded_windows: u64,
    },
    Oscillation {
        /// The active vector register being filled.
        active: Vec<ConflictRecord>,
        /// Records already handed to the software daemon's buffer.
        software_log: Vec<ConflictRecord>,
    },
}

#[derive(Debug)]
struct Slot {
    unit: HardwareUnit,
    state: SlotState,
}

/// The CC-auditor: event-signal accumulation hardware plus its privileged
/// programming interface.
///
/// ```
/// use cchunter_detector::auditor::{AuditorConfig, CcAuditor, HardwareUnit, Privilege};
/// let mut auditor = CcAuditor::new(AuditorConfig::default());
/// let slot = auditor
///     .program(HardwareUnit::MemoryBus, 100_000, Privilege::Supervisor)
///     .unwrap();
/// auditor.signal(slot, 5_000, 1).unwrap();
/// auditor.signal(slot, 6_000, 1).unwrap();
/// let histogram = auditor.harvest_histogram(slot, 1_000_000).unwrap();
/// assert_eq!(histogram.frequency(2), 1); // one window saw two locks
/// ```
#[derive(Debug)]
pub struct CcAuditor {
    config: AuditorConfig,
    slots: Vec<Slot>,
}

impl CcAuditor {
    /// Creates an auditor with the given hardware sizing.
    pub fn new(config: AuditorConfig) -> Self {
        CcAuditor {
            config,
            slots: Vec::new(),
        }
    }

    /// The hardware sizing.
    pub fn config(&self) -> &AuditorConfig {
        &self.config
    }

    /// Units currently under audit.
    pub fn audited_units(&self) -> Vec<HardwareUnit> {
        self.slots.iter().map(|s| s.unit).collect()
    }

    /// Programs a hardware unit for auditing (the privileged special
    /// instruction). For combinational units `delta_t` is the Δt window in
    /// cycles; for memory structures it is ignored.
    ///
    /// # Errors
    ///
    /// * [`AuditorError::NotPrivileged`] unless called with
    ///   [`Privilege::Supervisor`].
    /// * [`AuditorError::SlotsExhausted`] when both slots are taken.
    /// * [`AuditorError::AlreadyAudited`] if the unit already has a slot.
    pub fn program(
        &mut self,
        unit: HardwareUnit,
        delta_t: u64,
        privilege: Privilege,
    ) -> Result<SlotId, AuditorError> {
        if privilege != Privilege::Supervisor {
            return Err(AuditorError::NotPrivileged);
        }
        if self.slots.len() >= self.config.max_slots {
            return Err(AuditorError::SlotsExhausted);
        }
        if self.slots.iter().any(|s| s.unit == unit) {
            return Err(AuditorError::AlreadyAudited);
        }
        let state = if unit.is_memory_structure() {
            SlotState::Oscillation {
                active: Vec::with_capacity(self.config.vector_entries),
                software_log: Vec::new(),
            }
        } else {
            assert!(delta_t > 0, "Δt must be nonzero for contention audits");
            SlotState::Contention {
                delta_t,
                current_window: 0,
                origin: 0,
                accumulator: 0,
                bins: vec![0; HISTOGRAM_BINS],
                last_signal: 0,
                degraded_windows: 0,
            }
        };
        self.slots.push(Slot { unit, state });
        Ok(SlotId(self.slots.len() - 1))
    }

    /// Delivers an event signal from the unit under audit: a run of
    /// `weight` unit events on consecutive cycles starting at `cycle`
    /// (weight 1 for discrete events like bus locks; the stall length for
    /// divider-wait runs).
    ///
    /// Signals must arrive in nondecreasing cycle order.
    ///
    /// # Errors
    ///
    /// [`AuditorError::BadSlot`] or [`AuditorError::WrongDatapath`].
    pub fn signal(&mut self, slot: SlotId, cycle: u64, weight: u32) -> Result<(), AuditorError> {
        let entry_cap = entry_cap(self.config.histogram_entry_bits);
        let acc_cap = entry_cap_u64(self.config.accumulator_bits);
        let slot = self.slots.get_mut(slot.0).ok_or(AuditorError::BadSlot)?;
        let SlotState::Contention {
            delta_t,
            current_window,
            origin,
            accumulator,
            bins,
            last_signal,
            degraded_windows,
            ..
        } = &mut slot.state
        else {
            return Err(AuditorError::WrongDatapath);
        };
        debug_assert!(cycle >= *last_signal, "signals must be time ordered");
        *last_signal = cycle;
        let dt = *delta_t;
        let mut t = cycle;
        let mut remaining = weight.max(1) as u64;
        if weight == 0 {
            return Ok(());
        }
        while remaining > 0 {
            let w = (t - *origin) / dt;
            if w > *current_window {
                // Count-down register expired: fold the accumulator into
                // the histogram and account the empty windows in between.
                let bin = if *accumulator > 0 {
                    (*accumulator as usize).min(HISTOGRAM_BINS - 1)
                } else {
                    0
                };
                bump_bin(bins, bin, 1, entry_cap, degraded_windows);
                let empties = w - *current_window - 1;
                if empties > 0 {
                    bump_bin(bins, 0, empties, entry_cap, degraded_windows);
                }
                *current_window = w;
                *accumulator = 0;
            }
            let window_end = *origin + (w + 1) * dt;
            let take = remaining.min(window_end - t);
            let next = *accumulator + take;
            if next > acc_cap && *accumulator < acc_cap {
                // The 16-bit accumulator tops out mid-window: the window's
                // density is under-reported. One distorted window.
                *degraded_windows += 1;
            }
            *accumulator = next.min(acc_cap);
            remaining -= take;
            t += take;
        }
        Ok(())
    }

    /// Records a conflict miss into a cache slot's vector registers.
    ///
    /// # Errors
    ///
    /// [`AuditorError::BadSlot`] or [`AuditorError::WrongDatapath`].
    pub fn record_conflict(
        &mut self,
        slot: SlotId,
        cycle: u64,
        replacer: u8,
        victim: u8,
    ) -> Result<(), AuditorError> {
        let capacity = self.config.vector_entries;
        let slot = self.slots.get_mut(slot.0).ok_or(AuditorError::BadSlot)?;
        let SlotState::Oscillation {
            active,
            software_log,
        } = &mut slot.state
        else {
            return Err(AuditorError::WrongDatapath);
        };
        active.push(ConflictRecord {
            cycle,
            replacer,
            victim,
        });
        if active.len() >= capacity {
            // The register is full: swap to the alternate register while
            // the software module records the contents in the background.
            software_log.append(active);
        }
        Ok(())
    }

    /// Harvests a contention slot's histogram buffer (the daemon's
    /// per-quantum read-out): windows are finalized through `until`, the
    /// buffer is returned as a [`DensityHistogram`] and cleared.
    ///
    /// # Errors
    ///
    /// [`AuditorError::BadSlot`] or [`AuditorError::WrongDatapath`].
    pub fn harvest_histogram(
        &mut self,
        slot: SlotId,
        until: u64,
    ) -> Result<DensityHistogram, AuditorError> {
        self.finalize_and_take(slot, until).map(|(h, _)| h)
    }

    /// Harvests a contention slot as a [`Harvest`]: like
    /// [`harvest_histogram`](Self::harvest_histogram), but the read-out
    /// also reports how much of the quantum's observation was degraded by
    /// register saturation, so the daemon can weight the quantum instead of
    /// trusting a silently clamped histogram.
    ///
    /// A quantum with no saturation harvests as [`Harvest::Complete`]; one
    /// with clamped histogram entries or a topped-out accumulator harvests
    /// as [`Harvest::Partial`] with `lost_fraction` equal to the degraded
    /// share of its Δt windows (a conservative proxy — a distorted window
    /// still carries *some* signal).
    ///
    /// # Errors
    ///
    /// [`AuditorError::BadSlot`] or [`AuditorError::WrongDatapath`].
    pub fn harvest(&mut self, slot: SlotId, until: u64) -> Result<Harvest, AuditorError> {
        let (histogram, degraded) = self.finalize_and_take(slot, until)?;
        if degraded == 0 {
            return Ok(Harvest::Complete(histogram));
        }
        let total = histogram.total_windows().max(1);
        Ok(Harvest::Partial {
            lost_fraction: (degraded as f64 / total as f64).min(1.0),
            histogram,
        })
    }

    /// Finalizes windows through `until`, returning the cleared histogram
    /// buffer and the degraded-window count since the previous harvest.
    fn finalize_and_take(
        &mut self,
        slot: SlotId,
        until: u64,
    ) -> Result<(DensityHistogram, u64), AuditorError> {
        let entry_cap = entry_cap(self.config.histogram_entry_bits);
        let slot = self.slots.get_mut(slot.0).ok_or(AuditorError::BadSlot)?;
        let SlotState::Contention {
            delta_t,
            current_window,
            origin,
            accumulator,
            bins,
            degraded_windows,
            ..
        } = &mut slot.state
        else {
            return Err(AuditorError::WrongDatapath);
        };
        let dt = *delta_t;
        // Finalize every window that ends at or before `until`.
        let complete_through = (until.saturating_sub(*origin)) / dt; // windows [0, complete_through) done
        if complete_through > *current_window {
            let bin = if *accumulator > 0 {
                (*accumulator as usize).min(HISTOGRAM_BINS - 1)
            } else {
                0
            };
            bump_bin(bins, bin, 1, entry_cap, degraded_windows);
            let empties = complete_through - *current_window - 1;
            if empties > 0 {
                bump_bin(bins, 0, empties, entry_cap, degraded_windows);
            }
            *current_window = complete_through;
            *accumulator = 0;
        }
        let harvested = std::mem::replace(bins, vec![0; HISTOGRAM_BINS]);
        let degraded = std::mem::take(degraded_windows);
        // Invariant: the buffer is allocated as exactly HISTOGRAM_BINS
        // entries at program() time and dt was validated nonzero there.
        let histogram = DensityHistogram::from_bins(harvested, dt)
            .expect("auditor buffer is always 128 bins with Δt > 0");
        Ok((histogram, degraded))
    }

    /// Drains every recorded conflict (both the software log and the
    /// partially filled active register) from a cache slot.
    ///
    /// # Errors
    ///
    /// [`AuditorError::BadSlot`] or [`AuditorError::WrongDatapath`].
    pub fn drain_conflicts(&mut self, slot: SlotId) -> Result<Vec<ConflictRecord>, AuditorError> {
        let slot = self.slots.get_mut(slot.0).ok_or(AuditorError::BadSlot)?;
        let SlotState::Oscillation {
            active,
            software_log,
            ..
        } = &mut slot.state
        else {
            return Err(AuditorError::WrongDatapath);
        };
        let mut out = std::mem::take(software_log);
        out.append(active);
        Ok(out)
    }
}

fn entry_cap(bits: u32) -> u64 {
    entry_cap_u64(bits)
}

/// Adds `by` window observations to `bins[bin]`, clamping at `cap` and
/// accounting every clamped-away observation as a degraded window.
fn bump_bin(bins: &mut [u64], bin: usize, by: u64, cap: u64, degraded: &mut u64) {
    let next = bins[bin].saturating_add(by);
    if next > cap {
        *degraded += next - cap;
        bins[bin] = cap;
    } else {
        bins[bin] = next;
    }
}

fn entry_cap_u64(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn auditor() -> CcAuditor {
        CcAuditor::new(AuditorConfig::default())
    }

    #[test]
    fn programming_requires_privilege() {
        let mut a = auditor();
        let err = a
            .program(HardwareUnit::MemoryBus, 100, Privilege::User)
            .unwrap_err();
        assert_eq!(err, AuditorError::NotPrivileged);
    }

    #[test]
    fn at_most_two_slots() {
        let mut a = auditor();
        a.program(HardwareUnit::MemoryBus, 100, Privilege::Supervisor)
            .unwrap();
        a.program(
            HardwareUnit::IntegerDivider { core: 0 },
            500,
            Privilege::Supervisor,
        )
        .unwrap();
        let err = a
            .program(
                HardwareUnit::SharedCache { core: 0 },
                0,
                Privilege::Supervisor,
            )
            .unwrap_err();
        assert_eq!(err, AuditorError::SlotsExhausted);
        assert_eq!(a.audited_units().len(), 2);
    }

    #[test]
    fn duplicate_unit_rejected() {
        let mut a = auditor();
        a.program(HardwareUnit::MemoryBus, 100, Privilege::Supervisor)
            .unwrap();
        let err = a
            .program(HardwareUnit::MemoryBus, 100, Privilege::Supervisor)
            .unwrap_err();
        assert_eq!(err, AuditorError::AlreadyAudited);
    }

    #[test]
    fn histogram_accumulates_densities() {
        let mut a = auditor();
        let slot = a
            .program(HardwareUnit::MemoryBus, 100, Privilege::Supervisor)
            .unwrap();
        // Window 0: 3 events; window 1: none; window 2: 1 event.
        a.signal(slot, 10, 1).unwrap();
        a.signal(slot, 20, 1).unwrap();
        a.signal(slot, 30, 1).unwrap();
        a.signal(slot, 250, 1).unwrap();
        let h = a.harvest_histogram(slot, 400).unwrap();
        assert_eq!(h.frequency(3), 1);
        assert_eq!(h.frequency(1), 1);
        assert_eq!(h.frequency(0), 2);
        assert_eq!(h.total_windows(), 4);
    }

    #[test]
    fn weighted_runs_spread_like_wait_cycles() {
        let mut a = auditor();
        let slot = a
            .program(
                HardwareUnit::IntegerDivider { core: 0 },
                100,
                Privilege::Supervisor,
            )
            .unwrap();
        // 150-cycle stall starting at 50: 50 wait-cycles in window 0,
        // 100 in window 1.
        a.signal(slot, 50, 150).unwrap();
        let h = a.harvest_histogram(slot, 200).unwrap();
        assert_eq!(h.frequency(50), 1);
        assert_eq!(h.frequency(100), 1);
    }

    #[test]
    fn harvest_resets_but_windows_stay_aligned() {
        let mut a = auditor();
        let slot = a
            .program(HardwareUnit::MemoryBus, 100, Privilege::Supervisor)
            .unwrap();
        a.signal(slot, 10, 1).unwrap();
        let h1 = a.harvest_histogram(slot, 100).unwrap();
        assert_eq!(h1.total_windows(), 1);
        // Next quantum's events land in fresh buffer, window grid intact.
        a.signal(slot, 110, 1).unwrap();
        a.signal(slot, 130, 1).unwrap();
        let h2 = a.harvest_histogram(slot, 200).unwrap();
        assert_eq!(h2.frequency(2), 1);
        assert_eq!(h2.total_windows(), 1);
    }

    #[test]
    fn strict_16bit_entries_saturate() {
        let mut a = CcAuditor::new(AuditorConfig::paper_strict());
        let slot = a
            .program(HardwareUnit::MemoryBus, 10, Privilege::Supervisor)
            .unwrap();
        // 70000 empty windows overflow a 16-bit bin-0 entry.
        a.signal(slot, 10 * 70_000, 1).unwrap();
        let h = a.harvest_histogram(slot, 10 * 70_001).unwrap();
        assert_eq!(h.frequency(0), u16::MAX as u64, "bin 0 saturates at 2^16-1");
    }

    #[test]
    fn contention_slot_rejects_conflict_records() {
        let mut a = auditor();
        let slot = a
            .program(HardwareUnit::MemoryBus, 100, Privilege::Supervisor)
            .unwrap();
        assert_eq!(
            a.record_conflict(slot, 0, 1, 0).unwrap_err(),
            AuditorError::WrongDatapath
        );
    }

    #[test]
    fn vector_registers_swap_at_capacity() {
        let mut a = auditor();
        let slot = a
            .program(
                HardwareUnit::SharedCache { core: 0 },
                0,
                Privilege::Supervisor,
            )
            .unwrap();
        for i in 0..300u64 {
            a.record_conflict(slot, i, (i % 2) as u8, ((i + 1) % 2) as u8)
                .unwrap();
        }
        let SlotState::Oscillation {
            active,
            software_log,
        } = &a.slots[slot.0].state
        else {
            unreachable!("a cache slot runs the oscillation datapath");
        };
        assert_eq!(software_log.len(), 256, "two full 128-entry swaps");
        assert_eq!(active.len(), 300 - 256);
        let records = a.drain_conflicts(slot).unwrap();
        assert_eq!(records.len(), 300);
        assert_eq!(records[0].cycle, 0);
        assert_eq!(records[299].cycle, 299);
        // Drained: a second drain is empty.
        assert!(a.drain_conflicts(slot).unwrap().is_empty());
    }

    #[test]
    fn clean_quantum_harvests_complete() {
        let mut a = auditor();
        let slot = a
            .program(HardwareUnit::MemoryBus, 100, Privilege::Supervisor)
            .unwrap();
        a.signal(slot, 10, 1).unwrap();
        a.signal(slot, 250, 1).unwrap();
        match a.harvest(slot, 400).unwrap() {
            Harvest::Complete(h) => assert_eq!(h.total_windows(), 4),
            other => panic!("unexpected harvest {other:?}"),
        }
    }

    #[test]
    fn saturated_quantum_harvests_partial() {
        let mut a = CcAuditor::new(AuditorConfig::paper_strict());
        let slot = a
            .program(HardwareUnit::MemoryBus, 10, Privilege::Supervisor)
            .unwrap();
        // 70,000 empty windows overflow the 16-bit bin-0 entry; the daemon
        // must learn the harvest is degraded rather than silently get a
        // clamped histogram.
        a.signal(slot, 10 * 70_000, 1).unwrap();
        match a.harvest(slot, 10 * 70_001).unwrap() {
            Harvest::Partial { lost_fraction, .. } => {
                assert!(lost_fraction > 0.0 && lost_fraction <= 1.0);
            }
            other => panic!("expected a partial harvest, got {other:?}"),
        }
        // The degradation counter resets with the harvest.
        a.signal(slot, 10 * 70_002, 1).unwrap();
        assert!(matches!(
            a.harvest(slot, 10 * 70_003).unwrap(),
            Harvest::Complete(_)
        ));
    }

    #[test]
    fn accumulator_saturation_marks_harvest_partial() {
        let mut a = auditor();
        let slot = a
            .program(HardwareUnit::MemoryBus, 100_000, Privilege::Supervisor)
            .unwrap();
        // One window with a 70,000-cycle run tops out the 16-bit
        // accumulator at 65,535.
        a.signal(slot, 0, 70_000).unwrap();
        match a.harvest(slot, 100_000).unwrap() {
            Harvest::Partial { lost_fraction, .. } => {
                assert_eq!(lost_fraction, 1.0, "the single window was distorted");
            }
            other => panic!("expected a partial harvest, got {other:?}"),
        }
    }

    #[test]
    fn error_display_messages() {
        assert!(AuditorError::SlotsExhausted.to_string().contains("slots"));
        assert!(AuditorError::NotPrivileged
            .to_string()
            .contains("privilege"));
    }
}
