//! Event-density histograms over Δt windows (paper §IV-B, steps 1–2).
//!
//! Δt is "the product of the inverse of average event rate and α, an
//! empirical constant" — the observation window used to count event
//! occurrences. The histogram's x-axis is the number of events falling in a
//! Δt window, the y-axis is how many windows saw that many events; low
//! (non-burst) densities live on the left, bursts show up as a second
//! distribution in the right tail (Figure 5/6).

use crate::events::{EventTrain, TrainView};
use crate::DetectorError;
use std::num::NonZeroU64;

/// Number of histogram bins, matching the paper's 128-entry hardware
/// histogram buffers. Densities of `HISTOGRAM_BINS - 1` or more saturate
/// into the last bin.
pub const HISTOGRAM_BINS: usize = 128;

/// How Δt is chosen for a train.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeltaTPolicy {
    /// A fixed window length in cycles. The paper's evaluation uses
    /// 100,000 cycles (40 µs) for the memory bus and 500 cycles (200 ns)
    /// for the integer divider.
    Fixed(u64),
    /// Δt = α / (mean event rate), clamped to `[min, max]`. The α factor
    /// keeps Δt between the Poisson regime (too small) and the normal
    /// regime (too large).
    FromRate {
        /// The α tempering constant.
        alpha: f64,
        /// Lower clamp in cycles.
        min: u64,
        /// Upper clamp in cycles.
        max: u64,
    },
}

impl DeltaTPolicy {
    /// Resolves the policy to a concrete Δt for `train` observed over
    /// `[start, end)`: `None` if the rate-based policy sees no events (Δt
    /// would be unbounded).
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] for a fixed Δt of zero, or
    /// a rate-based policy whose α is not positive or whose clamp is not
    /// `0 < min <= max`.
    pub fn resolve(
        &self,
        train: &EventTrain,
        start: u64,
        end: u64,
    ) -> Result<Option<u64>, DetectorError> {
        let invalid = |reason: String| Err(DetectorError::InvalidConfig { reason });
        match *self {
            DeltaTPolicy::Fixed(0) => invalid("Δt must be nonzero".to_string()),
            DeltaTPolicy::Fixed(dt) => Ok(Some(dt)),
            DeltaTPolicy::FromRate { alpha, min, max }
                if !(alpha > 0.0 && min > 0 && max >= min) =>
            {
                invalid(format!(
                    "invalid Δt policy: α {alpha}, clamp [{min}, {max}]"
                ))
            }
            DeltaTPolicy::FromRate { alpha, min, max } => {
                let rate = train.mean_rate(start, end);
                Ok((rate > 0.0).then(|| ((alpha / rate).round() as u64).clamp(min, max)))
            }
        }
    }
}

/// An event-density histogram: for each density `d` (events per Δt window),
/// the number of Δt windows that saw exactly `d` events (saturating at
/// [`HISTOGRAM_BINS`]` - 1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DensityHistogram {
    bins: Vec<u64>,
    delta_t: u64,
    windows: u64,
}

impl DensityHistogram {
    /// Creates an empty histogram for windows of `delta_t` cycles.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] if `delta_t` is zero.
    pub fn empty(delta_t: u64) -> Result<Self, DetectorError> {
        NonZeroU64::new(delta_t)
            .map(Self::zeroed)
            .ok_or_else(|| DetectorError::invalid("Δt must be nonzero"))
    }

    /// The empty histogram for a Δt already known to be nonzero.
    pub(crate) fn zeroed(delta_t: NonZeroU64) -> Self {
        DensityHistogram {
            bins: vec![0; HISTOGRAM_BINS],
            delta_t: delta_t.get(),
            windows: 0,
        }
    }

    /// Builds the histogram of `train` over `[start, end)` using windows of
    /// `delta_t` cycles. Weighted entries are treated as runs of unit events
    /// on consecutive cycles beginning at the entry's timestamp (that is how
    /// divider-wait runs are reported), so a run spanning a window boundary
    /// contributes to both windows.
    ///
    /// Every window in the range is counted — windows with no events land in
    /// bin 0 (the paper's "non-contention" bin).
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] if `delta_t` is zero.
    pub fn from_train(
        train: &EventTrain,
        delta_t: u64,
        start: u64,
        end: u64,
    ) -> Result<Self, DetectorError> {
        Self::from_view(train.as_view(), delta_t, start, end)
    }

    /// Builds the histogram from a borrowed [`TrainView`] — the zero-copy
    /// twin of [`DensityHistogram::from_train`].
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] if `delta_t` is zero.
    pub fn from_view(
        view: TrainView<'_>,
        delta_t: u64,
        start: u64,
        end: u64,
    ) -> Result<Self, DetectorError> {
        let mut h = Self::empty(delta_t)?;
        h.accumulate_view(view, start, end);
        Ok(h)
    }

    /// Adds the windows of `[start, end)` from `train` into this histogram.
    pub fn accumulate(&mut self, train: &EventTrain, start: u64, end: u64) {
        self.accumulate_view(train.as_view(), start, end);
    }

    /// Adds the windows of `[start, end)` from a borrowed view into this
    /// histogram. Produces bit-identical bins to the owned-train path.
    pub fn accumulate_view(&mut self, view: TrainView<'_>, start: u64, end: u64) {
        let mut tails = Vec::new();
        let mut tally = WindowTally::new(self, start, end, &mut tails);
        // Sorted times: the in-range entries are one binary-searched run.
        for (time, weight) in view.window(start, end).iter() {
            tally.push(time, weight);
        }
        tally.finish();
    }

    /// Adds `count` windows of density `bin` (the last bin holds every
    /// density at or above it).
    pub(crate) fn record(&mut self, bin: usize, count: u64) {
        let slot = &mut self.bins[bin.min(HISTOGRAM_BINS - 1)];
        *slot = slot.saturating_add(count);
        self.windows = self.windows.saturating_add(count);
    }

    /// Clamps every bin to the CC-auditor's 16-bit width in place; returns
    /// whether anything clamped, which is exactly when the window total
    /// exceeds [`u16::MAX`] (the window accumulator clamps first).
    pub(crate) fn clamp_to_u16(&mut self) -> bool {
        let saturated = self.windows > u64::from(u16::MAX);
        for bin in &mut self.bins {
            *bin = (*bin).min(u64::from(u16::MAX));
        }
        self.windows = self.bins.iter().sum();
        saturated
    }

    /// The Δt this histogram was built with.
    pub fn delta_t(&self) -> u64 {
        self.delta_t
    }

    /// Frequency of windows with density `bin` (bin 127 holds ≥ 127).
    pub fn frequency(&self, bin: usize) -> u64 {
        self.bins[bin]
    }

    /// All 128 bin frequencies.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Total number of Δt windows observed.
    pub fn total_windows(&self) -> u64 {
        self.windows
    }

    /// Number of windows with at least one event (everything right of
    /// bin 0). The paper's likelihood-ratio computation omits bin 0 "since
    /// it does not contribute to any contention".
    pub fn contended_windows(&self) -> u64 {
        // Every constructor bounds the bins' sum by `u64::MAX` windows.
        self.bins[1..].iter().sum()
    }

    /// Mean density over non-empty windows, or 0.0 if all windows are empty.
    pub fn mean_nonzero_density(&self) -> f64 {
        let (sum, count) = self.bins[1..]
            .iter()
            .enumerate()
            .fold((0u128, 0u128), |(s, c), (i, &f)| {
                (s + (i as u128 + 1) * u128::from(f), c + u128::from(f))
            });
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }

    /// Merges another histogram built with the same Δt into this one.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::BadHarvest`], and leaves `self` unchanged,
    /// if the Δt values differ or the merged bins would count more than
    /// `u64::MAX` windows.
    pub fn merge(&mut self, other: &DensityHistogram) -> Result<(), DetectorError> {
        let bad = |reason: String| Err(DetectorError::BadHarvest { reason });
        if self.delta_t != other.delta_t {
            return bad(format!(
                "Δt mismatch in merge: {} vs {}",
                self.delta_t, other.delta_t
            ));
        }
        // No bin exceeds its window total, so the totals bound every bin.
        if self.windows.checked_add(other.windows).is_none() {
            return bad("merged histogram counts past u64::MAX windows".to_string());
        }
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.windows += other.windows;
        Ok(())
    }

    /// Creates a histogram directly from raw bin frequencies (e.g. read out
    /// of the CC-auditor histogram buffer).
    ///
    /// This is the entry point for *external* data (hardware read-outs,
    /// trace files, checkpoints), so structural defects are reported as
    /// [`DetectorError::BadHarvest`] instead of panicking: a daemon fed a
    /// truncated buffer must degrade, not die.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::BadHarvest`] if `bins` is not exactly
    /// [`HISTOGRAM_BINS`] long or `delta_t` is zero.
    pub fn from_bins(bins: Vec<u64>, delta_t: u64) -> Result<Self, DetectorError> {
        if bins.len() != HISTOGRAM_BINS {
            return Err(DetectorError::BadHarvest {
                reason: format!("expected {HISTOGRAM_BINS} bins, got {}", bins.len()),
            });
        }
        if delta_t == 0 {
            return Err(DetectorError::BadHarvest {
                reason: "Δt must be nonzero".to_string(),
            });
        }
        let windows = bins
            .iter()
            .try_fold(0u64, |sum, &f| sum.checked_add(f))
            .ok_or_else(|| DetectorError::BadHarvest {
                reason: "histogram bins sum past u64::MAX windows".to_string(),
            })?;
        Ok(DensityHistogram {
            bins,
            delta_t,
            windows,
        })
    }
}

/// Densities at or above this land in the last bin.
const LAST_BIN: u64 = HISTOGRAM_BINS as u64 - 1;

/// `runs` spilled runs that cover every window between the open one and
/// `window` whole, and `rem` cycles of `window` itself.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tail {
    window: u64,
    runs: u64,
    rem: u64,
}

/// The one Δt windowing routine, a streaming tally like the CC-auditor's
/// Δt count-down register. It takes `(time, weight)` runs of unit events on
/// consecutive cycles in nondecreasing time order, clipped at `end`;
/// entries outside `[start, end)` are ignored and windows no run reaches
/// land in bin 0. A unit run inside the open window costs a compare and an
/// add, with one division per window change. Runs spilling past the open
/// window are kept as [`Tail`]s in caller-owned scratch; once enough of
/// them overlap a window to reach the last bin, every window before it is
/// settled, which bounds the tails at `HISTOGRAM_BINS` whatever the weights.
pub(crate) struct WindowTally<'a> {
    hist: &'a mut DensityHistogram,
    start: u64,
    end: u64,
    /// The open window, the first cycle past it, and its count so far.
    open: u64,
    open_end: u64,
    count: u64,
    /// Nonempty windows binned so far.
    counted: u64,
    /// Windows after the open one and before this one reached the last bin.
    settled_until: u64,
    /// Spilled runs by ascending `window`, all past the open window.
    tails: &'a mut Vec<Tail>,
}

impl<'a> WindowTally<'a> {
    /// Starts tallying `[start, end)` into `hist`.
    pub(crate) fn new(
        hist: &'a mut DensityHistogram,
        start: u64,
        end: u64,
        tails: &'a mut Vec<Tail>,
    ) -> Self {
        tails.clear();
        let end = end.max(start);
        WindowTally {
            open_end: start.saturating_add(hist.delta_t).min(end),
            hist,
            start,
            end,
            open: 0,
            count: 0,
            counted: 0,
            settled_until: 0,
            tails,
        }
    }

    /// Adds a run of `weight` events from cycle `time`; times must not
    /// decrease between calls.
    #[inline]
    pub(crate) fn push(&mut self, time: u64, weight: u32) {
        if weight == 0 || time < self.start || time >= self.end {
            return;
        }
        if time >= self.open_end {
            self.advance((time - self.start) / self.hist.delta_t);
        }
        let room = self.open_end - time;
        let weight = u64::from(weight);
        self.count = self.count.saturating_add(weight.min(room));
        // Only a whole open window leaves a rest (a clipped one ends at `end`).
        let rest = weight.saturating_sub(room).min(self.end - self.open_end);
        if rest > 0 {
            let dt = self.hist.delta_t;
            let last = self.open + 1 + (rest - 1) / dt;
            self.spill(last, rest - (last - self.open - 1) * dt);
        }
    }

    /// Records a run that ends `rem` cycles into `window`.
    fn spill(&mut self, window: u64, rem: u64) {
        if window < self.settled_until {
            return;
        }
        let at = self.tails.partition_point(|t| t.window < window);
        match self.tails.get_mut(at) {
            Some(t) if t.window == window => {
                t.runs += 1;
                t.rem = t.rem.saturating_add(rem);
            }
            _ => self.tails.insert(
                at,
                Tail {
                    window,
                    runs: 1,
                    rem,
                },
            ),
        }
        let dt = self.hist.delta_t;
        let mut covering = 0u64;
        let settled = (0..self.tails.len()).rev().find(|&i| {
            covering += self.tails[i].runs;
            covering.saturating_mul(dt) >= LAST_BIN
        });
        if let Some(i) = settled {
            self.settled_until = self.tails[i].window;
            self.tails.drain(..i);
        }
    }

    /// Bins `windows` windows of density `count`.
    fn bin(&mut self, count: u64, windows: u64) {
        if count > 0 && windows > 0 {
            self.hist.bins[count.min(LAST_BIN) as usize] += windows;
            self.counted += windows;
        }
    }

    /// Closes the open window and every window before `next`, which opens.
    fn advance(&mut self, next: u64) {
        let dt = self.hist.delta_t;
        self.bin(self.count, 1);
        self.open_end = self
            .start
            .saturating_add((next + 1).saturating_mul(dt))
            .min(self.end);
        let open = self.open;
        let settled_until = self.settled_until;
        self.open = next;
        self.count = if next < settled_until { LAST_BIN } else { 0 };
        if self.tails.is_empty() {
            return;
        }
        let mut done = open.max(settled_until.min(next).saturating_sub(1));
        self.bin(LAST_BIN, done - open);
        let mut covering: u64 = self.tails.iter().map(|t| t.runs).sum();
        let closed = self.tails.partition_point(|t| t.window <= next);
        for i in 0..closed {
            let t = self.tails[i];
            self.bin(covering.saturating_mul(dt), t.window - done - 1);
            covering -= t.runs;
            done = t.window;
            if t.window == next {
                self.count = self.count.saturating_add(t.rem);
                done -= 1;
            } else {
                self.bin(covering.saturating_mul(dt).saturating_add(t.rem), 1);
            }
        }
        self.tails.drain(..closed);
        self.bin(covering.saturating_mul(dt), next - done - 1);
        self.count = self.count.saturating_add(covering.saturating_mul(dt));
    }

    /// Bins every remaining window; untouched windows land in bin 0.
    pub(crate) fn finish(mut self) {
        let total = (self.end - self.start).div_ceil(self.hist.delta_t);
        if total > 0 {
            self.advance(total);
        }
        self.hist.bins[0] += total - self.counted;
        self.hist.windows += total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_policy_resolves() {
        let train = EventTrain::from_times(vec![0, 10]);
        assert_eq!(
            DeltaTPolicy::Fixed(500).resolve(&train, 0, 100).unwrap(),
            Some(500)
        );
    }

    #[test]
    fn invalid_policies_are_typed_errors() {
        let train = EventTrain::from_times(vec![0, 10]);
        let invalid = [
            DeltaTPolicy::Fixed(0),
            DeltaTPolicy::FromRate {
                alpha: 0.0,
                min: 1,
                max: 10,
            },
            DeltaTPolicy::FromRate {
                alpha: f64::NAN,
                min: 1,
                max: 10,
            },
            DeltaTPolicy::FromRate {
                alpha: 1.0,
                min: 0,
                max: 10,
            },
            DeltaTPolicy::FromRate {
                alpha: 1.0,
                min: 10,
                max: 1,
            },
        ];
        for policy in invalid {
            let err = policy.resolve(&train, 0, 100).unwrap_err();
            assert!(
                matches!(err, DetectorError::InvalidConfig { .. }),
                "{policy:?}: {err}"
            );
        }
    }

    #[test]
    fn rate_policy_scales_inverse_to_rate() {
        // 10 events over 1000 cycles → rate 0.01; α = 5 → Δt = 500.
        let train = EventTrain::from_times((0..10).map(|i| i * 100).collect());
        let dt = DeltaTPolicy::FromRate {
            alpha: 5.0,
            min: 1,
            max: 1_000_000,
        }
        .resolve(&train, 0, 1000)
        .unwrap()
        .unwrap();
        assert_eq!(dt, 500);
    }

    #[test]
    fn rate_policy_clamps() {
        let train = EventTrain::from_times(vec![0]);
        let dt = DeltaTPolicy::FromRate {
            alpha: 1.0,
            min: 10,
            max: 20,
        }
        .resolve(&train, 0, 1_000_000)
        .unwrap()
        .unwrap();
        assert_eq!(dt, 20, "huge raw Δt clamps to max");
    }

    #[test]
    fn rate_policy_none_without_events() {
        let train = EventTrain::new();
        assert_eq!(
            DeltaTPolicy::FromRate {
                alpha: 1.0,
                min: 1,
                max: 10
            }
            .resolve(&train, 0, 100)
            .unwrap(),
            None
        );
    }

    #[test]
    fn histogram_counts_windows() {
        // Windows of 100 over [0, 400): densities 2, 0, 1, 1.
        let train = EventTrain::from_times(vec![10, 20, 210, 350]);
        let h = DensityHistogram::from_train(&train, 100, 0, 400).unwrap();
        assert_eq!(h.total_windows(), 4);
        assert_eq!(h.frequency(0), 1);
        assert_eq!(h.frequency(1), 2);
        assert_eq!(h.frequency(2), 1);
        assert_eq!(h.contended_windows(), 3);
    }

    #[test]
    fn histogram_saturates_at_last_bin() {
        let train = EventTrain::from_times(vec![5; 500]);
        let h = DensityHistogram::from_train(&train, 100, 0, 100).unwrap();
        assert_eq!(h.frequency(HISTOGRAM_BINS - 1), 1);
    }

    #[test]
    fn weighted_runs_split_across_windows() {
        // A 10-cycle run starting at cycle 95 with Δt = 100: 5 events in
        // window 0, 5 in window 1.
        let mut train = EventTrain::new();
        train.push(95, 10);
        let h = DensityHistogram::from_train(&train, 100, 0, 200).unwrap();
        assert_eq!(h.frequency(5), 2);
        assert_eq!(h.total_windows(), 2);
    }

    #[test]
    fn empty_windows_land_in_bin_zero() {
        let train = EventTrain::new();
        let h = DensityHistogram::from_train(&train, 100, 0, 1000).unwrap();
        assert_eq!(h.frequency(0), 10);
        assert_eq!(h.contended_windows(), 0);
        assert_eq!(h.mean_nonzero_density(), 0.0);
    }

    #[test]
    fn partial_last_window_is_counted() {
        let train = EventTrain::from_times(vec![250]);
        let h = DensityHistogram::from_train(&train, 100, 0, 260).unwrap();
        assert_eq!(h.total_windows(), 3);
        assert_eq!(h.frequency(1), 1);
    }

    #[test]
    fn merge_adds_bins() {
        let t1 = EventTrain::from_times(vec![10]);
        let t2 = EventTrain::from_times(vec![10, 20]);
        let mut a = DensityHistogram::from_train(&t1, 100, 0, 100).unwrap();
        let b = DensityHistogram::from_train(&t2, 100, 0, 100).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.total_windows(), 2);
        assert_eq!(a.frequency(1), 1);
        assert_eq!(a.frequency(2), 1);
    }

    #[test]
    fn zero_delta_t_is_a_typed_error() {
        let train = EventTrain::from_times(vec![10]);
        for result in [
            DensityHistogram::empty(0),
            DensityHistogram::from_train(&train, 0, 0, 100),
            DensityHistogram::from_view(train.as_view(), 0, 0, 100),
        ] {
            assert!(matches!(result, Err(DetectorError::InvalidConfig { .. })));
        }
    }

    #[test]
    fn merge_rejects_delta_t_mismatch() {
        let t = EventTrain::from_times(vec![10]);
        let mut a = DensityHistogram::from_train(&t, 100, 0, 100).unwrap();
        let b = DensityHistogram::from_train(&t, 200, 0, 200).unwrap();
        let before = a.clone();
        assert!(matches!(a.merge(&b), Err(DetectorError::BadHarvest { .. })));
        assert_eq!(a.bins(), before.bins());
        let c = DensityHistogram::from_train(&t, 100, 0, 100).unwrap();
        a.merge(&c).unwrap();
        assert_eq!(a.total_windows(), 2);
    }

    #[test]
    fn merge_rejects_bins_that_overflow_the_window_count() {
        let mut half = vec![0u64; HISTOGRAM_BINS];
        half[5] = u64::MAX / 2 + 1;
        let mut a = DensityHistogram::from_bins(half.clone(), 100).unwrap();
        let b = DensityHistogram::from_bins(half, 100).unwrap();
        let before = a.clone();
        assert!(matches!(a.merge(&b), Err(DetectorError::BadHarvest { .. })));
        assert_eq!(a, before, "a failed merge leaves the histogram unchanged");
    }

    #[test]
    fn mean_nonzero_density() {
        let train = EventTrain::from_times(vec![0, 1, 2, 100]);
        let h = DensityHistogram::from_train(&train, 100, 0, 200).unwrap();
        // Densities: 3 and 1 → mean 2.
        assert!((h.mean_nonzero_density() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn from_bins_roundtrip() {
        let mut bins = vec![0u64; HISTOGRAM_BINS];
        bins[0] = 90;
        bins[20] = 10;
        let h = DensityHistogram::from_bins(bins, 100_000).unwrap();
        assert_eq!(h.total_windows(), 100);
        assert_eq!(h.frequency(20), 10);
        assert_eq!(h.delta_t(), 100_000);
    }

    #[test]
    fn from_bins_rejects_bad_shapes() {
        assert!(matches!(
            DensityHistogram::from_bins(vec![0; 12], 100),
            Err(DetectorError::BadHarvest { .. })
        ));
        assert!(matches!(
            DensityHistogram::from_bins(vec![0; HISTOGRAM_BINS], 0),
            Err(DetectorError::BadHarvest { .. })
        ));
    }

    #[test]
    fn events_outside_range_ignored() {
        let train = EventTrain::from_times(vec![5, 150, 450]);
        let h = DensityHistogram::from_train(&train, 100, 100, 400).unwrap();
        assert_eq!(h.total_windows(), 3);
        assert_eq!(h.contended_windows(), 1);
    }
}
