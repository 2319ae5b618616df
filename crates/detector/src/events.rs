//! Event trains and symbol series — the detector's input representations.
//!
//! The paper analyzes two kinds of time series:
//!
//! * an **event train**: a uni-dimensional time series of event occurrences
//!   (Figure 4), here with an integer *weight* per entry so that run events
//!   such as "this division stalled for 17 cycles" can be represented
//!   compactly (one weighted entry instead of 17 unit entries);
//! * a **symbol series**: the *order* of labeled events with time abstracted
//!   away, used by the oscillation detector (each cache conflict miss is one
//!   symbol: its ordered replacer→victim pair identifier).

use crate::DetectorError;
use std::fmt;
use std::num::NonZeroU64;

/// A time-ordered train of (possibly weighted) events.
///
/// Timestamps are in cycles. Entries must be pushed in nondecreasing time
/// order; weights are the number of unit events the entry stands for.
///
/// ```
/// use cchunter_detector::EventTrain;
/// let mut train = EventTrain::new();
/// train.push(100, 1);
/// train.push(250, 3); // e.g. a 3-cycle contention run
/// assert_eq!(train.len(), 2);
/// assert_eq!(train.total_events(), 4);
/// assert_eq!(train.span(), Some((100, 250)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventTrain {
    times: Vec<u64>,
    weights: Vec<u32>,
    total: u64,
}

impl EventTrain {
    /// Creates an empty train.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a train from unit events at the given timestamps.
    ///
    /// # Panics
    ///
    /// Panics if `times` is not sorted in nondecreasing order. Use
    /// [`EventTrain::try_from_times`] to get a typed error instead — the
    /// ingest sanitizer ([`crate::ingest::Sanitizer`]) builds trains through
    /// the fallible path so hostile input can never panic the daemon.
    pub fn from_times(times: Vec<u64>) -> Self {
        match Self::try_from_times(times) {
            Ok(train) => train,
            Err(e) => panic!("event times must be nondecreasing: {e}"),
        }
    }

    /// Creates a train from unit events at the given timestamps, returning
    /// [`DetectorError::HostileTrain`] if the timestamps are not sorted in
    /// nondecreasing order.
    pub fn try_from_times(times: Vec<u64>) -> Result<Self, DetectorError> {
        if let Some(i) = times.windows(2).position(|w| w[0] > w[1]) {
            return Err(DetectorError::HostileTrain {
                reason: format!(
                    "time travel at index {}: {} after {}",
                    i + 1,
                    times[i + 1],
                    times[i]
                ),
            });
        }
        let total = times.len() as u64;
        let weights = vec![1; times.len()];
        Ok(EventTrain {
            times,
            weights,
            total,
        })
    }

    /// Appends an event of `weight` unit occurrences at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the last pushed event. Use
    /// [`EventTrain::try_push`] on untrusted input.
    pub fn push(&mut self, time: u64, weight: u32) {
        if let Err(e) = self.try_push(time, weight) {
            panic!("event times must be nondecreasing: {e}");
        }
    }

    /// Appends an event of `weight` unit occurrences at `time`, returning
    /// [`DetectorError::HostileTrain`] (and leaving the train unchanged) if
    /// `time` is earlier than the last pushed event.
    pub fn try_push(&mut self, time: u64, weight: u32) -> Result<(), DetectorError> {
        if let Some(&last) = self.times.last() {
            if time < last {
                return Err(DetectorError::HostileTrain {
                    reason: format!("time travel: {time} pushed after {last}"),
                });
            }
        }
        self.times.push(time);
        self.weights.push(weight);
        self.total += weight as u64;
        Ok(())
    }

    /// Number of entries (weighted events).
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the train has no entries.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Total unit event count (sum of weights).
    pub fn total_events(&self) -> u64 {
        self.total
    }

    /// First and last timestamps, if nonempty.
    pub fn span(&self) -> Option<(u64, u64)> {
        match (self.times.first(), self.times.last()) {
            (Some(&a), Some(&b)) => Some((a, b)),
            _ => None,
        }
    }

    /// Iterates `(time, weight)` entries in time order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.times.iter().copied().zip(self.weights.iter().copied())
    }

    /// The raw timestamps.
    pub fn times(&self) -> &[u64] {
        &self.times
    }

    /// The raw per-entry weights (parallel to [`EventTrain::times`]).
    pub fn weights(&self) -> &[u32] {
        &self.weights
    }

    /// A zero-copy view of the whole train.
    pub fn as_view(&self) -> TrainView<'_> {
        TrainView {
            times: &self.times,
            weights: &self.weights,
            total: self.total,
        }
    }

    /// Mean unit-event rate over `[start, end)`, in events per cycle.
    ///
    /// Returns 0.0 for an empty window.
    pub fn mean_rate(&self, start: u64, end: u64) -> f64 {
        self.as_view().mean_rate(start, end)
    }

    /// Returns the sub-train with timestamps in `[start, end)`.
    pub fn window(&self, start: u64, end: u64) -> EventTrain {
        self.as_view().window(start, end).to_owned()
    }

    /// Splits the train into consecutive windows of `window_cycles` covering
    /// `[start, end)` (the last window may be partial).
    pub fn windows(&self, start: u64, end: u64, window_cycles: NonZeroU64) -> Vec<EventTrain> {
        let mut out = Vec::new();
        let mut lo = start;
        while lo < end {
            let hi = lo.saturating_add(window_cycles.get()).min(end);
            out.push(self.window(lo, hi));
            lo = hi;
        }
        out
    }
}

/// A borrowed, zero-copy slice of an event train: the times and weights of
/// a contiguous time-ordered run, whether they live in an [`EventTrain`] or
/// an [`EventTrainArena`] slab. Windowing a view is O(log n) and allocates
/// nothing, which is what lets the ingest → sanitize → window → analyze
/// chain run without copying events between stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainView<'a> {
    times: &'a [u64],
    weights: &'a [u32],
    total: u64,
}

impl<'a> TrainView<'a> {
    /// Number of entries (weighted events).
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the view has no entries.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Total unit event count (sum of weights).
    pub fn total_events(&self) -> u64 {
        self.total
    }

    /// First and last timestamps, if nonempty.
    pub fn span(&self) -> Option<(u64, u64)> {
        match (self.times.first(), self.times.last()) {
            (Some(&a), Some(&b)) => Some((a, b)),
            _ => None,
        }
    }

    /// Iterates `(time, weight)` entries in time order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + 'a {
        self.times.iter().copied().zip(self.weights.iter().copied())
    }

    /// The timestamps.
    pub fn times(&self) -> &'a [u64] {
        self.times
    }

    /// The per-entry weights (parallel to [`TrainView::times`]).
    pub fn weights(&self) -> &'a [u32] {
        self.weights
    }

    /// Mean unit-event rate over `[start, end)`, in events per cycle.
    ///
    /// Returns 0.0 for an empty window. Identical result to filtering and
    /// summing every entry (the times are sorted, so the half-open window
    /// is a contiguous run located by binary search).
    pub fn mean_rate(&self, start: u64, end: u64) -> f64 {
        if end <= start {
            return 0.0;
        }
        let w = self.window(start, end);
        w.total as f64 / (end - start) as f64
    }

    /// The sub-view with timestamps in `[start, end)` — zero-copy.
    pub fn window(&self, start: u64, end: u64) -> TrainView<'a> {
        let lo = self.times.partition_point(|&t| t < start);
        let hi = self.times.partition_point(|&t| t < end);
        let weights = &self.weights[lo..hi];
        TrainView {
            times: &self.times[lo..hi],
            weights,
            total: weights.iter().map(|&w| w as u64).sum(),
        }
    }

    /// Consecutive zero-copy windows of `window_cycles` covering
    /// `[start, end)` (the last window may be partial).
    pub fn windows(&self, start: u64, end: u64, window_cycles: NonZeroU64) -> Vec<TrainView<'a>> {
        let mut out = Vec::new();
        let mut lo = start;
        while lo < end {
            let hi = lo.saturating_add(window_cycles.get()).min(end);
            out.push(self.window(lo, hi));
            lo = hi;
        }
        out
    }

    /// Copies the view into an owned [`EventTrain`].
    pub fn to_owned(&self) -> EventTrain {
        EventTrain {
            times: self.times.to_vec(),
            weights: self.weights.to_vec(),
            total: self.total,
        }
    }
}

/// Arena-backed structure-of-arrays storage for many event trains: one
/// contiguous timestamp slab, one parallel weight slab, and per-train
/// ranges. An audit tick that rebuilds eight pairs' trains every quantum
/// reuses the same three allocations forever (`clear` keeps capacity), and
/// every analysis stage reads [`TrainView`]s borrowing straight from the
/// slabs.
///
/// ```
/// use cchunter_detector::events::EventTrainArena;
/// let mut arena = EventTrainArena::new();
/// let a = arena.begin_train();
/// arena.push(100, 1).unwrap();
/// arena.push(250, 3).unwrap();
/// let b = arena.begin_train();
/// arena.push(40, 1).unwrap(); // trains are independently ordered
/// assert_eq!(arena.trains(), 2);
/// assert_eq!(arena.view(a).total_events(), 4);
/// assert_eq!(arena.view(b).times(), &[40]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventTrainArena {
    times: Vec<u64>,
    weights: Vec<u32>,
    /// Per-train `(start, total_weight)`; a train's entries end where the
    /// next train's start (or the slab end) begins.
    ranges: Vec<(usize, u64)>,
}

impl EventTrainArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of trains.
    pub fn trains(&self) -> usize {
        self.ranges.len()
    }

    /// Whether the arena holds no trains.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Total entries across all trains.
    pub fn entries(&self) -> usize {
        self.times.len()
    }

    /// Drops all trains, keeping the slab allocations for reuse.
    pub fn clear(&mut self) {
        self.times.clear();
        self.weights.clear();
        self.ranges.clear();
    }

    /// Opens a new (empty) train at the end of the slabs and returns its
    /// index. Subsequent [`EventTrainArena::push`] calls append to it.
    pub fn begin_train(&mut self) -> usize {
        self.ranges.push((self.times.len(), 0));
        self.ranges.len() - 1
    }

    /// Appends an event to the currently open train, enforcing the same
    /// nondecreasing-time contract as [`EventTrain::try_push`] (scoped to
    /// this train — different trains are independent series).
    ///
    /// Returns [`DetectorError::HostileTrain`] if no train is open or time
    /// runs backwards within the open train.
    pub fn push(&mut self, time: u64, weight: u32) -> Result<(), DetectorError> {
        let Some(&mut (start, ref mut total)) = self.ranges.last_mut() else {
            return Err(DetectorError::HostileTrain {
                reason: "push into an arena with no open train".to_string(),
            });
        };
        if let Some(&last) = self.times.get(start..).and_then(<[u64]>::last) {
            if time < last {
                return Err(DetectorError::HostileTrain {
                    reason: format!("time travel: {time} pushed after {last}"),
                });
            }
        }
        self.times.push(time);
        self.weights.push(weight);
        *total += weight as u64;
        Ok(())
    }

    /// Copies an owned train into the arena as a new train, returning its
    /// index.
    pub fn push_train(&mut self, train: &EventTrain) -> usize {
        let idx = self.begin_train();
        self.times.extend_from_slice(&train.times);
        self.weights.extend_from_slice(&train.weights);
        self.ranges[idx].1 = train.total;
        idx
    }

    /// A zero-copy view of train `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn view(&self, idx: usize) -> TrainView<'_> {
        let (start, total) = self.ranges[idx];
        let end = self
            .ranges
            .get(idx + 1)
            .map_or(self.times.len(), |&(next, _)| next);
        TrainView {
            times: &self.times[start..end],
            weights: &self.weights[start..end],
            total,
        }
    }

    /// Iterates zero-copy views of every train in insertion order.
    pub fn views(&self) -> impl Iterator<Item = TrainView<'_>> {
        (0..self.trains()).map(|i| self.view(i))
    }
}

impl FromIterator<u64> for EventTrain {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        EventTrain::from_times(iter.into_iter().collect())
    }
}

impl Extend<(u64, u32)> for EventTrain {
    fn extend<I: IntoIterator<Item = (u64, u32)>>(&mut self, iter: I) {
        for (t, w) in iter {
            self.push(t, w);
        }
    }
}

/// An ordered series of event labels with time abstracted away.
///
/// For the cache oscillation detector each symbol is the identifier of an
/// ordered (replacer → victim) context pair: "S→T" is one symbol value,
/// "T→S" another (paper §IV-D).
///
/// ```
/// use cchunter_detector::SymbolSeries;
/// let series: SymbolSeries = [1u8, 0, 1, 0].into_iter().collect();
/// assert_eq!(series.len(), 4);
/// assert_eq!(series.alphabet_size(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SymbolSeries {
    symbols: Vec<u8>,
}

impl SymbolSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an existing symbol vector.
    pub fn from_symbols(symbols: Vec<u8>) -> Self {
        SymbolSeries { symbols }
    }

    /// Appends one symbol.
    pub fn push(&mut self, symbol: u8) {
        self.symbols.push(symbol);
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// The symbols in order.
    pub fn symbols(&self) -> &[u8] {
        &self.symbols
    }

    /// Number of distinct symbol values present.
    pub fn alphabet_size(&self) -> usize {
        let mut seen = [false; 256];
        let mut count = 0;
        for &s in &self.symbols {
            if !seen[s as usize] {
                seen[s as usize] = true;
                count += 1;
            }
        }
        count
    }

    /// The series as `f64` samples, for correlation analysis.
    pub fn as_f64(&self) -> Vec<f64> {
        self.symbols.iter().map(|&s| s as f64).collect()
    }
}

impl FromIterator<u8> for SymbolSeries {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        SymbolSeries {
            symbols: iter.into_iter().collect(),
        }
    }
}

impl fmt::Display for SymbolSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SymbolSeries[{} symbols]", self.symbols.len())
    }
}

/// Identifier of an ordered (replacer → victim) hardware context pair.
///
/// Every ordered pair of distinct contexts gets a unique identifier, as the
/// paper requires ("every ordered pair of trojan/spy contexts have unique
/// identifiers").
///
/// ```
/// use cchunter_detector::events::pair_symbol;
/// let s_to_t = pair_symbol(1, 0, 8);
/// let t_to_s = pair_symbol(0, 1, 8);
/// assert_ne!(s_to_t, t_to_s);
/// ```
///
/// The symbol is computed in `u16`, so no argument overflows it. A symbol
/// past `u8::MAX`, which only a context outside `0..contexts` or more than
/// 16 contexts can produce, saturates there; the online oscillation push
/// rejects records naming a context outside the paper's 3-bit range
/// before they get here.
pub fn pair_symbol(replacer: u8, victim: u8, contexts: u8) -> u8 {
    let symbol = u16::from(replacer) * u16::from(contexts) + u16::from(victim);
    u8::try_from(symbol).unwrap_or(u8::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_enforces_order() {
        let mut t = EventTrain::new();
        t.push(5, 1);
        t.push(5, 2);
        t.push(9, 1);
        assert_eq!(t.total_events(), 4);
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn push_rejects_time_travel() {
        let mut t = EventTrain::new();
        t.push(10, 1);
        t.push(9, 1);
    }

    #[test]
    fn try_push_reports_time_travel_without_mutating() {
        let mut t = EventTrain::new();
        t.push(10, 1);
        let err = t.try_push(9, 1).unwrap_err();
        assert!(matches!(err, DetectorError::HostileTrain { .. }), "{err}");
        assert_eq!(t.len(), 1);
        assert_eq!(t.total_events(), 1);
        t.try_push(10, 2).unwrap();
        assert_eq!(t.total_events(), 3);
    }

    #[test]
    fn try_from_times_pinpoints_offender() {
        let err = EventTrain::try_from_times(vec![1, 5, 3, 9]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("index 2"), "{msg}");
        assert!(EventTrain::try_from_times(vec![1, 3, 3, 9]).is_ok());
    }

    #[test]
    fn window_selects_half_open_interval() {
        let t = EventTrain::from_times(vec![0, 10, 20, 30, 40]);
        let w = t.window(10, 30);
        assert_eq!(w.times(), &[10, 20]);
        assert_eq!(w.total_events(), 2);
    }

    #[test]
    fn windows_cover_range() {
        let t = EventTrain::from_times(vec![0, 10, 20, 30, 40]);
        let ws = t.windows(0, 50, NonZeroU64::new(20).unwrap());
        assert_eq!(ws.len(), 3);
        assert_eq!(ws[0].len(), 2);
        assert_eq!(ws[1].len(), 2);
        assert_eq!(ws[2].len(), 1);
    }

    #[test]
    fn mean_rate_counts_weights() {
        let mut t = EventTrain::new();
        t.push(0, 2);
        t.push(50, 2);
        assert!((t.mean_rate(0, 100) - 0.04).abs() < 1e-12);
        assert_eq!(t.mean_rate(100, 100), 0.0);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut t: EventTrain = vec![1u64, 2, 3].into_iter().collect();
        t.extend(vec![(4u64, 2u32)]);
        assert_eq!(t.total_events(), 5);
    }

    #[test]
    fn empty_train_edge_cases() {
        let t = EventTrain::new();
        assert!(t.is_empty());
        assert_eq!(t.span(), None);
        assert_eq!(t.mean_rate(0, 100), 0.0);
        assert!(t.window(0, 10).is_empty());
    }

    #[test]
    fn symbol_series_alphabet() {
        let s = SymbolSeries::from_symbols(vec![3, 3, 7, 3, 9]);
        assert_eq!(s.alphabet_size(), 3);
        assert_eq!(s.as_f64()[2], 7.0);
    }

    #[test]
    fn pair_symbols_are_unique_for_eight_contexts() {
        let mut seen = std::collections::HashSet::new();
        for r in 0..8u8 {
            for v in 0..8u8 {
                assert!(seen.insert(pair_symbol(r, v, 8)));
            }
        }
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn out_of_range_pair_symbols_saturate_instead_of_overflowing() {
        assert_eq!(pair_symbol(200, 0, 8), u8::MAX);
        assert_eq!(pair_symbol(u8::MAX, u8::MAX, u8::MAX), u8::MAX);
        assert_eq!(pair_symbol(15, 15, 16), u8::MAX, "the largest exact symbol");
    }
}
