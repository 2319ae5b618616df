//! A fixed-capacity sliding-window ring buffer.
//!
//! The online daemons ([`crate::online`]) keep their observation windows
//! (≤ 512 OS quanta, paper §IV-B) in this structure: `push` is O(1), hands
//! back the evicted oldest slot so running aggregates (observation-weight
//! sums, bursty counts) can be updated incrementally instead of re-walking
//! the window every quantum, and iteration is always oldest → newest — the
//! order the checkpoint format and the batch recurrence analysis expect.

use std::num::NonZeroUsize;

/// Asks the CPU to start loading the cache line at `at`: a hint with no
/// effect on results.
#[inline(always)]
pub(crate) fn prefetch<T>(at: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch only hints the cache; it reads nothing and never
    // faults, whatever the address.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(at.cast());
    }
}

/// A ring buffer holding the most recent `capacity` pushed values.
#[derive(Debug, Clone)]
pub struct SlidingWindow<T> {
    slots: Vec<T>,
    /// Index of the oldest slot once the ring has wrapped (slots.len() ==
    /// capacity); zero while still filling.
    head: usize,
    capacity: NonZeroUsize,
}

impl<T> SlidingWindow<T> {
    /// Creates an empty window retaining at most `capacity` values.
    pub fn new(capacity: NonZeroUsize) -> Self {
        SlidingWindow {
            slots: Vec::with_capacity(capacity.get()),
            head: 0,
            capacity,
        }
    }

    /// Maximum number of retained values.
    pub fn capacity(&self) -> NonZeroUsize {
        self.capacity
    }

    /// Number of currently retained values.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the window holds no values.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether the window has reached its capacity.
    pub fn is_full(&self) -> bool {
        self.slots.len() == self.capacity.get()
    }

    /// Appends `value` as the newest slot, returning the evicted oldest
    /// value when the window was already full.
    pub fn push(&mut self, value: T) -> Option<T> {
        if self.slots.len() < self.capacity.get() {
            self.slots.push(value);
            return None;
        }
        let evicted = std::mem::replace(&mut self.slots[self.head], value);
        self.head = (self.head + 1) % self.capacity;
        Some(evicted)
    }

    /// Iterates the retained values, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let (wrapped, chronological) = self.slots.split_at(self.head);
        chronological.iter().chain(wrapped.iter())
    }

    /// The newest value, if any.
    pub fn newest(&self) -> Option<&T> {
        if self.slots.is_empty() {
            None
        } else if self.head == 0 {
            self.slots.last()
        } else {
            self.slots.get(self.head - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_wraps_in_order() {
        let mut w = SlidingWindow::new(NonZeroUsize::new(3).unwrap());
        assert!(w.is_empty());
        assert_eq!(w.push(1), None);
        assert_eq!(w.push(2), None);
        assert_eq!(w.push(3), None);
        assert!(w.is_full());
        assert_eq!(w.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(w.push(4), Some(1));
        assert_eq!(w.push(5), Some(2));
        assert_eq!(w.iter().copied().collect::<Vec<_>>(), vec![3, 4, 5]);
        assert_eq!(w.len(), 3);
        assert_eq!(w.newest(), Some(&5));
    }

    #[test]
    fn long_wrap_keeps_chronological_iteration() {
        let mut w = SlidingWindow::new(NonZeroUsize::new(5).unwrap());
        for i in 0..123 {
            w.push(i);
        }
        assert_eq!(
            w.iter().copied().collect::<Vec<_>>(),
            vec![118, 119, 120, 121, 122]
        );
        assert_eq!(w.newest(), Some(&122));
    }

    /// A zero capacity cannot reach a window: the one constructor that
    /// sizes one from a plain count refuses zero with a typed error.
    #[test]
    fn zero_capacity_rejected() {
        use crate::online::{OnlineWindow, PairKind};
        use crate::pipeline::CcHunterConfig;
        let refused = OnlineWindow::new(PairKind::Contention, CcHunterConfig::default(), 0);
        assert!(matches!(
            refused,
            Err(crate::DetectorError::InvalidConfig { .. })
        ));
    }
}
