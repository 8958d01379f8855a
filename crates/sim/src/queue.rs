//! Binary-heap future-event list: the reference model.
//!
//! [`HeapQueue`] is the original `BinaryHeap`-backed implementation of the
//! future-event list, kept in-tree as the reference model:
//! `tests/fel_properties.rs` drives it and the calendar queue
//! ([`CalendarQueue`](crate::CalendarQueue), the engine's production FEL)
//! with identical schedule/pop/peek sequences and asserts byte-identical
//! drain order.
//!
//! The pop order is strict `(timestamp, sequence-number)`: the sequence
//! number makes same-instant ordering deterministic, which keeps whole
//! simulations reproducible bit-for-bit.
//!
//! ```
//! use lion_sim::HeapQueue;
//!
//! let mut q = HeapQueue::new();
//! q.schedule(20, "b");
//! q.schedule(10, "a");
//! assert_eq!(q.peek_time(), Some(10));
//! assert_eq!(q.pop(), Some((10, "a")));
//! assert_eq!(q.pop(), Some((20, "b")));
//! ```

use lion_common::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Scheduled<E> {
    at: Time,
    seq: u64,
    event: E,
}

// Order by earliest time first, then by insertion order. The sequence number
// makes same-instant ordering deterministic, which keeps whole simulations
// reproducible bit-for-bit.
impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to pop the earliest event.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A future-event list popping in `(time, insertion)` order, backed by a
/// binary heap: O(log n) schedule/pop.
///
/// The queue tracks `now`, the timestamp of the last popped event;
/// scheduling is relative via [`HeapQueue::schedule`] or absolute via
/// [`HeapQueue::schedule_at`].
pub struct HeapQueue<E> {
    now: Time,
    seq: u64,
    heap: BinaryHeap<Scheduled<E>>,
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        HeapQueue {
            now: 0,
            seq: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// Current virtual time: the timestamp of the most recently popped
    /// event.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedules `event` to fire `delay` µs from now.
    pub fn schedule(&mut self, delay: Time, event: E) {
        self.schedule_at(self.now + delay, event)
    }

    /// Schedules `event` at absolute time `at`. Events scheduled in the past
    /// fire "now" (clamped), preserving monotonic time.
    pub fn schedule_at(&mut self, at: Time, event: E) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.heap.push(Scheduled { at, seq, event });
        self.seq += 1;
    }

    /// Pops the earliest event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let s = self.heap.pop()?;
        debug_assert!(s.at >= self.now, "time must be monotonic");
        self.now = s.at;
        Some((s.at, s.event))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|s| s.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = HeapQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_time_pops_in_insertion_order() {
        let mut q = HeapQueue::new();
        for i in 0..100 {
            q.schedule(5, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = HeapQueue::new();
        q.schedule(10, ());
        q.pop();
        assert_eq!(q.now(), 10);
        q.schedule(5, ());
        assert_eq!(q.peek_time(), Some(15));
    }

    #[test]
    fn past_events_are_clamped_to_now() {
        let mut q = HeapQueue::new();
        q.schedule(10, "later");
        q.pop();
        q.schedule_at(3, "past");
        assert_eq!(q.pop(), Some((10, "past")));
        assert_eq!(q.now(), 10);
    }

    #[test]
    fn len_and_is_empty() {
        let mut q: HeapQueue<()> = HeapQueue::new();
        assert!(q.is_empty());
        q.schedule(1, ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop_is_deterministic() {
        let mut q = HeapQueue::new();
        q.schedule(2, 1u32);
        q.schedule(4, 2);
        let (t, e) = q.pop().unwrap();
        assert_eq!((t, e), (2, 1));
        q.schedule(1, 3); // fires at 3, before event 2
        assert_eq!(q.pop(), Some((3, 3)));
        assert_eq!(q.pop(), Some((4, 2)));
    }
}
