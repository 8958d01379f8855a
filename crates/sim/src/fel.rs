//! Calendar-queue future-event list: O(1) schedule/pop for the short-horizon
//! events that dominate a simulation run.
//!
//! [`CalendarQueue`] is a bucketed time wheel in the classic calendar-queue
//! family (Brown 1988) with an **overflow rung** for far-future events:
//!
//! * the wheel is a power-of-two array of buckets; an event lands in bucket
//!   `(at >> shift) & mask` (bucket width `1 << shift` µs) with one `Vec`
//!   push — no sift, no comparison chain;
//! * events beyond the wheel horizon (fault-plan triggers, long back-offs,
//!   end-of-run timers) go to the overflow rung, a small binary heap that is
//!   drained into the wheel as the cursor approaches their epoch;
//! * popping drains one bucket at a time into a sorted "current" run and
//!   then serves from its tail, so the per-event pop cost is a `Vec::pop`
//!   plus an amortized share of one small per-bucket sort;
//! * the wheel resizes itself when occupancy skews: bucket count doubles
//!   when the population outgrows the wheel, and the bucket width halves
//!   when buckets run systematically over-full. Both triggers depend only
//!   on queue content, never on the host, so resizing is deterministic.
//!
//! # Determinism contract
//!
//! Events pop in strict `(timestamp, sequence-number)` order — exactly the
//! total order the original [`HeapQueue`](crate::HeapQueue) produced. The
//! sequence number is assigned at schedule time, so same-instant events fire
//! in insertion order, which keeps whole simulations reproducible
//! bit-for-bit. `tests/fel_properties.rs` property-tests this equivalence
//! over arbitrary interleaved schedule/pop/peek sequences, and the pinned
//! `RunReport` digest goldens prove the engine-level swap was
//! behavior-invisible. Nothing scheduled can be cancelled: the engine drops
//! a stale event when it fires instead.
//!
//! ```
//! use lion_sim::CalendarQueue;
//!
//! let mut q = CalendarQueue::new();
//! q.schedule(30, "timeout");
//! q.schedule(10, "net");
//! q.schedule(60_000_000, "fault-trigger"); // overflow rung
//! assert_eq!(q.peek_time(), Some(10));
//! assert_eq!(q.pop(), Some((10, "net")));
//! assert_eq!(q.pop(), Some((30, "timeout")));
//! assert_eq!(q.pop(), Some((60_000_000, "fault-trigger")));
//! assert_eq!(q.pop(), None);
//! ```

use lion_common::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

pub(crate) struct Entry<E> {
    pub(crate) at: Time,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

// Overflow-rung ordering: a max-heap inverted to pop the earliest event,
// identical to the reference heap's tie-break.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// Default bucket count (power of two).
const DEFAULT_BUCKETS: usize = 256;
/// Default bucket width exponent: 8 µs buckets suit the LAN-delay-dominated
/// event mix of the engine's default network model.
const DEFAULT_SHIFT: u32 = 3;
/// Bucket-count ceiling: beyond this the wheel stops doubling (the overflow
/// rung and per-bucket sorts absorb the rest gracefully).
const MAX_BUCKETS: usize = 1 << 16;
/// A drained bucket larger than this counts as a "coarse width" strike.
const OVERFULL: usize = 16;
/// Consecutive-ish strikes before the bucket width halves.
const COARSE_STRIKES: u32 = 8;

/// A future-event list with O(1) schedule/pop: events are popped in
/// `(time, insertion)` order, byte-identically to
/// [`HeapQueue`](crate::HeapQueue).
///
/// The queue tracks `now`, the timestamp of the last popped event;
/// scheduling is relative via [`CalendarQueue::schedule`] or absolute via
/// [`CalendarQueue::schedule_at`]. Events scheduled in the past fire "now"
/// (clamped), preserving monotonic time.
pub struct CalendarQueue<E> {
    now: Time,
    seq: u64,
    /// Bucket width is `1 << shift` µs.
    shift: u32,
    /// `wheel.len() - 1`; bucket count is a power of two.
    mask: u64,
    /// Cursor: the absolute bucket index (`at >> shift`) most recently
    /// drained into `current`. Wheel events always have a strictly greater
    /// bucket index; `current` events never have a greater one.
    epoch: u64,
    wheel: Vec<Vec<Entry<E>>>,
    /// One bit per bucket: set iff the bucket is non-empty (makes cursor
    /// advancement a word-scan instead of a `Vec::is_empty` walk).
    occupied: Vec<u64>,
    /// Events in wheel buckets.
    wheel_len: usize,
    /// The drained run currently being served, sorted **descending** by
    /// `(at, seq)` so popping the earliest event is a `Vec::pop`.
    current: Vec<Entry<E>>,
    /// Overflow rung: events at least one full wheel revolution away.
    overflow: BinaryHeap<Entry<E>>,
    /// Width-skew accounting (see module docs).
    coarse_strikes: u32,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    /// Creates an empty queue at time zero with default geometry
    /// (256 buckets × 8 µs).
    pub fn new() -> Self {
        Self::with_geometry(DEFAULT_SHIFT, DEFAULT_BUCKETS)
    }

    /// Creates an empty queue sized for a known event-horizon profile:
    /// `horizons` lists the typical scheduling delays the caller expects
    /// (network delays, retry back-offs, epoch/flush intervals, …). The
    /// bucket width is derived from the *shortest* positive horizon — the
    /// events that dominate pop volume — so steady state needs no adaptive
    /// warm-up; far horizons ride the overflow rung by design.
    pub fn with_profile(horizons: &[Time]) -> Self {
        let min = horizons.iter().copied().filter(|&h| h > 0).min();
        let width = match min {
            // A quarter of the shortest common delay keeps same-bucket
            // collisions (and thus per-bucket sort sizes) small.
            Some(m) => (m / 4).max(1).next_power_of_two().min(1 << 10),
            None => 1 << DEFAULT_SHIFT,
        };
        Self::with_geometry(width.trailing_zeros(), DEFAULT_BUCKETS)
    }

    fn with_geometry(shift: u32, buckets: usize) -> Self {
        let buckets = buckets.max(64); // one bitmap word minimum
        debug_assert!(buckets.is_power_of_two());
        CalendarQueue {
            now: 0,
            seq: 0,
            shift,
            mask: buckets as u64 - 1,
            epoch: 0,
            wheel: (0..buckets).map(|_| Vec::new()).collect(),
            occupied: vec![0; buckets / 64],
            wheel_len: 0,
            current: Vec::new(),
            overflow: BinaryHeap::new(),
            coarse_strikes: 0,
        }
    }

    /// Current virtual time: the timestamp of the most recently popped
    /// event.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.current.len() + self.wheel_len + self.overflow.len()
    }

    /// True when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current bucket width in µs (exposed for tests and diagnostics).
    #[inline]
    pub fn bucket_width(&self) -> Time {
        1 << self.shift
    }

    /// Current bucket count (exposed for tests and diagnostics).
    #[inline]
    pub fn buckets(&self) -> usize {
        self.wheel.len()
    }

    /// Number of events currently parked on the overflow rung.
    #[inline]
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// Schedules `event` to fire `delay` µs from now.
    #[inline]
    pub fn schedule(&mut self, delay: Time, event: E) {
        self.schedule_at(self.now + delay, event)
    }

    /// Schedules `event` at absolute time `at`. Events scheduled in the past
    /// fire "now" (clamped), preserving monotonic time.
    pub fn schedule_at(&mut self, at: Time, event: E) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.place(Entry { at, seq, event });
        // Population pressure (overflow excluded — far-future events don't
        // need wheel coverage): double the bucket count so steady-state
        // occupancy stays O(1) per bucket.
        if self.current.len() + self.wheel_len > self.wheel.len() * 2
            && self.wheel.len() < MAX_BUCKETS
        {
            let buckets = self.wheel.len() * 2;
            self.rebuild(self.shift, buckets);
        }
    }

    /// Routes one entry to the current run, the wheel, or the overflow rung.
    #[inline]
    fn place(&mut self, e: Entry<E>) {
        let bucket = e.at >> self.shift;
        if bucket <= self.epoch {
            // The cursor already passed this bucket (a short-delay event
            // landing in the run being served): sorted-insert keeps the
            // current run's pop order exact.
            let key = e.key();
            let idx = self.current.partition_point(|s| s.key() > key);
            self.current.insert(idx, e);
        } else if bucket < self.epoch + self.wheel.len() as u64 {
            self.wheel_push(e);
        } else {
            self.overflow.push(e);
        }
    }

    #[inline]
    fn wheel_push(&mut self, e: Entry<E>) {
        let idx = ((e.at >> self.shift) & self.mask) as usize;
        self.occupied[idx / 64] |= 1 << (idx % 64);
        self.wheel[idx].push(e);
        self.wheel_len += 1;
    }

    /// Absolute bucket index of the earliest occupied wheel bucket.
    /// Precondition: `wheel_len > 0`. All wheel buckets hold indices in
    /// `(epoch, epoch + buckets)`, so one circular scan from the cursor
    /// visits them in time order; the occupancy bitmap makes the scan a
    /// word-at-a-time skip over empty runs.
    fn next_wheel_epoch(&self) -> u64 {
        let n = self.wheel.len() as u64;
        let mut step = 1u64;
        while step <= n {
            let idx = ((self.epoch + step) & self.mask) as usize;
            let bit = idx % 64;
            let masked = self.occupied[idx / 64] >> bit;
            if masked != 0 {
                let adv = masked.trailing_zeros() as u64;
                if step + adv <= n {
                    return self.epoch + step + adv;
                }
                // A set bit past the wrap point belongs to a bucket already
                // scanned this revolution (necessarily empty then and now),
                // which cannot happen — but fall through defensively.
            }
            // Jump to the next bitmap word boundary.
            step += (64 - bit) as u64;
        }
        unreachable!("wheel_len > 0 but no occupied bucket");
    }

    /// Ensures `current` holds the earliest pending events (or that the
    /// queue is empty), advancing the cursor and draining buckets as
    /// needed. `now` is untouched — only [`CalendarQueue::pop`] moves time.
    fn settle(&mut self) {
        while self.current.is_empty() {
            let target = if self.wheel_len == 0 {
                match self.overflow.peek() {
                    Some(top) => top.at >> self.shift,
                    None => return, // queue is empty
                }
            } else {
                let wheel_next = self.next_wheel_epoch();
                match self.overflow.peek() {
                    Some(top) if (top.at >> self.shift) < wheel_next => top.at >> self.shift,
                    _ => wheel_next,
                }
            };
            self.epoch = target;
            // Pull overflow events that came within the wheel horizon; an
            // event landing exactly on the cursor bucket is drained below.
            let horizon = self.epoch + self.wheel.len() as u64;
            while let Some(top) = self.overflow.peek() {
                if top.at >> self.shift >= horizon {
                    break;
                }
                let e = self.overflow.pop().expect("peeked");
                self.wheel_push(e);
            }
            let idx = (self.epoch & self.mask) as usize;
            if self.occupied[idx / 64] & (1 << (idx % 64)) != 0 {
                self.occupied[idx / 64] &= !(1 << (idx % 64));
                // The bucket becomes the current run, and the emptied run's
                // buffer becomes the bucket, so neither regrows from zero. A
                // buffer grown past an over-full bucket is dropped instead:
                // retained capacity stays bounded by the wheel's size.
                std::mem::swap(&mut self.current, &mut self.wheel[idx]);
                if self.wheel[idx].capacity() > OVERFULL {
                    self.wheel[idx] = Vec::new();
                }
                let run = &mut self.current;
                self.wheel_len -= run.len();
                // Descending sort: the earliest (at, seq) ends up last,
                // where Vec::pop serves it. Keys are unique, so the
                // unstable sort is still a total, deterministic order.
                run.sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
                let drained = run.len();
                // Width-skew detector: repeatedly over-full buckets halve
                // the bucket width. The rebuild re-seats *everything*
                // (including the run just drained) under the new geometry
                // and the loop re-settles, so pop order is unaffected.
                // Content-driven, therefore deterministic.
                if drained > OVERFULL {
                    self.coarse_strikes += 1;
                    if self.coarse_strikes >= COARSE_STRIKES && self.shift > 0 {
                        let buckets = self.wheel.len();
                        self.rebuild(self.shift - 1, buckets);
                    }
                } else if self.coarse_strikes > 0 {
                    self.coarse_strikes -= 1;
                }
            }
        }
    }

    /// Re-seats every pending event under a new geometry. O(len), amortized
    /// by the doubling/halving triggers.
    fn rebuild(&mut self, shift: u32, buckets: usize) {
        let mut pending: Vec<Entry<E>> = Vec::with_capacity(self.len());
        pending.append(&mut self.current);
        for b in &mut self.wheel {
            pending.append(b);
        }
        pending.extend(std::mem::take(&mut self.overflow));
        let now = self.now;
        let seq = self.seq;
        *self = Self::with_geometry(shift, buckets);
        self.now = now;
        self.seq = seq;
        self.epoch = now >> shift;
        for e in pending {
            self.place(e);
        }
    }

    /// Timestamp of the next event without popping it.
    ///
    /// Needs `&mut self`: peeking may drain the next bucket into the
    /// current run (virtual time itself is not advanced).
    #[inline]
    pub fn peek_time(&mut self) -> Option<Time> {
        self.settle();
        self.current.last().map(|e| e.at)
    }

    /// Pops the earliest event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.settle();
        let e = self.current.pop()?;
        debug_assert!(e.at >= self.now, "time must be monotonic");
        self.now = e.at;
        Some((e.at, e.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::new();
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
        let mut q = CalendarQueue::new();
        for i in 0..100 {
            q.schedule(5, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = CalendarQueue::new();
        q.schedule(10, ());
        q.pop();
        assert_eq!(q.now(), 10);
        q.schedule(5, ());
        assert_eq!(q.peek_time(), Some(15));
    }

    #[test]
    fn past_events_are_clamped_to_now() {
        let mut q = CalendarQueue::new();
        q.schedule(10, "later");
        q.pop();
        q.schedule_at(3, "past");
        assert_eq!(q.pop(), Some((10, "past")));
        assert_eq!(q.now(), 10);
    }

    #[test]
    fn len_and_is_empty() {
        let mut q: CalendarQueue<()> = CalendarQueue::new();
        assert!(q.is_empty());
        q.schedule(1, ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop_is_deterministic() {
        let mut q = CalendarQueue::new();
        q.schedule(2, 1u32);
        q.schedule(4, 2);
        let (t, e) = q.pop().unwrap();
        assert_eq!((t, e), (2, 1));
        q.schedule(1, 3); // fires at 3, before event 2
        assert_eq!(q.pop(), Some((3, 3)));
        assert_eq!(q.pop(), Some((4, 2)));
    }

    #[test]
    fn far_future_events_ride_the_overflow_rung() {
        let mut q = CalendarQueue::new();
        let horizon = q.bucket_width() * q.buckets() as u64;
        // Far beyond one wheel revolution: a fault trigger seconds away.
        q.schedule(horizon * 50 + 7, "fault");
        assert_eq!(q.overflow_len(), 1);
        q.schedule(3, "near");
        assert_eq!(q.pop(), Some((3, "near")));
        // The rung drains correctly even across the long empty gap.
        assert_eq!(q.pop(), Some((horizon * 50 + 7, "fault")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), horizon * 50 + 7);
    }

    #[test]
    fn overflow_event_pops_before_later_wheel_event() {
        // Regression shape: an overflow event whose epoch comes into range
        // must not be overtaken by a wheel event scheduled later in time.
        let mut q = CalendarQueue::with_geometry(0, 64); // 1 µs buckets
        q.schedule_at(100, 100u64); // beyond 64-bucket horizon → overflow
        assert_eq!(q.overflow_len(), 1);
        for t in 0..40 {
            q.schedule_at(t, t);
        }
        for t in 0..40 {
            assert_eq!(q.pop().map(|(at, _)| at), Some(t));
        }
        // Cursor moved; 100 is now within the horizon of later pops but was
        // parked on the rung — it must still fire before anything later.
        q.schedule_at(120, 120);
        assert_eq!(q.pop(), Some((100, 100)));
        assert_eq!(q.pop().map(|(at, _)| at), Some(120));
    }

    #[test]
    fn grows_buckets_under_population_pressure() {
        let mut q = CalendarQueue::with_geometry(0, 64);
        let before = q.buckets();
        for i in 0..1_000u64 {
            q.schedule(i % 50, i);
        }
        assert!(q.buckets() > before, "wheel should have doubled");
        let mut last = (0, 0);
        let mut n = 0;
        while let Some((at, i)) = q.pop() {
            assert!((at, i) >= last, "order preserved across rebuilds");
            last = (at, i);
            n += 1;
        }
        assert_eq!(n, 1_000);
    }

    #[test]
    fn overfull_buckets_halve_the_width() {
        // Everything lands in a handful of 1024 µs buckets → the skew
        // detector should refine the width.
        let mut q = CalendarQueue::with_geometry(10, 64);
        let w0 = q.bucket_width();
        let mut popped = 0;
        for round in 0..40u64 {
            for i in 0..32u64 {
                q.schedule(500 + (i % 7), round * 1000 + i);
            }
            for _ in 0..32 {
                assert!(q.pop().is_some());
                popped += 1;
            }
        }
        assert_eq!(popped, 40 * 32);
        assert!(q.bucket_width() < w0, "width should have refined");
    }

    #[test]
    fn with_profile_sizes_width_from_shortest_horizon() {
        let q: CalendarQueue<()> = CalendarQueue::with_profile(&[0, 40, 10_000, 50]);
        // min positive horizon 40 → 40/4 = 10 → next power of two = 16
        assert_eq!(q.bucket_width(), 16);
        let q2: CalendarQueue<()> = CalendarQueue::with_profile(&[]);
        assert_eq!(q2.bucket_width(), 1 << DEFAULT_SHIFT);
    }
}
