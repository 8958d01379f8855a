//! Calendar-queue FEL vs the binary-heap reference model.
//!
//! The engine's determinism contract requires the future-event list to pop
//! in strict `(timestamp, sequence-number)` order — the heap's tie-break.
//! These properties drive [`CalendarQueue`] and [`HeapQueue`] through
//! identical, arbitrarily interleaved schedule/pop/peek sequences
//! and assert the two drain in exactly the same order, across bucket-wheel
//! wraps, overflow-rung promotion, and deterministic resizes.

use lion::sim::{CalendarQueue, HeapQueue};
use proptest::prelude::*;

/// One scripted operation, decoded from `(kind, magnitude)`.
///
/// kinds 0..=2 schedule with increasing horizons — 2 lands far beyond the
/// default wheel horizon (the overflow rung); 3 pops; 4 peeks.
fn apply(
    ops: &[(u8, u64)],
    cal: &mut CalendarQueue<u64>,
    heap: &mut HeapQueue<u64>,
) -> Result<(), proptest::TestCaseError> {
    let mut tag = 0u64;
    for &(kind, mag) in ops {
        match kind {
            3 => prop_assert_eq!(cal.pop(), heap.pop()),
            4 => prop_assert_eq!(cal.peek_time(), heap.peek_time()),
            _ => {
                let delay = match kind {
                    0 => mag % 200,                     // short horizon: net/cpu delays
                    1 => mag % 20_000,                  // mid horizon: epoch timers
                    _ => 1_000_000 + mag % 100_000_000, // far: overflow rung
                };
                cal.schedule(delay, tag);
                heap.schedule(delay, tag);
                tag += 1;
            }
        }
        prop_assert_eq!(cal.len(), heap.len());
        prop_assert_eq!(cal.now(), heap.now());
    }
    // Drain what's left: identical order to the very end.
    loop {
        let (a, b) = (cal.pop(), heap.pop());
        prop_assert_eq!(a, b);
        if a.is_none() {
            return Ok(());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary interleavings over the full op vocabulary drain in
    /// identical order from both implementations.
    #[test]
    fn calendar_matches_heap_reference(
        ops in proptest::collection::vec((0u8..5, 0u64..u64::MAX / 2), 1..400),
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        apply(&ops, &mut cal, &mut heap)?;
    }

    /// Schedule-heavy near-horizon load forces the wheel to grow (and, with
    /// the clustered timestamps, usually the width to refine) mid-sequence;
    /// order must hold across every rebuild. Growth is *asserted*, not
    /// assumed: only wheel-resident events count toward the grow trigger,
    /// so every schedule here is near-horizon (kind 0) and pops are rare
    /// enough that the live population is guaranteed past the doubling
    /// threshold (>= 600 schedules, 1 pop per 10 ⇒ peak >= 540 > 2×256).
    #[test]
    fn resizes_preserve_drain_order(
        ops in proptest::collection::vec(0u64..u64::MAX / 2, 600..900),
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        let buckets_before = cal.buckets();
        let mut script: Vec<(u8, u64)> = Vec::new();
        for (i, &mag) in ops.iter().enumerate() {
            script.push((0, mag)); // near-horizon schedule
            if i % 10 == 9 {
                script.push((3, 0)); // pop: exercise draining mid-growth
            }
        }
        apply(&script, &mut cal, &mut heap)?;
        prop_assert!(
            cal.buckets() > buckets_before,
            "the wheel must actually have grown (had {} buckets, still {})",
            buckets_before,
            cal.buckets()
        );
    }
}

/// Overflow-rung edge case: an event scheduled far beyond the wheel horizon
/// must survive arbitrarily many revolutions of near-term traffic and still
/// fire in exact order — including against a same-timestamp rival scheduled
/// later (insertion order breaks the tie).
#[test]
fn overflow_rung_event_far_beyond_horizon() {
    let mut cal = CalendarQueue::new();
    let mut heap = HeapQueue::new();
    let horizon = cal.bucket_width() * cal.buckets() as u64;
    let far = horizon * 1000 + 3;
    cal.schedule_at(far, 0u64);
    heap.schedule_at(far, 0u64);
    assert_eq!(cal.overflow_len(), 1, "must park on the overflow rung");
    // Hundreds of wheel revolutions of near-term churn.
    for i in 0..5_000u64 {
        cal.schedule(1 + i % 97, i + 1);
        heap.schedule(1 + i % 97, i + 1);
        assert_eq!(cal.pop(), heap.pop());
    }
    // A same-instant rival scheduled later must lose the tie.
    cal.schedule_at(far, u64::MAX);
    heap.schedule_at(far, u64::MAX);
    let mut drained = Vec::new();
    while let Some(ev) = cal.pop() {
        assert_eq!(heap.pop(), Some(ev));
        drained.push(ev);
    }
    assert_eq!(heap.pop(), None);
    let n = drained.len();
    assert_eq!(
        drained[n - 2],
        (far, 0),
        "overflow event keeps its seniority"
    );
    assert_eq!(drained[n - 1], (far, u64::MAX));
}
