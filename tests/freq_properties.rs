//! Property test for `FreqTracker`'s cached window maximum.
//!
//! PR 2 replaced the per-query rescan of the previous window with a cached
//! `previous_max`, because `normalized()` runs on every routed transaction
//! and the rescan made routing O(partitions²) per transaction. The cache is
//! only sound if it stays consistent with a naive recompute across every
//! record / window-slide interleaving — which is exactly what this checks.
//! PR 19 added two more things the same model decides: the cached `heat()`
//! vector the router borrows, and `record_accesses`, the per-group batch
//! that must count and stamp exactly like that many single records.

use lion::cluster::FreqTracker;
use lion::common::{NodeId, PartitionId};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One tracker operation, drawn by proptest.
#[derive(Debug, Clone, Copy)]
enum FreqOp {
    /// `record_access(part, node)` at the given virtual time.
    Record { part: u32, node: u16, at: u64 },
    /// `record_accesses(part, node, at, n)`: one partition group's worth.
    RecordMany {
        part: u32,
        node: u16,
        at: u64,
        n: u64,
    },
    /// `roll_window()` — the planner tick that slides the window.
    Roll,
}

/// Naive model: the counts of the last complete window, recomputed from
/// scratch, and every replica's last-use stamp. `normalized` is defined
/// directly off `max(previous)`.
#[derive(Debug, Clone)]
struct NaiveModel {
    window: Vec<u64>,
    previous: Vec<u64>,
    stamps: BTreeMap<(u32, u16), u64>,
}

impl NaiveModel {
    fn new(n: usize) -> Self {
        NaiveModel {
            window: vec![0; n],
            previous: vec![0; n],
            stamps: BTreeMap::new(),
        }
    }
    fn record(&mut self, part: u32, node: u16, at: u64) {
        self.window[part as usize] += 1;
        self.stamps.insert((part, node), at);
    }
    fn roll(&mut self) {
        self.previous = std::mem::take(&mut self.window);
        self.window = vec![0; self.previous.len()];
    }
    fn normalized(&self, part: usize) -> f64 {
        let max = self.previous.iter().copied().max().unwrap_or(0);
        if max == 0 {
            0.0
        } else {
            self.previous[part] as f64 / max as f64
        }
    }
}

fn op_strategy(n_parts: u32, n_nodes: u16) -> impl Strategy<Value = FreqOp> {
    // Records dominate rolls ~4:1, roughly like routed transactions dominate
    // planner ticks; the exact ratio only shapes coverage, not correctness.
    (0u8..5, 0..n_parts, 0..n_nodes, 0u64..100_000, 1u64..70).prop_map(
        |(kind, part, node, at, n)| match kind {
            0 => FreqOp::Roll,
            1 => FreqOp::RecordMany { part, node, at, n },
            _ => FreqOp::Record { part, node, at },
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// After every operation of an arbitrary record/roll sequence, the
    /// tracker's `count`, `normalized`, `heat` and `last_used` agree with
    /// the naive recompute — i.e. neither cache can go stale and a batched
    /// record is `n` single ones.
    #[test]
    fn cached_window_max_matches_naive_recompute(
        ops in proptest::collection::vec(op_strategy(6, 3), 1..120),
    ) {
        const N_PARTS: usize = 6;
        let mut tracker = FreqTracker::new(N_PARTS);
        let mut model = NaiveModel::new(N_PARTS);
        for op in &ops {
            match *op {
                FreqOp::Record { part, node, at } => {
                    tracker.record_access(PartitionId(part), NodeId(node), at);
                    model.record(part, node, at);
                }
                FreqOp::RecordMany { part, node, at, n } => {
                    tracker.record_accesses(PartitionId(part), NodeId(node), at, n);
                    for _ in 0..n {
                        model.record(part, node, at);
                    }
                }
                FreqOp::Roll => {
                    tracker.roll_window();
                    model.roll();
                }
            }
            for p in 0..N_PARTS {
                let part = PartitionId(p as u32);
                prop_assert_eq!(
                    tracker.count(part),
                    model.previous[p],
                    "count diverged at op {:?}", op
                );
                let got = tracker.normalized(part);
                let want = model.normalized(p);
                prop_assert!(
                    (got - want).abs() < 1e-12,
                    "normalized({}) = {} but naive recompute says {} after {:?}",
                    part, got, want, op
                );
                prop_assert_eq!(tracker.heat()[p], got, "heat({}) is stale after {:?}", part, op);
                for node in 0..3u16 {
                    prop_assert_eq!(
                        tracker.last_used(part, NodeId(node)),
                        model.stamps.get(&(p as u32, node)).copied().unwrap_or(0),
                        "last_used({}, N{}) diverged at op {:?}", part, node, op
                    );
                }
            }
        }
    }

    /// Rolling twice with no records in between always zeroes the window:
    /// the cached max must drop back to 0 with it (a stale-cache smoking
    /// gun if it does not).
    #[test]
    fn double_roll_resets_normalized(
        hits in proptest::collection::vec(0u32..4, 0..40),
    ) {
        let mut tracker = FreqTracker::new(4);
        for &p in &hits {
            tracker.record_access(PartitionId(p), NodeId(0), 1);
        }
        tracker.roll_window();
        tracker.roll_window();
        for p in 0..4u32 {
            prop_assert_eq!(tracker.count(PartitionId(p)), 0);
            prop_assert_eq!(tracker.normalized(PartitionId(p)), 0.0);
        }
    }
}
