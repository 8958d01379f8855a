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
//! The last-use stamps are per-partition, per-node vectors that grow on a
//! stamp, so the model also checks `touch`, `forget` and `coldest` against
//! a map, node ids no operation ever stamped included.

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
    /// `touch(part, node, at)`: a stamp without an access.
    Touch { part: u32, node: u16, at: u64 },
    /// `forget(part, node)`: the replica left; its stamp reads "never".
    Forget { part: u32, node: u16 },
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
    fn last_used(&self, part: u32, node: u16) -> u64 {
        self.stamps.get(&(part, node)).copied().unwrap_or(0)
    }
    /// The first of `nodes` with the lowest stamp, like `Iterator::min_by_key`.
    fn coldest(&self, part: u32, nodes: &[NodeId]) -> Option<NodeId> {
        let mut best: Option<(u64, NodeId)> = None;
        for &n in nodes {
            let stamp = self.last_used(part, n.0);
            if best.is_none_or(|(b, _)| stamp < b) {
                best = Some((stamp, n));
            }
        }
        best.map(|(_, n)| n)
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
    // Touches and forgets, the replica-set changes, ride along at 1:8 each.
    (0u8..8, 0..n_parts, 0..n_nodes, 0u64..100_000, 1u64..70).prop_map(
        |(kind, part, node, at, n)| match kind {
            0 => FreqOp::Roll,
            1 => FreqOp::RecordMany { part, node, at, n },
            2 => FreqOp::Touch { part, node, at },
            3 => FreqOp::Forget { part, node },
            _ => FreqOp::Record { part, node, at },
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// After every operation of an arbitrary record/roll/touch/forget
    /// sequence, the tracker's `count`, `normalized`, `heat`, `last_used`
    /// and `coldest` agree with the naive recompute — i.e. neither cache can
    /// go stale, a batched record is `n` single ones, and a node id no
    /// operation stamped (past every stamp vector's end) reads "never".
    #[test]
    fn cached_window_max_matches_naive_recompute(
        ops in proptest::collection::vec(op_strategy(6, 3), 1..120),
    ) {
        const N_PARTS: usize = 6;
        // Stamped nodes are 0..3; 3 and 4 are never stamped.
        let all_nodes: Vec<NodeId> = (0..5).map(NodeId).collect();
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
                FreqOp::Touch { part, node, at } => {
                    tracker.touch(PartitionId(part), NodeId(node), at);
                    model.stamps.insert((part, node), at);
                }
                FreqOp::Forget { part, node } => {
                    tracker.forget(PartitionId(part), NodeId(node));
                    model.stamps.remove(&(part, node));
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
                for &node in &all_nodes {
                    prop_assert_eq!(
                        tracker.last_used(part, node),
                        model.last_used(p as u32, node.0),
                        "last_used({}, {}) diverged at op {:?}", part, node, op
                    );
                }
                for nodes in [&all_nodes[..], &all_nodes[..3]] {
                    prop_assert_eq!(
                        tracker.coldest(part, nodes),
                        model.coldest(p as u32, nodes),
                        "coldest({}, {:?}) diverged at op {:?}", part, nodes, op
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
