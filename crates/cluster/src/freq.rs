//! Partition access-frequency tracking.
//!
//! The cost model (Eq. 4) prices remastering by the normalized access
//! frequency of the current primary, `f(v, Np(v, p))`: remastering a hot
//! primary disrupts in-flight work. Replica eviction likewise drops the
//! secondary with the lowest `f(v, n)`. We track per-partition access counts
//! in a sliding window plus a per-(partition, node) last-use stamp for
//! eviction tie-breaks.

use lion_common::{NodeId, PartitionId, Time};

/// Sliding-window access counters.
#[derive(Debug, Clone)]
pub struct FreqTracker {
    window: Vec<u64>,
    previous: Vec<u64>,
    /// Cached `max(previous)`: `previous` only changes on `roll_window`,
    /// while [`FreqTracker::normalized`] runs on every routed transaction —
    /// rescanning the window there made routing O(partitions²) per txn.
    previous_max: u64,
    /// Cached [`FreqTracker::normalized`] of every partition, the `freq`
    /// slice of the planner's cost model: rebuilt in `roll_window` for the
    /// same reason, because every routed attempt reads all of it.
    heat: Vec<f64>,
    /// Last-use stamp by partition, then node; 0 (or no slot) is "never".
    last_used: Vec<Vec<Time>>,
}

impl FreqTracker {
    /// Creates a tracker for `n_partitions` partitions.
    pub fn new(n_partitions: usize) -> Self {
        FreqTracker {
            window: vec![0; n_partitions],
            previous: vec![0; n_partitions],
            previous_max: 0,
            heat: vec![0.0; n_partitions],
            last_used: vec![Vec::new(); n_partitions],
        }
    }

    /// Records one access to `part` executed at `node`.
    pub fn record_access(&mut self, part: PartitionId, node: NodeId, now: Time) {
        self.record_accesses(part, node, now, 1);
    }

    /// Records `n` accesses to `part` executed at `node` in the same
    /// instant (a partition group): `n` calls of
    /// [`FreqTracker::record_access`] in one.
    pub fn record_accesses(&mut self, part: PartitionId, node: NodeId, now: Time, n: u64) {
        self.window[part.idx()] += n;
        self.touch(part, node, now);
    }

    /// Marks a replica as used without counting an access (remaster target,
    /// fresh copy), so brand-new replicas aren't immediately evicted.
    pub fn touch(&mut self, part: PartitionId, node: NodeId, now: Time) {
        let stamps = &mut self.last_used[part.idx()];
        stamps.resize(stamps.len().max(node.idx() + 1), 0);
        stamps[node.idx()] = now;
    }

    /// Rolls the window (called on planner ticks): current counts become the
    /// "previous" counts that queries read.
    pub fn roll_window(&mut self) {
        std::mem::swap(&mut self.previous, &mut self.window);
        self.window.iter_mut().for_each(|c| *c = 0);
        self.previous_max = self.previous.iter().copied().max().unwrap_or(0);
        for p in 0..self.heat.len() {
            self.heat[p] = self.normalized(PartitionId(p as u32));
        }
    }

    /// Raw access count of `part` in the last complete window.
    pub fn count(&self, part: PartitionId) -> u64 {
        self.previous[part.idx()]
    }

    /// Normalized access frequency in `[0, 1]` relative to the hottest
    /// partition of the last window (paper's `f(v, n)` for the primary).
    pub fn normalized(&self, part: PartitionId) -> f64 {
        let max = self.previous_max;
        if max == 0 {
            0.0
        } else {
            self.previous[part.idx()] as f64 / max as f64
        }
    }

    /// [`FreqTracker::normalized`] of every partition, indexed by partition:
    /// the `freq` argument of the planner's cost functions.
    pub fn heat(&self) -> &[f64] {
        &self.heat
    }

    /// Last time a replica of `part` on `node` was used (0 if never).
    pub fn last_used(&self, part: PartitionId, node: NodeId) -> Time {
        *self.last_used[part.idx()].get(node.idx()).unwrap_or(&0)
    }

    /// Among `candidates`, the coldest replica holder of `part` (lowest
    /// last-use stamp) — the eviction victim of §IV-B.2.
    pub fn coldest(&self, part: PartitionId, candidates: &[NodeId]) -> Option<NodeId> {
        candidates
            .iter()
            .copied()
            .min_by_key(|&n| self.last_used(part, n))
    }

    /// Drops bookkeeping for a removed replica: its stamp reads "never".
    pub fn forget(&mut self, part: PartitionId, node: NodeId) {
        self.touch(part, node, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PartitionId {
        PartitionId(i)
    }
    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn window_roll_exposes_counts() {
        let mut f = FreqTracker::new(3);
        f.record_access(p(0), n(0), 10);
        f.record_access(p(0), n(0), 11);
        f.record_access(p(2), n(1), 12);
        assert_eq!(f.count(p(0)), 0, "window not rolled yet");
        f.roll_window();
        assert_eq!(f.count(p(0)), 2);
        assert_eq!(f.count(p(2)), 1);
        assert!((f.normalized(p(0)) - 1.0).abs() < 1e-9);
        assert!((f.normalized(p(2)) - 0.5).abs() < 1e-9);
        f.roll_window();
        assert_eq!(f.count(p(0)), 0);
    }

    #[test]
    fn normalized_is_zero_when_idle() {
        let f = FreqTracker::new(2);
        assert_eq!(f.normalized(p(0)), 0.0);
    }

    #[test]
    fn coldest_picks_least_recently_used() {
        let mut f = FreqTracker::new(1);
        f.touch(p(0), n(0), 100);
        f.touch(p(0), n(1), 50);
        f.touch(p(0), n(2), 200);
        assert_eq!(f.coldest(p(0), &[n(0), n(1), n(2)]), Some(n(1)));
        assert_eq!(f.coldest(p(0), &[]), None);
        // a never-used node is coldest of all
        assert_eq!(f.coldest(p(0), &[n(0), n(3)]), Some(n(3)));
    }

    #[test]
    fn forget_clears_stamp() {
        let mut f = FreqTracker::new(1);
        f.touch(p(0), n(0), 5);
        f.forget(p(0), n(0));
        assert_eq!(f.last_used(p(0), n(0)), 0);
    }
}
