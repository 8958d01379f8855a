//! The split-brain view (honest network partitions): which side of the cut
//! each node is on, which side owns each partition's durable timeline, and
//! the window's begin, quorum-side promotion, stale-replica drop and end.

use crate::cluster::Cluster;
use crate::replicas::Store;
use lion_common::{NodeId, PartitionId, Time};

/// Live split-brain state (honest `Partition` semantics): both sides of the
/// cut stay up, and per data partition exactly one side — the one holding a
/// strict majority of the replica set's then-live holders — owns the
/// durable timeline. Frozen at split begin, dissolved at heal.
#[derive(Debug, Clone)]
pub struct SplitBrain {
    /// Per-node side: `0` = the rest of the cluster, `1` = the isolated set.
    pub side_of: Vec<u8>,
    /// Per data partition, the quorum side (same encoding as
    /// [`SplitBrain::side_of`]) — only epochs sealed on this side may turn
    /// durable. **Frozen at split begin**: crashes inside the window never
    /// move the quorum (plan validation guarantees it survives).
    pub quorum_side: Vec<u8>,
    /// Per data partition, the quorum-side shadow-promotion target recorded
    /// when the serving primary sits cut off on the *non*-quorum side. The
    /// old primary keeps serving its side for the whole window (its commits
    /// are quorum-fenced); the shadow remaster is applied for real at heal.
    pub shadow: Vec<Option<NodeId>>,
}

impl Cluster {
    /// True while a split-brain window is open.
    #[inline]
    pub fn split_active(&self) -> bool {
        self.split.is_some()
    }

    /// Side of the cut hosting `node` (`0` = rest, `1` = isolated; `0` for
    /// every node when no split is active).
    #[inline]
    pub fn side_of(&self, node: NodeId) -> u8 {
        self.split.as_ref().map_or(0, |s| s.side_of[node.idx()])
    }

    /// True when `a` and `b` can exchange messages as far as the cut is
    /// concerned (always true outside split-brain windows).
    #[inline]
    pub fn same_side(&self, a: NodeId, b: NodeId) -> bool {
        self.side_of(a) == self.side_of(b)
    }

    /// True when a message from `from` can actually reach `to`: both nodes
    /// live and on the same side of any active cut. The one predicate behind
    /// the adaptor's start guard and [`Cluster::ship`].
    #[inline]
    pub(crate) fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        self.is_up(from) && self.is_up(to) && self.same_side(from, to)
    }

    /// Quorum side of `part` under the active split (`0` when none): the
    /// side frozen at split begin as holder of a strict majority of the
    /// partition's replica set.
    #[inline]
    pub fn quorum_side_of(&self, part: PartitionId) -> u8 {
        self.split.as_ref().map_or(0, |s| s.quorum_side[part.idx()])
    }

    /// Shadow-promotion target recorded for `part`, if any.
    #[inline]
    pub fn shadow_of(&self, part: PartitionId) -> Option<NodeId> {
        self.split.as_ref().and_then(|s| s.shadow[part.idx()])
    }

    /// Records the quorum-side shadow-promotion target for `part` (applied
    /// for real at heal; see [`SplitBrain::shadow`]).
    pub fn set_shadow(&mut self, part: PartitionId, to: NodeId) {
        let s = self.split.as_mut().expect("shadow outside split window");
        s.shadow[part.idx()] = Some(to);
    }

    /// Opens a split-brain window isolating `isolated` from the rest of the
    /// cluster. Freezes each data partition's quorum side over its then-live
    /// replica holders and cancels every in-flight transfer that straddles
    /// the cut (remaster/migration/failover targets and background copy
    /// destinations cut off from the serving primary) — their scheduled
    /// completions go stale via the generation bump. Returns the partitions
    /// whose in-flight failovers were aborted so the caller can re-plan
    /// them on the quorum side.
    pub fn begin_split(&mut self, isolated: &[NodeId], now: Time) -> Vec<PartitionId> {
        assert!(self.split.is_none(), "split window already open");
        let mut side_of = vec![0u8; self.cfg.nodes];
        for n in isolated {
            side_of[n.idx()] = 1;
        }
        let n_parts = self.n_partitions();
        let (up, side) = (|n: NodeId| self.is_up(n), |n: NodeId| side_of[n.idx()]);
        let quorum_side = (0..n_parts as u32)
            .map(PartitionId)
            .map(|part| {
                // Plan validation guarantees one side holds a strict majority
                // of the full replica set; the fallback (more live holders,
                // rest side on a tie) only fires for hand-built clusters
                // that bypassed validation.
                self.placement
                    .quorum_side(part, up, side)
                    .unwrap_or_else(|| {
                        let holders = self.placement.replica_nodes(part);
                        let live_on =
                            |s| holders.iter().filter(|&&h| up(h) && side(h) == s).count();
                        u8::from(live_on(1) > live_on(0))
                    })
            })
            .collect();
        self.split = Some(SplitBrain {
            side_of,
            quorum_side,
            shadow: vec![None; n_parts],
        });
        let mut aborted_failovers = Vec::new();
        for p in 0..n_parts {
            let part = PartitionId(p as u32);
            let sp = self.placement.primary_of(part);
            let target = self.transfer(part).target();
            if target.is_some_and(|to| !self.same_side(sp, to)) && self.cancel(part, now) {
                aborted_failovers.push(part);
            }
            self.cancel_cut_off_copies(part, sp);
        }
        aborted_failovers
    }

    /// Drops `part`'s background copies whose destination an active cut
    /// separates from `primary`, the node they snapshot from.
    fn cancel_cut_off_copies(&mut self, part: PartitionId, primary: NodeId) {
        if let Some(split) = &self.split {
            let side = split.side_of[primary.idx()];
            let copies = &mut self.parts[part.idx()].copies;
            copies.retain(|(n, _)| split.side_of[n.idx()] == side);
        }
    }

    /// Closes the split-brain window, returning its final state (shadow
    /// targets, quorum sides) for the heal coordinator's reconciliation
    /// bookkeeping. Reachability reverts to plain liveness.
    pub fn end_split(&mut self) -> Option<SplitBrain> {
        self.split.take()
    }

    /// Quorum-side promotion during a split: `part`'s serving primary sits
    /// cut off on the non-quorum side, so the quorum side promotes `to`
    /// **without any cross-cut replay** — the new primary adopts its own
    /// applied head, and everything the old primary logged past it is the
    /// divergent timeline discovered at heal. The old primary demotes in
    /// place (its log and ack frontier survive for the heal audit) and
    /// stays listed as a stale secondary until heal drops and re-adds it.
    pub fn split_promote(&mut self, part: PartitionId, to: NodeId, now: Time) {
        let old = self.placement.primary_of(part);
        debug_assert!(
            !self.same_side(old, to),
            "split promotion within one side — use a plain failover"
        );
        // Whatever was in flight belonged to the superseded primary — a
        // failover's replay included: it never crosses the cut.
        self.cancel(part, now);
        self.parts[part.idx()].failover = None;
        let head = self
            .store(to, part)
            .expect("split promotion target has a store")
            .applied_lsn;
        self.swap_primary(part, to, head, now);
        self.cancel_cut_off_copies(part, to);
    }

    /// Drops a stale secondary during heal reconciliation: the replica
    /// either missed the durable timeline's flushes across the cut or held
    /// the divergent timeline itself, so its copy is discarded outright and
    /// the caller re-adds the node through a background snapshot copy (the
    /// [`Cluster::recover_node`] re-join pattern).
    pub fn drop_stale_secondary(&mut self, part: PartitionId, node: NodeId) {
        self.detach(part, node, Store::Dropped);
    }
}
