//! Honest split-brain: both sides of a cut stay live, the quorum side
//! promotes what it lost, and the heal reconciles the divergence. Reachable
//! only from the event loop (protocols ask `txn_reachable` /
//! `park_until_heal` in `ops.rs`).

use super::ops::Requeue;
use super::{Engine, Ev};
use crate::protocol::Protocol;
use crate::txn::TxnCtx;
use lion_cluster::Cluster;
use lion_common::{NodeId, PartitionId};
use lion_faults::{plan_heal, plan_split_promotions, FaultNotice, SplitAction};
use lion_obs::run::FailoverRecord;
use lion_obs::MetricEvent;

impl Engine {
    /// True when every partition `ctx` accesses is served from its home
    /// node's side of the cut.
    pub(super) fn reachable(cluster: &Cluster, ctx: &TxnCtx) -> bool {
        ctx.parts
            .iter()
            .all(|&p| cluster.same_side(ctx.home, cluster.placement.primary_of(p)))
    }

    /// Re-admits parked heal waiters whose accessed partitions are all
    /// reachable from their home side again (after a split promotion, or
    /// after the heal closed the window entirely).
    fn resume_reachable_waiters(&mut self) {
        for txn in std::mem::take(&mut self.heal_waiters) {
            if !self.is_live(txn) {
                continue;
            }
            if self.txn_reachable(txn) {
                self.requeue(txn);
            } else {
                self.heal_waiters.push(txn);
            }
        }
    }

    /// Opens an honest split-brain window over the (still-live) `cut`
    /// nodes: both sides stay up, per-partition quorum sides freeze, the
    /// quorum side schedules real promotions for partitions it lost to the
    /// cut (shadow promotions when the quorum side *is* the isolated set),
    /// and in-flight transactions stranded across the cut park until
    /// reachability returns. No `Crash` events, no `NodeDown` notices —
    /// nothing actually died.
    pub(super) fn begin_split_brain(&mut self, cut: Vec<NodeId>) {
        let now = self.now();
        self.split_seq += 1;
        self.split_began_at = now;
        self.emit(MetricEvent::PartitionBegin { at: now });
        for part in self.cluster.begin_split(&cut, now) {
            self.promote_or_stall(part, now);
        }
        // Park in-flight transactions the cut strands mid-protocol.
        self.fault_abort(Requeue::Heal, |cluster, ctx| !Self::reachable(cluster, ctx));
        let decisions = plan_split_promotions(&self.cluster);
        if decisions
            .iter()
            .any(|d| matches!(d.action, SplitAction::Promote { .. }))
        {
            // Real promotions supersede cut-off primaries: epochs whose
            // frontiers those primaries certified can no longer turn
            // durable. Fence them like a crash — their parked acks retry,
            // none were ever released.
            self.abort_open_epochs();
        }
        for d in decisions {
            match d.action {
                SplitAction::Promote { target, duration } => {
                    self.emit(MetricEvent::UnavailBegin {
                        at: now,
                        part: d.part,
                    });
                    self.split_unavail_open.push(d.part);
                    self.queue.schedule(
                        duration,
                        Ev::SplitPromote {
                            part: d.part,
                            target,
                            seq: self.split_seq,
                        },
                    );
                }
                SplitAction::Shadow { target } => self.cluster.set_shadow(d.part, target),
                SplitAction::Stall => {
                    self.emit(MetricEvent::PartitionStalled {
                        at: now,
                        part: d.part,
                    });
                }
            }
        }
    }

    /// A quorum-side promotion lands mid-window: the global routing view
    /// flips to the quorum side's replica (the cut-off old primary demotes
    /// in place, its log intact for the heal audit) and rest-side waiters
    /// parked on this partition re-admit. Stale when `seq` is not the open
    /// window's (the split healed, or this is the next one), when the target
    /// died mid-window, or when the partition is already served from its
    /// quorum side.
    pub(super) fn split_promote_event(
        &mut self,
        proto: &mut dyn Protocol,
        part: PartitionId,
        target: NodeId,
        seq: u64,
    ) {
        let cluster = &self.cluster;
        if seq != self.split_seq
            || !cluster.split_active()
            || !cluster.is_up(target)
            || cluster.side_of(cluster.placement.primary_of(part)) == cluster.quorum_side_of(part)
        {
            return;
        }
        let now = self.now();
        self.abort_executed_on(part);
        let landed = self.promote_across_cut(part, target);
        self.emit(MetricEvent::UnavailEnd { at: now, part });
        self.split_unavail_open.retain(|&p| p != part);
        proto.on_fault(self, &landed);
        self.resume_reachable_waiters();
    }

    /// Hands `part` to `target` on its quorum side (mid-window promotion, or
    /// a shadow promotion applied at heal) and records the failover. Returns
    /// the notice the protocol is owed.
    fn promote_across_cut(&mut self, part: PartitionId, target: NodeId) -> FaultNotice {
        let now = self.now();
        let from = self.cluster.placement.primary_of(part);
        let dead_head = self.cluster.log_head(from, part);
        self.cluster.split_promote(part, target, now);
        let promoted_head = self
            .cluster
            .store(target, part)
            .map_or(0, |s| s.applied_lsn);
        self.record_failover(
            FailoverRecord {
                part,
                from,
                to: target,
                dead_head,
                promoted_head,
                lag: 0,
                crashed_at: self.split_began_at,
                completed_at: now,
            },
            0,
        )
    }

    /// The cut heals: reconcile the divergence the window accumulated.
    /// Order matters — (1) abort in-flight work on partitions whose serving
    /// primary is about to swap (prepare-locks must release against the
    /// placement that granted them), (2) adopt the quorum timeline by
    /// applying the recorded shadow promotions, (3) audit every stale
    /// replica's log for acked-then-lost work, then discard it, (4) close
    /// promotion windows the mid-window hand-off never closed, (5) abort
    /// the fenced epochs and retry their parked clients, (6) end the
    /// window, (7) re-add the discarded replicas via background snapshot
    /// copies — a re-add whose primary is down (crashed inside the window,
    /// its failover still in flight) waits for the promotion — and release
    /// every remaining parked waiter.
    pub(super) fn heal_split_brain(&mut self, proto: &mut dyn Protocol) {
        if !self.cluster.split_active() {
            return;
        }
        let now = self.now();
        self.emit(MetricEvent::PartitionHeal { at: now });
        let steps = plan_heal(&self.cluster);
        // Prepare-locks must release while the placement that granted them
        // still routes there.
        self.fault_abort(Requeue::Retry, |_, ctx| {
            steps
                .iter()
                .any(|s| s.shadow.is_some() && ctx.parts.contains(&s.part))
        });
        for step in &steps {
            if let Some(target) = step.shadow {
                let landed = self.promote_across_cut(step.part, target);
                proto.on_fault(self, &landed);
            }
        }
        for step in &steps {
            for &n in &step.stale {
                // The divergence audit: acked-but-never-replicated entries
                // on a timeline that just lost. Zero in epoch mode (fenced
                // acks never escaped); the optimistic minority-ack arm pays
                // its leak here.
                self.audit_acked_unshipped(n, step.part);
                self.cluster.drop_stale_secondary(step.part, n);
            }
        }
        for part in std::mem::take(&mut self.split_unavail_open) {
            self.emit(MetricEvent::UnavailEnd { at: now, part });
        }
        if self.epochs.enabled() {
            let abort = self.epochs.abort_fenced();
            self.emit(MetricEvent::DivergentEpochAborted {
                at: now,
                n: abort.epochs_aborted,
            });
            self.retry_unacked(abort.retried);
        }
        self.cluster.end_split();
        // Re-add the dropped replicas only now: a snapshot copy cannot cross
        // an open cut, so any earlier every one of these would be refused.
        // A node that died inside the window has nothing to copy onto; a
        // primary that died inside it has nothing to copy from until its
        // promotion lands (or it restarts), so that re-add is owed.
        for step in &steps {
            for &n in &step.stale {
                if !self.cluster.is_up(n) {
                    continue;
                }
                if self
                    .cluster
                    .is_up(self.cluster.placement.primary_of(step.part))
                {
                    self.rejoin_replica(step.part, n);
                } else {
                    self.owed_rejoins.push((step.part, n));
                }
            }
        }
        self.resume_reachable_waiters();
        debug_assert!(self.heal_waiters.is_empty(), "waiters survived the heal");
    }
}
