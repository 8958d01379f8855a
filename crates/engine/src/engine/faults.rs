//! Fault execution: crash → failover → recovery. Runs the lowered fault
//! schedule one step at a time; reachable only from the event loop.

use super::ops::Requeue;
use super::{Engine, Ev};
use crate::protocol::Protocol;
use crate::txn::TxnCtx;
use lion_cluster::{AdaptorError, Cluster, Transfer};
use lion_common::{NodeId, PartitionId, Time, TxnId};
use lion_faults::{plan_promotion, FaultKind, FaultNotice};
use lion_obs::run::FailoverRecord;
use lion_obs::{ByteClass, MetricEvent};

impl Engine {
    /// Executes the steps one scripted fault event lowered to (see
    /// [`lion_faults::FaultPlan::validate_against`]: zone events and
    /// default-mode partitions arrive here already expanded into
    /// `Crash`/`Recover`).
    pub(super) fn apply_fault(&mut self, proto: &mut dyn Protocol, steps: Vec<FaultKind>) {
        for step in steps {
            match step {
                FaultKind::Crash(node) => self.node_down(proto, node),
                FaultKind::Recover(node) => self.node_up_event(proto, node),
                // Correlated loss: the marker only — every live zone member's
                // `Crash` follows on this same tick, in node-id order. A member
                // that was the promotion target of an earlier member's failover
                // dies mid-promotion and is re-planned over the survivors.
                FaultKind::ZoneCrash(zone) => {
                    let at = self.now();
                    self.emit(MetricEvent::ZoneCrash { at, zone });
                }
                FaultKind::Partition(cut) => self.begin_split_brain(cut),
                FaultKind::Heal => self.heal_split_brain(proto),
                FaultKind::ZoneHeal(_) | FaultKind::ZonePartition(_) => {
                    unreachable!("lowered away by FaultPlan::validate_against")
                }
            }
        }
    }

    /// A node halts: abort in-flight transactions touching it, then promote
    /// the freshest live secondary for each partition it primaried (stalling
    /// partitions with no live replica until the node recovers).
    fn node_down(&mut self, proto: &mut dyn Protocol, node: NodeId) {
        let now = self.now();
        // The audit must read the dead node's log buffers *before*
        // `crash_node` drains them into the failover replay.
        for p in 0..self.cluster.n_partitions() {
            let part = PartitionId(p as u32);
            if self.cluster.placement.primary_of(part) == node {
                self.audit_acked_unshipped(node, part);
            }
        }
        let report = self.cluster.crash_node(node, now);
        self.emit(MetricEvent::Crash { at: now, node });
        self.abort_open_epochs();
        // In flight on the dead node: coordinator, participant, or accessed
        // primary.
        self.fault_abort(self.requeue_after_fault(), |cluster, ctx| {
            ctx.home == node
                || ctx.participants.contains(&node)
                || ctx
                    .parts
                    .iter()
                    .any(|&p| cluster.placement.primary_of(p) == node)
        });
        for part in report.orphaned {
            self.emit(MetricEvent::UnavailBegin { at: now, part });
            self.promote_or_stall(part, now);
        }
        // Promotions whose target just died: re-plan them over the
        // remaining survivors (their unavailability windows stay open, and
        // the partition keeps the original crash's failover context).
        for part in report.aborted_failovers {
            self.promote_or_stall(part, now);
        }
        proto.on_fault(self, &FaultNotice::NodeDown(node));
    }

    /// Executes [`plan_promotion`]'s decision for `part` — freshly orphaned,
    /// or its promotion canceled because the target died or was cut off:
    /// promote the chosen survivor over its priced duration. With nobody to
    /// promote, a primary that restarted meanwhile resumes (the promotion is
    /// abandoned, the window closes); only a dead primary stalls until its
    /// node restarts, the block re-armed every poll interval.
    pub(super) fn promote_or_stall(&mut self, part: PartitionId, now: Time) {
        let d = plan_promotion(&self.cluster, part);
        if let Some(target) = d.target {
            self.cluster.begin_failover(part, target, d.duration, now);
            self.schedule_transfer_done(part, d.duration);
        } else if let Some((resumed, bytes)) = self.cluster.abandon_failover(part, now) {
            self.emit_bytes(ByteClass::Replication, bytes);
            self.emit(MetricEvent::UnavailEnd { at: resumed, part });
            self.rejoin_owed(part);
        } else {
            self.emit(MetricEvent::PartitionStalled { at: now, part });
            self.arm_stall(part);
        }
    }

    /// Blocks stalled `part` for one more poll interval and schedules the
    /// check that re-arms the block.
    fn arm_stall(&mut self, part: PartitionId) {
        let poll = self.cfg.sim.stall_poll_us;
        self.cluster.stall_partition(part, self.now() + poll);
        self.queue.schedule(poll, Ev::StallCheck(part));
    }

    /// Re-extends the block on a partition stalled on a dead primary. Stale
    /// once the partition left `Stalled`: its primary restarted (or a cut
    /// canceled the stall), and the poll chain ends here.
    pub(super) fn stall_check(&mut self, part: PartitionId) {
        if self.cluster.transfer(part) == Transfer::Stalled {
            self.arm_stall(part);
        }
    }

    /// A failover promotion lands: replay the recovered prepare log, flip
    /// the placement, close the availability window.
    pub(super) fn finish_failover_event(&mut self, proto: &mut dyn Protocol, part: PartitionId) {
        let now = self.now();
        let Some(p) = self.cluster.finish_failover(part, now) else {
            return;
        };
        self.emit_bytes(ByteClass::Replication, p.bytes);
        let landed = self.record_failover(p.record, p.replayed);
        self.emit(MetricEvent::UnavailEnd { at: now, part });
        self.rejoin_owed(part);
        proto.on_fault(self, &landed);
    }

    /// Records a landed promotion in the failover log and returns the
    /// notice the protocol is owed for it.
    pub(super) fn record_failover(&mut self, record: FailoverRecord, replayed: u64) -> FaultNotice {
        let landed = FaultNotice::FailoverComplete {
            part: record.part,
            from: record.from,
            to: record.to,
        };
        self.emit(MetricEvent::Failover { record, replayed });
        landed
    }

    /// A node restarts: stalled partitions resume after a restart window
    /// priced like a remaster hand-off; partitions that failed over re-gain
    /// the node as a secondary via background snapshot copies.
    fn node_up_event(&mut self, proto: &mut dyn Protocol, node: NodeId) {
        let now = self.now();
        let report = self.cluster.recover_node(node, now);
        self.emit(MetricEvent::Recover { at: now, node });
        // `recover_node` ended the stalls behind the same restart window.
        let resumed = now + self.cfg.sim.remaster_delay_us;
        for part in report.restored_primaries {
            self.emit(MetricEvent::UnavailEnd { at: resumed, part });
            self.rejoin_owed(part);
        }
        for part in report.rejoin_secondaries {
            self.rejoin_replica(part, node);
        }
        proto.on_fault(self, &FaultNotice::NodeUp(node));
    }

    /// Re-adds `node` as a secondary of `part` through a background snapshot
    /// copy (a restarted node, or a replica a heal discarded).
    pub(super) fn rejoin_replica(&mut self, part: PartitionId, node: NodeId) {
        match self.add_replica_async(part, node, false) {
            // Already a holder, or the planner got there first.
            Ok(_) | Err(AdaptorError::AlreadyHosted { .. }) => {}
            // The partition's current primary is itself down or across an
            // open cut (a second failure in flight): nothing to copy from.
            // Counted, because nothing retries the rejoin.
            Err(_) => {
                let at = self.now();
                self.emit(MetricEvent::RemasterConflict { at });
            }
        }
    }

    /// `part` has a live primary again (its promotion landed, or its stalled
    /// primary restarted): issue the re-adds a heal owed it.
    fn rejoin_owed(&mut self, part: PartitionId) {
        while let Some(i) = self.owed_rejoins.iter().position(|&(p, _)| p == part) {
            let (part, node) = self.owed_rejoins.remove(i);
            self.rejoin_replica(part, node);
        }
    }

    /// Fault-aborts every in-flight transaction `touches` selects — the
    /// ones a crash, a cut or a heal-time primary swap pulls the ground from
    /// under — and requeues each at `to`.
    pub(super) fn fault_abort(&mut self, to: Requeue, touches: impl Fn(&Cluster, &TxnCtx) -> bool) {
        self.abort_selected(to, true, touches);
    }

    /// A hand-off that moves `part`'s primary lands: every attempt that
    /// executed on the partition stood on the old primary, so each ends in
    /// an ordinary abort and retries against the new one. No commit ever
    /// validates or installs at a primary other than the one it ran at, and
    /// none of these attempts has installed anything, since writes install
    /// only in [`Engine::commit`].
    pub(super) fn abort_executed_on(&mut self, part: PartitionId) {
        let to = self.requeue_after_fault();
        self.abort_selected(to, false, |_, ctx| ctx.executed_on(part));
    }

    /// Aborts every in-flight, non-parked attempt `touches` selects, in
    /// submission order, and requeues each at `to`; `fault` says whether
    /// the aborts count as fault aborts.
    fn abort_selected(
        &mut self,
        to: Requeue,
        fault: bool,
        touches: impl Fn(&Cluster, &TxnCtx) -> bool,
    ) {
        let mut victims: Vec<(u64, TxnId)> = self
            .txns
            .iter()
            .filter(|ctx| !ctx.parked && touches(&self.cluster, ctx))
            .map(|ctx| (ctx.seq, ctx.id))
            .collect();
        // Slab iteration follows slot order, which slot reuse decouples from
        // arrival order; sort by submission sequence for a deterministic
        // retry/defer sequence (same seed ⇒ identical recovery timeline).
        victims.sort_unstable();
        for (_, txn) in victims {
            self.abort_attempt(txn, fault, to);
        }
    }

    /// Where an attempt `abort_selected` ended retries from: the normal abort
    /// paths (back-off in standard mode, the next batch in batch mode).
    pub(super) fn requeue_after_fault(&self) -> Requeue {
        if self.batch_mode {
            Requeue::NextBatch
        } else {
            Requeue::Backoff
        }
    }

    /// The no-acked-commit-lost audit of one log that is about to lose — a
    /// crashed primary's, or a stale replica's at heal: counts entries acked
    /// to clients but never shipped to a secondary, writes a real deployment
    /// would lose *after* reporting success. Ack-at-commit mode leaks them
    /// freely (commit == ack, flush every `epoch_us`); epoch group commit
    /// keeps this at zero by construction: its one clock seals an epoch on
    /// the flush that ships it, and releases the acks only once that flush's
    /// round trip lands.
    pub(super) fn audit_acked_unshipped(&mut self, node: NodeId, part: PartitionId) {
        if let Some(store) = self.cluster.store(node, part) {
            let n = store.log.acked_unshipped();
            let at = self.now();
            self.emit(MetricEvent::AckedThenLost { at, n });
        }
    }
}
