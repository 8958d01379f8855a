//! The adaptor on the virtual clock: remaster, add-replica and migrate run
//! asynchronously beside transaction execution (§III), each a start the
//! cluster guards plus a completion event scheduled here.

use super::{Engine, Ev};
use crate::protocol::Protocol;
use lion_cluster::{AdaptorError, CopyLanded, Transfer};
use lion_common::{NodeId, PartitionId, Time};
use lion_obs::{ByteClass, MetricEvent};

impl Engine {
    /// Starts an asynchronous remaster; the placement flips after the
    /// returned duration. Conflicting requests surface as `Err` (the caller
    /// decides whether to fall back to 2PC, §III).
    pub fn remaster_async(&mut self, part: PartitionId, to: NodeId) -> Result<Time, AdaptorError> {
        let now = self.now();
        let started = self.cluster.begin_remaster(part, to, now);
        match started {
            Ok(d) => self.schedule_transfer_done(part, d),
            Err(AdaptorError::Busy(_)) => self.emit(MetricEvent::RemasterConflict { at: now }),
            Err(_) => {}
        }
        started
    }

    /// Starts a background replica copy; optionally chains a remaster once
    /// the copy lands (the planner's AddReplica action).
    pub fn add_replica_async(
        &mut self,
        part: PartitionId,
        to: NodeId,
        then_remaster: bool,
    ) -> Result<Time, AdaptorError> {
        let (d, bytes, stamp) = self.cluster.begin_add_replica(part, to)?;
        self.emit_bytes(ByteClass::Migration, bytes);
        self.queue.schedule(
            d,
            Ev::ReplicaCopied {
                part,
                node: to,
                stamp,
                then_remaster,
            },
        );
        Ok(d)
    }

    /// Starts a blocking migration of `part`'s primary to `to`.
    pub fn migrate_async(&mut self, part: PartitionId, to: NodeId) -> Result<Time, AdaptorError> {
        let now = self.now();
        let (d, bytes) = self.cluster.begin_migration(part, to, now)?;
        self.emit_bytes(ByteClass::Migration, bytes);
        self.schedule_transfer_done(part, d);
        Ok(d)
    }

    /// Schedules the completion of the hand-off `part` just started, `delay`
    /// from now, stamped with the generation that start opened.
    pub(super) fn schedule_transfer_done(&mut self, part: PartitionId, delay: Time) {
        let gen = self.cluster.parts[part.idx()].gen();
        self.queue.schedule(delay, Ev::TransferDone { part, gen });
    }

    /// The hand-off `part` had in flight when this event was scheduled
    /// completes: dispatch on what the cluster says it is. Stale — the single
    /// staleness rule for every hand-off — when `gen` is no longer the
    /// partition's transfer generation: a crash, a cut or a superseding
    /// promotion canceled it in the meantime.
    pub(super) fn transfer_done(&mut self, proto: &mut dyn Protocol, part: PartitionId, gen: u64) {
        if self.cluster.parts[part.idx()].gen() != gen {
            return;
        }
        let now = self.now();
        match self.cluster.transfer(part) {
            Transfer::Remaster { .. } => {
                self.abort_executed_on(part);
                let bytes = self.cluster.finish_remaster(part, now);
                self.emit(MetricEvent::Remaster { at: now, part });
                self.emit_bytes(ByteClass::Replication, bytes);
            }
            Transfer::Migrate { .. } => {
                self.abort_executed_on(part);
                self.cluster.finish_migration(part, now);
                self.emit(MetricEvent::Migration { at: now, part });
            }
            Transfer::Failover { .. } => self.finish_failover_event(proto, part),
            // Neither schedules a completion; a current generation without
            // a hand-off means someone finished it by hand (tests do).
            Transfer::Idle | Transfer::Stalled => {}
        }
    }

    /// The background copy of `part` onto `node` stamped `stamp` lands — or
    /// not: the cluster decides whether that copy is still the one in flight
    /// and whether both its ends lived to see it.
    pub(super) fn replica_copied(
        &mut self,
        part: PartitionId,
        node: NodeId,
        stamp: u64,
        then_remaster: bool,
    ) {
        let now = self.now();
        let CopyLanded::Added { evicted } = self.cluster.finish_add_replica(part, node, stamp, now)
        else {
            return;
        };
        self.emit(MetricEvent::ReplicaAdd {
            at: now,
            part,
            evicted: evicted.is_some(),
        });
        if then_remaster {
            // `node` is a holder now, so the only refusal left besides
            // "already primary" is a conflict, which `remaster_async` counts.
            let _ = self.remaster_async(part, node);
        }
    }
}
