//! Node failure and recovery: crash, failover promotion (or stall), and
//! restart. The decision logic — which survivor to promote, at what price —
//! lives in `lion-faults`; this file executes it on the cluster state.

use crate::cluster::Cluster;
use crate::replicas::Store;
use crate::transfer::Transfer;
use lion_common::{NodeId, PartitionId, Time};
use lion_storage::LogEntry;

/// What a node crash leaves behind (returned by [`Cluster::crash_node`]).
#[derive(Debug)]
pub struct CrashReport {
    /// The node that died.
    pub node: NodeId,
    /// Partitions whose primary was on the dead node, each with the
    /// prepare-log entries recovered from the synchronously replicated
    /// prepare logs (empty when the partition has no live secondary and
    /// must stall).
    pub orphaned: Vec<(PartitionId, Vec<LogEntry>)>,
    /// Partitions that lost a secondary replica (stripped from placement).
    pub lost_secondaries: Vec<PartitionId>,
    /// Partitions whose in-flight failover promotion targeted the dead
    /// node: the promotion is canceled and must be re-planned over the
    /// remaining survivors (or stalled when none are left).
    pub aborted_failovers: Vec<PartitionId>,
}

/// What a node restart requires (returned by [`Cluster::recover_node`]).
#[derive(Debug)]
pub struct RecoveryReport {
    /// The node that restarted.
    pub node: NodeId,
    /// Stalled partitions still primaried on the node: the restart ended
    /// their stall and they resume after the restart window.
    pub restored_primaries: Vec<PartitionId>,
    /// Partitions whose primaries failed over elsewhere: the node re-joins
    /// them as a secondary via a background snapshot copy.
    pub rejoin_secondaries: Vec<PartitionId>,
}

impl Cluster {
    /// Halts `node`: cancels transfers involving it, strips it from every
    /// secondary list, and reports the partitions it primaried. For each
    /// orphaned partition that still has a live secondary, the dead
    /// primary's unshipped epoch buffer is drained and returned as the
    /// prepare-log replay source (§II-A replicated it synchronously at
    /// commit time, so the survivors can reconstruct those writes); stalled
    /// partitions keep their buffer for the eventual restart.
    pub fn crash_node(&mut self, node: NodeId, now: Time) -> CrashReport {
        assert!(self.is_up(node), "crash of an already-dead node {node}");
        assert!(
            self.live_count() > 1,
            "refusing to crash the last live node {node}"
        );
        self.node_up[node.idx()] = false;
        let mut orphaned = Vec::new();
        let mut lost_secondaries = Vec::new();
        let mut aborted_failovers = Vec::new();
        for p in 0..self.n_partitions() {
            let part = PartitionId(p as u32);
            let primary = self.placement.primary_of(part);
            let primary_dead = primary == node;
            // Cancel a hand-off that involves the dead node: a remaster or
            // migration loses its source or its destination, a failover its
            // promotion target (the caller re-plans it over the remaining
            // survivors). The scheduled completion goes stale.
            let severed = match self.transfer(part) {
                Transfer::Failover { to } => to == node,
                other => other.target().is_some_and(|to| primary_dead || to == node),
            };
            if severed && self.cancel(part, now) {
                aborted_failovers.push(part);
            }
            self.cancel_copy(part, node);
            if primary_dead {
                // During a split the drained epoch buffer can only reach
                // survivors on the dead node's own side of the cut.
                let has_live_secondary = self
                    .placement
                    .secondaries_of(part)
                    .iter()
                    .any(|&s| self.is_up(s) && self.same_side(s, node));
                let replay = if has_live_secondary {
                    self.store_mut(node, part)
                        .map(|s| s.log.take_pending())
                        .unwrap_or_default()
                } else {
                    Vec::new()
                };
                orphaned.push((part, replay));
            } else if self.placement.has_secondary(part, node) {
                self.detach(part, node, Store::KeptOnDisk);
                lost_secondaries.push(part);
            }
        }
        CrashReport {
            node,
            orphaned,
            lost_secondaries,
            aborted_failovers,
        }
    }

    /// Starts promoting `target` to primary of `part` after its primary
    /// died. The partition blocks for `duration` (failure detection +
    /// hand-off + lag sync, priced by `lion-faults`).
    pub fn begin_failover(&mut self, part: PartitionId, target: NodeId, duration: Time, now: Time) {
        self.start(part, Transfer::Failover { to: target }, now + duration);
    }

    /// Marks `part` as stalled: its primary is down and no live replica can
    /// take over. Operations block until `until`; the caller re-arms the
    /// stall until [`Cluster::recover_node`] ends it.
    pub fn stall_partition(&mut self, part: PartitionId, until: Time) {
        self.start(part, Transfer::Stalled, until);
    }

    /// Completes a failover: replays the recovered prepare-log entries to
    /// every secondary the promotion target can reach (itself included — it
    /// is still a listed secondary), promotes the target at the dead
    /// primary's durability frontier, and rewrites the placement (the dead
    /// node drops out of the replica set entirely). Returns `(wire bytes
    /// shipped, adopted head LSN)`.
    pub fn finish_failover(
        &mut self,
        part: PartitionId,
        replay: &[LogEntry],
        now: Time,
    ) -> (u64, u64) {
        let Transfer::Failover { to } = self.finish(part) else {
            panic!("finish_failover without begin_failover");
        };
        let dead = self.placement.primary_of(part);
        let (shipped, _) = self.ship(part, to, replay);

        // The durability frontier the new primary adopts: everything the
        // dead primary logged (its table state is reconstructed from the
        // epoch-flushed history plus the replayed prepare log).
        let dead_head = self
            .store(dead, part)
            .map(|s| s.log.head_lsn())
            .unwrap_or(0);
        let target = self.store(to, part).expect("failover target holds a store");
        let head = dead_head.max(target.applied_lsn);
        self.swap_primary(part, to, head, now);
        if self.is_up(dead) {
            // The node restarted while the promotion was in flight: keep it
            // as an in-sync secondary (its table held everything it logged).
            self.freq.touch(part, dead, now);
        } else {
            self.detach(part, dead, Store::KeptOnDisk);
        }
        (shipped, head)
    }

    /// Restarts `node`: marks it live again and reports what must happen
    /// next. Partitions still primaried on it (they stalled through the
    /// outage) leave `Stalled` and resume after a restart window priced like
    /// a remaster hand-off; partitions whose primaries failed over elsewhere
    /// discard their stale local copy and re-join as secondaries via
    /// background snapshot copies.
    pub fn recover_node(&mut self, node: NodeId, now: Time) -> RecoveryReport {
        assert!(!self.is_up(node), "recover of a live node {node}");
        self.node_up[node.idx()] = true;
        let mut restored_primaries = Vec::new();
        let mut rejoin_secondaries = Vec::new();
        for p in 0..self.n_partitions() {
            let part = PartitionId(p as u32);
            if self.placement.primary_of(part) == node {
                if matches!(self.transfer(part), Transfer::Failover { .. }) {
                    // A promotion is in flight: let it land; the restarted
                    // node is kept as a secondary when it completes.
                    continue;
                }
                let rt = &mut self.parts[p];
                rt.blocked_until = rt.blocked_until.max(now + self.cfg.remaster_delay_us);
                let was = self.finish(part);
                debug_assert_eq!(
                    was,
                    Transfer::Stalled,
                    "{part} outlived its primary unstalled"
                );
                restored_primaries.push(part);
            } else if !self.placement.has_replica(part, node) && self.store(node, part).is_some() {
                // The disk copy its crash left behind predates the crash and
                // the log shipped past it: drop it and re-sync from a fresh
                // snapshot.
                self.detach(part, node, Store::Dropped);
                rejoin_secondaries.push(part);
            }
        }
        RecoveryReport {
            node,
            restored_primaries,
            rejoin_secondaries,
        }
    }
}
