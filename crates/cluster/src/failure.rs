//! Node failure and recovery: crash, failover promotion (or stall), and
//! restart. The decision logic — which survivor to promote, at what price —
//! lives in `lion-faults`; this file executes it on the cluster state and
//! owns what a promotion carries from crash to landing ([`FailoverCtx`]).

use crate::cluster::Cluster;
use crate::replicas::Store;
use crate::transfer::Transfer;
use lion_common::{FailoverRecord, NodeId, PartitionId, Time};
use lion_storage::LogEntry;

/// What a failover carries from the crash that orphaned the partition to
/// the promotion that lands (or is abandoned, or stalls). Not the dead node
/// or its log head: the placement names it primary until then, and its
/// store keeps the log.
#[derive(Debug, Clone)]
pub(crate) struct FailoverCtx {
    /// When the primary crashed.
    crashed_at: Time,
    /// Its unshipped epoch buffer, recovered from the synchronously
    /// replicated prepare logs (empty when no live secondary could take it).
    replay: Vec<LogEntry>,
}

/// A landed promotion (returned by [`Cluster::finish_failover`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Promotion {
    /// Who took over from whom, at which heads, and when.
    pub record: FailoverRecord,
    /// Wire bytes the prepare-log replay shipped.
    pub bytes: u64,
    /// Prepare-log entries replayed to the survivors.
    pub replayed: u64,
}

/// What a node crash leaves behind (returned by [`Cluster::crash_node`]).
#[derive(Debug)]
pub struct CrashReport {
    /// Partitions the crash orphaned: their primary was on the dead node
    /// and no promotion away from it was already in flight. Each now
    /// carries its failover context and is owed a promotion or a stall.
    pub orphaned: Vec<PartitionId>,
    /// Partitions whose in-flight promotion targeted the dead node: it is
    /// canceled, its context kept, and the partition owed a re-plan.
    pub aborted_failovers: Vec<PartitionId>,
}

/// What a node restart requires (returned by [`Cluster::recover_node`]).
#[derive(Debug)]
pub struct RecoveryReport {
    /// Stalled partitions still primaried on the node: the restart ended
    /// their stall and they resume after the restart window.
    pub restored_primaries: Vec<PartitionId>,
    /// Partitions whose primaries failed over elsewhere: the node re-joins
    /// them as a secondary via a background snapshot copy.
    pub rejoin_secondaries: Vec<PartitionId>,
}

impl Cluster {
    /// Halts `node`: cancels transfers involving it, strips it from every
    /// secondary list, and reports the partitions it orphaned. Where an
    /// orphan still has a live secondary, the dead primary's unshipped epoch
    /// buffer is drained into the failover context as the prepare-log replay
    /// (§II-A replicated it synchronously at commit time, so the survivors
    /// can reconstruct those writes); stalled partitions keep their buffer
    /// for the restart. A primary that restarted mid-promotion and dies
    /// again orphans nothing new: the promotion in flight keeps its context,
    /// and whatever the node logged since is merged into that replay.
    pub fn crash_node(&mut self, node: NodeId, now: Time) -> CrashReport {
        assert!(self.is_up(node), "crash of an already-dead node {node}");
        assert!(
            self.live_count() > 1,
            "refusing to crash the last live node {node}"
        );
        self.node_up[node.idx()] = false;
        let mut orphaned = Vec::new();
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
            self.parts[p].copies.retain(|&(to, _)| to != node);
            if primary_dead {
                // During a split the drained epoch buffer can only reach
                // survivors on the dead node's own side of the cut.
                let has_live_secondary = self
                    .placement
                    .secondaries_of(part)
                    .iter()
                    .any(|&s| self.is_up(s) && self.same_side(s, node));
                if self.parts[p].failover.is_none() {
                    orphaned.push(part);
                    self.parts[p].failover = Some(FailoverCtx {
                        crashed_at: now,
                        replay: Vec::new(),
                    });
                }
                if has_live_secondary {
                    self.recover_prepare_log(part, node);
                }
            } else if self.placement.has_secondary(part, node) {
                self.detach(part, node, Store::KeptOnDisk);
            }
        }
        CrashReport {
            orphaned,
            aborted_failovers,
        }
    }

    /// Moves what `node` logged for `part` and never shipped into the
    /// partition's failover replay, behind what is already there.
    fn recover_prepare_log(&mut self, part: PartitionId, node: NodeId) {
        let store = self.stores[node.idx()].get_mut(&part.0);
        if let (Some(ctx), Some(store)) = (&mut self.parts[part.idx()].failover, store) {
            ctx.replay.extend(store.log.take_pending());
        }
    }

    /// Starts promoting `target` to primary of a `part`
    /// [`Cluster::crash_node`] orphaned. The partition blocks for `duration`
    /// (failure detection + hand-off + lag sync, priced by `lion-faults`).
    pub fn begin_failover(&mut self, part: PartitionId, target: NodeId, duration: Time, now: Time) {
        self.start(part, Transfer::Failover { to: target }, now + duration);
    }

    /// Nobody can be promoted for `part`. With its primary back up (it
    /// restarted mid-promotion, then the target died) the promotion is
    /// abandoned: the replay goes to the secondaries the primary reaches and
    /// the primary resumes behind [`Cluster::recover_node`]'s restart window.
    /// Returns `(resume time, bytes shipped)`, or `None` for a dead primary:
    /// the caller owes that one a [`Cluster::stall_partition`].
    pub fn abandon_failover(&mut self, part: PartitionId, now: Time) -> Option<(Time, u64)> {
        let primary = self.placement.primary_of(part);
        if !self.is_up(primary) {
            return None;
        }
        let ctx = self.parts[part.idx()].failover.take();
        let (bytes, _) = self.ship(part, primary, &ctx.map_or_else(Vec::new, |c| c.replay));
        self.resume_after_restart(part, now);
        Some((now + self.cfg.remaster_delay_us, bytes))
    }

    /// Marks `part` as stalled: its primary is down and no live replica can
    /// take over (the primary's own table holds all there is to replay, so
    /// the failover context goes). Operations block until `until`; the
    /// caller re-arms the stall until [`Cluster::recover_node`] ends it.
    pub fn stall_partition(&mut self, part: PartitionId, until: Time) {
        self.parts[part.idx()].failover = None;
        self.start(part, Transfer::Stalled, until);
    }

    /// Completes a failover: replays the recovered prepare-log entries to
    /// every secondary the promotion target can reach (itself included — it
    /// is still a listed secondary), promotes the target at the dead
    /// primary's durability frontier, and rewrites the placement (the dead
    /// node drops out of the replica set entirely). `None`, and nothing
    /// done, when no promotion is in flight.
    pub fn finish_failover(&mut self, part: PartitionId, now: Time) -> Option<Promotion> {
        let Transfer::Failover { to } = self.transfer(part) else {
            return None;
        };
        let dead = self.placement.primary_of(part);
        if self.is_up(dead) {
            // It restarted mid-promotion: it hands over whatever it logged
            // since, so it really is in sync when it stays on below.
            self.recover_prepare_log(part, dead);
        }
        let ctx = self.parts[part.idx()].failover.take()?;
        self.finish(part);
        // The durability frontier the new primary adopts: everything the
        // dead primary logged (its table state is reconstructed from the
        // epoch-flushed history plus the replayed prepare log).
        let dead_head = self.log_head(dead, part);
        let applied = |c: &Cluster| c.store(to, part).map_or(0, |s| s.applied_lsn);
        let lag = dead_head.saturating_sub(applied(self));
        let (bytes, _) = self.ship(part, to, &ctx.replay);
        let head = dead_head.max(applied(self));
        self.swap_primary(part, to, head, now);
        if self.is_up(dead) {
            // The node restarted while the promotion was in flight: keep it
            // as an in-sync secondary (its table held everything it logged).
            self.freq.touch(part, dead, now);
        } else {
            self.detach(part, dead, Store::KeptOnDisk);
        }
        Some(Promotion {
            record: FailoverRecord {
                part,
                from: dead,
                to,
                dead_head,
                promoted_head: head,
                lag,
                crashed_at: ctx.crashed_at,
                completed_at: now,
            },
            bytes,
            replayed: ctx.replay.len() as u64,
        })
    }

    /// `part`'s primary is up again: the partition leaves whatever it was
    /// in and serves after a restart window priced like a remaster hand-off.
    fn resume_after_restart(&mut self, part: PartitionId, now: Time) -> Transfer {
        let rt = &mut self.parts[part.idx()];
        rt.blocked_until = rt.blocked_until.max(now + self.cfg.remaster_delay_us);
        self.finish(part)
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
                let was = self.resume_after_restart(part, now);
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
            restored_primaries,
            rejoin_secondaries,
        }
    }
}
