//! The simulated cluster: nodes, replica stores, adaptor operations.

use crate::freq::FreqTracker;
use lion_common::{FastMap, NodeId, PartitionId, SimConfig, Time, ZoneId};
use lion_sim::MultiServer;
use lion_storage::{LogEntry, ReplicaRole, ReplicaStore};
use std::fmt;

/// Per-µs cost of syncing one lagging log entry during remastering (and,
/// identically, during failover promotion — see `lion-faults`).
pub const LAG_SYNC_US_PER_ENTRY: Time = 1;

/// Errors from adaptor operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptorError {
    /// Another remaster/migration is already in flight for the partition.
    Busy(PartitionId),
    /// The target node holds no replica of the partition.
    NoReplica { part: PartitionId, node: NodeId },
    /// The target node already is the primary.
    AlreadyPrimary { part: PartitionId, node: NodeId },
    /// The target node already holds (or is copying) a replica.
    AlreadyHosted { part: PartitionId, node: NodeId },
}

impl fmt::Display for AdaptorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdaptorError::Busy(p) => write!(f, "{p} already has a replica operation in flight"),
            AdaptorError::NoReplica { part, node } => {
                write!(f, "{node} holds no replica of {part}")
            }
            AdaptorError::AlreadyPrimary { part, node } => {
                write!(f, "{node} is already primary of {part}")
            }
            AdaptorError::AlreadyHosted { part, node } => {
                write!(f, "{node} already hosts/copies a replica of {part}")
            }
        }
    }
}

impl std::error::Error for AdaptorError {}

/// The one primary hand-off a partition can have in flight. The states are
/// mutually exclusive by construction; only [`Cluster`] moves a partition
/// between them (one start path in, `finish_*` or a cancel out).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transfer {
    /// Nothing in flight: the placement's primary serves.
    #[default]
    Idle,
    /// Mastership is moving onto the secondary at `to` (§III).
    Remaster {
        /// The secondary being promoted.
        to: NodeId,
    },
    /// The primary's data is moving to `to` (the baselines' blocking path).
    Migrate {
        /// The destination node.
        to: NodeId,
    },
    /// The primary died and the survivor at `to` is being promoted.
    Failover {
        /// The promotion target.
        to: NodeId,
    },
    /// The primary's node is down and no live replica can take over: every
    /// operation stalls until the node recovers.
    Stalled,
}

impl Transfer {
    /// The node the hand-off makes primary, if one is in flight.
    pub fn target(self) -> Option<NodeId> {
        match self {
            Transfer::Remaster { to } | Transfer::Migrate { to } | Transfer::Failover { to } => {
                Some(to)
            }
            Transfer::Idle | Transfer::Stalled => None,
        }
    }
}

/// Runtime state of one partition: adaptor operations in flight.
#[derive(Debug, Clone, Default)]
pub struct PartitionRuntime {
    /// Operations on the partition cannot execute before this time
    /// (remaster hand-off window / migration blackout).
    pub blocked_until: Time,
    /// Nodes currently receiving a background replica copy.
    pub copying_to: Vec<NodeId>,
    /// The hand-off in flight; written only by [`Cluster`]'s start, finish
    /// and cancel routines.
    transfer: Transfer,
    /// Transfer generation: bumped whenever a hand-off starts or is
    /// canceled, so a completion scheduled for a superseded hand-off is
    /// recognized as stale (its stamp no longer equals this) and dropped.
    gen: u64,
    /// Ceiling `blocked_until` may sit at while `Idle`: what the last exit
    /// from a hand-off allowed (a finished one keeps its window, a canceled
    /// one must release it). Stored only for [`Cluster::check_invariants`].
    idle_cap: Time,
}

impl PartitionRuntime {
    /// The hand-off in flight.
    pub fn transfer(&self) -> Transfer {
        self.transfer
    }

    /// The current transfer generation: the stamp a completion scheduled
    /// for the hand-off in flight must still carry when it fires.
    pub fn gen(&self) -> u64 {
        self.gen
    }
}

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

/// What an epoch-commit seal flush shipped (returned by
/// [`Cluster::epoch_flush_for_seal`]).
#[derive(Debug, Default)]
pub struct EpochFlush {
    /// Total wire bytes shipped to secondaries.
    pub bytes: u64,
    /// Slowest secondary round-trip among the flushed partitions: the
    /// replication transit that gates the epoch's durability (zone-aware).
    pub max_transit_us: Time,
    /// Per-partition log head certified durable once the transit lands.
    pub frontiers: Vec<(PartitionId, u64)>,
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

/// The simulated cluster state shared by every protocol.
pub struct Cluster {
    /// Static configuration.
    pub cfg: SimConfig,
    /// Current replica placement (the "global router table" of §V).
    pub placement: lion_common::Placement,
    /// Per-node worker pools.
    pub workers: Vec<MultiServer>,
    /// Per-partition adaptor runtime state.
    pub parts: Vec<PartitionRuntime>,
    /// Access-frequency tracking for the cost model and eviction.
    pub freq: FreqTracker,
    /// Per-node liveness (fault injection; all nodes start up).
    pub node_up: Vec<bool>,
    /// Node→failure-domain map (from [`SimConfig::node_zones`]). Every
    /// zone-aware decision — cross-zone network pricing, anti-affinity
    /// eviction, correlated crash scenarios — reads this one vector.
    pub zone_of: Vec<ZoneId>,
    stores: Vec<FastMap<u32, ReplicaStore>>,
    /// Active split-brain window, when a `split_brain` fault plan has a
    /// partition open (`None` outside windows and on the legacy path).
    split: Option<SplitBrain>,
}

impl Cluster {
    /// Builds a cluster with the paper's default round-robin layout and
    /// populated tables.
    pub fn new(cfg: SimConfig) -> Self {
        let n_parts = cfg.n_partitions();
        let zone_of = cfg.node_zones();
        // Rack-safe deployments start from the anti-affinity layout; the
        // locality-first default keeps the paper's round-robin exactly.
        let placement = if cfg.placement.is_rack_safe() {
            lion_common::Placement::zone_spread(
                n_parts,
                cfg.nodes,
                cfg.replication_factor,
                &zone_of,
                cfg.placement.min_zones(),
            )
        } else {
            lion_common::Placement::round_robin(n_parts, cfg.nodes, cfg.replication_factor)
        };
        let workers = (0..cfg.nodes)
            .map(|_| MultiServer::new(cfg.workers_per_node))
            .collect();
        let mut stores: Vec<FastMap<u32, ReplicaStore>> =
            (0..cfg.nodes).map(|_| FastMap::default()).collect();
        for p in 0..n_parts {
            let part = PartitionId(p as u32);
            let primary = placement.primary_of(part);
            stores[primary.idx()].insert(
                part.0,
                ReplicaStore::new_primary(part, cfg.keys_per_partition, cfg.value_size),
            );
            for &sec in placement.secondaries_of(part) {
                stores[sec.idx()].insert(
                    part.0,
                    ReplicaStore::new_secondary(part, cfg.keys_per_partition, cfg.value_size),
                );
            }
        }
        let parts = vec![PartitionRuntime::default(); n_parts];
        let freq = FreqTracker::new(n_parts);
        let node_up = vec![true; cfg.nodes];
        Cluster {
            cfg,
            placement,
            workers,
            parts,
            freq,
            node_up,
            zone_of,
            stores,
            split: None,
        }
    }

    /// Node count.
    pub fn n_nodes(&self) -> usize {
        self.cfg.nodes
    }

    /// Partition count.
    pub fn n_partitions(&self) -> usize {
        self.parts.len()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.cfg.nodes as u16).map(NodeId)
    }

    /// Replica store hosted by `node` for `part`, if any.
    pub fn store(&self, node: NodeId, part: PartitionId) -> Option<&ReplicaStore> {
        self.stores[node.idx()].get(&part.0)
    }

    /// Mutable replica store.
    pub fn store_mut(&mut self, node: NodeId, part: PartitionId) -> Option<&mut ReplicaStore> {
        self.stores[node.idx()].get_mut(&part.0)
    }

    /// Mutable store of the current primary replica.
    pub fn primary_store_mut(&mut self, part: PartitionId) -> &mut ReplicaStore {
        let primary = self.placement.primary_of(part);
        self.stores[primary.idx()]
            .get_mut(&part.0)
            .expect("primary store must exist")
    }

    /// Network delay for one message of `bytes` payload (zone-local path;
    /// use [`Cluster::net_delay_between`] when both endpoints are known).
    pub fn net_delay(&self, bytes: u32) -> Time {
        self.cfg.net.delay(bytes)
    }

    /// Network delay for one message of `bytes` payload from `from` to
    /// `to`: zone-local messages pay the base cost, cross-zone messages the
    /// aggregation-layer surcharge on top.
    pub fn net_delay_between(&self, from: NodeId, to: NodeId, bytes: u32) -> Time {
        self.cfg
            .net
            .delay_between(self.zone_of[from.idx()], self.zone_of[to.idx()], bytes)
    }

    // ------------------------------------------------------------------
    // Failure domains (zones / racks)
    // ------------------------------------------------------------------

    /// The failure domain hosting `node`.
    #[inline]
    pub fn zone(&self, node: NodeId) -> ZoneId {
        self.zone_of[node.idx()]
    }

    /// Number of distinct failure domains in the cluster.
    pub fn n_zones(&self) -> usize {
        self.cfg.n_zones()
    }

    /// Members of `zone`, in node-id order.
    pub fn zone_members(&self, zone: ZoneId) -> Vec<NodeId> {
        self.cfg.nodes_in_zone(zone)
    }

    /// Distinct failure domains currently covered by `part`'s replica set.
    pub fn zone_coverage(&self, part: PartitionId) -> usize {
        self.placement.zone_coverage(part, &self.zone_of)
    }

    /// Earliest time operations on `part` may execute.
    pub fn available_at(&self, part: PartitionId) -> Time {
        self.parts[part.idx()].blocked_until
    }

    /// The hand-off in flight on `part`.
    pub fn transfer(&self, part: PartitionId) -> Transfer {
        self.parts[part.idx()].transfer
    }

    // ------------------------------------------------------------------
    // Partition transfers: the one start guard, start, finish and cancel
    // ------------------------------------------------------------------

    /// The start guard every adaptor operation shares: the serving primary
    /// and `to` must both be up and on the same side of any active cut (the
    /// two nodes have to exchange the hand-off or the snapshot), and an
    /// `exclusive` operation — one that moves the primary — needs the
    /// partition `Idle`. Returns the serving primary.
    fn may_start(
        &self,
        part: PartitionId,
        to: NodeId,
        exclusive: bool,
    ) -> Result<NodeId, AdaptorError> {
        let primary = self.placement.primary_of(part);
        if (exclusive && self.transfer(part) != Transfer::Idle) || !self.reachable(primary, to) {
            return Err(AdaptorError::Busy(part));
        }
        Ok(primary)
    }

    /// The only way into a non-`Idle` state: records the hand-off, opens a
    /// new generation for its completion event and blocks the partition
    /// until `until`.
    fn start(&mut self, part: PartitionId, transfer: Transfer, until: Time) {
        let rt = &mut self.parts[part.idx()];
        debug_assert!(
            matches!(rt.transfer, Transfer::Idle | Transfer::Stalled),
            "{part} already has {:?} in flight",
            rt.transfer
        );
        rt.transfer = transfer;
        rt.gen += 1;
        rt.blocked_until = rt.blocked_until.max(until);
    }

    /// Takes `part`'s hand-off for completion, leaving the partition `Idle`
    /// (its block window stands: the hand-off lands at the end of it).
    fn finish(&mut self, part: PartitionId) -> Transfer {
        let rt = &mut self.parts[part.idx()];
        rt.idle_cap = rt.blocked_until;
        std::mem::take(&mut rt.transfer)
    }

    /// Cancels whatever hand-off `part` has in flight: the partition returns
    /// to `Idle`, the generation bump turns the scheduled completion stale,
    /// and the block window is released. Returns true when a failover
    /// promotion was aborted (the caller owes the partition a re-plan).
    fn cancel(&mut self, part: PartitionId, now: Time) -> bool {
        let rt = &mut self.parts[part.idx()];
        let was = std::mem::take(&mut rt.transfer);
        if was != Transfer::Idle {
            rt.gen += 1;
            rt.blocked_until = rt.blocked_until.min(now);
            rt.idle_cap = now;
        }
        matches!(was, Transfer::Failover { .. })
    }

    /// Hands the primary role of `part` to the replica at `to`, which adopts
    /// `head` as its log head: the old primary's store (if it still holds
    /// one) demotes in place and the placement follows.
    fn swap_primary(&mut self, part: PartitionId, to: NodeId, head: u64, now: Time) {
        let old = self.placement.primary_of(part);
        if let Some(s) = self.stores[old.idx()].get_mut(&part.0) {
            if s.role == ReplicaRole::Primary {
                s.demote();
            }
        }
        self.stores[to.idx()]
            .get_mut(&part.0)
            .expect("promotion target holds a store")
            .promote(head);
        self.placement
            .remaster(part, to)
            .expect("placement primary swap");
        self.freq.touch(part, to, now);
    }

    /// Ships the primary's unshipped epoch buffer (the "lagging logs" of
    /// §III) to every secondary, so a hand-off starts from a consistent
    /// state. Returns the wire bytes spent.
    fn sync_pending(&mut self, part: PartitionId) -> u64 {
        let pending = self.primary_store_mut(part).log.take_pending();
        let bytes: u64 = pending.iter().map(|e| e.wire_bytes()).sum();
        let secondaries: Vec<NodeId> = self.placement.secondaries_of(part).to_vec();
        for sec in &secondaries {
            if let Some(store) = self.store_mut(*sec, part) {
                store.apply_entries(&pending);
            }
        }
        bytes * secondaries.len() as u64
    }

    /// Wire size of a full snapshot of `part` taken at `primary`.
    fn snapshot_bytes(&self, part: PartitionId, primary: NodeId) -> u64 {
        let table = &self.store(primary, part).expect("primary store").table;
        table.bytes() + 16 * self.cfg.keys_per_partition
    }

    // ------------------------------------------------------------------
    // Adaptor: remastering (§III)
    // ------------------------------------------------------------------

    /// Starts remastering `part` onto `to`. Returns the duration of the
    /// hand-off window: the configured delay plus log-lag sync time. The
    /// partition blocks for that window (new operations wait, §III).
    pub fn begin_remaster(
        &mut self,
        part: PartitionId,
        to: NodeId,
        now: Time,
    ) -> Result<Time, AdaptorError> {
        if self.placement.is_primary(part, to) {
            return Err(AdaptorError::AlreadyPrimary { part, node: to });
        }
        if !self.placement.has_secondary(part, to) {
            return Err(AdaptorError::NoReplica { part, node: to });
        }
        let primary = self.may_start(part, to, true)?;
        let head = self
            .store(primary, part)
            .expect("primary store")
            .log
            .head_lsn();
        let lag = self
            .store(to, part)
            .expect("secondary store")
            .lag_behind(head);
        let duration = self.cfg.remaster_delay_us + lag * LAG_SYNC_US_PER_ENTRY;
        self.start(part, Transfer::Remaster { to }, now + duration);
        Ok(duration)
    }

    /// Completes an in-flight remaster: syncs the pending log to every
    /// secondary, swaps roles, and updates the placement. Returns the wire
    /// bytes spent on the lag sync (for network accounting).
    pub fn finish_remaster(&mut self, part: PartitionId, now: Time) -> u64 {
        let Transfer::Remaster { to } = self.finish(part) else {
            panic!("finish_remaster without begin_remaster");
        };
        let bytes = self.sync_pending(part);
        let head = self.primary_store_mut(part).log.head_lsn();
        self.swap_primary(part, to, head, now);
        bytes
    }

    // ------------------------------------------------------------------
    // Adaptor: background replica addition (§III, §V AddRepReqHandler)
    // ------------------------------------------------------------------

    /// Starts copying a new secondary of `part` onto `to` in the background.
    /// Returns `(copy duration, wire bytes)`. The partition stays fully
    /// available: this is the non-intrusive path Lion relies on.
    pub fn begin_add_replica(
        &mut self,
        part: PartitionId,
        to: NodeId,
        _now: Time,
    ) -> Result<(Time, u64), AdaptorError> {
        if self.placement.has_replica(part, to) || self.parts[part.idx()].copying_to.contains(&to) {
            return Err(AdaptorError::AlreadyHosted { part, node: to });
        }
        let primary = self.may_start(part, to, false)?;
        let bytes = self.snapshot_bytes(part, primary);
        let duration = self.cfg.migration_fixed_us / 2
            + (bytes as f64 / self.cfg.net.bytes_per_us).ceil() as Time;
        self.parts[part.idx()].copying_to.push(to);
        Ok((duration, bytes))
    }

    /// Completes a background copy: registers the secondary and, when the
    /// replica cap is exceeded, evicts the coldest other secondary — never
    /// the target of a hand-off in flight — (§IV-B.2). Returns the evicted
    /// node, if any. A copy landing on a node that became a holder in the
    /// meantime (a migration moved the primary there) has nothing to add.
    pub fn finish_add_replica(
        &mut self,
        part: PartitionId,
        to: NodeId,
        now: Time,
    ) -> Option<NodeId> {
        let rt = &mut self.parts[part.idx()];
        let pos = rt
            .copying_to
            .iter()
            .position(|&n| n == to)
            .expect("finish_add_replica without begin_add_replica");
        rt.copying_to.swap_remove(pos);
        if self.placement.has_replica(part, to) {
            return None;
        }
        self.install_snapshot(part, to);
        self.freq.touch(part, to, now);

        if self.placement.replica_count(part) > self.cfg.max_replicas {
            let mut victims: Vec<NodeId> = self
                .placement
                .secondaries_of(part)
                .iter()
                .copied()
                .filter(|&n| n != to && Some(n) != self.transfer(part).target())
                .collect();
            // Anti-affinity: evicting a replica must not collapse the
            // partition's zone spread below the policy floor (or below the
            // spread it currently has, when already under the floor). Fall
            // back to the unconstrained victim set if no candidate
            // qualifies — the replica cap is a hard resource limit.
            if self.cfg.placement.is_rack_safe() {
                let floor = self.cfg.placement.min_zones().min(self.zone_coverage(part));
                let safe: Vec<NodeId> = victims
                    .iter()
                    .copied()
                    .filter(|&v| {
                        self.placement.zone_coverage_without(part, v, &self.zone_of) >= floor
                    })
                    .collect();
                if !safe.is_empty() {
                    victims = safe;
                }
            }
            if let Some(victim) = self.freq.coldest(part, &victims) {
                self.remove_replica(part, victim).expect("evict secondary");
                return Some(victim);
            }
        }
        None
    }

    /// Provisions a secondary replica instantly and free of charge —
    /// deployment-time setup only (e.g. Star's full-replica "super node"
    /// exists before the workload starts; it is not built online).
    pub fn install_secondary_free(
        &mut self,
        part: PartitionId,
        node: NodeId,
    ) -> Result<(), AdaptorError> {
        if self.placement.has_replica(part, node) {
            return Err(AdaptorError::AlreadyHosted { part, node });
        }
        self.install_snapshot(part, node);
        Ok(())
    }

    /// Copies a fresh snapshot of `part`'s primary onto `node` and lists the
    /// node as a secondary.
    fn install_snapshot(&mut self, part: PartitionId, node: NodeId) {
        let primary = self.placement.primary_of(part);
        let src = self.stores[primary.idx()]
            .get(&part.0)
            .expect("primary store");
        let snapshot = ReplicaStore::from_snapshot(part, src);
        self.stores[node.idx()].insert(part.0, snapshot);
        self.placement
            .add_secondary(part, node)
            .expect("placement add");
    }

    /// Drops the secondary replica of `part` on `node` (delete-flag path).
    pub fn remove_replica(&mut self, part: PartitionId, node: NodeId) -> Result<(), AdaptorError> {
        if self.placement.is_primary(part, node) {
            return Err(AdaptorError::AlreadyPrimary { part, node });
        }
        if !self.placement.has_secondary(part, node) {
            return Err(AdaptorError::NoReplica { part, node });
        }
        self.placement
            .remove_secondary(part, node)
            .expect("placement remove");
        self.stores[node.idx()].remove(&part.0);
        self.freq.forget(part, node);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Adaptor: blocking migration (the baselines' expensive path)
    // ------------------------------------------------------------------

    /// Starts migrating the primary of `part` to `to` (full data move).
    /// Returns `(duration, wire bytes)`; the partition blocks throughout.
    pub fn begin_migration(
        &mut self,
        part: PartitionId,
        to: NodeId,
        now: Time,
    ) -> Result<(Time, u64), AdaptorError> {
        if self.placement.is_primary(part, to) {
            return Err(AdaptorError::AlreadyPrimary { part, node: to });
        }
        let primary = self.may_start(part, to, true)?;
        let bytes = self.snapshot_bytes(part, primary);
        let duration =
            self.cfg.migration_fixed_us + (bytes as f64 / self.cfg.net.bytes_per_us).ceil() as Time;
        self.start(part, Transfer::Migrate { to }, now + duration);
        Ok((duration, bytes))
    }

    /// Completes a migration: moves the primary's data to the target (the
    /// source copy is dropped — a move, not a copy) and updates placement.
    pub fn finish_migration(&mut self, part: PartitionId, now: Time) {
        let Transfer::Migrate { to } = self.finish(part) else {
            panic!("finish_migration without begin_migration");
        };
        let old_primary = self.placement.primary_of(part);
        // Flush unshipped entries to surviving secondaries before the move.
        self.sync_pending(part);
        let mut moved = self.stores[old_primary.idx()]
            .remove(&part.0)
            .expect("primary store");
        let head = moved.log.head_lsn();
        if self.placement.has_secondary(part, to) {
            // Target already held a copy: promote it in place with the moved
            // (authoritative) table.
            self.store_mut(to, part).expect("target store").table = moved.table;
            self.swap_primary(part, to, head, now);
            self.placement
                .remove_secondary(part, old_primary)
                .expect("drop source");
        } else {
            moved.applied_lsn = head;
            self.stores[to.idx()].insert(part.0, moved);
            self.placement
                .migrate_primary(part, to)
                .expect("placement migrate");
            self.freq.touch(part, to, now);
        }
    }

    // ------------------------------------------------------------------
    // Failure injection & failover (decision logic in `lion-faults`)
    // ------------------------------------------------------------------

    /// True when `node` is alive.
    #[inline]
    pub fn is_up(&self, node: NodeId) -> bool {
        self.node_up[node.idx()]
    }

    /// Number of live nodes.
    pub fn live_count(&self) -> usize {
        self.node_up.iter().filter(|&&u| u).count()
    }

    /// Live node ids.
    pub fn live_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_up
            .iter()
            .enumerate()
            .filter(|(_, &up)| up)
            .map(|(i, _)| NodeId(i as u16))
    }

    /// Removes `node` from the copy-target list of `part` (a background
    /// replica copy canceled by a failure).
    pub fn cancel_copy(&mut self, part: PartitionId, node: NodeId) {
        let rt = &mut self.parts[part.idx()];
        if let Some(pos) = rt.copying_to.iter().position(|&n| n == node) {
            rt.copying_to.swap_remove(pos);
        }
    }

    // ------------------------------------------------------------------
    // Split-brain windows (honest network partitions)
    // ------------------------------------------------------------------

    /// The active split-brain window, if any.
    #[inline]
    pub fn split_brain(&self) -> Option<&SplitBrain> {
        self.split.as_ref()
    }

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
        match &self.split {
            None => true,
            Some(s) => s.side_of[a.idx()] == s.side_of[b.idx()],
        }
    }

    /// True when a message from `from` can actually reach `to`: both nodes
    /// live and on the same side of any active cut. This is the reachability
    /// predicate that replaces the old crashed-node approximation.
    #[inline]
    pub fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        self.node_up[from.idx()] && self.node_up[to.idx()] && self.same_side(from, to)
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
        let mut quorum_side = vec![0u8; n_parts];
        for (p, qs) in quorum_side.iter_mut().enumerate() {
            let part = PartitionId(p as u32);
            let holders = self.placement.replica_nodes(part);
            let rf = holders.len();
            let mut live = [0usize; 2];
            for h in &holders {
                if self.node_up[h.idx()] {
                    live[side_of[h.idx()] as usize] += 1;
                }
            }
            // Plan validation guarantees one side holds a strict majority
            // of the full replica set; the tie-breaking fallback (more live
            // holders, rest side on a tie) only fires for hand-built
            // clusters that bypassed validation.
            *qs = if live[0] * 2 > rf {
                0
            } else if live[1] * 2 > rf {
                1
            } else {
                u8::from(live[1] > live[0])
            };
        }
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
            self.parts[part.idx()]
                .copying_to
                .retain(|n| split.side_of[n.idx()] == side);
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
        // Whatever was in flight belonged to the superseded primary.
        self.cancel(part, now);
        let head = self
            .store(to, part)
            .expect("split promotion target has a store")
            .applied_lsn;
        self.swap_primary(part, to, head, now);
        self.cancel_cut_off_copies(part, to);
    }

    /// Halts `node`: cancels transfers involving it, strips it from every
    /// secondary list, and reports the partitions it primaried. For each
    /// orphaned partition that still has a live secondary, the dead
    /// primary's unshipped epoch buffer is drained and returned as the
    /// prepare-log replay source (§II-A replicated it synchronously at
    /// commit time, so the survivors can reconstruct those writes); stalled
    /// partitions keep their buffer for the eventual restart.
    pub fn crash_node(&mut self, node: NodeId, now: Time) -> CrashReport {
        assert!(
            self.node_up[node.idx()],
            "crash of an already-dead node {node}"
        );
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
                    .any(|&s| self.node_up[s.idx()] && self.same_side(s, node));
                let replay = if has_live_secondary {
                    self.stores[node.idx()]
                        .get_mut(&part.0)
                        .map(|s| s.log.take_pending())
                        .unwrap_or_default()
                } else {
                    Vec::new()
                };
                orphaned.push((part, replay));
            } else if self.placement.has_secondary(part, node) {
                self.placement
                    .remove_secondary(part, node)
                    .expect("strip dead secondary");
                self.freq.forget(part, node);
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
    /// every live secondary, promotes the target at the dead primary's
    /// durability frontier, and rewrites the placement (the dead node drops
    /// out of the replica set entirely). Returns `(wire bytes shipped,
    /// adopted head LSN)`.
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

        let entry_bytes: u64 = replay.iter().map(|e| e.wire_bytes()).sum();
        // During a split the replay only reaches secondaries on the
        // promotion target's side; same_side is always true otherwise.
        let secondaries: Vec<NodeId> = self
            .placement
            .secondaries_of(part)
            .iter()
            .copied()
            .filter(|&s| self.node_up[s.idx()] && self.same_side(s, to))
            .collect();
        let mut shipped = 0u64;
        for sec in &secondaries {
            if let Some(store) = self.store_mut(*sec, part) {
                store.apply_entries(replay);
                shipped += entry_bytes;
            }
        }

        // The durability frontier the new primary adopts: everything the
        // dead primary logged (its table state is reconstructed from the
        // epoch-flushed history plus the replayed prepare log).
        let dead_head = self
            .store(dead, part)
            .map(|s| s.log.head_lsn())
            .unwrap_or(0);
        let head = dead_head.max(self.store(to, part).expect("promotion target").applied_lsn);
        self.swap_primary(part, to, head, now);
        if self.node_up[dead.idx()] {
            // The node restarted while the promotion was in flight: keep it
            // as an in-sync secondary (its table held everything it logged).
            self.freq.touch(part, dead, now);
        } else {
            self.placement
                .remove_secondary(part, dead)
                .expect("drop dead node from replica set");
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
        assert!(!self.node_up[node.idx()], "recover of a live node {node}");
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
            } else if !self.placement.has_replica(part, node)
                && self.stores[node.idx()].contains_key(&part.0)
            {
                // The copy predates the crash and the log shipped past it;
                // drop it and re-sync from a fresh snapshot.
                self.stores[node.idx()].remove(&part.0);
                rejoin_secondaries.push(part);
            }
        }
        RecoveryReport {
            node,
            restored_primaries,
            rejoin_secondaries,
        }
    }

    /// Drops a stale secondary during heal reconciliation: the replica
    /// either missed the durable timeline's flushes across the cut or held
    /// the divergent timeline itself, so its copy is discarded outright and
    /// the caller re-adds the node through a background snapshot copy (the
    /// [`Cluster::recover_node`] re-join pattern).
    pub fn drop_stale_secondary(&mut self, part: PartitionId, node: NodeId) {
        if self.placement.has_secondary(part, node) {
            self.placement
                .remove_secondary(part, node)
                .expect("drop stale secondary");
        }
        self.stores[node.idx()].remove(&part.0);
        self.freq.forget(part, node);
    }

    // ------------------------------------------------------------------
    // Epoch-based group replication (§V)
    // ------------------------------------------------------------------

    /// Ships every partition's pending log entries to its secondaries.
    /// Returns the total wire bytes (for the Fig. 12b network accounting).
    /// One shipping loop serves both flush flavors — this delegates to
    /// [`Cluster::epoch_flush_for_seal`] and drops the seal-only
    /// bookkeeping, so the 10 ms flush and the epoch-commit seal can never
    /// drift apart.
    pub fn epoch_flush_all(&mut self) -> u64 {
        self.epoch_flush_for_seal().bytes
    }

    /// Ships every partition's pending entries like
    /// [`Cluster::epoch_flush_all`], but for an **epoch-commit seal**: on
    /// top of the wire bytes it reports the per-partition log frontiers the
    /// flush certifies and the slowest secondary round-trip — the replication
    /// transit the sealed epoch must wait out before its acks may escape.
    /// Cross-zone secondaries (rack-safe placement) stretch the transit by
    /// the aggregation-layer surcharge both ways.
    pub fn epoch_flush_for_seal(&mut self) -> EpochFlush {
        let mut out = EpochFlush::default();
        for p in 0..self.n_partitions() {
            let part = PartitionId(p as u32);
            let primary = self.placement.primary_of(part);
            if !self.node_up[primary.idx()] {
                continue; // dead primary: nothing ships until failover/restart
            }
            if self.split_active() && self.side_of(primary) != self.quorum_side_of(part) {
                // Quorum-fenced partition: the serving primary sits on the
                // non-quorum side, so its seal can never replicate to a
                // majority. Nothing ships and no frontier certifies —
                // entries pile up in its buffer as the divergent timeline
                // that heal-time reconciliation discards.
                continue;
            }
            let pending = {
                let store = self.stores[primary.idx()]
                    .get_mut(&part.0)
                    .expect("primary");
                if store.log.pending().is_empty() {
                    continue;
                }
                store.log.take_pending()
            };
            let head = pending.last().expect("non-empty pending").lsn;
            out.frontiers.push((part, head));
            let bytes: u64 = pending.iter().map(|e| e.wire_bytes()).sum();
            // Secondaries across an active cut are unreachable: they get
            // nothing (going stale; heal drops and re-adds them), and they
            // never gate the transit.
            let secondaries: Vec<NodeId> = self
                .placement
                .secondaries_of(part)
                .iter()
                .copied()
                .filter(|&s| self.same_side(s, primary))
                .collect();
            for sec in secondaries {
                if let Some(store) = self.store_mut(sec, part) {
                    store.apply_entries(&pending);
                    out.bytes += bytes;
                }
                if self.node_up[sec.idx()] {
                    let rtt =
                        self.net_delay_between(primary, sec, bytes.min(u32::MAX as u64) as u32)
                            + self.net_delay_between(sec, primary, 0);
                    out.max_transit_us = out.max_transit_us.max(rtt);
                }
            }
        }
        out
    }

    /// Checks cross-structure consistency (tests / debug).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.placement.validate().map_err(|e| e.to_string())?;
        for p in 0..self.n_partitions() {
            let part = PartitionId(p as u32);
            let primary = self.placement.primary_of(part);
            let store = self
                .store(primary, part)
                .ok_or_else(|| format!("{part}: primary node {primary} has no store"))?;
            if store.role != lion_storage::ReplicaRole::Primary {
                return Err(format!("{part}: store on {primary} is not primary"));
            }
            for &sec in self.placement.secondaries_of(part) {
                let s = self
                    .store(sec, part)
                    .ok_or_else(|| format!("{part}: secondary {sec} has no store"))?;
                if s.role != lion_storage::ReplicaRole::Secondary {
                    return Err(format!("{part}: store on {sec} is not secondary"));
                }
            }
            // The transfer state: whatever is in flight can still land.
            let rt = &self.parts[p];
            let sound = match rt.transfer {
                Transfer::Idle => rt.blocked_until <= rt.idle_cap,
                Transfer::Remaster { to } => {
                    self.reachable(primary, to) && self.placement.has_secondary(part, to)
                }
                Transfer::Migrate { to } => self.reachable(primary, to),
                Transfer::Failover { to } => self.is_up(to) && self.store(to, part).is_some(),
                Transfer::Stalled => !self.is_up(primary),
            };
            if !sound {
                return Err(format!(
                    "{part}: {:?} cannot hold (primary {primary}, blocked until {}, idle cap {})",
                    rt.transfer, rt.blocked_until, rt.idle_cap
                ));
            }
            let lost = |n: &&NodeId| !self.is_up(**n) || !self.same_side(primary, **n);
            if let Some(n) = rt.copying_to.iter().find(lost) {
                return Err(format!("{part}: copy toward dead or cut-off node {n}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lion_common::TxnId;
    use lion_storage::Bytes;

    fn small_cfg() -> SimConfig {
        SimConfig {
            nodes: 3,
            partitions_per_node: 2,
            keys_per_partition: 32,
            value_size: 16,
            replication_factor: 2,
            max_replicas: 3,
            ..Default::default()
        }
    }

    fn p(i: u32) -> PartitionId {
        PartitionId(i)
    }
    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn construction_matches_placement() {
        let c = Cluster::new(small_cfg());
        c.check_invariants().unwrap();
        assert_eq!(c.n_partitions(), 6);
        assert!(c.store(n(0), p(0)).is_some());
        assert!(c.store(n(1), p(0)).is_some(), "secondary store exists");
        assert!(c.store(n(2), p(0)).is_none());
    }

    #[test]
    fn remaster_lifecycle_swaps_roles() {
        let mut c = Cluster::new(small_cfg());
        let dur = c.begin_remaster(p(0), n(1), 100).unwrap();
        assert_eq!(dur, c.cfg.remaster_delay_us);
        assert_eq!(c.available_at(p(0)), 100 + dur);
        // concurrent remaster on the same partition conflicts (§III)
        assert_eq!(
            c.begin_remaster(p(0), n(1), 110),
            Err(AdaptorError::Busy(p(0)))
        );
        c.finish_remaster(p(0), 100 + dur);
        assert_eq!(c.placement.primary_of(p(0)), n(1));
        c.check_invariants().unwrap();
    }

    #[test]
    fn remaster_syncs_pending_log() {
        let mut c = Cluster::new(small_cfg());
        // commit a write on the primary without an epoch flush
        let txn = TxnId(9);
        {
            let store = c.primary_store_mut(p(0));
            store.table.occ_lock(5, txn);
            let v = store.table.occ_install(5, txn, Bytes::from(vec![7u8; 16]));
            store.log.append(p(0), 5, v, Bytes::from(vec![7u8; 16]));
        }
        let dur = c.begin_remaster(p(0), n(1), 0).unwrap();
        assert!(dur > c.cfg.remaster_delay_us, "lag adds sync time");
        let bytes = c.finish_remaster(p(0), dur);
        assert!(bytes > 0);
        let new_primary = c.store(n(1), p(0)).unwrap();
        assert_eq!(
            new_primary.table.get(5).unwrap().value,
            Bytes::from(vec![7u8; 16])
        );
        c.check_invariants().unwrap();
    }

    #[test]
    fn remaster_requires_secondary() {
        let mut c = Cluster::new(small_cfg());
        assert_eq!(
            c.begin_remaster(p(0), n(2), 0),
            Err(AdaptorError::NoReplica {
                part: p(0),
                node: n(2)
            })
        );
        assert_eq!(
            c.begin_remaster(p(0), n(0), 0),
            Err(AdaptorError::AlreadyPrimary {
                part: p(0),
                node: n(0)
            })
        );
    }

    #[test]
    fn add_replica_does_not_block_partition() {
        let mut c = Cluster::new(small_cfg());
        let (dur, bytes) = c.begin_add_replica(p(0), n(2), 0).unwrap();
        assert!(dur > 0 && bytes > 0);
        assert_eq!(c.available_at(p(0)), 0, "background copy never blocks");
        assert_eq!(
            c.begin_add_replica(p(0), n(2), 1),
            Err(AdaptorError::AlreadyHosted {
                part: p(0),
                node: n(2)
            })
        );
        let evicted = c.finish_add_replica(p(0), n(2), dur);
        assert_eq!(evicted, None);
        assert!(c.placement.has_secondary(p(0), n(2)));
        assert!(c.store(n(2), p(0)).is_some());
        c.check_invariants().unwrap();
    }

    #[test]
    fn replica_cap_evicts_coldest() {
        let mut cfg = small_cfg();
        cfg.nodes = 4;
        cfg.max_replicas = 2; // primary + 1 secondary
        let mut c = Cluster::new(cfg);
        // p0: primary n0, secondary n1. Adding on n2 must evict n1.
        let (dur, _) = c.begin_add_replica(p(0), n(2), 0).unwrap();
        let evicted = c.finish_add_replica(p(0), n(2), dur);
        assert_eq!(evicted, Some(n(1)));
        assert!(!c.placement.has_secondary(p(0), n(1)));
        assert!(c.store(n(1), p(0)).is_none());
        c.check_invariants().unwrap();
    }

    #[test]
    fn migration_blocks_and_moves_data() {
        let mut c = Cluster::new(small_cfg());
        let (dur, bytes) = c.begin_migration(p(0), n(2), 50).unwrap();
        assert!(bytes >= c.cfg.keys_per_partition * c.cfg.value_size as u64);
        assert_eq!(
            c.available_at(p(0)),
            50 + dur,
            "migration blocks the partition"
        );
        c.finish_migration(p(0), 50 + dur);
        assert_eq!(c.placement.primary_of(p(0)), n(2));
        assert!(c.store(n(0), p(0)).is_none(), "source copy dropped (move)");
        assert!(c.store(n(2), p(0)).is_some());
        c.check_invariants().unwrap();
    }

    #[test]
    fn migration_onto_secondary_promotes_in_place() {
        let mut c = Cluster::new(small_cfg());
        let (dur, _) = c.begin_migration(p(0), n(1), 0).unwrap();
        c.finish_migration(p(0), dur);
        assert_eq!(c.placement.primary_of(p(0)), n(1));
        assert!(c.store(n(0), p(0)).is_none());
        c.check_invariants().unwrap();
    }

    #[test]
    fn crash_failover_lifecycle_preserves_log_continuity() {
        let mut c = Cluster::new(small_cfg());
        // Commit a write on P0's primary (N0) that never epoch-flushes: the
        // failover must recover it from the prepare-log replay.
        let txn = TxnId(5);
        {
            let store = c.primary_store_mut(p(0));
            store.table.occ_lock(9, txn);
            let v = store.table.occ_install(9, txn, Bytes::from(vec![4u8; 16]));
            store.log.append(p(0), 9, v, Bytes::from(vec![4u8; 16]));
        }
        let head_before = c.store(n(0), p(0)).unwrap().log.head_lsn();
        let report = c.crash_node(n(0), 1_000);
        assert!(!c.is_up(n(0)));
        assert_eq!(c.live_count(), 2);
        // N0 primaries P0 and P3 under 3-node round-robin.
        assert_eq!(report.orphaned.len(), 2);
        let (part, replay) = report
            .orphaned
            .iter()
            .find(|(pp, _)| *pp == p(0))
            .expect("P0 orphaned")
            .clone();
        assert_eq!(
            replay.len(),
            1,
            "unflushed write recovered from prepare log"
        );
        // N0 is stripped from every secondary list it was on.
        for lost in &report.lost_secondaries {
            assert!(!c.placement.has_secondary(*lost, n(0)));
        }

        c.begin_failover(part, n(1), 3_000, 1_000);
        assert_eq!(
            c.available_at(part),
            4_000,
            "promotion blocks the partition"
        );
        let (bytes, head) = c.finish_failover(part, &replay, 4_000);
        assert!(bytes > 0);
        assert_eq!(head, head_before, "no committed write lost");
        assert_eq!(c.placement.primary_of(part), n(1));
        assert!(
            !c.placement.has_secondary(part, n(0)),
            "dead node out of the replica set"
        );
        let new_primary = c.store(n(1), part).unwrap();
        assert_eq!(new_primary.log.head_lsn(), head_before);
        assert_eq!(
            new_primary.table.get(9).unwrap().value,
            Bytes::from(vec![4u8; 16]),
            "replayed write visible at the new primary"
        );
        c.check_invariants().unwrap();
    }

    #[test]
    fn recover_node_reports_rejoins_and_restores() {
        let mut cfg = small_cfg();
        cfg.replication_factor = 1; // no secondaries: crashes stall partitions
        let mut c = Cluster::new(cfg);
        let report = c.crash_node(n(0), 0);
        assert_eq!(report.orphaned.len(), 2);
        for (part, replay) in &report.orphaned {
            assert!(replay.is_empty(), "stalled partitions keep their buffer");
            c.stall_partition(*part, 10_000);
            assert_eq!(c.transfer(*part), Transfer::Stalled);
        }
        c.check_invariants().unwrap();
        let rec = c.recover_node(n(0), 20_000);
        assert_eq!(rec.restored_primaries.len(), 2);
        assert!(rec.rejoin_secondaries.is_empty());
        for part in &rec.restored_primaries {
            assert_eq!(
                c.transfer(*part),
                Transfer::Idle,
                "the restart ends the stall"
            );
            assert_eq!(
                c.available_at(*part),
                20_000 + c.cfg.remaster_delay_us,
                "operations resume after the restart window"
            );
        }
        c.check_invariants().unwrap();
    }

    #[test]
    fn crashed_node_rejoins_as_secondary_after_failover() {
        let mut c = Cluster::new(small_cfg());
        let report = c.crash_node(n(0), 0);
        for (part, replay) in &report.orphaned {
            c.begin_failover(*part, n(1), 1_000, 0);
            c.finish_failover(*part, replay, 1_000);
        }
        let rec = c.recover_node(n(0), 50_000);
        assert!(rec.restored_primaries.is_empty());
        // Former primaries P0/P3 and former secondaries P2/P5 (stale stores
        // dropped at restart) all re-join via background copies.
        assert_eq!(rec.rejoin_secondaries.len(), 4);
        for part in &rec.rejoin_secondaries {
            assert!(c.store(n(0), *part).is_none(), "stale copy dropped");
            let (dur, _) = c.begin_add_replica(*part, n(0), 50_000).unwrap();
            c.finish_add_replica(*part, n(0), 50_000 + dur);
            assert!(c.placement.has_secondary(*part, n(0)));
        }
        c.check_invariants().unwrap();
    }

    #[test]
    fn dead_nodes_refuse_adaptor_operations() {
        let mut c = Cluster::new(small_cfg());
        c.crash_node(n(2), 0);
        // remaster away from a dead primary (failover's job, not the adaptor's)
        assert_eq!(
            c.begin_remaster(p(2), n(0), 0),
            Err(AdaptorError::Busy(p(2)))
        );
        // migration toward a dead node
        assert_eq!(
            c.begin_migration(p(1), n(2), 0),
            Err(AdaptorError::Busy(p(1)))
        );
        // replica copy toward a dead node
        assert_eq!(
            c.begin_add_replica(p(0), n(2), 0),
            Err(AdaptorError::Busy(p(0)))
        );
    }

    #[test]
    fn zone_queries_follow_the_config_map() {
        let mut cfg = small_cfg();
        cfg.nodes = 4;
        cfg.zones = 2;
        let c = Cluster::new(cfg);
        assert_eq!(c.n_zones(), 2);
        assert_eq!(c.zone(n(0)), lion_common::ZoneId(0));
        assert_eq!(c.zone(n(3)), lion_common::ZoneId(1));
        assert_eq!(c.zone_members(lion_common::ZoneId(0)), vec![n(0), n(1)]);
        // default: no cross-zone surcharge, both paths identical
        assert_eq!(c.net_delay_between(n(0), n(3), 100), c.net_delay(100));
    }

    #[test]
    fn cross_zone_surcharge_prices_remote_zones() {
        let mut cfg = small_cfg();
        cfg.nodes = 4;
        cfg.zones = 2;
        cfg.net.cross_zone_extra_us = 200;
        let c = Cluster::new(cfg);
        assert_eq!(
            c.net_delay_between(n(0), n(1), 64),
            c.net_delay(64),
            "rack-local stays at base cost"
        );
        assert_eq!(
            c.net_delay_between(n(1), n(2), 64),
            c.net_delay(64) + 200,
            "crossing the rack boundary pays the surcharge"
        );
    }

    #[test]
    fn rack_safe_construction_spreads_every_partition() {
        let mut cfg = small_cfg();
        cfg.nodes = 4;
        cfg.zones = 2;
        cfg.placement = lion_common::PlacementPolicy::RackSafe { min_zones: 2 };
        let c = Cluster::new(cfg);
        c.check_invariants().unwrap();
        for p_idx in 0..c.n_partitions() {
            assert!(
                c.zone_coverage(p(p_idx as u32)) >= 2,
                "P{p_idx} not spread across zones"
            );
        }
    }

    #[test]
    fn rack_safe_eviction_keeps_zone_coverage() {
        let mut cfg = small_cfg();
        cfg.nodes = 6; // N0-N2 in Z0, N3-N5 in Z1
        cfg.zones = 2;
        cfg.max_replicas = 3;
        cfg.placement = lion_common::PlacementPolicy::RackSafe { min_zones: 2 };
        let mut c = Cluster::new(cfg);
        // Zone-safe layout gives P0: primary N0 (Z0), secondary N3 (Z1).
        assert_eq!(c.placement.secondaries_of(p(0)), &[n(3)]);
        // Third replica inside Z0, then the cap-exceeding add on N2 (Z0).
        // Eviction candidates are {N1, N3}; N3 is the coldest — but it is
        // also the only Z1 holder, so plain coldest-eviction would collapse
        // P0 into one rack. The zone guard must evict N1 instead.
        c.install_secondary_free(p(0), n(1)).unwrap();
        c.freq.touch(p(0), n(1), 100);
        c.freq.touch(p(0), n(3), 1);
        let (dur, _) = c.begin_add_replica(p(0), n(2), 0).unwrap();
        let evicted = c.finish_add_replica(p(0), n(2), dur);
        assert_eq!(evicted, Some(n(1)), "the zone guard overrides coldness");
        assert!(
            c.placement.has_replica(p(0), n(3)),
            "the only cross-zone replica must survive eviction"
        );
        assert!(c.zone_coverage(p(0)) >= 2);
        c.check_invariants().unwrap();
    }

    #[test]
    fn epoch_flush_ships_to_all_secondaries() {
        let mut c = Cluster::new(small_cfg());
        let txn = TxnId(1);
        {
            let store = c.primary_store_mut(p(2));
            store.table.occ_lock(0, txn);
            let v = store.table.occ_install(0, txn, Bytes::from(vec![3u8; 16]));
            store.log.append(p(2), 0, v, Bytes::from(vec![3u8; 16]));
        }
        let bytes = c.epoch_flush_all();
        assert!(bytes > 0);
        let sec = c.placement.secondaries_of(p(2))[0];
        assert_eq!(
            c.store(sec, p(2)).unwrap().table.get(0).unwrap().value,
            Bytes::from(vec![3u8; 16])
        );
        // flushing again is free
        assert_eq!(c.epoch_flush_all(), 0);
    }

    /// 4 nodes × rf 3, one partition per node: isolating {N2, N3} produces
    /// all four per-partition split cases (see the figsb topology notes).
    fn split_cfg() -> SimConfig {
        SimConfig {
            nodes: 4,
            partitions_per_node: 1,
            keys_per_partition: 32,
            value_size: 16,
            replication_factor: 3,
            max_replicas: 4,
            ..Default::default()
        }
    }

    fn append_write(c: &mut Cluster, part: PartitionId, key: u64, txn: TxnId) {
        let store = c.primary_store_mut(part);
        store.table.occ_lock(key, txn);
        let v = store
            .table
            .occ_install(key, txn, Bytes::from(vec![9u8; 16]));
        store.log.append(part, key, v, Bytes::from(vec![9u8; 16]));
    }

    #[test]
    fn begin_split_freezes_quorum_sides_and_reachability() {
        let mut c = Cluster::new(split_cfg());
        assert!(c.same_side(n(0), n(3)) && c.reachable(n(0), n(3)));
        let aborted = c.begin_split(&[n(2), n(3)], 1_000);
        assert!(aborted.is_empty());
        assert!(c.split_active());
        assert_eq!(c.side_of(n(0)), 0);
        assert_eq!(c.side_of(n(2)), 1);
        assert!(c.same_side(n(2), n(3)));
        assert!(!c.same_side(n(1), n(2)));
        assert!(!c.reachable(n(1), n(2)));
        assert!(c.reachable(n(2), n(3)));
        // round_robin(4, 4, 3): holders of p_i = {i, i+1, i+2 mod 4}
        assert_eq!(c.quorum_side_of(p(0)), 0, "p0 {{0,1,2}}: majority rests");
        assert_eq!(c.quorum_side_of(p(1)), 1, "p1 {{1,2,3}}: majority isolated");
        assert_eq!(c.quorum_side_of(p(2)), 1, "p2 {{2,3,0}}: majority isolated");
        assert_eq!(c.quorum_side_of(p(3)), 0, "p3 {{3,0,1}}: majority rests");
        let state = c.end_split().expect("window was open");
        assert_eq!(state.quorum_side, vec![0, 1, 1, 0]);
        assert!(!c.split_active());
        assert!(c.reachable(n(1), n(2)));
    }

    #[test]
    fn quorum_side_counts_only_live_holders_at_split_begin() {
        let mut c = Cluster::new(split_cfg());
        // p0 holders {0,1,2}: with N1 dead the cut {2,3} splits the live
        // holders 1/1 — no strict majority, fallback keeps the rest side.
        c.crash_node(n(1), 500);
        c.begin_split(&[n(2), n(3)], 1_000);
        assert_eq!(c.quorum_side_of(p(0)), 0);
        // p1 holders {1,2,3}: live holders 0/2 — isolated side quorum.
        assert_eq!(c.quorum_side_of(p(1)), 1);
    }

    #[test]
    fn split_promote_swaps_primary_without_cross_cut_replay() {
        let mut c = Cluster::new(split_cfg());
        // p3 holders {3,0,1}: primary N3 isolated, quorum side rests.
        append_write(&mut c, p(3), 4, TxnId(1));
        c.epoch_flush_all(); // replicated pre-split
        append_write(&mut c, p(3), 5, TxnId(2)); // stranded on N3
        c.begin_split(&[n(2), n(3)], 1_000);
        let target_head = c.store(n(0), p(3)).unwrap().applied_lsn;
        c.split_promote(p(3), n(0), 2_000);
        assert_eq!(c.placement.primary_of(p(3)), n(0));
        let promoted = c.store(n(0), p(3)).unwrap();
        assert_eq!(promoted.role, ReplicaRole::Primary);
        assert_eq!(
            promoted.applied_lsn, target_head,
            "no cross-cut replay: the target adopts its own head"
        );
        // The divergent old primary demoted in place, log intact for the
        // heal audit.
        let old = c.store(n(3), p(3)).unwrap();
        assert_eq!(old.role, ReplicaRole::Secondary);
        assert_eq!(old.log.pending().len(), 1, "stranded entry survives");
        assert!(c.placement.has_secondary(p(3), n(3)));
        c.check_invariants().unwrap();
    }

    #[test]
    fn seal_flush_skips_fenced_partitions_and_cut_off_secondaries() {
        let mut c = Cluster::new(split_cfg());
        c.begin_split(&[n(2), n(3)], 1_000);
        // p1's primary N1 serves from the non-quorum side: fenced.
        append_write(&mut c, p(1), 3, TxnId(1));
        // p0's primary N0 is on its quorum side: ships, but only to N1.
        append_write(&mut c, p(0), 2, TxnId(2));
        let flush = c.epoch_flush_for_seal();
        assert_eq!(
            flush.frontiers.iter().map(|f| f.0).collect::<Vec<_>>(),
            vec![p(0)],
            "only the quorum-served partition certifies a frontier"
        );
        assert!(
            !c.store(n(1), p(1)).unwrap().log.pending().is_empty()
                || c.store(n(1), p(1)).unwrap().applied_lsn == 0,
            "fenced partition shipped nothing"
        );
        // N1 (same side) caught up on p0; N2 (cut off) did not.
        assert_eq!(c.store(n(1), p(0)).unwrap().applied_lsn, 1);
        assert_eq!(c.store(n(2), p(0)).unwrap().applied_lsn, 0);
        // The fenced primary's buffer is still intact for the heal audit.
        assert_eq!(c.store(n(1), p(1)).unwrap().log.pending().len(), 1);
    }

    #[test]
    fn begin_split_cancels_transfers_straddling_the_cut() {
        let mut c = Cluster::new(split_cfg());
        // p0 primary N0: remaster toward N2 crosses the upcoming cut.
        c.begin_remaster(p(0), n(2), 100).unwrap();
        // p1 primary N1 → N3 also crosses; p2 primary N2 → N3 stays inside.
        c.begin_remaster(p(1), n(3), 100).unwrap();
        c.begin_remaster(p(2), n(3), 100).unwrap();
        let g0 = c.parts[0].gen();
        let g2 = c.parts[2].gen();
        let aborted = c.begin_split(&[n(2), n(3)], 1_000);
        assert!(aborted.is_empty(), "no failovers were in flight");
        assert_eq!(c.transfer(p(0)), Transfer::Idle);
        assert_eq!(c.transfer(p(1)), Transfer::Idle);
        assert!(c.parts[0].gen() > g0, "stale completion fenced by gen bump");
        assert_eq!(c.available_at(p(0)), 1_000, "hand-off window released");
        assert_eq!(
            c.transfer(p(2)),
            Transfer::Remaster { to: n(3) },
            "same-side transfer survives"
        );
        assert_eq!(c.parts[2].gen(), g2);
        c.check_invariants().unwrap();
    }

    /// Regression: a quorum-side promotion landing on a partition with a
    /// remaster in flight used to bump the generation without clearing the
    /// remaster, so its completion was dropped as stale and every later
    /// remaster/migration of the partition answered `Busy` forever.
    #[test]
    fn split_promote_cancels_the_hand_off_it_supersedes() {
        let mut c = Cluster::new(split_cfg());
        // p3 holders {3,0,1}: primary N3 isolated, quorum side rests.
        c.begin_split(&[n(2), n(3)], 1_000);
        // N2 joins p3 on the primary's side, then a same-side remaster
        // toward it starts just before the quorum side's promotion lands.
        let (dur, _) = c.begin_add_replica(p(3), n(2), 1_000).unwrap();
        c.finish_add_replica(p(3), n(2), 1_000 + dur);
        c.begin_remaster(p(3), n(2), 2_000).unwrap();
        let stale = c.parts[3].gen();
        c.split_promote(p(3), n(0), 2_500);
        assert_eq!(c.transfer(p(3)), Transfer::Idle);
        assert!(
            c.parts[3].gen() > stale,
            "the remaster's completion is stale"
        );
        assert_eq!(c.available_at(p(3)), 2_500, "hand-off window released");
        c.check_invariants().unwrap();
        c.end_split();
        c.begin_remaster(p(3), n(1), 3_000)
            .expect("the partition must not stay busy forever");
        c.check_invariants().unwrap();
    }

    /// The same leak through a *shadow* promotion applied at heal, with a
    /// migration in flight on the divergent side.
    #[test]
    fn shadow_promotion_at_heal_cancels_an_in_flight_migration() {
        let mut c = Cluster::new(split_cfg());
        // p1 holders {1,2,3}: primary N1 rests, quorum side is the isolated
        // set — N1 keeps serving and the promotion is recorded in shadow.
        c.begin_split(&[n(2), n(3)], 1_000);
        c.set_shadow(p(1), n(2));
        c.begin_migration(p(1), n(0), 2_000).unwrap();
        // Heal: the shadow applies while the window is still open.
        c.split_promote(p(1), n(2), 5_000);
        assert_eq!(c.transfer(p(1)), Transfer::Idle);
        assert_eq!(c.available_at(p(1)), 5_000, "migration blackout released");
        c.check_invariants().unwrap();
        c.end_split();
        c.begin_remaster(p(1), n(3), 6_000)
            .expect("the partition must not stay busy forever");
        c.check_invariants().unwrap();
    }
}
