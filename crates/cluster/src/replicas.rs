//! A partition's replica set: who holds it and what has been shipped to
//! whom. Two rules live here and nowhere else:
//!
//! * **only this file writes `placement` or inserts into / removes from
//!   `stores`**, so a placement entry and the store behind it change in one
//!   function (`attach`, `detach`, `swap_primary`, `move_primary`);
//! * **every log entry that leaves a primary goes through `ship`**, which
//!   never crosses an open cut or reaches a dead node.

use crate::cluster::Cluster;
use crate::transfer::AdaptorError;
use lion_common::{
    fast_map_with_capacity, FastMap, NodeId, PartitionId, Placement, PlacementError, SimConfig,
    Time,
};
use lion_storage::{LogEntry, ReplicaRole, ReplicaStore};

/// What an epoch flush shipped (returned by
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

/// What [`Cluster::detach`] does with the store the node held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Store {
    /// Discarded with the placement entry.
    Dropped,
    /// The node is down and the store is its disk: it stays behind, unlisted,
    /// for [`Cluster::recover_node`] to find, report for a re-join and drop.
    KeptOnDisk,
}

/// The deployment-time stores of `placement`: a populated primary and
/// in-sync secondaries for every partition, all over the primary's key index.
/// Each node's map is sized once for the replicas it hosts, so populating
/// frees nothing. Maps grown by rehashing leave freed blocks between the row
/// vectors, and a process that builds one cluster after another (a figure
/// grid, the benchmark's set-ups) then faults most of the previous cluster's
/// pages back in; sized once, it reuses them.
pub(crate) fn populate_stores(
    cfg: &SimConfig,
    placement: &Placement,
) -> Vec<FastMap<u32, ReplicaStore>> {
    let mut stores: Vec<FastMap<u32, ReplicaStore>> = (0..cfg.nodes)
        .map(|n| {
            let hosted = (0..placement.n_partitions())
                .filter(|&p| placement.has_replica(PartitionId(p as u32), NodeId(n as u16)))
                .count();
            fast_map_with_capacity(hosted)
        })
        .collect();
    for p in 0..placement.n_partitions() {
        let part = PartitionId(p as u32);
        let primary = ReplicaStore::new_primary(part, cfg.keys_per_partition, cfg.value_size);
        for &sec in placement.secondaries_of(part) {
            let mut store =
                ReplicaStore::new_secondary(part, cfg.keys_per_partition, cfg.value_size);
            store.table.share_index(&primary.table);
            stores[sec.idx()].insert(part.0, store);
        }
        stores[placement.primary_of(part).idx()].insert(part.0, primary);
    }
    stores
}

impl Cluster {
    /// `node` joins `part`'s replica set: it is listed as a secondary and
    /// receives a fresh copy of the primary's rows (over the partition's one
    /// key index).
    pub(crate) fn attach(&mut self, part: PartitionId, node: NodeId) -> Result<(), AdaptorError> {
        match self.placement.add_secondary(part, node) {
            Ok(()) => {}
            Err(PlacementError::AlreadyHosted { .. }) => {
                return Err(AdaptorError::AlreadyHosted { part, node })
            }
            Err(e) => panic!("{e}: ids come from this cluster's own config"),
        }
        let snapshot = ReplicaStore::from_snapshot(part, self.primary_store(part));
        self.stores[node.idx()].insert(part.0, snapshot);
        Ok(())
    }

    /// `node` stops holding `part`: its secondary-list entry, its `freq`
    /// stamp and (see [`Store`]) its store leave together. A node that is
    /// no longer listed — its crash already struck the entry — just loses
    /// what is left. The primary cannot be detached: hand the role off
    /// first ([`Cluster::swap_primary`]).
    pub(crate) fn detach(&mut self, part: PartitionId, node: NodeId, store: Store) {
        match self.placement.remove_secondary(part, node) {
            Ok(()) | Err(PlacementError::NoReplica { .. }) => {}
            Err(e) => panic!("cannot detach: {e}"),
        }
        self.freq.forget(part, node);
        if store == Store::Dropped {
            self.stores[node.idx()].remove(&part.0);
        }
    }

    /// Hands the primary role of `part` to the replica at `to`, which adopts
    /// `head` as its log head: the old primary's store (if it still holds
    /// one) demotes in place and the placement follows.
    pub(crate) fn swap_primary(&mut self, part: PartitionId, to: NodeId, head: u64, now: Time) {
        let old = self.placement.primary_of(part);
        if let Some(s) = self.store_mut(old, part) {
            if s.role == ReplicaRole::Primary {
                s.demote();
            }
        }
        self.store_mut(to, part)
            .expect("promotion target holds a store")
            .promote(head);
        self.placement
            .remaster(part, to)
            .expect("promotion target is a listed secondary");
        self.freq.touch(part, to, now);
    }

    /// The move half of a migration: the primary's data leaves its node for
    /// `to`, which becomes the primary (the source copy is dropped — a
    /// move, not a copy).
    pub(crate) fn move_primary(&mut self, part: PartitionId, to: NodeId, now: Time) {
        let from = self.placement.primary_of(part);
        let mut moved = self.stores[from.idx()]
            .remove(&part.0)
            .expect("primary store must exist");
        let head = moved.log.head_lsn();
        if self.placement.has_secondary(part, to) {
            // Target already held a copy: promote it in place with the moved
            // (authoritative) table; the source's entry follows its store.
            let target = self.store_mut(to, part).expect("a secondary holds a store");
            target.table = moved.table;
            self.swap_primary(part, to, head, now);
            self.detach(part, from, Store::Dropped);
        } else {
            moved.applied_lsn = head;
            self.stores[to.idx()].insert(part.0, moved);
            self.placement
                .migrate_primary(part, to)
                .expect("ids come from this cluster's own config");
            self.freq.forget(part, from);
            self.freq.touch(part, to, now);
        }
    }

    /// The one shipping routine: `from` sends `entries` of `part`'s log to
    /// every listed secondary it can reach ([`Cluster::reachable`]: both ends
    /// up, same side of any open cut) and to nobody else — the others go
    /// stale and are dropped and re-added at the heal or restart. Returns
    /// the wire bytes spent and the slowest round-trip among the receivers.
    pub(crate) fn ship(
        &mut self,
        part: PartitionId,
        from: NodeId,
        entries: &[LogEntry],
    ) -> (u64, Time) {
        let entry_bytes: u64 = entries.iter().map(|e| e.wire_bytes()).sum();
        let (mut bytes, mut max_rtt) = (0, 0);
        for &sec in self.placement.secondaries_of(part) {
            if !self.reachable(from, sec) {
                continue;
            }
            if let Some(store) = self.stores[sec.idx()].get_mut(&part.0) {
                store.apply_entries(entries);
                bytes += entry_bytes;
            }
            let rtt = self.net_delay_between(from, sec, entry_bytes.min(u32::MAX as u64) as u32)
                + self.net_delay_between(sec, from, 0);
            max_rtt = max_rtt.max(rtt);
        }
        (bytes, max_rtt)
    }

    // ------------------------------------------------------------------
    // Epoch-based group replication (§V)
    // ------------------------------------------------------------------

    /// The one replication flush, run by the engine's epoch clock: ships
    /// every partition's pending log entries to its secondaries and reports
    /// the wire bytes (the Fig. 12b network accounting), the per-partition
    /// log frontiers the flush certifies, and the slowest secondary round
    /// trip — the transit an epoch sealed on this flush waits out before its
    /// acks may escape. Cross-zone secondaries (rack-safe placement) stretch
    /// the transit by the aggregation-layer surcharge both ways.
    pub fn epoch_flush_for_seal(&mut self) -> EpochFlush {
        let mut out = EpochFlush::default();
        for p in 0..self.n_partitions() {
            let part = PartitionId(p as u32);
            let primary = self.placement.primary_of(part);
            if !self.is_up(primary) {
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
            let log = &mut self.primary_store_mut(part).log;
            let Some(head) = log.pending().last().map(|e| e.lsn) else {
                continue;
            };
            let pending = log.take_pending();
            out.frontiers.push((part, head));
            let (bytes, rtt) = self.ship(part, primary, &pending);
            self.primary_store_mut(part).log.recycle(pending);
            out.bytes += bytes;
            out.max_transit_us = out.max_transit_us.max(rtt);
        }
        out
    }
}
