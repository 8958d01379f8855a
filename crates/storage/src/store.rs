//! A partition replica: table + replication state + role.

use crate::log::{LogEntry, ReplicationLog};
use crate::table::Table;
use lion_common::PartitionId;
use std::collections::BTreeMap;

/// Whether this replica currently serves writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaRole {
    /// Serves reads and writes; owns the replication log.
    Primary,
    /// Applies replicated entries; can be promoted by remastering.
    Secondary,
}

/// One replica of one partition hosted on one node.
#[derive(Debug, Clone)]
pub struct ReplicaStore {
    /// Partition this replica belongs to.
    pub partition: PartitionId,
    /// Current role.
    pub role: ReplicaRole,
    /// Row data.
    pub table: Table,
    /// Replication log (only appended on the primary; carried across
    /// remastering via [`ReplicationLog::adopt_head`]).
    pub log: ReplicationLog,
    /// Highest LSN applied on this replica. On the primary this equals the
    /// log head; on a secondary it trails by the replication lag.
    ///
    /// `applied_lsn` only advances over a *dense* prefix: an entry arriving
    /// ahead of the prefix is parked in `reorder` until the gap fills, so a
    /// secondary's frontier never claims writes it has not actually applied.
    /// Failover promotion relies on this (a gapped replica must not lead).
    pub applied_lsn: u64,
    /// Entries received ahead of the dense prefix, keyed by LSN.
    reorder: BTreeMap<u64, LogEntry>,
}

impl ReplicaStore {
    /// Creates a populated primary replica.
    pub fn new_primary(partition: PartitionId, keys: u64, value_size: u32) -> Self {
        ReplicaStore {
            partition,
            role: ReplicaRole::Primary,
            table: Table::populated(keys, value_size),
            log: ReplicationLog::new(),
            applied_lsn: 0,
            reorder: BTreeMap::new(),
        }
    }

    /// Creates a populated secondary replica (initially in sync).
    pub fn new_secondary(partition: PartitionId, keys: u64, value_size: u32) -> Self {
        ReplicaStore {
            role: ReplicaRole::Secondary,
            ..Self::new_primary(partition, keys, value_size)
        }
    }

    /// Creates a secondary copied from `src` (replica add): see
    /// [`Table::replica`].
    pub fn from_snapshot(partition: PartitionId, src: &ReplicaStore) -> Self {
        ReplicaStore {
            partition,
            role: ReplicaRole::Secondary,
            table: src.table.replica(),
            log: ReplicationLog::new(),
            applied_lsn: src.log.head_lsn(),
            reorder: BTreeMap::new(),
        }
    }

    /// Replication lag in entries relative to a primary's head LSN.
    pub fn lag_behind(&self, primary_head: u64) -> u64 {
        primary_head.saturating_sub(self.applied_lsn)
    }

    /// Applies shipped log entries. Entries extending the dense prefix apply
    /// immediately; entries arriving ahead of a gap are parked and applied
    /// once the gap fills. Duplicates (LSN at or below the frontier) are
    /// ignored, so replaying an overlapping prepare log during failover is
    /// idempotent.
    pub fn apply_entries(&mut self, entries: &[LogEntry]) {
        for e in entries {
            debug_assert_eq!(e.partition, self.partition);
            if e.lsn <= self.applied_lsn {
                continue; // duplicate delivery / replay overlap
            }
            if e.lsn == self.applied_lsn + 1 {
                self.apply(e);
                self.drain_reorder();
            } else {
                self.reorder.insert(e.lsn, e.clone());
            }
        }
    }

    fn drain_reorder(&mut self) {
        while let Some(e) = self.reorder.remove(&(self.applied_lsn + 1)) {
            self.apply(&e);
        }
    }

    /// Applies the next entry at its cell (by key when it carries none).
    #[inline]
    fn apply(&mut self, e: &LogEntry) {
        let cell = e.cell.unwrap_or_else(|| self.table.cell_or_assign(e.key));
        self.table.apply_replicated_cell(cell, e.version, e.value);
        self.applied_lsn = e.lsn;
    }

    /// True when this replica holds entries it cannot apply yet — its
    /// applied-epoch prefix has a gap, disqualifying it from promotion.
    pub fn has_gap(&self) -> bool {
        !self.reorder.is_empty()
    }

    /// Promotes this secondary to primary after remastering: adopts the old
    /// primary's head LSN so the log continues densely.
    pub fn promote(&mut self, old_primary_head: u64) {
        debug_assert_eq!(
            self.role,
            ReplicaRole::Secondary,
            "only secondaries are promoted"
        );
        self.role = ReplicaRole::Primary;
        self.applied_lsn = old_primary_head;
        self.reorder.clear();
        self.log.adopt_head(old_primary_head);
    }

    /// Demotes a primary to secondary (the flip side of remastering).
    pub fn demote(&mut self) {
        debug_assert_eq!(
            self.role,
            ReplicaRole::Primary,
            "only primaries are demoted"
        );
        self.role = ReplicaRole::Secondary;
        self.applied_lsn = self.log.head_lsn();
        self.reorder.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Bytes;
    use lion_common::TxnId;

    fn p() -> PartitionId {
        PartitionId(0)
    }

    #[test]
    fn primary_secondary_roundtrip_stays_consistent() {
        let mut primary = ReplicaStore::new_primary(p(), 8, 16);
        let mut secondary = ReplicaStore::new_secondary(p(), 8, 16);

        // Commit two writes on the primary.
        for (k, txn) in [(1u64, TxnId(1)), (2, TxnId(2))] {
            primary.table.occ_lock(k, txn);
            let v = primary
                .table
                .occ_install(k, txn, Table::synth_value(k, 99, 16));
            primary.log.append(p(), k, v, Table::synth_value(k, 99, 16));
        }
        assert_eq!(secondary.lag_behind(primary.log.head_lsn()), 2);

        // Epoch flush ships the buffer.
        let shipped = primary.log.take_pending();
        secondary.apply_entries(&shipped);
        assert_eq!(secondary.lag_behind(primary.log.head_lsn()), 0);
        for k in [1u64, 2] {
            assert_eq!(
                secondary.table.get(k).unwrap().value,
                primary.table.get(k).unwrap().value
            );
            assert_eq!(
                secondary.table.get(k).unwrap().version,
                primary.table.get(k).unwrap().version
            );
        }
    }

    #[test]
    fn remastering_promote_demote() {
        let mut primary = ReplicaStore::new_primary(p(), 4, 8);
        let mut secondary = ReplicaStore::new_secondary(p(), 4, 8);
        primary.table.occ_lock(0, TxnId(1));
        let v = primary
            .table
            .occ_install(0, TxnId(1), Bytes::synth(0x0101_0101_0101_0101, 8));
        primary
            .log
            .append(p(), 0, v, Bytes::synth(0x0101_0101_0101_0101, 8));
        let shipped = primary.log.take_pending();
        secondary.apply_entries(&shipped);

        let head = primary.log.head_lsn();
        primary.demote();
        secondary.promote(head);
        assert_eq!(secondary.role, ReplicaRole::Primary);
        assert_eq!(primary.role, ReplicaRole::Secondary);
        // new primary continues the LSN sequence
        let next = secondary
            .log
            .append(p(), 1, 2, Bytes::synth(0x0202_0202_0202_0202, 8));
        assert_eq!(next, head + 1);
    }

    #[test]
    fn out_of_order_entries_park_until_gap_fills() {
        let mut primary = ReplicaStore::new_primary(p(), 8, 8);
        let mut secondary = ReplicaStore::new_secondary(p(), 8, 8);
        let mut entries = Vec::new();
        for (k, txn) in [(1u64, TxnId(1)), (2, TxnId(2)), (3, TxnId(3))] {
            primary.table.occ_lock(k, txn);
            let v = primary
                .table
                .occ_install(k, txn, Table::synth_value(k, 5, 8));
            primary.log.append(p(), k, v, Table::synth_value(k, 5, 8));
            entries = primary.log.pending().to_vec();
        }
        // Deliver entry 3 first: frontier must not move, gap is flagged.
        secondary.apply_entries(&entries[2..3]);
        assert_eq!(secondary.applied_lsn, 0);
        assert!(secondary.has_gap());
        // Delivering the prefix drains the parked entry.
        secondary.apply_entries(&entries[0..2]);
        assert_eq!(secondary.applied_lsn, 3);
        assert!(!secondary.has_gap());
        assert_eq!(
            secondary.table.get(3).unwrap().value,
            primary.table.get(3).unwrap().value
        );
        // Duplicate replay is idempotent.
        let ver_before = secondary.table.get(2).unwrap().version;
        secondary.apply_entries(&entries);
        assert_eq!(secondary.applied_lsn, 3);
        assert_eq!(secondary.table.get(2).unwrap().version, ver_before);
    }

    #[test]
    fn snapshot_bootstrap_is_in_sync() {
        let mut primary = ReplicaStore::new_primary(p(), 8, 8);
        primary.table.occ_lock(3, TxnId(7));
        let v = primary
            .table
            .occ_install(3, TxnId(7), Bytes::synth(0x0909_0909_0909_0909, 8));
        primary
            .log
            .append(p(), 3, v, Bytes::synth(0x0909_0909_0909_0909, 8));
        primary.log.take_pending(); // shipped elsewhere

        let copy = ReplicaStore::from_snapshot(p(), &primary);
        assert_eq!(copy.lag_behind(primary.log.head_lsn()), 0);
        assert_eq!(
            copy.table.get(3).unwrap().value,
            primary.table.get(3).unwrap().value
        );
        assert_eq!(copy.role, ReplicaRole::Secondary);
    }
}
