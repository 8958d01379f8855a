//! Primary→secondary replication log.
//!
//! Primaries append one [`LogEntry`] per installed write. Entries accumulate
//! in an epoch buffer and are shipped to every secondary when the global
//! epoch advances (the epoch-based group commit of §V, 10 ms default).
//! A secondary's *lag* — how far its applied LSN trails the primary's — is
//! what remastering must sync before the leader hand-off (§III).

use crate::row::Bytes;
use crate::table::Cell;
use lion_common::{Key, PartitionId};

/// One replicated write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Log sequence number, dense from 1 per partition.
    pub lsn: u64,
    /// Partition the write belongs to.
    pub partition: PartitionId,
    /// Row key.
    pub key: Key,
    /// The row's cell, valid on every replica of the partition; `None` for
    /// an entry appended by key, which is applied by key.
    pub cell: Option<Cell>,
    /// Row version after the write.
    pub version: u64,
    /// Payload installed by the write.
    pub value: Bytes,
}

impl LogEntry {
    /// Wire size of this entry (payload + fixed header), for network costing.
    pub fn wire_bytes(&self) -> u64 {
        self.value.len() as u64 + 32
    }
}

/// Append-only log kept by a primary replica.
#[derive(Debug, Clone, Default)]
pub struct ReplicationLog {
    next_lsn: u64,
    /// Entries appended since the last epoch flush.
    buffer: Vec<LogEntry>,
    /// Highest LSN whose transaction has been *acked* to a client. In
    /// ack-at-commit mode this tracks the head; under epoch group commit it
    /// only advances when an epoch turns durable — so it can never pass
    /// [`ReplicationLog::shipped_lsn`], which is exactly the
    /// no-acked-commit-lost invariant the crash audit checks.
    acked_lsn: u64,
}

impl ReplicationLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        ReplicationLog {
            next_lsn: 0,
            buffer: Vec::new(),
            acked_lsn: 0,
        }
    }

    /// Highest LSN appended so far.
    pub fn head_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Durable frontier: the highest LSN already drained for shipment to
    /// the secondaries (entries below it left this node). Everything in
    /// `(shipped_lsn, head_lsn]` still lives only in the epoch buffer.
    pub fn shipped_lsn(&self) -> u64 {
        self.next_lsn - self.buffer.len() as u64
    }

    /// Ack frontier (see the field docs).
    pub fn acked_lsn(&self) -> u64 {
        self.acked_lsn
    }

    /// Advances the ack frontier (monotonic; clamped to the head).
    pub fn mark_acked(&mut self, lsn: u64) {
        self.acked_lsn = self.acked_lsn.max(lsn.min(self.next_lsn));
    }

    /// Entries acked to clients but not yet shipped off this node: the
    /// writes a crash of this node would *lose after acking* in a real
    /// deployment. Zero by construction under epoch group commit.
    pub fn acked_unshipped(&self) -> u64 {
        self.acked_lsn.saturating_sub(self.shipped_lsn())
    }

    /// Appends a write addressed by key, returning its LSN.
    pub fn append(&mut self, partition: PartitionId, key: Key, version: u64, value: Bytes) -> u64 {
        self.append_cell(partition, key, None, version, value)
    }

    /// Appends a write whose row's cell is known, returning its LSN: each
    /// secondary applies it at that cell, without a key lookup.
    pub fn append_cell(
        &mut self,
        partition: PartitionId,
        key: Key,
        cell: Option<Cell>,
        version: u64,
        value: Bytes,
    ) -> u64 {
        self.next_lsn += 1;
        self.buffer.push(LogEntry {
            lsn: self.next_lsn,
            partition,
            key,
            cell,
            version,
            value,
        });
        self.next_lsn
    }

    /// Entries pending shipment in the current epoch.
    pub fn pending(&self) -> &[LogEntry] {
        &self.buffer
    }

    /// Drains the epoch buffer for shipping.
    pub fn take_pending(&mut self) -> Vec<LogEntry> {
        std::mem::take(&mut self.buffer)
    }

    /// Hands a drained buffer back once shipped: it is cleared and becomes
    /// the epoch buffer, so the next epoch appends into its capacity instead
    /// of regrowing from empty. Entries appended since the drain are kept.
    pub fn recycle(&mut self, mut shipped: Vec<LogEntry>) {
        if shipped.capacity() > self.buffer.capacity() {
            shipped.clear();
            shipped.append(&mut self.buffer);
            self.buffer = shipped;
        }
    }

    /// Resets the log to continue from an adopted state (new primary after
    /// remastering adopts the old primary's head LSN).
    pub fn adopt_head(&mut self, lsn: u64) {
        debug_assert!(self.buffer.is_empty(), "adopting with unshipped entries");
        self.next_lsn = lsn;
        self.acked_lsn = self.acked_lsn.min(lsn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsns_are_dense_from_one() {
        let mut log = ReplicationLog::new();
        assert_eq!(log.append(PartitionId(0), 1, 2, Bytes::synth(0, 4)), 1);
        assert_eq!(log.append(PartitionId(0), 2, 2, Bytes::synth(0, 4)), 2);
        assert_eq!(log.head_lsn(), 2);
    }

    #[test]
    fn take_pending_drains_buffer() {
        let mut log = ReplicationLog::new();
        log.append(PartitionId(1), 1, 1, Bytes::synth(0, 8));
        log.append(PartitionId(1), 2, 1, Bytes::synth(0, 8));
        assert_eq!(log.pending().len(), 2);
        let shipped = log.take_pending();
        assert_eq!(shipped.len(), 2);
        assert!(log.pending().is_empty());
        assert_eq!(log.head_lsn(), 2, "head survives the drain");
    }

    #[test]
    fn recycle_returns_the_capacity_cleared() {
        let mut log = ReplicationLog::new();
        for k in 0..4 {
            log.append(PartitionId(1), k, 1, Bytes::synth(0, 8));
        }
        let shipped = log.take_pending();
        let cap = shipped.capacity();
        log.append(PartitionId(1), 9, 1, Bytes::synth(0, 8));
        log.recycle(shipped);
        assert_eq!(log.pending().len(), 1, "only the entry appended since");
        assert_eq!(log.pending()[0].lsn, 5);
        assert_eq!(log.shipped_lsn(), 4);
        let kept = log.take_pending();
        assert_eq!(kept.capacity(), cap, "the shipped buffer came back");
    }

    #[test]
    fn adopt_head_continues_sequence() {
        let mut log = ReplicationLog::new();
        log.adopt_head(41);
        assert_eq!(log.append(PartitionId(0), 9, 5, Bytes::synth(0, 0)), 42);
    }

    #[test]
    fn frontiers_track_ship_and_ack() {
        let mut log = ReplicationLog::new();
        log.append(PartitionId(0), 1, 1, Bytes::synth(0, 4));
        log.append(PartitionId(0), 2, 1, Bytes::synth(0, 4));
        assert_eq!(log.shipped_lsn(), 0, "both entries still buffered");
        // ack-at-commit: everything committed is acked immediately
        log.mark_acked(2);
        assert_eq!(log.acked_unshipped(), 2, "acked writes only on this node");
        let _ = log.take_pending();
        assert_eq!(log.shipped_lsn(), 2);
        assert_eq!(log.acked_unshipped(), 0);
        // the ack frontier is monotonic and clamped to the head
        log.mark_acked(1);
        assert_eq!(log.acked_lsn(), 2);
        log.mark_acked(99);
        assert_eq!(log.acked_lsn(), 2);
    }

    #[test]
    fn wire_bytes_include_header() {
        let e = LogEntry {
            lsn: 1,
            partition: PartitionId(0),
            key: 0,
            cell: None,
            version: 1,
            value: Bytes::synth(0, 100),
        };
        assert_eq!(e.wire_bytes(), 132);
        assert_eq!(
            std::mem::size_of::<LogEntry>(),
            48,
            "the cell rides in padding"
        );
    }
}
