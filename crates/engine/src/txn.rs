//! Per-transaction runtime context.

use lion_common::{ClientId, Key, NodeId, Op, OpKind, PartitionId, Time, TxnId, TxnRequest};
use lion_storage::Cell;

/// How a transaction ultimately executed, for the single-node-conversion
/// statistics the paper reports (§III cases 1–3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnClass {
    /// All primaries local at the executor: direct single-node execution.
    SingleNode,
    /// Converted to single-node via one or more remasters.
    Remastered,
    /// Executed as a distributed transaction with 2PC.
    Distributed,
}

/// One read-set entry: the version observed at execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadEntry {
    /// Partition of the row.
    pub part: PartitionId,
    /// The row's cell in every replica of `part`.
    pub cell: Cell,
    /// Row key.
    pub key: Key,
    /// Version observed by the read.
    pub version: u64,
}

/// One write-set entry (value synthesised at install).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteEntry {
    /// Partition of the row.
    pub part: PartitionId,
    /// The row's cell in every replica of `part`.
    pub cell: Cell,
    /// Row key.
    pub key: Key,
}

/// A declared op beside its row's cell, resolved at the op's first
/// execution and reused by every later attempt: the partition's replicas
/// share one key index whose entries never move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CellOp {
    /// The declared op.
    pub op: Op,
    /// Its row's cell, once resolved.
    pub cell: Option<Cell>,
}

/// One partition group of a transaction's declared ops: a range into
/// [`TxnCtx`]'s flattened, regrouped op array.
#[derive(Debug, Clone, Copy)]
struct GroupRange {
    part: PartitionId,
    start: u32,
    end: u32,
    reads: u32,
}

/// Ops of one partition beside the two OCC sets they fill: a disjoint
/// borrow of one context, so the engine walks the ops in place while it
/// appends to the sets.
pub(crate) struct OpWalk<'a> {
    /// Coordinator of the transaction.
    pub home: NodeId,
    /// The ops to run, all of one partition, with their cells.
    pub ops: &'a mut [CellOp],
    /// [`TxnCtx::read_set`].
    pub read_set: &'a mut Vec<ReadEntry>,
    /// [`TxnCtx::write_set`].
    pub write_set: &'a mut Vec<WriteEntry>,
}

/// Engine-owned state of one in-flight transaction. Protocols use `step`
/// and `pending` as state-machine scratch space; everything else is shared
/// bookkeeping.
#[derive(Debug, Clone)]
pub struct TxnCtx {
    /// Transaction id (stable across retries). Slab-allocated: encodes an
    /// arena slot + generation, *not* submission order — use [`TxnCtx::seq`]
    /// when ordering transactions by arrival.
    pub id: TxnId,
    /// Global submission sequence number (0 for the first transaction ever
    /// submitted, monotonic thereafter). Deterministic tie-breaker wherever
    /// the engine must order in-flight transactions by arrival.
    pub seq: u64,
    /// Closed-loop client that issued it (standard mode).
    pub client: ClientId,
    /// Declared operations.
    pub req: TxnRequest,
    /// Sorted distinct partitions accessed.
    pub parts: Vec<PartitionId>,
    /// First submission time (latency is measured from here).
    pub start: Time,
    /// Attempt number (1 = first execution).
    pub attempts: u32,
    /// OCC read set.
    pub read_set: Vec<ReadEntry>,
    /// OCC write set.
    pub write_set: Vec<WriteEntry>,
    /// Outstanding fan-out count (join helper).
    pub pending: u32,
    /// Whether any branch of the current fan-out failed.
    pub failed: bool,
    /// Executor / coordinator node chosen by the router.
    pub home: NodeId,
    /// Remote 2PC participants (primaries of non-local partitions).
    pub participants: Vec<NodeId>,
    /// Execution classification for statistics.
    pub class: TxnClass,
    /// Protocol scratch: current phase / partition-group index.
    pub step: u32,
    /// Accumulated per-phase time for the latency breakdown (µs).
    pub phase_us: [u64; 5],
    /// Parked between attempts (retry back-off / deferred to the next
    /// batch): not in flight, so fault aborts must not touch it again.
    pub parked: bool,
    /// True once a `validate_at` of this attempt prepare-locked a row: the
    /// only state in which an abort has anything to release.
    pub holds_locks: bool,
    /// Declared ops regrouped by partition in first-touch order, flattened,
    /// each with its cell. Built once at creation (`req` never changes), so
    /// the per-wake group walks of the protocol state machines are
    /// allocation-free.
    grouped_ops: Vec<CellOp>,
    /// Per-group ranges into `grouped_ops`.
    group_index: Vec<GroupRange>,
}

/// The heap buffers of a finished context, cleared: what
/// [`TxnSlab::recycle`](crate::TxnSlab::recycle) keeps so that the next
/// context is built in their capacity instead of allocating its own.
#[derive(Debug, Default)]
pub struct TxnBufs {
    parts: Vec<PartitionId>,
    read_set: Vec<ReadEntry>,
    write_set: Vec<WriteEntry>,
    participants: Vec<NodeId>,
    grouped_ops: Vec<CellOp>,
    group_index: Vec<GroupRange>,
}

impl TxnCtx {
    /// Creates a fresh context.
    pub fn new(id: TxnId, client: ClientId, req: TxnRequest, now: Time) -> Self {
        Self::with_buffers(TxnBufs::default(), id, client, req, now)
    }

    /// Creates a context in the capacity of `bufs`.
    pub fn with_buffers(
        bufs: TxnBufs,
        id: TxnId,
        client: ClientId,
        req: TxnRequest,
        now: Time,
    ) -> Self {
        let TxnBufs {
            mut parts,
            mut read_set,
            mut write_set,
            participants,
            mut grouped_ops,
            mut group_index,
        } = bufs;
        // Group the ops by partition once, preserving first-touch order:
        // stable scratch for every later group walk.
        for op in &req.ops {
            if !group_index.iter().any(|g| g.part == op.partition) {
                group_index.push(GroupRange {
                    part: op.partition,
                    start: 0,
                    end: 0,
                    reads: 0,
                });
            }
        }
        // `reserve_exact`: a fresh buffer gets exactly what this request
        // needs, a recycled one is used as it is.
        grouped_ops.reserve_exact(req.ops.len());
        for g in &mut group_index {
            g.start = grouped_ops.len() as u32;
            for op in req.ops.iter().filter(|o| o.partition == g.part) {
                if op.kind == OpKind::Read {
                    g.reads += 1;
                }
                grouped_ops.push(CellOp {
                    op: *op,
                    cell: None,
                });
            }
            g.end = grouped_ops.len() as u32;
        }
        parts.reserve_exact(group_index.len());
        parts.extend(group_index.iter().map(|g| g.part));
        parts.sort_unstable();
        let reads: usize = group_index.iter().map(|g| g.reads as usize).sum();
        read_set.reserve_exact(reads);
        write_set.reserve_exact(grouped_ops.len() - reads);
        TxnCtx {
            id,
            seq: 0,
            client,
            req,
            parts,
            start: now,
            attempts: 1,
            read_set,
            write_set,
            pending: 0,
            failed: false,
            home: NodeId(0),
            participants,
            class: TxnClass::SingleNode,
            step: 0,
            phase_us: [0; 5],
            parked: false,
            holds_locks: false,
            grouped_ops,
            group_index,
        }
    }

    /// The context's buffers, cleared; the request is dropped.
    pub fn into_buffers(self) -> TxnBufs {
        let mut bufs = TxnBufs {
            parts: self.parts,
            read_set: self.read_set,
            write_set: self.write_set,
            participants: self.participants,
            grouped_ops: self.grouped_ops,
            group_index: self.group_index,
        };
        bufs.parts.clear();
        bufs.read_set.clear();
        bufs.write_set.clear();
        bufs.participants.clear();
        bufs.grouped_ops.clear();
        bufs.group_index.clear();
        bufs
    }

    /// Number of partition groups (distinct partitions touched, in
    /// first-touch order).
    #[inline]
    pub fn n_groups(&self) -> usize {
        self.group_index.len()
    }

    /// Partition of group `gi`.
    #[inline]
    pub fn group_part(&self, gi: usize) -> PartitionId {
        self.group_index[gi].part
    }

    /// Group `gi`'s ops, in declaration order, beside the sets they fill.
    pub(crate) fn group_walk(&mut self, gi: usize) -> OpWalk<'_> {
        let g = self.group_index[gi];
        OpWalk {
            home: self.home,
            ops: &mut self.grouped_ops[g.start as usize..g.end as usize],
            read_set: &mut self.read_set,
            write_set: &mut self.write_set,
        }
    }

    /// `(reads, writes)` op counts of group `gi` (precomputed).
    #[inline]
    pub fn group_reads_writes(&self, gi: usize) -> (usize, usize) {
        let g = self.group_index[gi];
        let len = (g.end - g.start) as usize;
        (g.reads as usize, len - g.reads as usize)
    }

    /// Resets per-attempt state for a retry, keeping `id`/`start`/`attempts`.
    pub fn reset_for_retry(&mut self) {
        self.read_set.clear();
        self.write_set.clear();
        self.pending = 0;
        self.failed = false;
        self.participants.clear();
        self.class = TxnClass::SingleNode;
        self.step = 0;
        self.holds_locks = false;
        self.attempts += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PartitionId {
        PartitionId(i)
    }

    #[test]
    fn groups_preserve_first_touch_order() {
        let req = TxnRequest::new(vec![
            Op::read(p(2), 1),
            Op::write(p(0), 2),
            Op::read(p(2), 3),
            Op::write(p(1), 4),
        ]);
        let mut ctx = TxnCtx::new(TxnId(1), ClientId(0), req, 0);
        assert_eq!(ctx.n_groups(), 3);
        assert_eq!(ctx.group_part(0), p(2));
        let ops: Vec<Op> = ctx.group_walk(0).ops.iter().map(|o| o.op).collect();
        assert_eq!(ops, [Op::read(p(2), 1), Op::read(p(2), 3)]);
        assert_eq!(ctx.group_part(1), p(0));
        assert_eq!(ctx.group_part(2), p(1));
        assert_eq!(ctx.group_reads_writes(2), (0, 1));
    }

    #[test]
    fn retry_resets_attempt_state() {
        let req = TxnRequest::new(vec![Op::read(p(0), 1)]);
        let mut ctx = TxnCtx::new(TxnId(1), ClientId(0), req, 100);
        let cell = lion_storage::Table::new().cell_or_assign(1);
        ctx.group_walk(0).ops[0].cell = Some(cell);
        ctx.read_set.push(ReadEntry {
            part: p(0),
            cell,
            key: 1,
            version: 3,
        });
        ctx.pending = 2;
        ctx.failed = true;
        ctx.class = TxnClass::Distributed;
        ctx.holds_locks = true;
        ctx.reset_for_retry();
        assert!(ctx.read_set.is_empty());
        assert!(!ctx.holds_locks);
        assert_eq!(ctx.pending, 0);
        assert!(!ctx.failed);
        assert_eq!(ctx.class, TxnClass::SingleNode);
        assert_eq!(ctx.attempts, 2);
        assert_eq!(ctx.start, 100, "latency still measured from first submit");
        assert_eq!(
            ctx.group_walk(0).ops[0].cell,
            Some(cell),
            "cells outlive attempts"
        );
    }

    #[test]
    fn set_entries_carry_the_cell_in_padding() {
        assert_eq!(std::mem::size_of::<ReadEntry>(), 24);
        assert_eq!(std::mem::size_of::<WriteEntry>(), 16);
    }
}
