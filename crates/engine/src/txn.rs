//! Per-transaction runtime context.

use lion_common::{ClientId, Key, NodeId, Op, OpKind, PartitionId, Time, TxnId, TxnRequest};
use lion_obs::CommitClass;

/// One read-set entry: the version observed at execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadEntry {
    /// Partition of the row.
    pub part: PartitionId,
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
    /// Row key.
    pub key: Key,
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
    /// The ops to run, all of one partition.
    pub ops: &'a [Op],
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
    /// How the transaction executed (§III cases 1–3): the class its
    /// commit reports.
    pub class: CommitClass,
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
    /// Declared ops regrouped by partition in first-touch order, flattened.
    /// Built once per transaction (`req` never changes), so the per-wake
    /// group walks of the protocol state machines are allocation-free.
    grouped_ops: Vec<Op>,
    /// Per-group ranges into `grouped_ops`.
    group_index: Vec<GroupRange>,
}

impl TxnCtx {
    /// Creates a fresh context.
    pub fn new(id: TxnId, client: ClientId, req: TxnRequest, now: Time) -> Self {
        let mut ctx = TxnCtx {
            id,
            seq: 0,
            client,
            req,
            parts: Vec::new(),
            start: now,
            attempts: 1,
            read_set: Vec::new(),
            write_set: Vec::new(),
            pending: 0,
            failed: false,
            home: NodeId(0),
            participants: Vec::new(),
            class: CommitClass::SingleNode,
            step: 0,
            phase_us: [0; 5],
            parked: false,
            holds_locks: false,
            grouped_ops: Vec::new(),
            group_index: Vec::new(),
        };
        ctx.group_ops();
        ctx
    }

    /// Re-begins this context as a new transaction in its own buffers:
    /// every field ends as [`TxnCtx::new`] would set it.
    pub(crate) fn begin(&mut self, id: TxnId, client: ClientId, req: TxnRequest, now: Time) {
        // The attempt's fields, then the transaction's.
        self.reset_for_retry();
        self.id = id;
        self.seq = 0;
        self.client = client;
        self.req = req;
        self.start = now;
        self.attempts = 1;
        self.home = NodeId(0);
        self.phase_us = [0; 5];
        self.parked = false;
        self.parts.clear();
        self.grouped_ops.clear();
        self.group_index.clear();
        self.group_ops();
    }

    /// Groups `req`'s ops by partition once, preserving first-touch order:
    /// stable scratch for every later group walk. The buffers are empty.
    fn group_ops(&mut self) {
        let ops = &self.req.ops;
        for op in ops {
            if !self.group_index.iter().any(|g| g.part == op.partition) {
                self.group_index.push(GroupRange {
                    part: op.partition,
                    start: 0,
                    end: 0,
                    reads: 0,
                });
            }
        }
        // `reserve_exact`: a fresh buffer gets exactly what this request
        // needs, a reused one is used as it is.
        self.grouped_ops.reserve_exact(ops.len());
        for g in &mut self.group_index {
            g.start = self.grouped_ops.len() as u32;
            for op in ops.iter().filter(|o| o.partition == g.part) {
                g.reads += (op.kind == OpKind::Read) as u32;
                self.grouped_ops.push(*op);
            }
            g.end = self.grouped_ops.len() as u32;
        }
        self.parts.reserve_exact(self.group_index.len());
        self.parts.extend(self.group_index.iter().map(|g| g.part));
        self.parts.sort_unstable();
        let reads: usize = self.group_index.iter().map(|g| g.reads as usize).sum();
        self.read_set.reserve_exact(reads);
        self.write_set.reserve_exact(self.grouped_ops.len() - reads);
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
            ops: &self.grouped_ops[g.start as usize..g.end as usize],
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
        self.class = CommitClass::SingleNode;
        self.step = 0;
        self.holds_locks = false;
        self.attempts += 1;
    }

    /// True when this attempt executed on `part`: its read or write set has
    /// an entry there, which only running at the partition's primary puts
    /// (a declared attempt loads its write set in its commit instant). Such
    /// an attempt stands on the primary it ran at, so a hand-off that moves
    /// `part` must not land under it.
    pub fn executed_on(&self, part: PartitionId) -> bool {
        self.read_set.iter().any(|r| r.part == part)
            || self.write_set.iter().any(|w| w.part == part)
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
        assert_eq!(
            ctx.group_walk(0).ops,
            [Op::read(p(2), 1), Op::read(p(2), 3)]
        );
        assert_eq!(ctx.group_part(1), p(0));
        assert_eq!(ctx.group_part(2), p(1));
        assert_eq!(ctx.group_reads_writes(2), (0, 1));
    }

    #[test]
    fn retry_resets_attempt_state() {
        let req = TxnRequest::new(vec![Op::read(p(0), 1)]);
        let mut ctx = TxnCtx::new(TxnId(1), ClientId(0), req, 100);
        ctx.read_set.push(ReadEntry {
            part: p(0),
            key: 1,
            version: 3,
        });
        ctx.pending = 2;
        ctx.failed = true;
        ctx.class = CommitClass::Distributed;
        ctx.holds_locks = true;
        ctx.reset_for_retry();
        assert!(ctx.read_set.is_empty());
        assert!(!ctx.holds_locks);
        assert_eq!(ctx.pending, 0);
        assert!(!ctx.failed);
        assert_eq!(ctx.class, CommitClass::SingleNode);
        assert_eq!(ctx.attempts, 2);
        assert_eq!(ctx.start, 100, "latency still measured from first submit");
    }

    #[test]
    fn set_entries_and_grouped_ops_are_a_key_and_its_partition() {
        assert_eq!(std::mem::size_of::<ReadEntry>(), 24);
        assert_eq!(std::mem::size_of::<WriteEntry>(), 16);
        assert_eq!(std::mem::size_of::<Op>(), 16);
    }
}
