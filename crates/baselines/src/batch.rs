//! What the five batch baselines share: executing a transaction at the
//! owners of its partitions by composing CPU grants arithmetically, the
//! deterministic lock manager of Calvin and Hermes, the distributed commit
//! rounds of Aria and Lotus, zone-aware barrier pricing, and completing a
//! transaction — commit or defer to the next batch — at a computed time.
//! Each protocol keeps its own `impl Protocol` and calls in here.

use lion_common::{FastMap, NodeId, Op, OpKind, Phase, Time, TxnId};
use lion_engine::tags::{tag, untag};
use lion_engine::{cpu, ByteClass, CommitClass, Engine, MetricEvent};
use lion_sim::MultiServer;

const K_COMMIT: u8 = 1;
const K_DEFER: u8 = 2;

/// How a transaction's current attempt ends.
pub(crate) enum Finish {
    /// Install its writes (conflict-free by the protocol's construction)
    /// and commit.
    Commit,
    /// Abort and carry over to the next batch.
    Defer,
}

/// Ends `txn`'s attempt as `how` at virtual time `at`.
pub(crate) fn finish_at(eng: &mut Engine, txn: TxnId, at: Time, how: Finish) {
    let kind = match how {
        Finish::Commit => K_COMMIT,
        Finish::Defer => K_DEFER,
    };
    eng.wake_at(at, txn, tag(kind, 0));
}

/// The `on_wake` of a [`finish_at`]. A wake left over from an attempt a
/// fault aborted in the meantime never arrives: the engine drops it. A
/// commit loads the write set from the declared ops in the same instant,
/// so a declared attempt holds no set between events.
pub(crate) fn on_wake(eng: &mut Engine, txn: TxnId, tagv: u32) {
    let kind = untag(tagv).0;
    match kind {
        K_COMMIT => {
            eng.load_declared_sets(txn);
            eng.commit(txn);
        }
        K_DEFER => eng.abort(txn),
        _ => unreachable!("batch kit wake of kind {kind}"),
    }
}

/// Executes `txn`'s declared ops at the primaries of their partitions, in
/// parallel from `start`: one CPU grant per owner node. Returns the latest
/// completion and the owners.
pub(crate) fn execute_at_owners(eng: &mut Engine, txn: TxnId, start: Time) -> (Time, Vec<NodeId>) {
    let mut by_node: FastMap<NodeId, (usize, usize)> = FastMap::default();
    for op in &eng.txn(txn).req.ops {
        let n = eng.cluster.placement.primary_of(op.partition);
        let e = by_node.entry(n).or_insert((0, 0));
        match op.kind {
            OpKind::Read => e.0 += 1,
            OpKind::Write => e.1 += 1,
        }
    }
    let mut done = start;
    let mut owners = Vec::with_capacity(by_node.len());
    for (node, (r, w)) in by_node {
        let (_, end) = eng.cpu_grant(node, start, eng.op_cpu(r, w));
        done = done.max(end);
        owners.push(node);
    }
    (done, owners)
}

/// The costly commit protocol a distributed transaction pays in Aria and
/// Lotus once it executed at `owners` by `done`: two coordination rounds of
/// latency (a `req_bytes` request and a 16-byte answer each, plus the rack
/// surcharge when the owners span zones), then prepare/commit handling CPU
/// at every owner. Returns the new completion and the rounds' latency.
pub(crate) fn distributed_commit_rounds(
    eng: &mut Engine,
    txn: TxnId,
    owners: &[NodeId],
    mut done: Time,
    req_bytes: u32,
) -> (Time, Time) {
    let rtt =
        eng.cluster.net_delay(req_bytes) + eng.cluster.net_delay(16) + zone_surcharge(eng, owners);
    done += 2 * rtt;
    let commit_cpu = cpu::VALIDATE_US + cpu::INSTALL_US + 2 * cpu::MSG_HANDLE_US;
    for &node in owners {
        let (_, end) = eng.cpu_grant(node, done, commit_cpu);
        done = done.max(end);
    }
    eng.txn_mut(txn).class = CommitClass::Distributed;
    (done, 2 * rtt)
}

/// Row-lock release times for one batch.
#[derive(Default)]
struct RowLocks {
    write_rel: FastMap<(u32, u64), Time>,
    read_rel: FastMap<(u32, u64), Time>,
}

impl RowLocks {
    /// Earliest start satisfying deterministic lock order for the ops.
    fn admit(&self, ops: &[Op], after: Time) -> Time {
        let mut start = after;
        for op in ops {
            let k = (op.partition.0, op.key);
            match op.kind {
                OpKind::Write => {
                    start = start
                        .max(self.write_rel.get(&k).copied().unwrap_or(0))
                        .max(self.read_rel.get(&k).copied().unwrap_or(0));
                }
                OpKind::Read => {
                    start = start.max(self.write_rel.get(&k).copied().unwrap_or(0));
                }
            }
        }
        start
    }

    /// Releases the ops' locks at `done`.
    fn release(&mut self, ops: &[Op], done: Time) {
        for op in ops {
            let k = (op.partition.0, op.key);
            match op.kind {
                OpKind::Write => {
                    self.write_rel.insert(k, done);
                    self.read_rel.insert(k, done);
                }
                OpKind::Read => {
                    let e = self.read_rel.entry(k).or_insert(0);
                    *e = (*e).max(done);
                }
            }
        }
    }
}

/// The deterministic pipeline of Calvin and Hermes: "a lock manager to
/// obtain locks for each transaction in the fixed order and the transaction
/// will not be executed until all locks are acquired", deployed
/// single-threaded "for all deterministic methods" (§VI-A.2) — that one
/// thread is the scalability ceiling Fig. 11b shows.
pub(crate) struct LockManager {
    thread: MultiServer,
    rows: RowLocks,
}

impl LockManager {
    pub(crate) fn new() -> Self {
        LockManager {
            thread: MultiServer::new(1),
            rows: RowLocks::default(),
        }
    }

    /// A new batch begins. The previous one fully completed, so all of its
    /// release times are in the past.
    pub(crate) fn begin_batch(&mut self) {
        self.rows = RowLocks::default();
    }

    /// Runs `txn`, which may enter the lock manager at `ready`, to its
    /// commit: lock grant in fixed order, deterministic lock availability,
    /// execution at the owners with a remote-read exchange when more than
    /// one is involved, asynchronous replication, install.
    pub(crate) fn run(&mut self, eng: &mut Engine, txn: TxnId, ready: Time) {
        let ops = &eng.txn(txn).req.ops;
        let grant = self
            .thread
            .acquire(ready, cpu::LOCK_MGR_US * ops.len() as u64);
        let start = self.rows.admit(ops, grant.end);
        eng.charge_phase(txn, Phase::Scheduling, start - ready);

        let (mut done, owners) = execute_at_owners(eng, txn, start);
        if owners.len() > 1 {
            // Distributed: participants forward remote reads to each other
            // ("the necessity of remote reads ... consuming over 90% of the
            // execution time", §VI-G). The slowest pairwise exchange gates
            // the barrier — cross-zone participant pairs pay the rack
            // surcharge.
            let read_bytes = eng.txn(txn).req.read_count() as u32 * eng.config().sim.value_size;
            done += eng.cluster.net_delay(read_bytes)
                + eng.cluster.net_delay(16)
                + zone_surcharge(eng, &owners);
            eng.emit(MetricEvent::Bytes {
                at: start,
                class: ByteClass::Message,
                bytes: read_bytes as u64 + 32,
                node: None,
            });
            eng.txn_mut(txn).class = CommitClass::Distributed;
        }
        eng.charge_phase(txn, Phase::Execution, done - start);

        self.rows.release(&eng.txn(txn).req.ops, done);
        charge_replication(eng, txn, done);
        eng.charge_phase(txn, Phase::Commit, cpu::INSTALL_US);
        finish_at(eng, txn, done + cpu::INSTALL_US, Finish::Commit);
    }
}

/// Round-trip surcharge for one coordination round whose participants span
/// a rack boundary: the exchange traverses the aggregation layer both ways.
/// Zero on single-zone clusters and zone-local participant sets, so the
/// flat pricing of the paper's figures is untouched.
pub(crate) fn zone_surcharge(eng: &Engine, participants: &[NodeId]) -> Time {
    let crosses_zones = participants.split_first().is_some_and(|(first, rest)| {
        rest.iter()
            .any(|&n| eng.cluster.zone(n) != eng.cluster.zone(*first))
    });
    if crosses_zones {
        2 * eng.cluster.cfg.net.cross_zone_extra_us
    } else {
        0
    }
}

/// Round-trip of a batch-wide switching/commit barrier: the batch
/// coordinator (the lowest-id live node) must exchange a message with every
/// live node, and the farthest — possibly cross-zone — round trip gates the
/// batch. Equals `2 × net_delay(bytes)` on single-zone clusters, which is
/// exactly the flat barrier the batch protocols priced before failure
/// domains existed.
pub(crate) fn batch_barrier_rtt(eng: &Engine, bytes: u32) -> Time {
    let Some(coord) = eng.cluster.live_nodes().next() else {
        return 2 * eng.cluster.net_delay(bytes);
    };
    eng.cluster
        .live_nodes()
        .map(|n| {
            eng.cluster.net_delay_between(coord, n, bytes)
                + eng.cluster.net_delay_between(n, coord, bytes)
        })
        .max()
        .unwrap_or(0)
}

/// Charges the asynchronous replication of a transaction's declared writes
/// to its partitions' secondaries (bytes + replication phase time).
pub(crate) fn charge_replication(eng: &mut Engine, txn: TxnId, at: Time) {
    let mut bytes = 0u64;
    let req = &eng.txn(txn).req;
    let n_writes = req.write_count() as u64;
    for op in req.ops.iter().filter(|op| op.kind == OpKind::Write) {
        let n_secs = eng.cluster.placement.secondaries_of(op.partition).len() as u64;
        bytes += n_secs * (eng.config().sim.value_size as u64 + 32);
    }
    if bytes > 0 {
        eng.emit(MetricEvent::Bytes {
            at,
            class: ByteClass::Replication,
            bytes,
            node: None,
        });
        let apply = cpu::INSTALL_US * n_writes;
        eng.charge_phase(txn, Phase::Replication, apply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lion_common::PartitionId;

    #[test]
    fn conflicting_writes_serialize_in_batch_order() {
        let mut locks = RowLocks::default();
        let ops = vec![Op::write(PartitionId(0), 7)];
        assert_eq!(locks.admit(&ops, 100), 100);
        locks.release(&ops, 500);
        assert_eq!(locks.admit(&ops, 100), 500, "writer waits for writer");
        let read = vec![Op::read(PartitionId(0), 7)];
        assert_eq!(locks.admit(&read, 0), 500, "reader waits for writer");
        locks.release(&read, 600);
        assert_eq!(locks.admit(&ops, 0), 600, "writer waits for reader");
    }
}
