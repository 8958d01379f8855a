//! Calvin (§VI-A.2): deterministic transaction processing.
//!
//! "It executes the same transaction batch on each replica to avoid 2PC. It
//! requires the declaration of the read/write set before transaction
//! execution. It uses a lock manager to obtain locks for each transaction in
//! the fixed order and the transaction will not be executed until all locks
//! are acquired." The experiments "deploy a single-threaded lock manager for
//! all deterministic methods" — that single thread is exactly the
//! scalability ceiling Fig. 11b shows.

use lion_common::{FastMap, NodeId, OpKind, Phase, Time, TxnId};
use lion_engine::tags::{fresh, tag, untag};
use lion_engine::{ByteClass, Engine, MetricEvent, Protocol, TxnClass};
use lion_sim::MultiServer;

const K_DONE: u8 = 1;

/// Row-lock release times for one batch.
#[derive(Default)]
pub(crate) struct RowLocks {
    write_rel: FastMap<(u32, u64), Time>,
    read_rel: FastMap<(u32, u64), Time>,
}

impl RowLocks {
    /// Earliest start satisfying deterministic lock order for the ops.
    pub(crate) fn admit(&self, ops: &[lion_common::Op], after: Time) -> Time {
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
    pub(crate) fn release(&mut self, ops: &[lion_common::Op], done: Time) {
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

/// Per-node execution of one transaction: CPU grants at each participant
/// plus a remote-read exchange when more than one node is involved.
/// Returns `(completion, participants)`.
pub(crate) fn execute_deterministic(eng: &mut Engine, txn: TxnId, start: Time) -> (Time, usize) {
    let mut by_node: FastMap<NodeId, (usize, usize)> = FastMap::default();
    for op in &eng.txn(txn).req.ops {
        let n = eng.cluster.placement.primary_of(op.partition);
        let e = by_node.entry(n).or_insert((0, 0));
        match op.kind {
            OpKind::Read => e.0 += 1,
            OpKind::Write => e.1 += 1,
        }
    }
    let n_nodes = by_node.len();
    let mut done = start;
    let mut read_bytes = 0u32;
    let mut participants: Vec<NodeId> = Vec::with_capacity(n_nodes);
    for (node, (r, w)) in by_node {
        let cost = eng.op_cpu(r, w);
        let (_, end) = eng.cpu_grant(node, start, cost);
        done = done.max(end);
        read_bytes += r as u32 * eng.config().sim.value_size;
        participants.push(node);
    }
    if n_nodes > 1 {
        // Distributed: participants forward remote reads to each other
        // ("the necessity of remote reads ... consuming over 90% of the
        // execution time", §VI-G). The slowest pairwise exchange gates the
        // barrier — cross-zone participant pairs pay the rack surcharge.
        let surcharge = zone_surcharge(eng, &participants);
        let rtt = eng.cluster.net_delay(read_bytes) + eng.cluster.net_delay(16) + surcharge;
        eng.emit(MetricEvent::Bytes {
            at: start,
            class: ByteClass::Message,
            bytes: read_bytes as u64 + 32,
            node: None,
            zone: None,
        });
        done += rtt;
        eng.txn_mut(txn).class = TxnClass::Distributed;
    }
    eng.charge_phase(txn, Phase::Execution, done - start);
    (done, n_nodes)
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

/// Charges the asynchronous replication of a transaction's writes to its
/// partitions' secondaries (bytes + replication phase time).
pub(crate) fn charge_replication(eng: &mut Engine, txn: TxnId, at: Time) {
    let mut bytes = 0u64;
    let n_writes = eng.txn(txn).write_set.len() as u64;
    for w in &eng.txn(txn).write_set {
        let n_secs = eng.cluster.placement.secondaries_of(w.part).len() as u64;
        bytes += n_secs * (eng.config().sim.value_size as u64 + 32);
    }
    if bytes > 0 {
        eng.emit(MetricEvent::Bytes {
            at,
            class: ByteClass::Replication,
            bytes,
            node: None,
            zone: None,
        });
        let apply = eng.config().sim.cpu.install_us * n_writes;
        eng.charge_phase(txn, Phase::Replication, apply);
    }
}

/// The Calvin baseline.
pub struct Calvin {
    lock_mgr: MultiServer,
    locks: RowLocks,
}

impl Default for Calvin {
    fn default() -> Self {
        Self::new()
    }
}

impl Calvin {
    /// Builds Calvin with its single-threaded lock manager.
    pub fn new() -> Self {
        Calvin {
            lock_mgr: MultiServer::new(1),
            locks: RowLocks::default(),
        }
    }
}

impl Protocol for Calvin {
    fn name(&self) -> &'static str {
        "Calvin"
    }

    fn batch_mode(&self) -> bool {
        true
    }

    fn on_submit(&mut self, _: &mut Engine, _: TxnId) {}

    fn on_batch(&mut self, eng: &mut Engine, batch: &[TxnId]) {
        let now = eng.now();
        // Previous batch fully completed: all release times are in the past.
        self.locks = RowLocks::default();
        for &t in batch {
            // Honest split-brain: the sequencing layer cannot replicate a
            // batch entry across the cut — transactions needing far-side
            // partitions park until heal.
            if !eng.txn_reachable(t) {
                eng.park_until_heal(t);
                continue;
            }
            eng.load_declared_sets(t);
            // Single-threaded lock manager grants locks in fixed order.
            let service = eng.config().sim.cpu.lock_mgr_us * eng.txn(t).req.ops.len() as u64;
            let grant = self.lock_mgr.acquire(now, service);
            eng.charge_phase(t, Phase::Scheduling, grant.end - now);
            // Deterministic lock availability.
            let start = self.locks.admit(&eng.txn(t).req.ops, grant.end);
            eng.charge_phase(t, Phase::Scheduling, start - grant.end);
            let (done, _) = execute_deterministic(eng, t, start);
            self.locks.release(&eng.txn(t).req.ops, done);
            charge_replication(eng, t, done);
            let commit_cpu = eng.config().sim.cpu.install_us;
            eng.charge_phase(t, Phase::Commit, commit_cpu);
            let attempt = eng.txn(t).attempts;
            eng.wake_at(done + commit_cpu, t, tag(K_DONE, attempt, 0));
        }
    }

    fn on_wake(&mut self, eng: &mut Engine, txn: TxnId, tagv: u32) {
        let (kind, attempt, _) = untag(tagv);
        debug_assert_eq!(kind, K_DONE);
        if !fresh(attempt, eng.txn(txn).attempts) {
            return;
        }
        eng.install_unchecked(txn);
        eng.commit(txn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lion_common::{Op, PartitionId, SimConfig, TxnRequest, SECOND};
    use lion_workloads::{YcsbConfig, YcsbWorkload};

    fn cfg() -> SimConfig {
        SimConfig {
            nodes: 4,
            partitions_per_node: 4,
            keys_per_partition: 256,
            value_size: 32,
            batch_size: 64,
            ..Default::default()
        }
    }

    #[test]
    fn calvin_commits_whole_batches_without_aborts() {
        let wl = Box::new(YcsbWorkload::new(
            YcsbConfig::for_cluster(4, 4, 256)
                .with_mix(0.5, 0.0)
                .with_seed(7),
        ));
        let mut eng = Engine::new(cfg(), wl);
        let r = eng.run(&mut Calvin::new(), 2 * SECOND);
        assert!(r.commits > 500, "commits {}", r.commits);
        assert_eq!(r.aborts, 0, "deterministic locking never aborts");
        eng.cluster.check_invariants().unwrap();
    }

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

    #[test]
    fn distributed_txns_pay_remote_reads() {
        let single = TxnRequest::new(vec![
            Op::read(PartitionId(0), 1),
            Op::write(PartitionId(0), 2),
        ]);
        let cross = TxnRequest::new(vec![
            Op::read(PartitionId(0), 1),
            Op::write(PartitionId(1), 2),
        ]);
        let mk = move |req: TxnRequest| {
            let mut toggle = false;
            let wl = Box::new(move |_now| {
                toggle = !toggle;
                req.clone()
            });
            let mut eng = Engine::new(cfg(), wl);
            let r = eng.run(&mut Calvin::new(), SECOND);
            r.latency_p[1]
        };
        let p50_single = mk(single);
        let p50_cross = mk(cross);
        assert!(
            p50_cross > p50_single + 50,
            "cross p50 {p50_cross} should exceed single p50 {p50_single} by the read RTT"
        );
    }
}
