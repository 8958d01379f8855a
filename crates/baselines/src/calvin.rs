//! Calvin (§VI-A.2): deterministic transaction processing.
//!
//! "It executes the same transaction batch on each replica to avoid 2PC. It
//! requires the declaration of the read/write set before transaction
//! execution. It uses a lock manager to obtain locks for each transaction in
//! the fixed order and the transaction will not be executed until all locks
//! are acquired." The experiments "deploy a single-threaded lock manager for
//! all deterministic methods" — that single thread is exactly the
//! scalability ceiling Fig. 11b shows.

use crate::batch::{self, LockManager};
use lion_common::TxnId;
use lion_engine::{Engine, Protocol};

/// The Calvin baseline.
pub struct Calvin {
    locks: LockManager,
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
            locks: LockManager::new(),
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
        self.locks.begin_batch();
        for &t in batch {
            // Honest split-brain: the sequencing layer cannot replicate a
            // batch entry across the cut — transactions needing far-side
            // partitions park until heal.
            if !eng.txn_reachable(t) {
                eng.park_until_heal(t);
                continue;
            }
            self.locks.run(eng, t, now);
        }
    }

    fn on_wake(&mut self, eng: &mut Engine, txn: TxnId, tagv: u32) {
        batch::on_wake(eng, txn, tagv);
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
