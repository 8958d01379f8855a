//! Hermes (§VI-A.2): deterministic execution with prescient data migration.
//!
//! "It migrates the partition in demand before the lock manager starts to
//! get the locks. It utilizes a prescient transaction routing algorithm to
//! mitigate the 'ping-pong' effect while achieving load balance." Batches
//! are reordered so transactions over the same partitions run back-to-back
//! and reuse each other's migrations (§II-B.1); the cost is severe jitter
//! when the workload shifts and migration storms block whole partition
//! ranges (Fig. 10).

use crate::calvin::{charge_replication, execute_deterministic, RowLocks};
use lion_common::{NodeId, Phase, TxnId};
use lion_engine::tags::{fresh, tag, untag};
use lion_engine::{Engine, Protocol};
use lion_sim::MultiServer;

const K_DONE: u8 = 1;

/// The Hermes baseline.
pub struct Hermes {
    lock_mgr: MultiServer,
    locks: RowLocks,
    /// Diagnostics: migrations requested by the prescient router.
    pub migrations_requested: u64,
}

impl Default for Hermes {
    fn default() -> Self {
        Self::new()
    }
}

impl Hermes {
    /// Builds Hermes.
    pub fn new() -> Self {
        Hermes {
            lock_mgr: MultiServer::new(1),
            locks: RowLocks::default(),
            migrations_requested: 0,
        }
    }

    /// The designated executor: the node already hosting the most primaries
    /// of the transaction (prescient routing keeps identical templates on
    /// the same executor so migrations amortize).
    fn executor_of(eng: &Engine, txn: TxnId) -> NodeId {
        let parts = &eng.txn(txn).parts;
        let mut counts = vec![0usize; eng.cluster.n_nodes()];
        for &p in parts {
            counts[eng.cluster.placement.primary_of(p).idx()] += 1;
        }
        let best = counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(n, _)| n)
            .unwrap_or(0);
        NodeId(best as u16)
    }
}

impl Protocol for Hermes {
    fn name(&self) -> &'static str {
        "Hermes"
    }

    fn batch_mode(&self) -> bool {
        true
    }

    fn on_submit(&mut self, _: &mut Engine, _: TxnId) {}

    fn on_batch(&mut self, eng: &mut Engine, batch: &[TxnId]) {
        let now = eng.now();
        self.locks = RowLocks::default();

        // Prescient reordering: group identical partition sets together so
        // consecutive transactions reuse the same migrations.
        let mut ordered: Vec<TxnId> = batch.to_vec();
        ordered.sort_by(|a, b| {
            eng.txn(*a)
                .parts
                .cmp(&eng.txn(*b).parts)
                .then(a.0.cmp(&b.0))
        });

        for t in ordered {
            eng.load_declared_sets(t);
            let executor = Self::executor_of(eng, t);

            // Demand migration: pull every non-local partition to the
            // executor before locking; waiting on an in-flight migration to
            // the same place reuses it. A migration whose source primary
            // sits across a rack boundary traverses the aggregation layer
            // on its way in — figf2-comparable pricing, zero on single-zone
            // clusters.
            let mut migration_ready = now;
            for pi in 0..eng.txn(t).parts.len() {
                let part = eng.txn(t).parts[pi];
                let source = eng.cluster.placement.primary_of(part);
                if source == executor {
                    continue;
                }
                let cross = if eng.cluster.zone(source) != eng.cluster.zone(executor) {
                    eng.cluster.cfg.net.cross_zone_extra_us
                } else {
                    0
                };
                match eng.migrate_async(part, executor) {
                    Ok(d) => {
                        self.migrations_requested += 1;
                        migration_ready = migration_ready.max(now + d + cross + 1);
                    }
                    Err(_) => {
                        // A transfer is already in flight: wait for it (plus
                        // the same cross-rack hop the initiator paid — a
                        // waiter's pull is no cheaper than the pull it
                        // reuses). If it lands elsewhere the remote-read
                        // path of the deterministic executor still
                        // completes the txn.
                        migration_ready =
                            migration_ready.max(eng.cluster.available_at(part) + cross + 1);
                    }
                }
            }
            if migration_ready > now {
                eng.charge_phase(t, Phase::Other, migration_ready - now);
            }

            // Single-threaded lock manager, deterministic order.
            let service = eng.config().sim.cpu.lock_mgr_us * eng.txn(t).req.ops.len() as u64;
            let grant = self.lock_mgr.acquire(migration_ready, service);
            eng.charge_phase(t, Phase::Scheduling, grant.end - migration_ready);
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
    use lion_common::{SimConfig, SECOND};
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
    fn hermes_migrates_to_localize_cross_txns() {
        let wl = Box::new(YcsbWorkload::new(
            YcsbConfig::for_cluster(4, 4, 256)
                .with_mix(1.0, 0.0)
                .with_seed(21),
        ));
        let mut eng = Engine::new(cfg(), wl);
        let mut proto = Hermes::new();
        let r = eng.run(&mut proto, 3 * SECOND);
        assert!(r.commits > 200, "commits {}", r.commits);
        assert!(proto.migrations_requested > 0, "demand migration must fire");
        assert!(r.migrations > 0);
        eng.cluster.check_invariants().unwrap();
        // After migrations localize the stable co-access pairs, later txns
        // run single-node: the distributed fraction must fall well below 1.
        assert!(
            r.class_fractions[2] < 0.9,
            "prescient migration should localize some txns: {:?}",
            r.class_fractions
        );
    }

    #[test]
    fn hermes_commits_everything_deterministically() {
        let wl = Box::new(YcsbWorkload::new(
            YcsbConfig::for_cluster(4, 4, 256)
                .with_mix(0.2, 0.5)
                .with_seed(22),
        ));
        let mut eng = Engine::new(cfg(), wl);
        let r = eng.run(&mut Hermes::new(), 2 * SECOND);
        assert!(r.commits > 300);
        assert_eq!(r.aborts, 0, "deterministic execution never aborts");
    }
}
