//! Hermes (§VI-A.2): deterministic execution with prescient data migration.
//!
//! "It migrates the partition in demand before the lock manager starts to
//! get the locks. It utilizes a prescient transaction routing algorithm to
//! mitigate the 'ping-pong' effect while achieving load balance." Batches
//! are reordered so transactions over the same partitions run back-to-back
//! and reuse each other's migrations (§II-B.1); the cost is severe jitter
//! when the workload shifts and migration storms block whole partition
//! ranges (Fig. 10).

use crate::batch::{self, LockManager};
use crate::standard::most_primaries;
use lion_common::{Phase, TxnId};
use lion_engine::{Engine, Protocol};

/// The Hermes baseline.
pub struct Hermes {
    locks: LockManager,
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
            locks: LockManager::new(),
            migrations_requested: 0,
        }
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
        self.locks.begin_batch();

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
            // The designated executor: the node already hosting the most
            // primaries of the transaction (prescient routing keeps
            // identical templates on the same executor so migrations
            // amortize).
            let executor = most_primaries(eng, t);

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

            self.locks.run(eng, t, migration_ready);
        }
    }

    fn on_wake(&mut self, eng: &mut Engine, txn: TxnId, tagv: u32) {
        batch::on_wake(eng, txn, tagv);
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
