//! Star (§VI-A.2): asymmetric replication with phase switching.
//!
//! "An asymmetric replication approach with a two-phase switching algorithm.
//! It ensures one node has all the partitions. The transactions will be
//! collected in batches. The distributed transactions in the batch will be
//! routed to that node as the single-node one and get committed without
//! 2PC." The super node (node 0) is provisioned with a full replica set at
//! deployment time; each batch runs a *partition phase* (single-home
//! transactions at their owners) and a *single-master phase* (every cross
//! transaction serialized through node 0's workers) separated by switching
//! barriers — node 0 saturating with the cross ratio is the bottleneck of
//! Figs. 9 and 11b.

use crate::batch::{self, finish_at, Finish};
use lion_common::{NodeId, PartitionId, Phase, Time, TxnId};
use lion_engine::tags::{tag, untag};
use lion_engine::{cpu, ByteClass, Engine, MetricEvent, Protocol, TxnClass};

/// Partition-phase execution at the owner; every other wake is the kit's.
const K_SINGLE: u8 = 3;

const SUPER_NODE: NodeId = NodeId(0);

/// The Star baseline.
#[derive(Default)]
pub struct Star {
    initialized: bool,
    /// Diagnostics: cross transactions routed through the super node.
    pub super_node_txns: u64,
}

impl Star {
    /// Builds Star.
    pub fn new() -> Self {
        Star::default()
    }

    /// Provisions the deployment-time full replica set on the super node.
    fn ensure_super_node(&mut self, eng: &mut Engine) {
        if self.initialized {
            return;
        }
        for p in 0..eng.cluster.n_partitions() {
            let part = PartitionId(p as u32);
            if !eng.cluster.placement.has_replica(part, SUPER_NODE) {
                eng.cluster
                    .install_secondary_free(part, SUPER_NODE)
                    .expect("provision super node");
            }
        }
        self.initialized = true;
    }

    /// Is every accessed partition's primary on one node?
    fn single_home(eng: &Engine, txn: TxnId) -> Option<NodeId> {
        let parts = &eng.txn(txn).parts;
        let first = eng.cluster.placement.primary_of(parts[0]);
        parts
            .iter()
            .all(|&p| eng.cluster.placement.primary_of(p) == first)
            .then_some(first)
    }
}

impl Protocol for Star {
    fn name(&self) -> &'static str {
        "Star"
    }

    fn batch_mode(&self) -> bool {
        true
    }

    fn on_submit(&mut self, _: &mut Engine, _: TxnId) {}

    fn on_batch(&mut self, eng: &mut Engine, batch: &[TxnId]) {
        self.ensure_super_node(eng);
        let now = eng.now();

        // ---- Partition phase: single-home transactions at their owners --
        let mut phase_end: Time = now;
        let mut crosses: Vec<TxnId> = Vec::new();
        for &t in batch {
            match Self::single_home(eng, t) {
                Some(home) => {
                    eng.txn_mut(t).home = home;
                    let reads = eng.txn(t).req.read_count();
                    let writes = eng.txn(t).req.write_count();
                    let cost = eng.op_cpu(reads, writes)
                        + cpu::TXN_OVERHEAD_US
                        + cpu::VALIDATE_US
                        + cpu::INSTALL_US;
                    let (start, end) = eng.cpu_grant(home, now, cost);
                    eng.charge_phase(t, Phase::Scheduling, start - now);
                    eng.charge_phase(t, Phase::Execution, cost);
                    phase_end = phase_end.max(end);
                    eng.wake_at(end, t, tag(K_SINGLE, 0));
                }
                None => crosses.push(t),
            }
        }

        // ---- Phase switch: mastership moves to the super node -----------
        // The switch barrier reaches every *live* node; the farthest
        // (possibly cross-zone) round trip gates it — dead nodes cannot
        // ack and must not stretch the barrier. During an honest split the
        // barrier only spans the super node's side of the cut: far-side
        // nodes can no more ack the switch than dead ones.
        let switch_rtt = eng
            .cluster
            .live_nodes()
            .filter(|&n| eng.cluster.same_side(SUPER_NODE, n))
            .map(|n| 2 * eng.cluster.net_delay_between(SUPER_NODE, n, 64))
            .max()
            .unwrap_or(0);
        let switch = phase_end + switch_rtt;

        // ---- Single-master phase: all cross txns through node 0 ---------
        for t in crosses {
            eng.txn_mut(t).home = SUPER_NODE;
            // Honest split-brain: the mastership switch cannot reach owners
            // across the cut — those cross transactions park until heal.
            if !eng.txn_reachable(t) {
                eng.park_until_heal(t);
                continue;
            }
            self.super_node_txns += 1;
            eng.txn_mut(t).class = TxnClass::Remastered; // single-node via mastership switch
            eng.load_declared_sets(t);
            let reads = eng.txn(t).req.read_count();
            let writes = eng.txn(t).req.write_count();
            let cost = eng.op_cpu(reads, writes) + cpu::TXN_OVERHEAD_US + cpu::INSTALL_US;
            let (start, end) = eng.cpu_grant(SUPER_NODE, switch, cost);
            eng.charge_phase(t, Phase::Scheduling, start - now);
            eng.charge_phase(t, Phase::Execution, cost);
            // Writes replicate from the super node back to the owners; the
            // farthest owner (zone-aware) gates the replication time.
            let bytes = writes as u64 * (eng.config().sim.value_size as u64 + 32);
            eng.emit(MetricEvent::Bytes {
                at: end,
                class: ByteClass::Replication,
                bytes,
                node: None,
            });
            let repl = eng
                .txn(t)
                .write_set
                .iter()
                .map(|w| {
                    let owner = eng.cluster.placement.primary_of(w.part);
                    eng.cluster
                        .net_delay_between(SUPER_NODE, owner, bytes as u32)
                })
                .max()
                .unwrap_or_else(|| eng.cluster.net_delay(bytes as u32));
            eng.charge_phase(t, Phase::Replication, repl);
            // Serial single-master phase: conflict-free by construction.
            finish_at(eng, t, end, Finish::Commit);
        }
    }

    fn on_wake(&mut self, eng: &mut Engine, txn: TxnId, tagv: u32) {
        if untag(tagv).0 != K_SINGLE {
            return batch::on_wake(eng, txn, tagv);
        }
        // Execute + OCC commit at the owner: every group of a single-home
        // transaction was primaried there when the batch was armed. One whose
        // primary a promotion moved since is skipped, as it always was
        // (ROADMAP 5(c): failing instead moves `star-crash-recover`).
        let home = eng.txn(txn).home;
        let executed = (0..eng.txn(txn).n_groups()).all(|gi| {
            let part = eng.txn(txn).group_part(gi);
            !eng.cluster.placement.is_primary(part, home)
                || eng.exec_group_at(home, txn, gi).is_ok()
        });
        if executed && eng.validate_at(home, txn) {
            eng.install_at(home, txn);
            eng.commit(txn);
        } else {
            eng.abort_defer(txn);
        }
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

    fn ycsb(cross: f64, seed: u64) -> Box<YcsbWorkload> {
        Box::new(YcsbWorkload::new(
            YcsbConfig::for_cluster(4, 4, 256)
                .with_mix(cross, 0.0)
                .with_seed(seed),
        ))
    }

    #[test]
    fn star_routes_cross_txns_to_super_node() {
        let mut eng = Engine::new(cfg(), ycsb(0.8, 51));
        let mut proto = Star::new();
        let r = eng.run(&mut proto, 2 * SECOND);
        assert!(r.commits > 300, "commits {}", r.commits);
        assert!(proto.super_node_txns > 0);
        // cross txns counted as converted (mastership switch), not 2PC
        assert!(
            r.class_fractions[2] < 0.05,
            "no distributed 2PC in Star: {:?}",
            r.class_fractions
        );
        // super node holds a full replica set
        for p in 0..eng.cluster.n_partitions() {
            assert!(eng
                .cluster
                .placement
                .has_replica(lion_common::PartitionId(p as u32), SUPER_NODE));
        }
    }

    #[test]
    fn super_node_is_the_bottleneck() {
        // With everything cross-partition, node 0's workers serialize the
        // whole cluster: throughput must be far below the 0%-cross case.
        let t_low = {
            let mut eng = Engine::new(cfg(), ycsb(0.0, 52));
            eng.run(&mut Star::new(), 2 * SECOND).throughput_tps
        };
        let t_high = {
            let mut eng = Engine::new(cfg(), ycsb(1.0, 53));
            eng.run(&mut Star::new(), 2 * SECOND).throughput_tps
        };
        assert!(
            t_low > t_high * 1.5,
            "super node saturation expected: low {t_low:.0} vs high {t_high:.0}"
        );
    }

    #[test]
    fn star_throughput_is_stable_across_mid_cross_ratios() {
        // The paper notes Star's throughput "remains stable when varying the
        // cross-ratio" in the mid range (no 2PC cliff).
        let mk = |cross: f64, seed| {
            let mut eng = Engine::new(cfg(), ycsb(cross, seed));
            eng.run(&mut Star::new(), 2 * SECOND).throughput_tps
        };
        let t20 = mk(0.2, 54);
        let t50 = mk(0.5, 55);
        assert!(
            t20 / t50 < 2.2,
            "no 2PC-style collapse between 20% and 50%: {t20:.0} vs {t50:.0}"
        );
    }
}
