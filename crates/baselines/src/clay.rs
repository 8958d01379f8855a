//! Clay (§VI-A.2): online load-driven repartitioning.
//!
//! "The repartitioning starts when it detects the load imbalance among
//! nodes. Then it generates a partition reconfiguration based on the
//! co-access frequency and adjusts the partitions through data migration.
//! To better compare the cleverness of the reconfiguration, we implement the
//! asynchronous replication and remastering for Clay as Lion."
//!
//! The crucial blind spot the paper points out is preserved: Clay's trigger
//! is *CPU load*, so a node busy with distributed transactions on a balanced
//! cluster never triggers repartitioning — Clay "can not eliminate all
//! distributed transactions" (§II-B.1).

use crate::standard::most_primaries;
use lion_common::{FastMap, NodeId, PartitionId, TxnId};
use lion_engine::{Engine, RemoteAction, StandardPolicy, TickKind};

/// Load-imbalance tolerance ε: Clay triggers when max > (1+ε)·avg.
const EPSILON: f64 = 0.35;

/// Max partitions moved per monitor tick.
const MOVES_PER_TICK: usize = 2;

/// Clay's monitor policy over the standard 2PC machine.
#[derive(Default)]
pub struct ClayPolicy {
    co_access: FastMap<(u32, u32), u64>,
    /// Diagnostics: monitor activations.
    pub activations: u64,
}

impl ClayPolicy {
    /// Most co-accessed partner of `part`, if any.
    fn best_partner(&self, part: PartitionId) -> Option<PartitionId> {
        self.co_access
            .iter()
            .filter(|((a, b), _)| *a == part.0 || *b == part.0)
            .max_by_key(|(_, &w)| w)
            .map(|((a, b), _)| PartitionId(if *a == part.0 { *b } else { *a }))
    }

    fn monitor(&mut self, eng: &mut Engine) {
        let busy = eng.node_window_busy().to_vec();
        let n = busy.len() as f64;
        let avg = busy.iter().sum::<u64>() as f64 / n;
        if avg <= 0.0 {
            return;
        }
        let (max_idx, &max_busy) = busy
            .iter()
            .enumerate()
            .max_by_key(|(_, &b)| b)
            .expect("non-empty");
        if (max_busy as f64) <= (1.0 + EPSILON) * avg {
            return; // Clay sees a balanced cluster — even if it is balanced
                    // *because* every node burns CPU on 2PC rounds.
        }
        self.activations += 1;
        let overloaded = NodeId(max_idx as u16);
        let (min_idx, _) = busy
            .iter()
            .enumerate()
            .min_by_key(|(_, &b)| b)
            .expect("non-empty");
        let target = NodeId(min_idx as u16);
        if target == overloaded {
            return;
        }

        // Hottest primaries on the overloaded node, by last-window accesses.
        let mut hot: Vec<(u64, PartitionId)> = eng
            .cluster
            .placement
            .primary_partitions_on(overloaded)
            .into_iter()
            .map(|p| (eng.cluster.freq.count(p), p))
            .collect();
        hot.sort_by_key(|&(count, _)| std::cmp::Reverse(count));

        let mut moved = 0;
        let mut queue: Vec<PartitionId> = Vec::new();
        for (cnt, p) in hot {
            if moved >= MOVES_PER_TICK {
                break;
            }
            if cnt == 0 {
                break;
            }
            queue.push(p);
            // Clay extends the clump with the most co-accessed partner so
            // the pair moves together.
            if let Some(q) = self.best_partner(p) {
                if eng.cluster.placement.primary_of(q) == overloaded && !queue.contains(&q) {
                    queue.push(q);
                }
            }
            while let Some(part) = queue.pop() {
                if moved >= MOVES_PER_TICK {
                    break;
                }
                // Paper's fairness provision: Clay gets remastering when a
                // secondary already sits on the target.
                let res = if eng.cluster.placement.has_secondary(part, target) {
                    eng.remaster_async(part, target).map(|_| ())
                } else {
                    eng.migrate_async(part, target).map(|_| ())
                };
                if res.is_ok() {
                    moved += 1;
                }
            }
        }
    }
}

impl StandardPolicy for ClayPolicy {
    fn name(&self) -> &'static str {
        "Clay"
    }

    fn route(&mut self, eng: &mut Engine, txn: TxnId) -> NodeId {
        most_primaries(eng, txn)
    }

    fn remote_action(&mut self, _: &mut Engine, _: TxnId, _: PartitionId) -> RemoteAction {
        RemoteAction::TwoPc
    }

    fn on_tick(&mut self, eng: &mut Engine, kind: TickKind) {
        match kind {
            TickKind::Monitor => self.monitor(eng),
            TickKind::Planner => {
                // Refresh co-access statistics from the routed history.
                for rec in eng.drain_history() {
                    for i in 0..rec.parts.len() {
                        for j in (i + 1)..rec.parts.len() {
                            let (a, b) = (rec.parts[i].0, rec.parts[j].0);
                            let key = if a < b { (a, b) } else { (b, a) };
                            *self.co_access.entry(key).or_insert(0) += 1;
                        }
                    }
                }
                // Bound memory on long runs.
                if self.co_access.len() > 100_000 {
                    self.co_access.retain(|_, w| *w > 1);
                }
            }
        }
    }
}

/// The Clay baseline protocol.
pub type Clay = ClayPolicy;

/// Builds Clay with default monitor settings.
pub fn clay() -> Clay {
    ClayPolicy::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lion_common::{SimConfig, SECOND};
    use lion_workloads::{YcsbConfig, YcsbWorkload};

    fn cfg(nodes: usize) -> SimConfig {
        SimConfig {
            nodes,
            partitions_per_node: 4,
            keys_per_partition: 256,
            value_size: 32,
            clients_per_node: 6,
            ..Default::default()
        }
    }

    #[test]
    fn clay_rebalances_skewed_load() {
        // 90% of transactions hit node 0's partitions: Clay must detect the
        // overload and move primaries off node 0.
        let wl = Box::new(YcsbWorkload::new(
            YcsbConfig::for_cluster(4, 4, 256)
                .with_mix(0.0, 0.9)
                .with_seed(11),
        ));
        let mut eng = Engine::new(cfg(4), wl);
        let before = eng.cluster.placement.primaries_on(NodeId(0));
        let r = eng.run(&mut clay(), 6 * SECOND);
        let after = eng.cluster.placement.primaries_on(NodeId(0));
        assert!(r.commits > 100);
        assert!(
            after < before || r.migrations + r.remasters > 0,
            "Clay should have moved load off node 0: before {before}, after {after}"
        );
        eng.cluster.check_invariants().unwrap();
    }

    #[test]
    fn clay_stays_put_on_balanced_distributed_load() {
        // 100% cross-partition, uniform: every node equally busy with 2PC.
        // Clay's CPU-based trigger must NOT fire — the paper's blind spot.
        let wl = Box::new(YcsbWorkload::new(
            YcsbConfig::for_cluster(4, 4, 256)
                .with_mix(1.0, 0.0)
                .with_seed(12),
        ));
        let mut eng = Engine::new(cfg(4), wl);
        let mut proto = clay();
        let r = eng.run(&mut proto, 4 * SECOND);
        assert!(r.commits > 100);
        assert_eq!(
            proto.activations, 0,
            "balanced CPU must not trigger Clay even with 100% distributed txns"
        );
        assert!(
            r.class_fractions[2] > 0.9,
            "distributed txns remain: {:?}",
            r.class_fractions
        );
    }
}
