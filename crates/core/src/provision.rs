//! The adaptive replica provision loop (§III "planner" + §IV).
//!
//! Every planner tick:
//! 1. drain the routed-transaction history (the batch `B`);
//! 2. feed the predictor; when the workload-variation metric `wv(t, h)`
//!    exceeds γ, sample `K` predicted transactions (§IV-C);
//! 3. build the heat graph from `B + K` transactions (§IV-A);
//! 4. cluster into clumps and run Algorithm 1 (§IV-B) — or the Schism
//!    partitioner for the ablation variants;
//! 5. hand the plan's actions to the adaptors: remasters and background
//!    replica additions (Lion) or blocking migrations (Schism mode), all
//!    asynchronous with transaction processing.

use crate::config::Partitioning;
use crate::protocol::Lion;
use lion_engine::Engine;
use lion_planner::{generate_clumps, rearrange_with_topology, schism_plan, HeatGraph, PlanAction};

impl Lion {
    /// One planner round. Called from the engine's planner tick.
    pub(crate) fn plan_tick(&mut self, eng: &mut Engine) {
        let records = eng.drain_history();
        let now = eng.now();

        // --- Prediction (§IV-C) -----------------------------------------
        let mut predicted: Vec<(Vec<lion_common::PartitionId>, f64)> = Vec::new();
        if self.cfg.prediction {
            self.predictor.observe(&records);
            let out = self.predictor.predict(now);
            self.last_wv = out.wv;
            if out.triggered {
                self.pre_replications += 1;
                self.predicted_injected += out.predicted.len() as u64;
                predicted = out.predicted;
            }
        }
        if records.is_empty() && predicted.is_empty() {
            return;
        }

        // --- Workload analysis (§IV-A) -----------------------------------
        let pcfg = self.cfg.planner;
        let n_parts = eng.cluster.n_partitions();
        let mut graph = HeatGraph::new(n_parts);
        {
            let pl = &eng.cluster.placement;
            let skip = records.len().saturating_sub(pcfg.history_cap);
            for rec in records.iter().skip(skip) {
                graph.add_txn(&rec.parts, 1.0, pl, pcfg.cross_edge_boost);
            }
            for (parts, w) in &predicted {
                graph.add_txn(parts, w * pcfg.predicted_weight, pl, pcfg.cross_edge_boost);
            }
        }

        // --- Plan generation (§IV-B) --------------------------------------
        // Dead nodes (fault injection) are masked out of the rearrangement;
        // the Schism path plans obliviously, so its output is filtered below.
        // The failure-domain topology and placement policy ride in from the
        // cluster config: under RackSafe the plan appends AddSecondary
        // repairs restoring every planned partition's zone coverage.
        let live = eng.cluster.node_up.clone();
        let mut plan = match self.cfg.partitioning {
            Partitioning::Rearrange => {
                let clumps = generate_clumps(&graph, pcfg.alpha, pcfg.max_clump_size);
                let freq = graph.normalized_weights();
                rearrange_with_topology(
                    clumps,
                    &eng.cluster.placement,
                    &freq,
                    &pcfg,
                    true,
                    &live,
                    &eng.cluster.zone_of,
                    eng.cluster.cfg.placement,
                )
            }
            Partitioning::Schism => schism_plan(&graph, &eng.cluster.placement, pcfg.epsilon),
        };
        plan.entries.retain(|e| live[e.dest.idx()]);
        plan.assignments.retain(|(_, dest)| live[dest.idx()]);
        // Refresh the router affinity table (deliberate routing, §III) for
        // every partition the plan assigned this round.
        for (parts, dest) in &plan.assignments {
            for p in parts {
                self.affinity.insert(p.0, *dest);
            }
        }
        if plan.entries.is_empty() {
            return;
        }
        self.plans_applied += 1;

        // --- Asynchronous adjustment (§III) -------------------------------
        for e in &plan.entries {
            let started = match e.action {
                PlanAction::Remaster => eng.remaster_async(e.part, e.dest),
                PlanAction::AddReplica => eng.add_replica_async(e.part, e.dest, true),
                PlanAction::Migrate => eng.migrate_async(e.part, e.dest),
                // Anti-affinity repair: a background copy only — the
                // primary stays put, the new replica restores coverage.
                PlanAction::AddSecondary => eng.add_replica_async(e.part, e.dest, false),
            };
            self.plan_refusals += u64::from(started.is_err());
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::LionConfig;
    use crate::protocol::Lion;
    use lion_common::{PartitionId, SimConfig, SECOND};
    use lion_engine::{Engine, Protocol, TickKind};
    use lion_workloads::{Schedule, YcsbConfig, YcsbWorkload};

    fn cfg() -> SimConfig {
        SimConfig {
            nodes: 4,
            partitions_per_node: 4,
            keys_per_partition: 1024,
            value_size: 32,
            clients_per_node: 4,
            ..Default::default()
        }
    }

    #[test]
    fn plan_tick_without_history_is_a_no_op() {
        let wl = Box::new(YcsbWorkload::new(YcsbConfig::for_cluster(4, 4, 1024)));
        let mut eng = Engine::new(cfg(), wl);
        let mut lion = Lion::standard();
        lion.on_tick(&mut eng, TickKind::Planner);
        assert_eq!(lion.plans_applied, 0);
    }

    /// Every partition is mid-migration when the planner fires: whatever
    /// the plan asks of the adaptor that needs the partition idle is refused,
    /// and the round says so instead of dropping the answers.
    #[test]
    fn refused_adaptor_actions_are_counted() {
        let wl = Box::new(YcsbWorkload::new(
            YcsbConfig::for_cluster(4, 4, 1024)
                .with_mix(1.0, 0.0)
                .with_seed(71),
        ));
        let mut eng = Engine::new(cfg(), wl);
        let mut lion = Lion::standard();
        eng.run(&mut lion, SECOND); // history, but no planner tick yet
        assert_eq!((lion.plans_applied, lion.plan_refusals), (0, 0));
        for p in 0..16 {
            let part = PartitionId(p);
            let away = eng.cluster.placement.secondaries_of(part)[0];
            eng.cluster.begin_migration(part, away, SECOND).unwrap();
        }
        lion.on_tick(&mut eng, TickKind::Planner);
        assert_eq!(lion.plans_applied, 1);
        assert!(
            lion.plan_refusals > 0,
            "a busy partition refuses a remaster"
        );
        assert!(lion.plan_refusals >= eng.metrics.remaster_conflicts);
    }

    #[test]
    fn plans_co_locate_stable_pairs() {
        // Run long enough for a couple of plan rounds; the co-access pairs
        // (p, p^1) must end up with both primaries on one node.
        let wl = Box::new(YcsbWorkload::new(
            YcsbConfig::for_cluster(4, 4, 1024)
                .with_mix(1.0, 0.0)
                .with_seed(71),
        ));
        let mut eng = Engine::new(cfg(), wl);
        let mut lion = Lion::standard();
        eng.run(&mut lion, 7 * SECOND);
        assert!(lion.plans_applied >= 1);
        let pl = &eng.cluster.placement;
        let colocated = (0..8)
            .map(|k| {
                let a = PartitionId(2 * k);
                let b = PartitionId(2 * k + 1);
                (pl.primary_of(a) == pl.primary_of(b)) as usize
            })
            .sum::<usize>();
        assert!(colocated >= 6, "only {colocated}/8 pairs co-located");
        // balance: each node keeps at least one pair
        let mut per_node = vec![0usize; 4];
        for p in 0..16 {
            per_node[pl.primary_of(PartitionId(p)).idx()] += 1;
        }
        assert!(
            per_node.iter().all(|&c| c >= 1),
            "placement collapsed: {per_node:?}"
        );
    }

    /// Under RackSafe the provision loop must keep every partition's
    /// replica set spanning both racks even while Algorithm 1 chases
    /// locality — the repair copies ride along with the plan.
    #[test]
    fn rack_safe_provision_preserves_zone_coverage() {
        let mut c = cfg();
        c.zones = 2;
        c.placement = lion_common::PlacementPolicy::RackSafe { min_zones: 2 };
        let wl = Box::new(YcsbWorkload::new(
            YcsbConfig::for_cluster(4, 4, 1024)
                .with_mix(1.0, 0.0)
                .with_seed(73),
        ));
        let mut eng = Engine::new(c, wl);
        let mut lion = Lion::standard();
        eng.run(&mut lion, 7 * SECOND);
        assert!(lion.plans_applied >= 1, "planning rounds happened");
        for p in 0..eng.cluster.n_partitions() {
            assert!(
                eng.cluster.zone_coverage(PartitionId(p as u32)) >= 2,
                "P{p} collapsed into one rack after planning"
            );
        }
        eng.cluster.check_invariants().unwrap();
    }

    #[test]
    fn prediction_triggers_on_shift() {
        // Hotspot pairing shifts every 4 s; with prediction on, the
        // predictor must eventually fire pre-replication.
        let sched = Schedule::interval_shift(4 * SECOND, 3, 5, 1.0);
        let wl = Box::new(YcsbWorkload::new(
            YcsbConfig::for_cluster(4, 4, 1024)
                .with_schedule(sched)
                .with_seed(72),
        ));
        let mut c = cfg();
        c.seed = 99;
        let mut eng = Engine::new(c, wl);
        let mut lion = Lion::new(LionConfig {
            predictor: lion_predictor::PredictorConfig {
                sample_interval_us: SECOND,
                window: 8,
                horizon: 2,
                gamma: 0.1,
                train_epochs: 10,
                hidden: 8,
                ..lion_predictor::PredictorConfig::default()
            },
            ..LionConfig::lion_standard()
        });
        eng.run(&mut lion, 20 * SECOND);
        assert!(lion.last_wv > 0.0, "wv was computed");
        assert!(
            lion.pre_replications > 0,
            "periodic shifts should trigger pre-replication (wv={})",
            lion.last_wv
        );
    }
}
