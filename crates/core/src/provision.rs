//! The adaptive replica provision loop (§III "planner" + §IV).
//!
//! A round runs at every planner tick; early — at most once per interval —
//! once the router has seen `B` unplanned routes since the last round:
//! transactions whose partitions' affinities disagree across co-access the
//! last round's heat graph never saw (a shift the plan has not caught up
//! with); and once the failovers after a crash have landed. Whatever the
//! [`Trigger`], one body, `Lion::plan_round`:
//! 1. drain the routed-transaction history (the batch `B`);
//! 2. feed the predictor; when the workload-variation metric `wv(t, h)`
//!    exceeds γ, sample `K` predicted transactions (§IV-C);
//! 3. build the heat graph from `B + K` transactions (§IV-A);
//! 4. cluster into clumps and run Algorithm 1 (§IV-B) — or the Schism
//!    partitioner for the ablation variants;
//! 5. hand the plan's actions to the adaptors: remasters and background
//!    replica additions (Lion) or blocking migrations (Schism mode), all
//!    asynchronous with transaction processing.
//!
//! Each round, including one that finds nothing to plan, leaves exactly one
//! [`PlanRound`] on [`Lion::rounds`]: what it saw and what it did.

use crate::config::Partitioning;
use crate::protocol::Lion;
use lion_common::{PartitionId, Time, TxnId, TxnRecord};
use lion_engine::Engine;
use lion_planner::{generate_clumps, rearrange_with_topology, schism_plan, HeatGraph, PlanAction};

/// Weight wp of a predicted transaction in the heat graph, relative to an
/// observed one (§IV-C.1).
const PREDICTED_WEIGHT: f64 = 1.0;

/// Why a planner round ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// The engine's periodic planner tick.
    Tick,
    /// `B` unplanned routes pulled the next round forward.
    Early,
    /// Every promotion after a crash has landed.
    Failover,
}

/// The record one planner round leaves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanRound {
    /// When the round ran.
    pub at: Time,
    /// Why it ran.
    pub trigger: Trigger,
    /// Routed-transaction records it drained.
    pub drained: usize,
    /// The workload-variation metric `wv` (Eq. 6), when prediction ran.
    pub wv: Option<f64>,
    /// Whether `wv` crossed γ and pre-replication fired.
    pub pre_replicated: bool,
    /// Predicted transactions injected into the heat graph.
    pub predicted: usize,
    /// The plan's peak live-node load over the average, as Algorithm 1
    /// left it (`≤ 1 + ε` once balanced); `None` on the Schism path.
    pub peak_over_avg: Option<f64>,
    /// Adaptor actions the plan issued.
    pub actions: usize,
    /// Of those, the ones the cluster refused (partition busy, destination
    /// already hosting, down or across a cut). Nothing retries them; the
    /// next round plans from what actually moved.
    pub refused: usize,
}

impl Lion {
    /// True when the last round did not plan for these partitions: each has
    /// an affinity, they disagree, and the round's heat graph has no edge
    /// between any two sent to different nodes. A pair Algorithm 1 split on
    /// purpose (below α, or apart for load) has an edge and never counts.
    fn is_unplanned(&self, parts: &[PartitionId]) -> bool {
        let Some(graph) = &self.plan_graph else {
            return false;
        };
        let dest = |p: &PartitionId| self.affinity.get(&p.0);
        if parts.iter().any(|p| dest(p).is_none()) {
            return false;
        }
        let mut split = false;
        for (i, p) in parts.iter().enumerate() {
            for q in &parts[i + 1..] {
                if dest(p) != dest(q) {
                    if graph.edge_weight(*p, *q) > 0.0 {
                        return false;
                    }
                    split = true;
                }
            }
        }
        split
    }

    /// Counts `txn`'s route if it is unplanned and, at the `B`-th since the
    /// last round, runs the next round now unless one already ran early in
    /// this interval. True when it did (the affinity table is new).
    pub(crate) fn count_unplanned(&mut self, eng: &mut Engine, txn: TxnId) -> bool {
        if !self.is_unplanned(&eng.txn(txn).parts) {
            return false;
        }
        self.unplanned += 1;
        if self.unplanned == 1 {
            // The engine keeps only the first records after a drain; start
            // afresh so the round plans from traffic the plan missed.
            self.drain_records(eng);
        }
        if self.unplanned < self.cfg.planner.history_cap || !self.early_armed {
            return false;
        }
        self.plan_round(eng, Trigger::Early);
        true
    }

    /// Drains the engine's routed-transaction records, feeding the
    /// predictor's arrival history when prediction is on.
    fn drain_records(&mut self, eng: &mut Engine) -> Vec<TxnRecord> {
        let records = eng.drain_history();
        if self.cfg.prediction {
            self.predictor.observe(&records);
        }
        records
    }

    /// One planner round, whatever triggered it; the caller decides whether
    /// it runs. Leaves one [`PlanRound`] on [`Lion::rounds`].
    pub(crate) fn plan_round(&mut self, eng: &mut Engine, trigger: Trigger) {
        match trigger {
            Trigger::Tick => self.early_armed = true,
            Trigger::Early => self.early_armed = false,
            Trigger::Failover => self.replan_pending = false,
        }
        self.unplanned = 0;
        let records = self.drain_records(eng);
        let mut round = PlanRound {
            at: eng.now(),
            trigger,
            drained: records.len(),
            wv: None,
            pre_replicated: false,
            predicted: 0,
            peak_over_avg: None,
            actions: 0,
            refused: 0,
        };
        self.plan(eng, &records, &mut round);
        self.rounds.push(round);
    }

    /// Steps 2–5 of a round over the drained `records`, noting in `round`
    /// what they saw and did.
    fn plan(&mut self, eng: &mut Engine, records: &[TxnRecord], round: &mut PlanRound) {
        // --- Prediction (§IV-C) -----------------------------------------
        let mut predicted: Vec<(Vec<PartitionId>, f64)> = Vec::new();
        if self.cfg.prediction {
            let out = self.predictor.predict(round.at);
            round.wv = Some(out.wv);
            if out.triggered {
                round.pre_replicated = true;
                round.predicted = out.predicted.len();
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
                graph.add_txn(parts, w * PREDICTED_WEIGHT, pl, pcfg.cross_edge_boost);
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
        self.plan_graph = Some(graph);
        let (peak, total, up) = (plan.load.iter().zip(&live))
            .filter(|&(_, &up)| up)
            .fold((0.0f64, 0.0, 0.0), |(p, t, n), (&l, _)| {
                (p.max(l), t + l, n + 1.0)
            });
        round.peak_over_avg = (total > 0.0).then(|| peak * up / total);
        plan.entries.retain(|e| live[e.dest.idx()]);
        plan.assignments.retain(|(_, dest)| live[dest.idx()]);
        // Refresh the router affinity table (deliberate routing, §III) for
        // every partition the plan assigned this round.
        for (parts, dest) in &plan.assignments {
            for p in parts {
                self.affinity.insert(p.0, *dest);
            }
        }
        // --- Asynchronous adjustment (§III) -------------------------------
        round.actions = plan.entries.len();
        for e in &plan.entries {
            let started = match e.action {
                PlanAction::Remaster => eng.remaster_async(e.part, e.dest),
                PlanAction::AddReplica => eng.add_replica_async(e.part, e.dest, true),
                PlanAction::Migrate => eng.migrate_async(e.part, e.dest),
                // Anti-affinity repair: a background copy only — the
                // primary stays put, the new replica restores coverage.
                PlanAction::AddSecondary => eng.add_replica_async(e.part, e.dest, false),
            };
            round.refused += usize::from(started.is_err());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Trigger;
    use crate::config::LionConfig;
    use crate::protocol::Lion;
    use lion_common::{ClientId, NodeId, Op, PartitionId, SimConfig, TxnRequest, SECOND};
    use lion_engine::{Engine, FaultNotice, Protocol, TickKind};
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

    /// The triggers of every round so far, in order.
    fn triggers(lion: &Lion) -> Vec<Trigger> {
        lion.rounds.iter().map(|r| r.trigger).collect()
    }

    /// Rounds that issued adaptor actions.
    fn applied(lion: &Lion) -> usize {
        lion.rounds.iter().filter(|r| r.actions > 0).count()
    }

    #[test]
    fn plan_tick_without_history_is_a_no_op() {
        let wl = Box::new(YcsbWorkload::new(YcsbConfig::for_cluster(4, 4, 1024)));
        let mut eng = Engine::new(cfg(), wl);
        let mut lion = Lion::standard();
        lion.on_tick(&mut eng, TickKind::Planner);
        assert_eq!(lion.rounds.len(), 1, "an empty round still leaves a record");
        let round = lion.rounds[0];
        assert_eq!(
            (round.trigger, round.drained, round.actions),
            (Trigger::Tick, 0, 0)
        );
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
        assert!(lion.rounds.is_empty());
        for p in 0..16 {
            let part = PartitionId(p);
            let away = eng.cluster.placement.secondaries_of(part)[0];
            eng.cluster.begin_migration(part, away, SECOND).unwrap();
        }
        lion.on_tick(&mut eng, TickKind::Planner);
        assert_eq!(lion.rounds.len(), 1);
        let round = lion.rounds[0];
        assert!(round.drained > 0 && round.actions > 0, "{round:?}");
        assert!(
            round.refused > 0 && round.refused <= round.actions,
            "a busy partition refuses a remaster: {round:?}"
        );
        assert!(round.refused as u64 >= eng.metrics.remaster_conflicts);
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
        assert!(applied(&lion) >= 1);
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
        assert!(applied(&lion) >= 1, "planning rounds happened");
        for p in 0..eng.cluster.n_partitions() {
            assert!(
                eng.cluster.zone_coverage(PartitionId(p as u32)) >= 2,
                "P{p} collapsed into one rack after planning"
            );
        }
        eng.cluster.check_invariants().unwrap();
    }

    /// Routes one transaction writing `parts` through Lion's router.
    fn route(lion: &mut Lion, eng: &mut Engine, parts: &[u32]) {
        let ops = parts
            .iter()
            .map(|&p| Op::write(PartitionId(p), 0))
            .collect();
        let t = eng.inject_txn(ClientId(0), TxnRequest::new(ops));
        lion_engine::StandardPolicy::route(lion, eng, t);
    }

    /// An engine (never run) and a standard Lion whose first round planned
    /// the co-access pairs `(2k, 2k + 1)`, giving every partition an affinity.
    fn planned_world() -> (Engine, Lion) {
        let wl = Box::new(YcsbWorkload::new(YcsbConfig::for_cluster(4, 4, 1024)));
        let mut eng = Engine::new(cfg(), wl);
        let mut lion = Lion::standard();
        for i in 0..800 {
            let k = i % 8;
            route(&mut lion, &mut eng, &[2 * k, 2 * k + 1]);
        }
        assert_eq!(lion.unplanned, 0, "nothing counts before the first round");
        lion.on_tick(&mut eng, TickKind::Planner);
        assert_eq!(lion.affinity.len(), 16);
        (eng, lion)
    }

    /// A pair the last round sent to different nodes without having seen it
    /// co-accessed.
    fn unseen_split_pair(lion: &Lion) -> [u32; 2] {
        (0..16)
            .flat_map(|p| (p + 1..16).map(move |q| [p, q]))
            .find(|&[p, q]| lion.is_unplanned(&[PartitionId(p), PartitionId(q)]))
            .expect("some pair is split and unseen")
    }

    #[test]
    fn nothing_is_unplanned_before_the_first_round() {
        let wl = Box::new(YcsbWorkload::new(YcsbConfig::for_cluster(4, 4, 1024)));
        let mut eng = Engine::new(cfg(), wl);
        let mut lion = Lion::standard();
        lion.affinity.insert(0, NodeId(0));
        lion.affinity.insert(1, NodeId(1));
        for _ in 0..2 * lion.cfg.planner.history_cap {
            route(&mut lion, &mut eng, &[0, 1]);
        }
        assert_eq!((lion.unplanned, triggers(&lion)), (0, vec![]));
    }

    /// A pair the round saw co-accessed and still sent apart — below α, or
    /// moved for load — is a decision, not a stale plan.
    #[test]
    fn a_split_the_round_saw_never_counts() {
        let (mut eng, mut lion) = planned_world();
        let kept = lion.affinity[&0];
        let away = NodeId((kept.0 + 1) % 4);
        lion.affinity.insert(1, away);
        let seen = lion.plan_graph.as_ref().unwrap();
        assert!(seen.edge_weight(PartitionId(0), PartitionId(1)) > 0.0);
        for _ in 0..2 * lion.cfg.planner.history_cap {
            route(&mut lion, &mut eng, &[0, 1]);
        }
        assert_eq!((lion.unplanned, triggers(&lion)), (0, vec![Trigger::Tick]));
    }

    /// Unseen co-access across disagreeing affinities runs the next round at
    /// the `B`-th route; a second `B` in the same interval runs nothing, and
    /// the periodic tick re-arms the trigger.
    #[test]
    fn unplanned_routes_pull_one_round_forward_per_interval() {
        let (mut eng, mut lion) = planned_world();
        let b = lion.cfg.planner.history_cap;
        let [p, q] = unseen_split_pair(&lion);
        for _ in 1..b {
            route(&mut lion, &mut eng, &[p, q]);
        }
        assert_eq!(
            (lion.unplanned, triggers(&lion)),
            (b - 1, vec![Trigger::Tick])
        );
        route(&mut lion, &mut eng, &[p, q]);
        let after_early = (0, vec![Trigger::Tick, Trigger::Early]);
        assert_eq!((lion.unplanned, triggers(&lion)), after_early);
        assert_eq!(
            lion.affinity[&p], lion.affinity[&q],
            "the early round planned the new pair onto one node"
        );

        let pair = unseen_split_pair(&lion);
        for _ in 0..2 * b {
            route(&mut lion, &mut eng, &pair);
        }
        assert_eq!((lion.unplanned, triggers(&lion)), (2 * b, after_early.1));

        lion.on_tick(&mut eng, TickKind::Planner);
        let pair = unseen_split_pair(&lion);
        for _ in 0..b {
            route(&mut lion, &mut eng, &pair);
        }
        assert_eq!(
            triggers(&lion),
            [Trigger::Tick, Trigger::Early, Trigger::Tick, Trigger::Early],
            "the tick re-armed the trigger"
        );
    }

    /// A crashed node's affinities are dropped, so a transaction touching
    /// those partitions has no plan to be stale against.
    #[test]
    fn partitions_without_affinity_after_node_down_do_not_count() {
        let (mut eng, mut lion) = planned_world();
        let [p, q] = unseen_split_pair(&lion);
        let dead = lion.affinity[&p];
        lion.on_fault(&mut eng, &FaultNotice::NodeDown(dead));
        for _ in 0..2 * lion.cfg.planner.history_cap {
            route(&mut lion, &mut eng, &[p, q]);
        }
        assert_eq!((lion.unplanned, triggers(&lion)), (0, vec![Trigger::Tick]));
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
        let last_wv = lion.rounds.iter().rev().find_map(|r| r.wv);
        assert!(last_wv > Some(0.0), "wv was computed");
        assert!(
            lion.rounds.iter().any(|r| r.pre_replicated),
            "periodic shifts should trigger pre-replication (wv={last_wv:?})"
        );
    }
}
