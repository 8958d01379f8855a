//! The Lion protocol (§III): cost-model routing, single-node fast path,
//! inline remastering, 2PC fallback, and the §IV-D batch optimization.
//!
//! Execution of one transaction follows the three cases of §III exactly:
//!
//! 1. the router found a node with **all primaries** → execute there and
//!    commit locally, skipping the prepare phase;
//! 2. the node lacks some primaries but holds **secondaries** → remaster
//!    them to the node (inline in standard mode; asynchronously before the
//!    batch's execution phase in batch mode), then run as case 1;
//! 3. otherwise → regular distributed transaction with 2PC. Remastering
//!    conflicts (another transfer in flight toward a different node) also
//!    fall back to 2PC, as §III prescribes.
//!
//! Cases 1 and 3 are the ordinary standard-execution flow, so Lion is a
//! [`StandardPolicy`] over the engine's machine: it routes, and for a remote
//! partition it decides between remastering (case 2) and 2PC.

use crate::config::LionConfig;
use crate::provision::{PlanRound, Trigger};
use crate::router::route_txn;
use lion_cluster::{AdaptorError, Transfer};
use lion_common::{NodeId, PartitionId, Time, TxnId};
use lion_engine::{CommitClass, Engine, FaultNotice, RemoteAction, StandardPolicy, TickKind};
use lion_planner::{HeatGraph, TxnPlacementClass};
use lion_predictor::WorkloadPredictor;

/// The Lion protocol.
pub struct Lion {
    pub(crate) cfg: LionConfig,
    pub(crate) predictor: WorkloadPredictor,
    /// Router affinity: the planner's clump destination, by partition.
    /// "Transactions accessing the same partitions are deliberately routed
    /// to the same node, which reduces ping-pong remastering" (§III) — the
    /// affinity keeps routing stable while replica copies are in flight, so
    /// the greedy cost model cannot undo the plan mid-transition.
    pub(crate) affinity: Vec<Option<NodeId>>,
    /// The heat graph the last round planned from: the co-access behind
    /// `affinity`. `None` until the first round.
    pub(crate) plan_graph: Option<HeatGraph>,
    /// Routes since the last round whose co-access `plan_graph` never saw.
    pub(crate) unplanned: usize,
    /// An early round may still run in this planner interval.
    pub(crate) early_armed: bool,
    /// A failover happened and the provision loop should re-run Algorithm 1
    /// once the topology settles (set by `on_fault`).
    pub(crate) replan_pending: bool,
    /// Every planner round so far, one record each, in the order they ran.
    pub rounds: Vec<PlanRound>,
}

impl Lion {
    /// Builds Lion from a configuration (see [`LionConfig`] constructors).
    pub fn new(cfg: LionConfig) -> Self {
        Lion {
            predictor: WorkloadPredictor::new(cfg.predictor),
            cfg,
            affinity: Vec::new(),
            plan_graph: None,
            unplanned: 0,
            early_armed: true,
            replan_pending: false,
            rounds: Vec::new(),
        }
    }

    /// Full Lion (batch + prediction), the paper's headline configuration.
    pub fn full() -> Self {
        Self::new(LionConfig::lion())
    }

    /// Standard-execution Lion for the non-batch comparisons.
    pub fn standard() -> Self {
        Self::new(LionConfig::lion_standard())
    }

    /// Configuration accessor.
    pub fn config(&self) -> &LionConfig {
        &self.cfg
    }

    /// The planned destination of `part`, if a round assigned it one.
    pub(crate) fn planned(&self, part: PartitionId) -> Option<NodeId> {
        self.affinity.get(part.idx()).copied().flatten()
    }

    /// Consensus affinity of a transaction's partitions: the planned
    /// destination when every accessed partition agrees on one.
    fn affinity_of(&self, eng: &Engine, txn: TxnId) -> Option<NodeId> {
        let parts = &eng.txn(txn).parts;
        let mut dest: Option<NodeId> = None;
        for &p in parts {
            match (self.planned(p), dest) {
                (None, _) => return None,
                (Some(n), None) => dest = Some(n),
                (Some(n), Some(d)) if n != d => return None,
                _ => {}
            }
        }
        dest
    }

    /// §III case 2: makes `home` the primary of `part`, whose secondary it
    /// holds — starts the remaster, or rides one already heading there.
    /// Returns how long until the hand-off completes; `None` on a
    /// remastering conflict (a transfer in flight toward another node), for
    /// which §III prescribes 2PC.
    fn remaster_to(eng: &mut Engine, txn: TxnId, part: PartitionId, home: NodeId) -> Option<Time> {
        let wait = match eng.remaster_async(part, home) {
            Ok(d) => d,
            Err(AdaptorError::Busy(_))
                if eng.cluster.transfer(part) == (Transfer::Remaster { to: home }) =>
            {
                eng.cluster.available_at(part).saturating_sub(eng.now())
            }
            Err(_) => return None,
        };
        if eng.txn(txn).class == CommitClass::SingleNode {
            eng.txn_mut(txn).class = CommitClass::Remastered;
        }
        Some(wait + 1)
    }
}

impl StandardPolicy for Lion {
    fn name(&self) -> &'static str {
        self.cfg.name
    }

    fn batch(&self) -> bool {
        self.cfg.batch
    }

    fn route(&mut self, eng: &mut Engine, txn: TxnId) -> NodeId {
        let mut planned = self.affinity_of(eng, txn);
        if planned.is_none() && self.count_unplanned(eng, txn) {
            // The round this route triggered re-planned: route under it.
            planned = self.affinity_of(eng, txn);
        }
        let (home, class) = match planned {
            Some(node) => {
                // Deliberate routing to the planned clump destination.
                let (class, _) = lion_planner::operational_cost(
                    &eng.cluster.placement,
                    eng.cluster.freq.heat(),
                    &eng.txn(txn).parts,
                    node,
                );
                (node, class)
            }
            None => route_txn(eng, txn),
        };

        // Batch optimization (§IV-D): issue every needed remaster for this
        // transaction asynchronously, up front. The executor does not stall
        // here — the partition-group walk sleeps through any window that is
        // still open when the group is reached, and a conflict falls back
        // to 2PC there.
        if self.cfg.batch && matches!(class, TxnPlacementClass::NeedsRemaster { .. }) {
            let parts = eng.txn(txn).parts.clone();
            for part in parts {
                if !eng.cluster.placement.is_primary(part, home)
                    && eng.cluster.placement.has_secondary(part, home)
                    && self.planned(part).is_none_or(|a| a == home)
                {
                    Self::remaster_to(eng, txn, part, home);
                }
            }
        }
        home
    }

    /// Standard mode remasters a local secondary inline, then executes the
    /// group locally. Two guards prevent ping-pong remastering: a partition
    /// whose planned destination is elsewhere is left alone (deliberate
    /// routing), and a transaction whose home stopped being the router's
    /// best choice while it waited (the placement moved underneath it)
    /// executes the group via 2PC instead of dragging the primary back —
    /// "otherwise, they will execute through 2PC" (§III). Batch mode asked
    /// for its remasters at routing time; what is still remote runs as 2PC.
    fn remote_action(&mut self, eng: &mut Engine, txn: TxnId, part: PartitionId) -> RemoteAction {
        let home = eng.txn(txn).home;
        if !self.cfg.batch
            && eng.cluster.placement.has_secondary(part, home)
            && self.planned(part).is_none_or(|a| a == home)
            && route_txn(eng, txn).0 == home
        {
            if let Some(wait) = Self::remaster_to(eng, txn, part, home) {
                return RemoteAction::Wait(wait);
            }
        }
        RemoteAction::TwoPc
    }

    fn on_tick(&mut self, eng: &mut Engine, kind: TickKind) {
        if kind == TickKind::Planner {
            self.plan_round(eng, Trigger::Tick);
        }
    }

    fn on_fault(&mut self, eng: &mut Engine, notice: &FaultNotice) {
        match notice {
            FaultNotice::NodeDown(node) => {
                // Stale affinity toward a dead node would keep the router
                // pinning transactions to it; drop those entries immediately
                // and let the next provision round re-assign the clumps.
                for dest in &mut self.affinity {
                    dest.take_if(|d| d == node);
                }
                self.replan_pending = true;
            }
            FaultNotice::FailoverComplete { .. } => {
                // Re-run Algorithm 1 once promotions land: the surviving
                // topology is now authoritative, and the plan should rebuild
                // co-location (and replica headroom) around it.
                if self.replan_pending
                    && !eng
                        .cluster
                        .parts
                        .iter()
                        .any(|rt| matches!(rt.transfer(), Transfer::Failover { .. }))
                {
                    self.plan_round(eng, Trigger::Failover);
                }
            }
            FaultNotice::NodeUp(_) => {
                // Fresh capacity: the next planner tick folds it in (the
                // rejoin copies are still in flight right now). A pending
                // replan owed to a *different* node's crash stays pending —
                // its FailoverComplete will consume it.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lion_baselines::two_pc;
    use lion_common::{ClientId, Op, SimConfig, TxnRequest, SECOND};
    use lion_engine::Engine;
    use lion_workloads::{YcsbConfig, YcsbWorkload};

    fn cfg(nodes: usize) -> SimConfig {
        SimConfig {
            nodes,
            partitions_per_node: 4,
            keys_per_partition: 2048,
            value_size: 32,
            clients_per_node: 6,
            batch_size: 64,
            ..Default::default()
        }
    }

    fn ycsb(nodes: u32, cross: f64, skew: f64, seed: u64) -> Box<YcsbWorkload> {
        Box::new(YcsbWorkload::new(
            YcsbConfig::for_cluster(nodes, 4, 2048)
                .with_mix(cross, skew)
                .with_seed(seed),
        ))
    }

    /// A transaction has a consensus affinity only when every partition it
    /// touches has an entry that agrees: a partition without one, a hole in
    /// the table or an id past its end, leaves the transaction unplanned.
    #[test]
    fn affinity_of_needs_an_entry_for_every_partition() {
        let mut eng = Engine::new(cfg(4), ycsb(4, 0.0, 0.0, 68));
        let mut lion = Lion::standard();
        lion.plan_affinity(PartitionId(0), NodeId(2));
        lion.plan_affinity(PartitionId(2), NodeId(2));
        assert_eq!(lion.affinity.len(), 3, "the table grows to the entry");
        let mut affinity_of = |lion: &Lion, parts: &[u32]| {
            let ops = parts
                .iter()
                .map(|&p| Op::write(PartitionId(p), 0))
                .collect();
            let txn = eng.inject_txn(ClientId(0), TxnRequest::new(ops));
            lion.affinity_of(&eng, txn)
        };
        assert_eq!(affinity_of(&lion, &[0, 2]), Some(NodeId(2)));
        // P1 is a hole; P3 and P15 lie past the table's end.
        for parts in [[0, 1], [1, 2], [2, 3], [15, 0]] {
            assert_eq!(affinity_of(&lion, &parts), None, "{parts:?}");
        }
        lion.plan_affinity(PartitionId(1), NodeId(3));
        assert_eq!(affinity_of(&lion, &[0, 1]), None, "the entries disagree");
        assert_eq!(affinity_of(&lion, &[1]), Some(NodeId(3)));
    }

    /// The headline behaviour: on a 100% cross-partition workload with
    /// stable co-access pairs, Lion converts almost everything to
    /// single-node execution and beats 2PC.
    #[test]
    fn lion_localizes_cross_partition_workload() {
        let horizon = 8 * SECOND;
        let mut eng_lion = Engine::new(cfg(4), ycsb(4, 1.0, 0.0, 61));
        let mut lion = Lion::standard();
        let r_lion = eng_lion.run(&mut lion, horizon);

        let mut eng_2pc = Engine::new(cfg(4), ycsb(4, 1.0, 0.0, 61));
        let r_2pc = eng_2pc.run(&mut two_pc(), horizon);

        assert!(r_lion.commits > 1000);
        assert!(
            r_lion.throughput_tps > r_2pc.throughput_tps * 1.3,
            "Lion {:.0} tps must beat 2PC {:.0} tps",
            r_lion.throughput_tps,
            r_2pc.throughput_tps
        );
        // adaptation actually happened
        assert!(lion.rounds.iter().any(|r| r.actions > 0));
        assert!(r_lion.remasters > 0, "co-location via remastering");
        // by the end most txns are single-node; over the whole run the
        // distributed share must be well below 2PC's ~100%
        assert!(
            r_lion.class_fractions[2] < 0.5,
            "distributed fraction {:?}",
            r_lion.class_fractions
        );
        eng_lion.cluster.check_invariants().unwrap();
    }

    #[test]
    fn lion_single_partition_workload_stays_single_node() {
        let mut eng = Engine::new(cfg(2), ycsb(2, 0.0, 0.0, 62));
        let r = eng.run(&mut Lion::standard(), 2 * SECOND);
        assert!(r.commits > 500);
        assert!(r.class_fractions[0] > 0.95, "{:?}", r.class_fractions);
        assert_eq!(r.migrations, 0, "Lion never migrates");
    }

    #[test]
    fn lion_batch_mode_converts_with_async_remastering() {
        let mut eng = Engine::new(cfg(4), ycsb(4, 1.0, 0.0, 63));
        let mut lion = Lion::full();
        let r = eng.run(&mut lion, 8 * SECOND);
        assert!(r.commits > 1000, "commits {}", r.commits);
        assert!(r.remasters > 0);
        assert!(
            r.class_fractions[2] < 0.5,
            "batch Lion localizes too: {:?}",
            r.class_fractions
        );
        eng.cluster.check_invariants().unwrap();
    }

    #[test]
    fn lion_spreads_skewed_load() {
        let mut eng = Engine::new(cfg(4), ycsb(4, 0.5, 0.8, 64));
        let r = eng.run(&mut Lion::standard(), 8 * SECOND);
        assert!(r.commits > 1000);
        // primaries must have moved off the hot node
        let on_hot = eng.cluster.placement.primaries_on(lion_common::NodeId(0));
        assert!(
            on_hot < 4 + 4, // started with 4; should not have grown
            "hot node still holds {on_hot} primaries"
        );
        // busy time should not be concentrated on one node
        let busy: Vec<u64> = (0..4)
            .map(|n| eng.cluster.workers[n].busy_total())
            .collect();
        let max = *busy.iter().max().unwrap() as f64;
        let avg = busy.iter().sum::<u64>() as f64 / 4.0;
        assert!(max / avg < 2.5, "load still skewed: {busy:?}");
        eng.cluster.check_invariants().unwrap();
    }

    #[test]
    fn lion_s_variant_migrates_instead_of_replicating() {
        let mut eng = Engine::new(cfg(4), ycsb(4, 1.0, 0.0, 65));
        let mut lion_s = Lion::new(crate::config::LionConfig::lion_s());
        let r = eng.run(&mut lion_s, 6 * SECOND);
        assert!(r.commits > 500);
        assert!(r.migrations > 0, "Schism strategy migrates");
        assert_eq!(r.replica_adds, 0, "Schism never adds replicas");
        eng.cluster.check_invariants().unwrap();
    }

    /// Under a node crash, Lion's provision loop reacts to the topology
    /// loss: affinity to the dead node is dropped, Algorithm 1 re-runs once
    /// failover lands, and throughput keeps flowing on the survivors.
    #[test]
    fn lion_replans_after_failover() {
        let mut engine_cfg = lion_engine::EngineConfig::from(cfg(4));
        engine_cfg.plan_interval_us = 500_000;
        engine_cfg.faults =
            lion_engine::FaultPlan::new().crash_at(3 * SECOND, lion_common::NodeId(1));
        let mut eng = Engine::new(engine_cfg, ycsb(4, 1.0, 0.0, 67));
        let mut lion = Lion::standard();
        let r = eng.run(&mut lion, 6 * SECOND);
        assert_eq!(r.crashes, 1);
        assert!(r.failovers > 0, "dead node's primaries must fail over");
        let replans: Vec<_> = lion
            .rounds
            .iter()
            .filter(|r| r.trigger == Trigger::Failover)
            .collect();
        assert_eq!(
            replans.len(),
            1,
            "Algorithm 1 must re-run once the failovers land"
        );
        assert!(
            replans[0].at >= 3 * SECOND + lion_faults::FAILURE_DETECT_US,
            "the failover round ran at {} us, before detection",
            replans[0].at
        );
        assert!(
            lion.affinity
                .iter()
                .all(|&n| n != Some(lion_common::NodeId(1))),
            "no routing affinity may point at the dead node"
        );
        assert!(r.commits > 500, "commits {}", r.commits);
        eng.cluster.check_invariants().unwrap();
    }

    #[test]
    fn remastering_machinery_is_exercised_under_churn() {
        // Long remaster windows + heavy skewed cross traffic: conversions
        // must happen, and anything that hit an in-flight transfer must
        // have completed correctly (invariants hold, commits flow).
        let mut c = cfg(4);
        c.remaster_delay_us = 8000;
        let mut eng = Engine::new(c, ycsb(4, 1.0, 0.5, 66));
        let r = eng.run(&mut Lion::standard(), 4 * SECOND);
        assert!(r.commits > 300);
        assert!(r.remasters > 0, "remastering must fire under this workload");
        eng.cluster.check_invariants().unwrap();
    }
}
