//! The two baselines that are nothing but a [`StandardPolicy`] over the
//! engine's standard-execution machine: classic 2PC and Leap. ([`crate::Clay`]
//! is the third; Lion itself is the fourth, in `lion-core`.)

use lion_common::{NodeId, PartitionId, TxnId};
use lion_engine::{Engine, FaultNotice, RemoteAction, StandardPolicy, TickKind, TxnClass};

// ---------------------------------------------------------------------
// 2PC: the non-adaptive classic (§VI-A.2 "2PC")
// ---------------------------------------------------------------------

/// Routing policy of the classic 2PC baseline: coordinate at the node
/// hosting the most primaries of the transaction; never adapt placement to
/// the *workload* — but it is failover-aware: after a crashed node restarts,
/// a one-shot primary rebalance remasters its former partitions back.
/// Without it the promoted primaries stay piled on the survivors forever
/// and 2PC never regains its pre-crash throughput (the Fig. F1 asymmetry
/// the ROADMAP called unfair to the baseline).
#[derive(Default)]
pub struct TwoPcPolicy {
    /// Recovered nodes still owed their one-shot rebalance. A node leaves
    /// the list once the rebalance ran (or it crashed again).
    rebalance_pending: Vec<NodeId>,
    /// One-shot rebalances that actually moved at least one primary
    /// (diagnostics / tests; dropped and no-op resolutions don't count).
    pub rebalances: u64,
}

impl TwoPcPolicy {
    /// One-shot rebalance for `node`: once its rejoin snapshot copies have
    /// landed, remaster partitions with a secondary on `node` back onto it —
    /// most-loaded donors first, each donating only its surplus over the
    /// fair share. Returns `None` while the copies are still in flight,
    /// otherwise `Some(primaries moved)`.
    fn try_rebalance(eng: &mut Engine, node: NodeId) -> Option<usize> {
        if !eng.cluster.is_up(node) {
            return Some(0); // crashed again before the rebalance: drop it
        }
        let n_parts = eng.cluster.n_partitions();
        let copies_inbound =
            (0..n_parts).any(|p| eng.cluster.parts[p].copy_targets().any(|n| n == node));
        if copies_inbound {
            return None; // not rejoined yet: check again next monitor tick
        }
        let candidates: Vec<PartitionId> = (0..n_parts as u32)
            .map(PartitionId)
            .filter(|&p| eng.cluster.placement.has_secondary(p, node))
            .collect();
        let live = eng.cluster.live_count().max(1);
        let fair_share = n_parts / live;
        if candidates.is_empty() {
            // No secondaries to promote: either the node's primaries were
            // restored in place (nothing to rebalance) or there is nothing
            // it can take over — done either way.
            return Some(0);
        }
        let mut deficit = fair_share.saturating_sub(eng.cluster.placement.primaries_on(node));
        let mut moved = 0usize;
        // Donate from the most-overloaded survivors first; partition-id
        // order within a donor keeps the move set deterministic. The
        // remasters are asynchronous (the placement flips after the
        // hand-off), so surplus is tracked locally instead of re-reading
        // the stale placement inside the loop — a donor gives away only
        // what it holds beyond the fair share.
        let mut donors: Vec<(usize, NodeId)> = eng
            .cluster
            .live_nodes()
            .filter(|&n| n != node)
            .map(|n| (eng.cluster.placement.primaries_on(n), n))
            .collect();
        donors.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for (load, donor) in donors {
            if deficit == 0 {
                break;
            }
            let mut surplus = load.saturating_sub(fair_share);
            for part in &candidates {
                if deficit == 0 || surplus == 0 {
                    break;
                }
                if eng.cluster.placement.primary_of(*part) == donor
                    && eng.remaster_async(*part, node).is_ok()
                {
                    deficit -= 1;
                    surplus -= 1;
                    moved += 1;
                }
            }
        }
        Some(moved)
    }
}

impl StandardPolicy for TwoPcPolicy {
    fn name(&self) -> &'static str {
        "2PC"
    }

    fn route(&mut self, eng: &mut Engine, txn: TxnId) -> NodeId {
        most_primaries(eng, txn)
    }

    fn remote_action(&mut self, _: &mut Engine, _: TxnId, _: PartitionId) -> RemoteAction {
        RemoteAction::TwoPc
    }

    fn on_fault(&mut self, _eng: &mut Engine, notice: &FaultNotice) {
        match notice {
            FaultNotice::NodeUp(node) => {
                if !self.rebalance_pending.contains(node) {
                    self.rebalance_pending.push(*node);
                }
            }
            FaultNotice::NodeDown(node) => {
                self.rebalance_pending.retain(|n| n != node);
            }
            FaultNotice::FailoverComplete { .. } => {}
        }
    }

    fn on_tick(&mut self, eng: &mut Engine, kind: TickKind) {
        if kind != TickKind::Monitor || self.rebalance_pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.rebalance_pending);
        for node in pending {
            match Self::try_rebalance(eng, node) {
                Some(moved) if moved > 0 => self.rebalances += 1,
                Some(_) => {} // dropped or nothing to move: resolved silently
                None => self.rebalance_pending.push(node), // copies in flight
            }
        }
    }
}

/// Picks the node hosting the most primaries of `txn`'s partitions
/// (deterministic: lowest id wins ties).
pub fn most_primaries(eng: &Engine, txn: TxnId) -> NodeId {
    let parts = &eng.txn(txn).parts;
    let primary = |&p: &PartitionId| eng.cluster.placement.primary_of(p);
    // A transaction touches few partitions: count per candidate, not per node.
    let count = |n: NodeId| parts.iter().filter(|p| primary(p) == n).count();
    parts
        .iter()
        .map(primary)
        .map(|n| (count(n), n))
        .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
        .map_or(NodeId(0), |(_, n)| n)
}

/// The classic OCC + 2PC baseline.
pub type TwoPc = TwoPcPolicy;

/// Builds the 2PC baseline.
pub fn two_pc() -> TwoPc {
    TwoPcPolicy::default()
}

// ---------------------------------------------------------------------
// Leap: aggressive on-demand migration (§VI-A.2 "Leap")
// ---------------------------------------------------------------------

/// Leap's policy: execute at the client's origin node and migrate every
/// remote partition to it before the operation runs; commits locally,
/// skipping the prepare phase, once everything is local.
///
/// Ownership passes to the requesting transaction (Lin et al., SIGMOD
/// 2016) by wound-wait on submission order: a migration's landing aborts
/// every attempt that executed on the partition, so a transaction migrates
/// only when no older one stands on it, and otherwise waits.
pub struct LeapPolicy;

impl StandardPolicy for LeapPolicy {
    fn name(&self) -> &'static str {
        "Leap"
    }

    fn route(&mut self, eng: &mut Engine, txn: TxnId) -> NodeId {
        eng.origin_node(eng.txn(txn).client)
    }

    /// Pull the partition home, blocking until the move lands, then retry
    /// the group locally.
    fn remote_action(&mut self, eng: &mut Engine, txn: TxnId, part: PartitionId) -> RemoteAction {
        eng.txn_mut(txn).class = TxnClass::Distributed;
        let home = eng.txn(txn).home;
        let older_holder = eng
            .oldest_executing_on(part, txn)
            .is_some_and(|seq| seq < eng.txn(txn).seq);
        let migrated = if older_holder {
            None
        } else {
            eng.migrate_async(part, home).ok()
        };
        RemoteAction::Wait(match migrated {
            Some(d) => d + 1,
            // An older transaction holds the partition, or another
            // migration is in flight: wait it out and re-examine
            // (ping-pong emerges here).
            None => {
                let left = eng.cluster.available_at(part).saturating_sub(eng.now());
                left.max(100) + 1
            }
        })
    }
}

/// The Leap baseline.
pub type Leap = LeapPolicy;

/// Builds the Leap baseline.
pub fn leap() -> Leap {
    LeapPolicy
}

#[cfg(test)]
mod tests {
    use super::*;
    use lion_common::{SimConfig, SECOND};
    use lion_engine::Engine;
    use lion_workloads::{YcsbConfig, YcsbWorkload};

    fn small_cfg(nodes: usize) -> SimConfig {
        SimConfig {
            nodes,
            partitions_per_node: 4,
            keys_per_partition: 256,
            value_size: 32,
            clients_per_node: 4,
            ..Default::default()
        }
    }

    fn ycsb(nodes: u32, cross: f64, skew: f64, seed: u64) -> Box<YcsbWorkload> {
        Box::new(YcsbWorkload::new(
            YcsbConfig::for_cluster(nodes, 4, 256)
                .with_mix(cross, skew)
                .with_seed(seed),
        ))
    }

    #[test]
    fn two_pc_commits_single_partition_load() {
        let mut eng = Engine::new(small_cfg(2), ycsb(2, 0.0, 0.0, 1));
        let r = eng.run(&mut two_pc(), SECOND);
        assert!(r.commits > 500, "commits {}", r.commits);
        assert!(
            r.class_fractions[0] > 0.99,
            "all single-node: {:?}",
            r.class_fractions
        );
        eng.cluster.check_invariants().unwrap();
    }

    #[test]
    fn two_pc_cross_partition_txns_use_2pc() {
        let mut eng = Engine::new(small_cfg(2), ycsb(2, 1.0, 0.0, 2));
        let r = eng.run(&mut two_pc(), SECOND);
        assert!(r.commits > 100, "commits {}", r.commits);
        assert!(
            r.class_fractions[2] > 0.9,
            "cross txns stay distributed under 2PC: {:?}",
            r.class_fractions
        );
        // distributed transactions must be slower than single-partition ones
        assert!(
            r.latency_p[1] > 200,
            "p50 {}us should reflect 2PC rounds",
            r.latency_p[1]
        );
        eng.cluster.check_invariants().unwrap();
    }

    #[test]
    fn two_pc_throughput_drops_with_cross_ratio() {
        let tput = |cross: f64| {
            let mut eng = Engine::new(small_cfg(2), ycsb(2, cross, 0.0, 3));
            eng.run(&mut two_pc(), SECOND).throughput_tps
        };
        let t0 = tput(0.0);
        let t100 = tput(1.0);
        assert!(
            t0 > t100 * 1.5,
            "single-node throughput {t0:.0} should far exceed 100% cross {t100:.0}"
        );
    }

    #[test]
    fn leap_migrates_everything_home() {
        let mut eng = Engine::new(small_cfg(2), ycsb(2, 1.0, 0.0, 4));
        let r = eng.run(&mut leap(), SECOND);
        assert!(r.commits > 50, "commits {}", r.commits);
        assert!(r.migrations > 0, "Leap must migrate");
        eng.cluster.check_invariants().unwrap();
    }

    /// ROADMAP satellite: after a crash + recovery, the one-shot rebalance
    /// must hand the recovered node its fair share of primaries back —
    /// without it 2PC routes everything at the survivors forever.
    #[test]
    fn two_pc_rebalances_primaries_after_recovery() {
        use lion_common::{NodeId, SECOND};
        let victim = NodeId(1);
        let sim = small_cfg(4); // 16 partitions, fair share 4
        let mut cfg = lion_engine::EngineConfig::from(sim);
        cfg.faults = lion_engine::FaultPlan::single_failure(SECOND, victim, 2 * SECOND);
        let mut eng = Engine::new(cfg, ycsb(4, 0.5, 0.0, 9));
        let mut proto = two_pc();
        let r = eng.run(&mut proto, 6 * SECOND);
        assert_eq!(r.crashes, 1);
        assert!(r.failovers > 0, "victim's primaries promoted away");
        assert_eq!(proto.rebalances, 1, "exactly one one-shot rebalance");
        assert!(
            r.remasters > 0,
            "the rebalance works by remastering, not migration"
        );
        let share = eng.cluster.placement.primaries_on(victim);
        assert_eq!(
            share, 4,
            "recovered node must regain its fair share of primaries"
        );
        assert!(r.commits > 1_000);
        eng.cluster.check_invariants().unwrap();
    }

    #[test]
    fn two_pc_write_conflicts_abort() {
        // Everyone writes the same two keys across two partitions: prepare
        // locks and version checks must produce aborts.
        let wl = Box::new(move |_now| {
            lion_common::TxnRequest::new(vec![
                lion_common::Op::read(lion_common::PartitionId(0), 0),
                lion_common::Op::write(lion_common::PartitionId(1), 0),
                lion_common::Op::write(lion_common::PartitionId(0), 0),
            ])
        });
        let mut cfg = small_cfg(2);
        cfg.clients_per_node = 8;
        let mut eng = Engine::new(cfg, wl);
        let r = eng.run(&mut two_pc(), SECOND / 2);
        assert!(r.commits > 0);
        assert!(r.aborts > 0, "contention must cause aborts");
        eng.cluster.check_invariants().unwrap();
    }
}
