//! The split-brain heal coordinator's decision logic.
//!
//! Two pure planning passes bracket every honest partition window:
//!
//! * **At split begin**, [`plan_split_promotions`] decides, for every data
//!   partition whose serving primary sits cut off on the non-quorum side,
//!   whether the quorum side promotes a replacement **for real** (the
//!   quorum side is the rest of the cluster, so the global routing view
//!   follows it) or only **in shadow** (the quorum side is the isolated
//!   set: the cut-off primary keeps serving the rest side for the whole
//!   window — every ack it produces is quorum-fenced — and the recorded
//!   promotion is applied when the cut heals).
//! * **At heal**, [`plan_heal`] turns the window's frozen state into a
//!   reconciliation script per partition: which node held the divergent
//!   timeline (its parked log is audited for acked-then-lost work and then
//!   discarded), which shadow remaster to apply, and which stale replicas
//!   to drop and re-add via background snapshot copies.
//!
//! Like the rest of this crate, nothing here touches the virtual clock:
//! the engine executes the returned decisions by scheduling events.

use crate::recovery::{candidates_on_side, price_promotion, select_promotion_target};
use lion_cluster::Cluster;
use lion_common::{NodeId, PartitionId, Time};

/// What the quorum side does about one partition whose serving primary is
/// cut off on the non-quorum side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitAction {
    /// The quorum side is the rest of the cluster: promote `target` in the
    /// global routing view once `duration` (failure detection + hand-off)
    /// elapses. No cross-cut lag sync — the target adopts its own applied
    /// head, and everything the old primary logs past the last certified
    /// frontier becomes the divergent timeline.
    Promote {
        /// Quorum-side replica that takes over.
        target: NodeId,
        /// Detection + hand-off window on the virtual clock.
        duration: Time,
    },
    /// The quorum side is the isolated set: record `target` as the shadow
    /// promotion applied at heal. The cut-off old primary keeps serving
    /// the rest side for the whole window; its acks are quorum-fenced.
    Shadow {
        /// Quorum-side replica promoted at heal.
        target: NodeId,
    },
    /// No gap-free quorum-side replica exists: the quorum side goes
    /// without this partition for the window (the fenced primary still
    /// serves its own side). Plan validation makes this unreachable for
    /// validated plans; it is kept for hand-built clusters.
    Stall,
}

/// One partition's split-begin decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitDecision {
    /// The affected partition.
    pub part: PartitionId,
    /// What the quorum side does about it.
    pub action: SplitAction,
}

/// Plans the quorum side's response to a just-opened split-brain window
/// (the window must already be open on `cluster`). Returns one decision per
/// partition whose serving primary sits on the non-quorum side, in
/// partition order; partitions served from their quorum side need nothing
/// and are omitted.
pub fn plan_split_promotions(cluster: &Cluster) -> Vec<SplitDecision> {
    debug_assert!(
        cluster.split_active(),
        "planning promotions without a split"
    );
    let mut out = Vec::new();
    for p in 0..cluster.n_partitions() {
        let part = PartitionId(p as u32);
        let qs = cluster.quorum_side_of(part);
        let primary = cluster.placement.primary_of(part);
        if cluster.side_of(primary) == qs {
            continue;
        }
        let candidates = candidates_on_side(cluster, part, qs);
        let avoid = Some(cluster.zone(primary));
        let action = match select_promotion_target(&candidates, &cluster.zone_of, avoid) {
            // Cross-cut promotion never syncs lag: detection + hand-off only.
            Some(target) if qs == 0 => SplitAction::Promote {
                target,
                duration: price_promotion(&cluster.cfg, 0),
            },
            Some(target) => SplitAction::Shadow { target },
            None => SplitAction::Stall,
        };
        out.push(SplitDecision { part, action });
    }
    out
}

/// One partition's heal-time reconciliation script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealStep {
    /// The partition to reconcile.
    pub part: PartitionId,
    /// Shadow remaster to apply first: the quorum-side target recorded
    /// mid-window takes over from the divergent serving primary.
    pub shadow: Option<NodeId>,
    /// Replicas to drop and re-add via background snapshot copies: every
    /// holder that sat on the non-quorum side (it missed the durable
    /// timeline's flushes, or served the divergent timeline itself). Their
    /// stores are audited for acked-then-lost work before discarding.
    pub stale: Vec<NodeId>,
}

/// Plans heal reconciliation for the still-open split-brain window: call
/// **before** `Cluster::end_split`, execute after. Steps come in partition
/// order and only for partitions with something to reconcile.
pub fn plan_heal(cluster: &Cluster) -> Vec<HealStep> {
    debug_assert!(cluster.split_active(), "planning heal without a split");
    let mut out = Vec::new();
    for p in 0..cluster.n_partitions() {
        let part = PartitionId(p as u32);
        let qs = cluster.quorum_side_of(part);
        let primary = cluster.placement.primary_of(part);
        let divergent = cluster.side_of(primary) != qs;
        // The recorded shadow target can die mid-window (or a real
        // promotion's target died before its hand-off landed, leaving the
        // partition divergent with no shadow at all): re-pick among the
        // quorum side's live gap-free replicas so its timeline still wins.
        let shadow = if divergent {
            cluster
                .shadow_of(part)
                .filter(|&t| cluster.is_up(t))
                .or_else(|| {
                    let candidates = candidates_on_side(cluster, part, qs);
                    let avoid = Some(cluster.zone(primary));
                    select_promotion_target(&candidates, &cluster.zone_of, avoid)
                })
        } else {
            None
        };
        let mut stale: Vec<NodeId> = cluster
            .placement
            .secondaries_of(part)
            .iter()
            .copied()
            .filter(|&n| cluster.side_of(n) != qs)
            .collect();
        // The divergent serving primary demotes when the shadow remaster
        // applies, then joins the stale set itself.
        if divergent && shadow.is_some() {
            stale.push(primary);
        }
        stale.sort_unstable();
        if shadow.is_some() || !stale.is_empty() {
            out.push(HealStep {
                part,
                shadow,
                stale,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lion_common::SimConfig;

    /// 4 nodes × rf 3: isolating {N2, N3} yields all four partition cases
    /// (round_robin holders of p_i = {i, i+1, i+2 mod 4}).
    fn split_cluster() -> Cluster {
        let cfg = SimConfig {
            nodes: 4,
            partitions_per_node: 1,
            keys_per_partition: 32,
            value_size: 16,
            replication_factor: 3,
            max_replicas: 4,
            ..Default::default()
        };
        let mut c = Cluster::new(cfg);
        c.begin_split(&[NodeId(2), NodeId(3)], 1_000);
        c
    }

    #[test]
    fn promotions_split_into_real_and_shadow_by_quorum_side() {
        let c = split_cluster();
        let plan = plan_split_promotions(&c);
        // p0 (primary N0, quorum rest) and p2 (primary N2, quorum isolated)
        // are served from their quorum sides: nothing to do.
        assert_eq!(
            plan.iter().map(|d| d.part).collect::<Vec<_>>(),
            vec![PartitionId(1), PartitionId(3)]
        );
        // p1: primary N1 (rest) vs quorum isolated → shadow onto N2 or N3.
        match plan[0].action {
            SplitAction::Shadow { target } => {
                assert!(target == NodeId(2) || target == NodeId(3))
            }
            other => panic!("p1 expected a shadow promotion, got {other:?}"),
        }
        // p3: primary N3 (isolated) vs quorum rest → real promotion with a
        // detection + hand-off window and no lag sync.
        match plan[1].action {
            SplitAction::Promote { target, duration } => {
                assert!(target == NodeId(0) || target == NodeId(1));
                assert_eq!(duration, crate::FAILURE_DETECT_US + c.cfg.remaster_delay_us);
            }
            other => panic!("p3 expected a real promotion, got {other:?}"),
        }
    }

    #[test]
    fn heal_plan_covers_divergent_primaries_and_stale_replicas() {
        let mut c = split_cluster();
        // Execute the split-begin plan the way the engine would.
        for d in plan_split_promotions(&c) {
            match d.action {
                SplitAction::Promote { target, .. } => c.split_promote(d.part, target, 2_000),
                SplitAction::Shadow { target } => c.set_shadow(d.part, target),
                SplitAction::Stall => {}
            }
        }
        let heal = plan_heal(&c);
        let step = |p: u32| heal.iter().find(|s| s.part == PartitionId(p));
        // p0 {0,1,2}, quorum rest: N2 went stale across the cut.
        assert_eq!(step(0).unwrap().stale, vec![NodeId(2)]);
        assert_eq!(step(0).unwrap().shadow, None);
        // p1 {1,2,3}, quorum isolated, divergent primary N1: the shadow
        // remaster applies and N1 joins the stale set.
        let s1 = step(1).unwrap();
        assert!(s1.shadow.is_some());
        assert!(s1.stale.contains(&NodeId(1)));
        // p2 {2,3,0}, quorum isolated, served in place: N0 went stale.
        assert_eq!(step(2).unwrap().stale, vec![NodeId(0)]);
        // p3: really promoted mid-window — old primary N3 is now a stale
        // secondary on the wrong side of the (already-adopted) timeline.
        let s3 = step(3).unwrap();
        assert_eq!(s3.shadow, None, "the promotion already happened");
        assert!(s3.stale.contains(&NodeId(3)));
    }

    #[test]
    fn quorum_served_partitions_without_stale_replicas_need_no_step() {
        let cfg = SimConfig {
            nodes: 2,
            partitions_per_node: 1,
            keys_per_partition: 32,
            value_size: 16,
            replication_factor: 1,
            max_replicas: 2,
            ..Default::default()
        };
        let mut c = Cluster::new(cfg);
        c.begin_split(&[NodeId(1)], 500);
        // rf 1: each partition's single holder *is* its quorum side, no
        // secondaries exist to go stale.
        assert!(plan_split_promotions(&c).is_empty());
        assert!(plan_heal(&c).is_empty());
    }
}
