//! The recovery coordinator's decision logic: which surviving replica takes
//! over a dead primary's partition, and what the promotion costs.
//!
//! Promotion is priced exactly as remastering is priced during normal
//! operation (§III): the configured hand-off window plus one microsecond per
//! log entry of replication lag the new primary must sync — on top of the
//! failure-detection delay that a crash (unlike a planned remaster) pays
//! first.

use lion_cluster::{Cluster, LAG_SYNC_US_PER_ENTRY};
use lion_common::{NodeId, PartitionId, SimConfig, Time, ZoneId};

/// Failure-detection delay: virtual time between a node halting and the
/// recovery coordinator acting on it (heartbeat timeout).
pub const FAILURE_DETECT_US: Time = 50_000;

/// Promotion price: failure detection + remaster hand-off + lag sync, the
/// same per-entry rate normal remastering pays.
pub fn price_promotion(cfg: &SimConfig, lag: u64) -> Time {
    FAILURE_DETECT_US + cfg.remaster_delay_us + lag * LAG_SYNC_US_PER_ENTRY
}

/// One surviving replica considered for promotion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromotionCandidate {
    /// Node holding the replica.
    pub node: NodeId,
    /// Highest densely-applied LSN (the replica's durability frontier).
    pub applied_lsn: u64,
    /// True when the replica observed out-of-order entries it could not yet
    /// apply — its applied-epoch prefix has a gap and it must not lead.
    pub has_gap: bool,
}

/// Picks the promotion target among `candidates`: the freshest gap-free
/// replica (highest `applied_lsn`), ties broken toward the lowest node id so
/// the choice is a pure function of the candidate set.
///
/// # Invariant: the dense-prefix `applied_lsn`
///
/// A candidate's `applied_lsn` is trustworthy *only because* the storage
/// layer advances it over a **dense prefix**: a replicated entry arriving
/// out of order parks in a reorder buffer and the frontier stays put until
/// the missing LSN lands (`ReplicaStore::apply_entries` in `lion-storage`).
/// `applied_lsn = n` therefore means "every entry 1..=n applied", never
/// "some entry n seen" — which is exactly what makes "freshest wins" a safe
/// leader-election rule. A replica whose prefix has a hole reports
/// [`PromotionCandidate::has_gap`] and is excluded outright, whatever its
/// frontier says.
///
/// ```
/// use lion_faults::{select_promotion_target, PromotionCandidate};
/// use lion_common::NodeId;
///
/// let candidates = [
///     PromotionCandidate { node: NodeId(2), applied_lsn: 90, has_gap: false },
///     // Highest frontier, but its applied prefix has a hole: ineligible.
///     PromotionCandidate { node: NodeId(3), applied_lsn: 95, has_gap: true },
/// ];
/// assert_eq!(select_promotion_target(&candidates), Some(NodeId(2)));
/// ```
pub fn select_promotion_target(candidates: &[PromotionCandidate]) -> Option<NodeId> {
    select_promotion_target_zoned(candidates, &[], None)
}

/// [`select_promotion_target`] with failure-domain awareness: on *equal*
/// freshness, candidates outside `avoid_zone` (the dead primary's zone) win
/// — if the zone is failing, its surviving members are the likeliest next
/// casualties, and promoting into it invites a mid-promotion re-plan.
/// Freshness still dominates: a fresher in-zone replica beats a staler
/// out-of-zone one (lag, not zone, prices the hand-off). With no zone map
/// (or a single zone) this reduces exactly to the unzoned selection.
pub fn select_promotion_target_zoned(
    candidates: &[PromotionCandidate],
    zone_of: &[ZoneId],
    avoid_zone: Option<ZoneId>,
) -> Option<NodeId> {
    let outside = |n: NodeId| -> u8 {
        match (avoid_zone, zone_of.get(n.idx())) {
            (Some(avoid), Some(&z)) if z == avoid => 0,
            (Some(_), Some(_)) => 1,
            _ => 0, // no zone information: everyone ranks equal
        }
    };
    candidates
        .iter()
        .filter(|c| !c.has_gap)
        .max_by(|a, b| {
            a.applied_lsn
                .cmp(&b.applied_lsn)
                .then_with(|| outside(a.node).cmp(&outside(b.node)))
                // prefer the *lower* node id on equal freshness and zone
                .then_with(|| b.node.cmp(&a.node))
        })
        .map(|c| c.node)
}

/// The coordinator's decision for one orphaned partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverDecision {
    /// The partition whose primary died.
    pub part: PartitionId,
    /// The dead node that held the primary.
    pub dead: NodeId,
    /// Chosen promotion target; `None` when no live gap-free replica exists
    /// and the partition stalls until the node recovers.
    pub target: Option<NodeId>,
    /// Replication lag (log entries) the target must sync before serving.
    pub lag: u64,
    /// Promotion duration on the virtual clock: failure detection + hand-off
    /// window + lag sync. Zero when the partition stalls.
    pub duration: Time,
}

/// Surviving replicas of `part` eligible for promotion, with their
/// durability frontiers read from the [`lion_storage::ReplicaStore`]s.
/// During a split-brain window only replicas on the failed primary's own
/// side qualify — a crash is observed (and its failover planned) by the
/// side that hosted the node, and promoting across the cut would hand the
/// partition to nodes the coordinator cannot even reach.
pub fn promotion_candidates(cluster: &Cluster, part: PartitionId) -> Vec<PromotionCandidate> {
    let side = cluster.side_of(cluster.placement.primary_of(part));
    candidates_on_side(cluster, part, side)
}

/// Replicas of `part` on `side` of the cut eligible to lead it: live,
/// holding a store, listed among the placement's secondaries (every node is
/// on side `0` outside split-brain windows).
pub(crate) fn candidates_on_side(
    cluster: &Cluster,
    part: PartitionId,
    side: u8,
) -> Vec<PromotionCandidate> {
    cluster
        .placement
        .secondaries_of(part)
        .iter()
        .copied()
        .filter(|&n| cluster.is_up(n) && cluster.side_of(n) == side)
        .filter_map(|n| {
            cluster.store(n, part).map(|s| PromotionCandidate {
                node: n,
                applied_lsn: s.applied_lsn,
                has_gap: s.has_gap(),
            })
        })
        .collect()
}

/// Decides the promotion of one `part` whose primary is gone — freshly
/// orphaned, or its promotion target died or was cut off: the freshest
/// gap-free survivor, outside the dead primary's failure domain when an
/// equally fresh one is (correlated-failure hedge; a no-op on one zone), its
/// lag behind the dead primary's head, and the price. The one place a
/// promotion's target, lag and duration are computed.
pub fn plan_promotion(cluster: &Cluster, part: PartitionId) -> FailoverDecision {
    let dead = cluster.placement.primary_of(part);
    let head = cluster.log_head(dead, part);
    let candidates = promotion_candidates(cluster, part);
    let target =
        select_promotion_target_zoned(&candidates, &cluster.zone_of, Some(cluster.zone(dead)));
    let (lag, duration) = match candidates.iter().find(|c| Some(c.node) == target) {
        Some(c) => {
            let lag = head.saturating_sub(c.applied_lsn);
            (lag, price_promotion(&cluster.cfg, lag))
        }
        None => (0, 0),
    };
    FailoverDecision {
        part,
        dead,
        target,
        lag,
        duration,
    }
}

/// Plans the failover of every partition whose primary sits on the (already
/// crashed) node `dead`, in partition order. Pure decision logic: the engine
/// executes decisions by scheduling promotions on the virtual clock.
pub fn plan_failover(cluster: &Cluster, dead: NodeId) -> Vec<FailoverDecision> {
    let parts = cluster.placement.primary_partitions_on(dead);
    parts
        .into_iter()
        .map(|part| plan_promotion(cluster, part))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(node: u16, applied: u64, gap: bool) -> PromotionCandidate {
        PromotionCandidate {
            node: NodeId(node),
            applied_lsn: applied,
            has_gap: gap,
        }
    }

    #[test]
    fn freshest_wins() {
        let c = [cand(2, 5, false), cand(1, 9, false), cand(3, 7, false)];
        assert_eq!(select_promotion_target(&c), Some(NodeId(1)));
    }

    #[test]
    fn ties_break_to_lowest_node_id() {
        let c = [cand(3, 9, false), cand(1, 9, false), cand(2, 9, false)];
        assert_eq!(select_promotion_target(&c), Some(NodeId(1)));
        // order independence
        let mut r = c;
        r.reverse();
        assert_eq!(select_promotion_target(&r), Some(NodeId(1)));
    }

    #[test]
    fn zoned_selection_prefers_surviving_zones_on_ties() {
        use lion_common::ZoneId;
        let zones = [ZoneId(0), ZoneId(0), ZoneId(1), ZoneId(1)];
        // Equal freshness: N1 shares the dead primary N0's zone, N2 does
        // not — N2 wins despite the higher id.
        let c = [cand(1, 9, false), cand(2, 9, false)];
        assert_eq!(
            select_promotion_target_zoned(&c, &zones, Some(ZoneId(0))),
            Some(NodeId(2))
        );
        // Freshness still dominates the zone preference.
        let c = [cand(1, 10, false), cand(2, 9, false)];
        assert_eq!(
            select_promotion_target_zoned(&c, &zones, Some(ZoneId(0))),
            Some(NodeId(1))
        );
        // No zone info: identical to the unzoned selection.
        let c = [cand(3, 9, false), cand(1, 9, false)];
        assert_eq!(
            select_promotion_target_zoned(&c, &[], None),
            select_promotion_target(&c)
        );
    }

    #[test]
    fn gapped_replicas_never_lead() {
        let c = [cand(1, 100, true), cand(2, 3, false)];
        assert_eq!(select_promotion_target(&c), Some(NodeId(2)));
        let all_gapped = [cand(1, 100, true), cand(2, 50, true)];
        assert_eq!(select_promotion_target(&all_gapped), None);
        assert_eq!(select_promotion_target(&[]), None);
    }

    #[test]
    fn plan_failover_covers_every_orphaned_partition() {
        use lion_common::SimConfig;
        let cfg = SimConfig {
            nodes: 3,
            partitions_per_node: 2,
            keys_per_partition: 32,
            value_size: 16,
            replication_factor: 2,
            ..Default::default()
        };
        let mut cluster = Cluster::new(cfg);
        let dead = NodeId(0);
        cluster.crash_node(dead, 1_000);
        let decisions = plan_failover(&cluster, dead);
        // round-robin over 3 nodes: P0 and P3 are primaried on N0
        assert_eq!(decisions.len(), 2);
        for d in &decisions {
            assert_eq!(d.dead, dead);
            let t = d.target.expect("replication factor 2 leaves a secondary");
            assert!(cluster.is_up(t));
            assert!(d.duration >= FAILURE_DETECT_US + cluster.cfg.remaster_delay_us);
        }
    }
}
