//! Replica placement map.
//!
//! [`Placement`] records, for every partition, which node hosts the primary
//! replica and which nodes host secondaries (paper §II-A: `Np(v, p)` and
//! `Ns(v, p)`). It is the single structure the router scores against, the
//! planner rewrites, and the adaptor mutates — so its invariants are enforced
//! here and property-tested.
//!
//! Invariants:
//! * every partition has exactly one primary;
//! * a node holds at most one replica of a given partition;
//! * all referenced nodes exist.

use crate::ids::{NodeId, PartitionId, ZoneId};
use crate::Time;
use std::fmt;

/// One completed failover promotion — the placement's primary of `part`
/// moved off a dead node — as the cluster reports it and the run metrics
/// log it, for the replication-log replay checks and the recovery analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverRecord {
    /// The partition that failed over.
    pub part: PartitionId,
    /// Dead node that held the primary.
    pub from: NodeId,
    /// Surviving node promoted to primary.
    pub to: NodeId,
    /// Everything the dead primary logged (its durability frontier).
    pub dead_head: u64,
    /// The head the new primary adopted. Equal to `dead_head` when no
    /// committed write was lost.
    pub promoted_head: u64,
    /// Replication lag (entries) the promotion had to sync.
    pub lag: u64,
    /// Crash time.
    pub crashed_at: Time,
    /// Promotion completion time.
    pub completed_at: Time,
}

/// How the planner and adaptor trade access locality against blast radius
/// when choosing replica holders.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Pure Algorithm 1: replicas go wherever `f(v, n)` is cheapest, with no
    /// regard for failure domains. A single rack loss can take out every
    /// replica of a partition.
    #[default]
    LocalityFirst,
    /// Anti-affinity: every partition's replica set must span at least
    /// `min_zones` failure domains. Placement still optimizes `f(v, n)`
    /// within that constraint, paying a measurable locality cost (figf2).
    RackSafe {
        /// Minimum number of distinct zones each partition's replicas cover.
        min_zones: usize,
    },
}

impl PlacementPolicy {
    /// The zone-coverage floor this policy demands (1 = unconstrained).
    pub fn min_zones(&self) -> usize {
        match self {
            PlacementPolicy::LocalityFirst => 1,
            PlacementPolicy::RackSafe { min_zones } => (*min_zones).max(1),
        }
    }

    /// True when the policy actually constrains placement.
    pub fn is_rack_safe(&self) -> bool {
        self.min_zones() > 1
    }
}

/// Errors returned by placement mutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementError {
    /// The target node already holds a replica of the partition.
    AlreadyHosted { part: PartitionId, node: NodeId },
    /// The target node holds no replica of the partition.
    NoReplica { part: PartitionId, node: NodeId },
    /// Attempted to remove the primary replica via `remove_secondary`.
    IsPrimary { part: PartitionId, node: NodeId },
    /// Node id out of range.
    UnknownNode(NodeId),
    /// Partition id out of range.
    UnknownPartition(PartitionId),
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::AlreadyHosted { part, node } => {
                write!(f, "{node} already hosts a replica of {part}")
            }
            PlacementError::NoReplica { part, node } => {
                write!(f, "{node} holds no replica of {part}")
            }
            PlacementError::IsPrimary { part, node } => {
                write!(f, "{node} holds the primary of {part}; remaster first")
            }
            PlacementError::UnknownNode(n) => write!(f, "unknown node {n}"),
            PlacementError::UnknownPartition(p) => write!(f, "unknown partition {p}"),
        }
    }
}

impl std::error::Error for PlacementError {}

/// Which nodes host each partition's replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    n_nodes: usize,
    primary: Vec<NodeId>,
    secondaries: Vec<Vec<NodeId>>,
}

impl Placement {
    /// Builds the paper's default layout: primaries round-robin across nodes,
    /// and `replication_factor - 1` secondaries on the following nodes
    /// (§II-C: "a minimum of k replicas, distributed in a default round-robin
    /// fashion").
    pub fn round_robin(n_partitions: usize, n_nodes: usize, replication_factor: usize) -> Self {
        assert!(n_nodes > 0, "cluster needs at least one node");
        assert!(replication_factor >= 1, "need at least the primary replica");
        assert!(
            replication_factor <= n_nodes,
            "replication factor {replication_factor} exceeds node count {n_nodes}"
        );
        // One zone asks nothing of the spread: its ring-order fill is the
        // round-robin.
        Self::zone_spread(
            n_partitions,
            n_nodes,
            replication_factor,
            &vec![ZoneId(0); n_nodes],
            1,
        )
    }

    /// Builds the zone-safe variant of the default layout: primaries still
    /// round-robin across nodes (locality and balance are untouched), but
    /// each partition's secondaries are chosen so the replica set spans at
    /// least `min_zones` failure domains — walking the nodes after the
    /// primary in ring order, taking nodes in not-yet-covered zones first,
    /// then filling the remaining replica slots in plain ring order.
    pub fn zone_spread(
        n_partitions: usize,
        n_nodes: usize,
        replication_factor: usize,
        zone_of: &[ZoneId],
        min_zones: usize,
    ) -> Self {
        assert_eq!(zone_of.len(), n_nodes, "one zone per node");
        assert!(replication_factor >= 1 && replication_factor <= n_nodes);
        let n_zones = zone_of.iter().map(|z| z.idx() + 1).max().unwrap_or(1);
        assert!(
            min_zones <= n_zones.min(replication_factor),
            "cannot spread {replication_factor} replicas across {min_zones} of {n_zones} zones"
        );
        let mut primary = Vec::with_capacity(n_partitions);
        let mut secondaries = Vec::with_capacity(n_partitions);
        for p in 0..n_partitions {
            let home = p % n_nodes;
            primary.push(NodeId(home as u16));
            let mut covered = vec![false; n_zones];
            covered[zone_of[home].idx()] = true;
            let mut n_covered = 1usize;
            let mut secs: Vec<NodeId> = Vec::with_capacity(replication_factor - 1);
            // First pass: cross-zone picks until the coverage floor holds.
            for j in 1..n_nodes {
                if secs.len() + 1 >= replication_factor || n_covered >= min_zones {
                    break;
                }
                let cand = (home + j) % n_nodes;
                if !covered[zone_of[cand].idx()] {
                    covered[zone_of[cand].idx()] = true;
                    n_covered += 1;
                    secs.push(NodeId(cand as u16));
                }
            }
            // Second pass: fill the remaining slots in ring order.
            for j in 1..n_nodes {
                if secs.len() + 1 >= replication_factor {
                    break;
                }
                let cand = NodeId(((home + j) % n_nodes) as u16);
                if !secs.contains(&cand) {
                    secs.push(cand);
                }
            }
            secondaries.push(secs);
        }
        Placement {
            n_nodes,
            primary,
            secondaries,
        }
    }

    /// Number of partitions tracked.
    pub fn n_partitions(&self) -> usize {
        self.primary.len()
    }

    /// Number of nodes in the cluster.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Node hosting the primary replica of `part` (paper: `Np(v, p)`).
    #[inline]
    pub fn primary_of(&self, part: PartitionId) -> NodeId {
        self.primary[part.idx()]
    }

    /// Nodes hosting secondary replicas of `part` (paper: `Ns(v, p)`).
    #[inline]
    pub fn secondaries_of(&self, part: PartitionId) -> &[NodeId] {
        &self.secondaries[part.idx()]
    }

    /// True when `node` hosts the primary replica of `part`.
    #[inline]
    pub fn is_primary(&self, part: PartitionId, node: NodeId) -> bool {
        self.primary_of(part) == node
    }

    /// True when `node` hosts a secondary replica of `part`.
    #[inline]
    pub fn has_secondary(&self, part: PartitionId, node: NodeId) -> bool {
        self.secondaries[part.idx()].contains(&node)
    }

    /// True when `node` hosts any replica of `part`.
    #[inline]
    pub fn has_replica(&self, part: PartitionId, node: NodeId) -> bool {
        self.is_primary(part, node) || self.has_secondary(part, node)
    }

    /// Total replicas (primary + secondaries) of `part`.
    pub fn replica_count(&self, part: PartitionId) -> usize {
        1 + self.secondaries[part.idx()].len()
    }

    /// All nodes holding a replica of `part`, primary first.
    pub fn replica_nodes(&self, part: PartitionId) -> Vec<NodeId> {
        let mut v = Vec::with_capacity(self.replica_count(part));
        v.push(self.primary_of(part));
        v.extend_from_slice(self.secondaries_of(part));
        v
    }

    /// Number of distinct failure domains covered by `part`'s replica set
    /// under the given node→zone map (the anti-affinity metric).
    pub fn zone_coverage(&self, part: PartitionId, zone_of: &[ZoneId]) -> usize {
        self.coverage_excluding(part, None, zone_of)
    }

    /// Distinct failure domains covered by `part`'s replicas *excluding*
    /// `without` — used to check whether evicting a replica would collapse
    /// the partition's zone spread.
    pub fn zone_coverage_without(
        &self,
        part: PartitionId,
        without: NodeId,
        zone_of: &[ZoneId],
    ) -> usize {
        self.coverage_excluding(part, Some(without), zone_of)
    }

    fn coverage_excluding(
        &self,
        part: PartitionId,
        without: Option<NodeId>,
        zone_of: &[ZoneId],
    ) -> usize {
        let mut zones: Vec<ZoneId> = self
            .replica_nodes(part)
            .into_iter()
            .filter(|&n| Some(n) != without)
            .map(|n| zone_of[n.idx()])
            .collect();
        zones.sort_unstable();
        zones.dedup();
        zones.len()
    }

    /// The split-brain quorum rule, stated once: with a cut sorting the
    /// nodes into sides `0` and `1`, the side whose *live* holders of `part`
    /// form a strict majority of its **full** replica set. `None` when
    /// neither side does — no side could fence the other.
    pub fn quorum_side(
        &self,
        part: PartitionId,
        is_live: impl Fn(NodeId) -> bool,
        side_of: impl Fn(NodeId) -> u8,
    ) -> Option<u8> {
        let holders = self.replica_nodes(part);
        let mut live = [0usize; 2];
        for &h in &holders {
            if is_live(h) {
                live[usize::from(side_of(h))] += 1;
            }
        }
        (0..2u8).find(|&side| live[usize::from(side)] * 2 > holders.len())
    }

    /// Number of primary replicas hosted on `node`.
    pub fn primaries_on(&self, node: NodeId) -> usize {
        self.primary.iter().filter(|&&n| n == node).count()
    }

    /// Partitions whose primary is hosted on `node`.
    pub fn primary_partitions_on(&self, node: NodeId) -> Vec<PartitionId> {
        self.primary
            .iter()
            .enumerate()
            .filter(|(_, &n)| n == node)
            .map(|(i, _)| PartitionId(i as u32))
            .collect()
    }

    /// Promotes the secondary replica on `node` to primary; the previous
    /// primary is demoted to a secondary (the paper's lightweight
    /// *remastering*, §III). No data moves: both nodes already hold replicas.
    pub fn remaster(&mut self, part: PartitionId, node: NodeId) -> Result<(), PlacementError> {
        self.check(part, node)?;
        if self.is_primary(part, node) {
            return Ok(()); // idempotent: already primary
        }
        let secs = &mut self.secondaries[part.idx()];
        let pos = secs
            .iter()
            .position(|&n| n == node)
            .ok_or(PlacementError::NoReplica { part, node })?;
        let old_primary = self.primary[part.idx()];
        secs[pos] = old_primary;
        self.primary[part.idx()] = node;
        Ok(())
    }

    /// Registers a new secondary replica of `part` on `node` (the adaptor's
    /// `AddRepReqHandler`, §V). The caller is responsible for data copy
    /// timing; this only mutates the map.
    pub fn add_secondary(&mut self, part: PartitionId, node: NodeId) -> Result<(), PlacementError> {
        self.check(part, node)?;
        if self.has_replica(part, node) {
            return Err(PlacementError::AlreadyHosted { part, node });
        }
        self.secondaries[part.idx()].push(node);
        Ok(())
    }

    /// Drops the secondary replica of `part` on `node` (replica-limit
    /// eviction, §IV-B.2). Refuses to drop the primary.
    pub fn remove_secondary(
        &mut self,
        part: PartitionId,
        node: NodeId,
    ) -> Result<(), PlacementError> {
        self.check(part, node)?;
        if self.is_primary(part, node) {
            return Err(PlacementError::IsPrimary { part, node });
        }
        let secs = &mut self.secondaries[part.idx()];
        let pos = secs
            .iter()
            .position(|&n| n == node)
            .ok_or(PlacementError::NoReplica { part, node })?;
        secs.swap_remove(pos);
        Ok(())
    }

    /// Moves the primary of `part` to `node` even when `node` holds no
    /// replica (full data *migration*, the expensive path of §IV-B.1 Case 3).
    /// The old primary's replica is dropped, matching a move rather than a
    /// copy.
    pub fn migrate_primary(
        &mut self,
        part: PartitionId,
        node: NodeId,
    ) -> Result<(), PlacementError> {
        self.check(part, node)?;
        if self.is_primary(part, node) {
            return Ok(());
        }
        if self.has_secondary(part, node) {
            // Equivalent to a remaster followed by dropping the old primary's
            // copy; keep the copy (cheaper and strictly more available).
            return self.remaster(part, node);
        }
        self.primary[part.idx()] = node;
        Ok(())
    }

    /// Checks all structural invariants; used by tests and debug assertions.
    pub fn validate(&self) -> Result<(), PlacementError> {
        for (i, &p) in self.primary.iter().enumerate() {
            let part = PartitionId(i as u32);
            if p.idx() >= self.n_nodes {
                return Err(PlacementError::UnknownNode(p));
            }
            let secs = &self.secondaries[i];
            for &s in secs {
                if s.idx() >= self.n_nodes {
                    return Err(PlacementError::UnknownNode(s));
                }
                if s == p {
                    return Err(PlacementError::AlreadyHosted { part, node: s });
                }
            }
            let mut sorted: Vec<NodeId> = secs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() != secs.len() {
                return Err(PlacementError::AlreadyHosted { part, node: p });
            }
        }
        Ok(())
    }

    fn check(&self, part: PartitionId, node: NodeId) -> Result<(), PlacementError> {
        if part.idx() >= self.primary.len() {
            return Err(PlacementError::UnknownPartition(part));
        }
        if node.idx() >= self.n_nodes {
            return Err(PlacementError::UnknownNode(node));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PartitionId {
        PartitionId(i)
    }
    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn round_robin_spreads_primaries() {
        let pl = Placement::round_robin(8, 4, 2);
        assert_eq!(pl.primary_of(p(0)), n(0));
        assert_eq!(pl.primary_of(p(5)), n(1));
        assert_eq!(pl.secondaries_of(p(0)), &[n(1)]);
        assert_eq!(pl.secondaries_of(p(3)), &[n(0)]);
        for node in 0..4 {
            assert_eq!(pl.primaries_on(n(node)), 2);
        }
        pl.validate().unwrap();
    }

    #[test]
    fn remaster_swaps_roles_without_changing_replica_set() {
        let mut pl = Placement::round_robin(4, 4, 2);
        let before: Vec<NodeId> = {
            let mut v = pl.replica_nodes(p(0));
            v.sort_unstable();
            v
        };
        pl.remaster(p(0), n(1)).unwrap();
        assert_eq!(pl.primary_of(p(0)), n(1));
        assert!(pl.has_secondary(p(0), n(0)));
        let after: Vec<NodeId> = {
            let mut v = pl.replica_nodes(p(0));
            v.sort_unstable();
            v
        };
        assert_eq!(before, after, "remastering must not move data");
        pl.validate().unwrap();
    }

    #[test]
    fn remaster_requires_replica() {
        let mut pl = Placement::round_robin(4, 4, 2);
        assert_eq!(
            pl.remaster(p(0), n(3)),
            Err(PlacementError::NoReplica {
                part: p(0),
                node: n(3)
            })
        );
    }

    #[test]
    fn remaster_is_idempotent_on_primary() {
        let mut pl = Placement::round_robin(4, 4, 2);
        pl.remaster(p(0), n(0)).unwrap();
        assert_eq!(pl.primary_of(p(0)), n(0));
    }

    #[test]
    fn add_and_remove_secondary() {
        let mut pl = Placement::round_robin(4, 4, 2);
        pl.add_secondary(p(0), n(2)).unwrap();
        assert_eq!(pl.replica_count(p(0)), 3);
        assert!(pl.has_secondary(p(0), n(2)));
        assert_eq!(
            pl.add_secondary(p(0), n(2)),
            Err(PlacementError::AlreadyHosted {
                part: p(0),
                node: n(2)
            })
        );
        pl.remove_secondary(p(0), n(2)).unwrap();
        assert_eq!(pl.replica_count(p(0)), 2);
        assert_eq!(
            pl.remove_secondary(p(0), n(0)),
            Err(PlacementError::IsPrimary {
                part: p(0),
                node: n(0)
            })
        );
        pl.validate().unwrap();
    }

    #[test]
    fn migrate_to_fresh_node_moves_primary() {
        let mut pl = Placement::round_robin(4, 4, 2);
        pl.migrate_primary(p(0), n(3)).unwrap();
        assert_eq!(pl.primary_of(p(0)), n(3));
        // secondary on n(1) untouched
        assert!(pl.has_secondary(p(0), n(1)));
        pl.validate().unwrap();
    }

    #[test]
    fn migrate_prefers_remaster_when_replica_exists() {
        let mut pl = Placement::round_robin(4, 4, 2);
        pl.migrate_primary(p(0), n(1)).unwrap();
        assert_eq!(pl.primary_of(p(0)), n(1));
        assert!(
            pl.has_secondary(p(0), n(0)),
            "old primary kept as secondary"
        );
    }

    #[test]
    fn bounds_are_checked() {
        let mut pl = Placement::round_robin(2, 2, 1);
        assert_eq!(
            pl.add_secondary(p(9), n(0)),
            Err(PlacementError::UnknownPartition(p(9)))
        );
        assert_eq!(
            pl.add_secondary(p(0), n(9)),
            Err(PlacementError::UnknownNode(n(9)))
        );
    }

    #[test]
    fn quorum_side_is_a_strict_majority_of_the_full_replica_set() {
        // round_robin(4, 4, 3): holders of p_i = {i, i+1, i+2 mod 4}; the
        // cut isolates {N2, N3}.
        let pl = Placement::round_robin(4, 4, 3);
        let side = |h: NodeId| u8::from(h.0 >= 2);
        let all_up = |_: NodeId| true;
        assert_eq!(pl.quorum_side(p(0), all_up, side), Some(0), "{{0,1,2}}");
        assert_eq!(pl.quorum_side(p(1), all_up, side), Some(1), "{{1,2,3}}");
        assert_eq!(pl.quorum_side(p(2), all_up, side), Some(1), "{{2,3,0}}");
        assert_eq!(pl.quorum_side(p(3), all_up, side), Some(0), "{{3,0,1}}");
        // N1 dead: p0's live holders split 1/1 — one of three is no majority
        // on either side — while p1 keeps {N2, N3} on the isolated side.
        let n1_dead = |h: NodeId| h != n(1);
        assert_eq!(pl.quorum_side(p(0), n1_dead, side), None);
        assert_eq!(pl.quorum_side(p(1), n1_dead, side), Some(1));
    }

    #[test]
    #[should_panic(expected = "replication factor")]
    fn replication_factor_cannot_exceed_nodes() {
        let _ = Placement::round_robin(2, 2, 3);
    }

    fn z(i: u16) -> ZoneId {
        ZoneId(i)
    }

    #[test]
    fn zone_spread_covers_min_zones() {
        // 4 nodes in 2 contiguous racks: N0,N1 in Z0; N2,N3 in Z1. Plain
        // round-robin with rf=2 puts P0 on {N0,N1} — both in Z0; the
        // zone-safe layout must never do that.
        let zones = [z(0), z(0), z(1), z(1)];
        let rr = Placement::round_robin(8, 4, 2);
        assert_eq!(
            rr.zone_coverage(p(0), &zones),
            1,
            "locality-first co-locates P0's replicas in one rack"
        );
        let safe = Placement::zone_spread(8, 4, 2, &zones, 2);
        safe.validate().unwrap();
        for i in 0..8 {
            assert!(
                safe.zone_coverage(p(i), &zones) >= 2,
                "P{i} replicas collapse into one zone"
            );
            // primaries stay on the round-robin home: locality preserved
            assert_eq!(safe.primary_of(p(i)), rr.primary_of(p(i)));
        }
    }

    #[test]
    fn zone_spread_single_zone_matches_round_robin() {
        let zones = [z(0); 3];
        let a = Placement::zone_spread(6, 3, 2, &zones, 1);
        let b = Placement::round_robin(6, 3, 2);
        assert_eq!(a, b, "one zone: no constraint, identical layout");
    }

    #[test]
    fn zone_coverage_without_detects_collapse() {
        let zones = [z(0), z(0), z(1)];
        let mut pl = Placement::round_robin(1, 3, 1);
        pl.add_secondary(p(0), n(1)).unwrap();
        pl.add_secondary(p(0), n(2)).unwrap();
        assert_eq!(pl.zone_coverage(p(0), &zones), 2);
        // dropping N2 (the only Z1 holder) collapses coverage to 1
        assert_eq!(pl.zone_coverage_without(p(0), n(2), &zones), 1);
        assert_eq!(pl.zone_coverage_without(p(0), n(1), &zones), 2);
    }

    #[test]
    #[should_panic(expected = "cannot spread")]
    fn zone_spread_rejects_impossible_floor() {
        let zones = [z(0), z(0)];
        let _ = Placement::zone_spread(2, 2, 2, &zones, 2);
    }

    #[test]
    fn placement_policy_floors() {
        assert_eq!(PlacementPolicy::LocalityFirst.min_zones(), 1);
        assert!(!PlacementPolicy::LocalityFirst.is_rack_safe());
        let rs = PlacementPolicy::RackSafe { min_zones: 2 };
        assert_eq!(rs.min_zones(), 2);
        assert!(rs.is_rack_safe());
        assert_eq!(PlacementPolicy::default(), PlacementPolicy::LocalityFirst);
    }
}
