//! Algorithm 1: the replica rearrangement algorithm (§IV-B.3).
//!
//! Two steps, exactly as the paper structures them:
//!
//! 1. **Clump dispatching** — `FindDstNode` assigns every clump to the node
//!    with the lowest Eq. 3 cost, memoizing interim costs in `mc` and
//!    tracking per-node balance factors `b`;
//! 2. **Load fine-tuning** — while some node is over θ, one clump moves from
//!    an overloaded node (`oN`) to an idle one (`iN`), and `FindOINodes`
//!    re-reads the loads before the next move. `PickClump` takes the
//!    paper's largest clump within the gap to the average; when none fits
//!    (clumps coarser than the gap), the smallest clump that leaves its
//!    destination below the source's old load. The destination is the
//!    cheapest such idle node by the memoized cost. Every move lowers
//!    Σ load², so the peak never rises and no clump ping-pongs.

use crate::clump::Clump;
use crate::cost::{operational_cost, W_M};
use lion_common::{NodeId, PartitionId, Placement, PlacementPolicy, ZoneId};

/// Planner tuning knobs (§IV defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerConfig {
    /// Clump co-access threshold α (§IV-A).
    pub alpha: f64,
    /// Cross-node edge boost for the heat graph (e_c vs e_s, §IV-A).
    pub cross_edge_boost: f64,
    /// Permissible load imbalance ε; θ = avg·(1+ε) (§II-C).
    pub epsilon: f64,
    /// Number of recent transactions analyzed per planning round (B).
    pub history_cap: usize,
    /// Safety cap on clump size (see [`crate::clump::generate_clumps`]).
    pub max_clump_size: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            alpha: 2.0,
            cross_edge_boost: 4.0,
            // Standard execution pays for a hot node only on the
            // transactions routed to it, so it accepts 5 vs 4 pairs per
            // node (1.25×); batch Lion, which waits on its slowest node
            // every batch, holds 0.2 (`LionConfig::lion`).
            epsilon: 0.4,
            history_cap: 4_000,
            max_clump_size: 24,
        }
    }
}

/// How the adaptor realizes moving one partition to its destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanAction {
    /// Target holds a secondary: promote it (cheap, §IV-B.1 case 2).
    Remaster,
    /// Target holds nothing: background-copy a replica, then remaster once
    /// the copy lands (Lion's non-intrusive path).
    AddReplica,
    /// Target holds nothing and the protocol is replica-oblivious: blocking
    /// full-data migration (Schism/Clay-style, §IV-B.1 case 3).
    Migrate,
    /// Background-copy a secondary *without* remastering: the anti-affinity
    /// repair of `PlacementPolicy::RackSafe` — the primary stays where
    /// locality wants it, the copy restores cross-zone coverage.
    AddSecondary,
}

/// One partition move of a reconfiguration plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanEntry {
    /// Partition to move.
    pub part: PartitionId,
    /// Destination node.
    pub dest: NodeId,
    /// Mechanism.
    pub action: PlanAction,
}

/// The `RP` structure of §IV-B.1: clump→node assignments plus the per-
/// partition actions realizing them.
#[derive(Debug, Clone, Default)]
pub struct ReconfigurationPlan {
    /// Partition-level actions to hand the adaptors.
    pub entries: Vec<PlanEntry>,
    /// Final clump→node mapping (the router affinity table).
    pub assignments: Vec<(Vec<PartitionId>, NodeId)>,
    /// Total Eq. 3 cost of the plan (Eq. 2's objective value).
    pub total_cost: f64,
    /// Algorithm 1's final clump weight per node (empty for a Schism plan).
    pub load: Vec<f64>,
}

impl ReconfigurationPlan {
    /// Destination lookup per partition (None when unassigned this round).
    pub fn dest_of(&self, part: PartitionId) -> Option<NodeId> {
        self.assignments
            .iter()
            .find(|(parts, _)| parts.contains(&part))
            .map(|&(_, n)| n)
    }

    /// Applies the plan's effect to a placement (used by tests and by the
    /// dry-run invariant property tests; the engine applies it with timing).
    /// Returns how many entries the placement refused — zero for a plan
    /// computed against that placement.
    pub fn apply_to(&self, placement: &mut Placement) -> usize {
        let mut refused = 0;
        for e in &self.entries {
            let applied = match e.action {
                PlanAction::Remaster => placement.remaster(e.part, e.dest),
                PlanAction::AddReplica => placement
                    .add_secondary(e.part, e.dest)
                    .and_then(|()| placement.remaster(e.part, e.dest)),
                PlanAction::Migrate => placement.migrate_primary(e.part, e.dest),
                PlanAction::AddSecondary => placement.add_secondary(e.part, e.dest),
            };
            refused += usize::from(applied.is_err());
        }
        refused
    }
}

/// Per-node balance state for the fine-tuning phase. Dead nodes (fault
/// injection) are excluded from averages and from both the overloaded and
/// idle candidate lists, so plans never route load at a crashed executor.
struct Balance {
    load: Vec<f64>,
    live: Vec<bool>,
    total: f64,
}

impl Balance {
    fn new(live: Vec<bool>) -> Self {
        Balance {
            load: vec![0.0; live.len()],
            live,
            total: 0.0,
        }
    }
    fn add(&mut self, node: NodeId, w: f64) {
        self.load[node.idx()] += w;
        self.total += w;
    }
    fn transfer(&mut self, from: NodeId, to: NodeId, w: f64) {
        self.load[from.idx()] -= w;
        self.load[to.idx()] += w;
    }
    fn live_count(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }
    fn avg(&self) -> f64 {
        self.total / self.live_count().max(1) as f64
    }
    /// `FindOINodes`: overloaded (> θ) and idle (< avg) live nodes; the
    /// plan is balanced (`CheckBalance`) when none is overloaded.
    fn overloaded_and_idle(&self, epsilon: f64) -> (Vec<NodeId>, Vec<NodeId>) {
        let avg = self.avg();
        let theta = avg * (1.0 + epsilon);
        let mut over: Vec<NodeId> = Vec::new();
        let mut idle: Vec<NodeId> = Vec::new();
        for (i, &l) in self.load.iter().enumerate() {
            if !self.live[i] {
                continue;
            }
            if l > theta + 1e-9 {
                over.push(NodeId(i as u16));
            } else if l < avg - 1e-9 {
                idle.push(NodeId(i as u16));
            }
        }
        // Most overloaded first.
        over.sort_by(|a, b| {
            self.load[b.idx()]
                .partial_cmp(&self.load[a.idx()])
                .expect("finite")
        });
        (over, idle)
    }
}

/// `FindDstNode`: evaluates Eq. 3 across all nodes, memoizes the row into
/// `mc`, and returns the cheapest node (ties broken toward the currently
/// least-loaded node, then the lower id, for determinism).
fn find_dst_node(
    clump: &Clump,
    placement: &Placement,
    freq: &[f64],
    balance: &Balance,
    mc_row: &mut Vec<f64>,
) -> NodeId {
    let n_nodes = placement.n_nodes();
    mc_row.clear();
    mc_row.reserve(n_nodes);
    let mut best = NodeId(0);
    let mut best_cost = f64::INFINITY;
    for n in 0..n_nodes as u16 {
        let node = NodeId(n);
        if !balance.live[node.idx()] {
            // A dead node can neither host primaries nor receive copies.
            mc_row.push(f64::INFINITY);
            continue;
        }
        let (_, cost) = operational_cost(placement, freq, &clump.parts, node);
        mc_row.push(cost);
        let better = cost < best_cost - 1e-12
            || (cost < best_cost + 1e-12
                && balance.load[node.idx()] < balance.load[best.idx()] - 1e-12);
        if better {
            best = node;
            best_cost = cost;
        }
    }
    best
}

/// `PickClump` on the overloaded node `on`, whose clumps are `owned`: the
/// largest clump within the gap to the average, else the smallest clump
/// some idle node can take while ending below `on`'s load. Returns the
/// move: the clump, `on`, and the cheapest such idle destination by the
/// memoized cost row.
fn pick_clump(
    on: NodeId,
    owned: &[usize],
    clumps: &[Clump],
    mc: &[Vec<f64>],
    balance: &Balance,
    idle: &[NodeId],
) -> Option<(usize, NodeId, NodeId)> {
    let from = balance.load[on.idx()];
    let gap = from - balance.avg();
    let dest_for = |idx: usize| {
        idle.iter()
            .copied()
            .filter(|d| balance.load[d.idx()] + clumps[idx].weight < from)
            .min_by(|a, b| mc[idx][a.idx()].total_cmp(&mc[idx][b.idx()]))
            .map(|dest| (idx, on, dest))
    };
    let mut by_weight = owned.to_vec();
    by_weight.sort_by(|&a, &b| clumps[b].weight.total_cmp(&clumps[a].weight));
    by_weight
        .iter()
        .filter(|&&idx| clumps[idx].weight <= gap + 1e-9)
        .find_map(|&idx| dest_for(idx))
        .or_else(|| by_weight.iter().rev().find_map(|&idx| dest_for(idx)))
}

/// Runs Algorithm 1 over the generated clumps.
///
/// `replica_aware` selects the emitted action for partitions lacking a
/// replica at the destination: `AddReplica` (Lion) or `Migrate`
/// (replica-oblivious baselines / ablations).
pub fn rearrange(
    clumps: Vec<Clump>,
    placement: &Placement,
    freq: &[f64],
    cfg: &PlannerConfig,
    replica_aware: bool,
) -> ReconfigurationPlan {
    let live = vec![true; placement.n_nodes()];
    let zone_of = vec![ZoneId(0); placement.n_nodes()];
    rearrange_with_topology(
        clumps,
        placement,
        freq,
        cfg,
        replica_aware,
        &live,
        &zone_of,
        PlacementPolicy::LocalityFirst,
    )
}

/// [`rearrange`] with a node-liveness mask — dead nodes (fault injection)
/// receive no clumps, no replicas, and are ignored by the load balancer —
/// and with failure-domain awareness: under [`PlacementPolicy::RackSafe`]
/// the emitted plan additionally repairs any planned partition whose replica
/// set would span fewer than `min_zones` zones, appending
/// [`PlanAction::AddSecondary`] copies onto the least-loaded live node of an
/// uncovered zone. With every node live, locality-first policies (and
/// single-zone clusters) produce byte-identical plans to [`rearrange`].
// Algorithm 1's signature *is* the planning contract (workload, topology,
// policy, liveness); bundling the slices into a context struct would only
// rename the parameters.
#[allow(clippy::too_many_arguments)]
pub fn rearrange_with_topology(
    mut clumps: Vec<Clump>,
    placement: &Placement,
    freq: &[f64],
    cfg: &PlannerConfig,
    replica_aware: bool,
    live: &[bool],
    zone_of: &[ZoneId],
    policy: PlacementPolicy,
) -> ReconfigurationPlan {
    let n_nodes = placement.n_nodes();
    debug_assert_eq!(live.len(), n_nodes);
    let mut balance = Balance::new(live.to_vec());
    let mut mc: Vec<Vec<f64>> = vec![Vec::new(); clumps.len()];
    // Per-node clump index lists (the priority queues `q`), ordered by
    // weight at pick time.
    let mut q: Vec<Vec<usize>> = vec![Vec::new(); n_nodes];

    // ---- Step 1: clump dispatching --------------------------------------
    for (i, clump) in clumps.iter_mut().enumerate() {
        let dst = find_dst_node(clump, placement, freq, &balance, &mut mc[i]);
        clump.dest = Some(dst);
        balance.add(dst, clump.weight);
        q[dst.idx()].push(i);
    }

    // ---- Step 2: load fine-tuning ---------------------------------------
    // One move per `FindOINodes`, most overloaded source first. Each move
    // lowers Σ load², so this terminates; the budget only bounds the work.
    let mut moves_left = clumps.len().saturating_mul(2).max(16);
    while moves_left > 0 {
        let (over, idle) = balance.overloaded_and_idle(cfg.epsilon);
        let picked = (over.iter())
            .find_map(|&on| pick_clump(on, &q[on.idx()], &clumps, &mc, &balance, &idle));
        let Some((idx, on, dest)) = picked else {
            break; // balanced, or no move would help
        };
        clumps[idx].dest = Some(dest);
        balance.transfer(on, dest, clumps[idx].weight);
        q[on.idx()].retain(|&i| i != idx);
        q[dest.idx()].push(idx);
        moves_left -= 1;
    }

    // ---- Emit the plan ---------------------------------------------------
    let mut plan = ReconfigurationPlan::default();
    for (i, clump) in clumps.iter().enumerate() {
        let dest = clump.dest.expect("dispatching assigned every clump");
        plan.total_cost += mc[i][dest.idx()];
        plan.assignments.push((clump.parts.clone(), dest));
        for &part in &clump.parts {
            if placement.is_primary(part, dest) {
                continue; // case 1: free
            }
            let action = if placement.has_secondary(part, dest) {
                PlanAction::Remaster
            } else if replica_aware {
                PlanAction::AddReplica
            } else {
                PlanAction::Migrate
            };
            plan.entries.push(PlanEntry { part, dest, action });
        }
    }

    // ---- Anti-affinity repair (RackSafe only) ----------------------------
    // Every planned partition's *post-plan* replica set must span at least
    // `min_zones` failure domains. Remastering never changes the set; an
    // AddReplica adds the destination. Anything still under the floor gets a
    // background copy onto the least-loaded live node of an uncovered zone —
    // priced like a copy (w_m) so the locality-vs-availability trade shows
    // up in the plan cost.
    let min_zones = policy.min_zones();
    if min_zones > 1 {
        debug_assert_eq!(zone_of.len(), placement.n_nodes());
        let n_zones = zone_of.iter().map(|z| z.idx() + 1).max().unwrap_or(1);
        fn cover(node: NodeId, zone_of: &[ZoneId], covered: &mut [bool], n_covered: &mut usize) {
            let z = zone_of[node.idx()].idx();
            if !covered[z] {
                covered[z] = true;
                *n_covered += 1;
            }
        }
        let mut covered = vec![false; n_zones];
        for clump in &clumps {
            let dest = clump.dest.expect("dispatching assigned every clump");
            for &part in &clump.parts {
                covered.iter_mut().for_each(|c| *c = false);
                let mut n_covered = 0usize;
                // A Migrate onto a node with no replica is a *move*: the old
                // primary's copy is dropped, so its zone must not count
                // toward post-plan coverage (Remaster and AddReplica keep
                // every current holder).
                let migrates_away = !replica_aware
                    && !placement.is_primary(part, dest)
                    && !placement.has_replica(part, dest);
                let old_primary = placement.primary_of(part);
                for holder in placement.replica_nodes(part) {
                    if migrates_away && holder == old_primary {
                        continue;
                    }
                    cover(holder, zone_of, &mut covered, &mut n_covered);
                }
                // the plan places a replica at the clump destination
                cover(dest, zone_of, &mut covered, &mut n_covered);
                while n_covered < min_zones {
                    // Least-loaded live node of an uncovered zone, lowest id
                    // on ties — deterministic like every other choice here.
                    let repair = (0..placement.n_nodes() as u16)
                        .map(NodeId)
                        .filter(|&n| {
                            live[n.idx()]
                                && !covered[zone_of[n.idx()].idx()]
                                && !placement.has_replica(part, n)
                        })
                        .min_by(|a, b| {
                            balance.load[a.idx()]
                                .partial_cmp(&balance.load[b.idx()])
                                .expect("finite")
                                .then_with(|| a.cmp(b))
                        });
                    let Some(repair) = repair else {
                        break; // not enough live zones left to satisfy the floor
                    };
                    cover(repair, zone_of, &mut covered, &mut n_covered);
                    plan.total_cost += W_M;
                    plan.entries.push(PlanEntry {
                        part,
                        dest: repair,
                        action: PlanAction::AddSecondary,
                    });
                }
            }
        }
    }
    plan.load = balance.load;
    plan
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

    /// Builds the Fig. 4b layout: 5 partitions over 3 nodes.
    ///   P1(p0): primary N1, secondary N2 ; P2(p1): primary N3, secondary N1
    ///   P3(p2): primary N2               ; P4(p3): primary N3
    ///   P5(p4): primary N1, secondary N2
    fn fig4_placement() -> Placement {
        let mut pl = Placement::round_robin(5, 3, 1);
        pl.migrate_primary(p(0), n(0)).unwrap();
        pl.migrate_primary(p(1), n(2)).unwrap();
        pl.migrate_primary(p(2), n(1)).unwrap();
        pl.migrate_primary(p(3), n(2)).unwrap();
        pl.migrate_primary(p(4), n(0)).unwrap();
        pl.add_secondary(p(0), n(1)).unwrap();
        pl.add_secondary(p(1), n(0)).unwrap();
        pl.add_secondary(p(4), n(1)).unwrap();
        pl
    }

    /// Fig. 4a clumps: C1{P1,P2} w4, C2{P3} w1, C3{P4} w2, C4{P5} w2.
    fn fig4_clumps() -> Vec<Clump> {
        vec![
            Clump::new(vec![p(0), p(1)], 4.0),
            Clump::new(vec![p(2)], 1.0),
            Clump::new(vec![p(3)], 2.0),
            Clump::new(vec![p(4)], 2.0),
        ]
    }

    fn cfg() -> PlannerConfig {
        PlannerConfig {
            epsilon: 0.5, // avg = 3, θ = 4.5: N1's 6 triggers fine-tuning
            ..Default::default()
        }
    }

    /// Example 2 end-to-end: dispatching sends C1→N1, C2→N2, C3→N3, C4→N1,
    /// overloading N1 (weight 6); fine-tuning moves C4 to N2 at cost w_r,
    /// ending with the Fig. 4d layout and a total cost of 2·w_r.
    #[test]
    fn example2_full_run() {
        let pl = fig4_placement();
        let plan = rearrange(fig4_clumps(), &pl, &[0.0; 5], &cfg(), true);

        let dest_of = |part: PartitionId| plan.dest_of(part).unwrap();
        assert_eq!(dest_of(p(0)), n(0), "C1 stays on N1");
        assert_eq!(dest_of(p(1)), n(0));
        assert_eq!(dest_of(p(2)), n(1), "C2 on N2 (free)");
        assert_eq!(dest_of(p(3)), n(2), "C3 on N3 (free)");
        assert_eq!(dest_of(p(4)), n(1), "C4 fine-tuned from N1 to N2");
        assert!(
            (plan.total_cost - 2.0).abs() < 1e-9,
            "2 * w_r, got {}",
            plan.total_cost
        );

        // Actions: P2 remasters onto N1; P5 remasters onto N2.
        assert_eq!(plan.entries.len(), 2);
        assert!(plan.entries.contains(&PlanEntry {
            part: p(1),
            dest: n(0),
            action: PlanAction::Remaster
        }));
        assert!(plan.entries.contains(&PlanEntry {
            part: p(4),
            dest: n(1),
            action: PlanAction::Remaster
        }));
    }

    #[test]
    fn plan_apply_reaches_fig4d() {
        let mut pl = fig4_placement();
        let plan = rearrange(fig4_clumps(), &pl, &[0.0; 5], &cfg(), true);
        plan.apply_to(&mut pl);
        assert_eq!(pl.primary_of(p(0)), n(0));
        assert_eq!(pl.primary_of(p(1)), n(0));
        assert_eq!(pl.primary_of(p(2)), n(1));
        assert_eq!(pl.primary_of(p(3)), n(2));
        assert_eq!(pl.primary_of(p(4)), n(1));
        pl.validate().unwrap();
    }

    #[test]
    fn replica_oblivious_mode_migrates() {
        let pl = Placement::round_robin(4, 2, 1); // no secondaries anywhere
        let clumps = vec![Clump::new(vec![p(0), p(1)], 2.0)];
        let plan = rearrange(clumps, &pl, &[0.0; 4], &PlannerConfig::default(), false);
        // p0 primary N0, p1 primary N1: one of them must migrate.
        assert_eq!(plan.entries.len(), 1);
        assert_eq!(plan.entries[0].action, PlanAction::Migrate);
    }

    #[test]
    fn replica_aware_mode_adds_replicas() {
        let pl = Placement::round_robin(4, 2, 1);
        let clumps = vec![Clump::new(vec![p(0), p(1)], 2.0)];
        let plan = rearrange(clumps, &pl, &[0.0; 4], &PlannerConfig::default(), true);
        assert_eq!(plan.entries.len(), 1);
        assert_eq!(plan.entries[0].action, PlanAction::AddReplica);
    }

    #[test]
    fn balanced_input_requires_no_moves() {
        let pl = Placement::round_robin(4, 4, 2);
        // one singleton clump per partition, each already home
        let clumps: Vec<Clump> = (0..4).map(|i| Clump::new(vec![p(i)], 1.0)).collect();
        let plan = rearrange(clumps, &pl, &[0.0; 4], &PlannerConfig::default(), true);
        assert!(
            plan.entries.is_empty(),
            "everything already in place: {:?}",
            plan.entries
        );
        assert_eq!(plan.total_cost, 0.0);
    }

    #[test]
    fn fine_tuning_respects_gap_sizes() {
        // All four clumps are cheapest on N0; fine-tuning must spread them.
        let mut pl = Placement::round_robin(4, 2, 2);
        for i in 0..4 {
            pl.migrate_primary(p(i), n(0)).unwrap();
        }
        let clumps: Vec<Clump> = (0..4).map(|i| Clump::new(vec![p(i)], 1.0)).collect();
        let cfg = PlannerConfig {
            epsilon: 0.1,
            ..Default::default()
        };
        let plan = rearrange(clumps, &pl, &[0.0; 4], &cfg, true);
        let mut on_n1 = 0;
        for (parts, dest) in &plan.assignments {
            assert_eq!(parts.len(), 1);
            if *dest == n(1) {
                on_n1 += 1;
            }
        }
        assert_eq!(on_n1, 2, "half the load moves to the idle node");
    }

    /// Clumps per node of a plan.
    fn clumps_per_node(plan: &ReconfigurationPlan, nodes: usize) -> Vec<usize> {
        let mut count = vec![0; nodes];
        for (_, dest) in &plan.assignments {
            count[dest.idx()] += 1;
        }
        count
    }

    /// Every move re-reads the loads: a destination the last move filled is
    /// no longer idle, so eight unit clumps dispatched onto N1 spread 2/2/2/2
    /// instead of piling onto the first idle node (6/2/0/0).
    #[test]
    fn fine_tuning_re_reads_loads_after_every_move() {
        let mut pl = Placement::round_robin(8, 4, 1);
        for i in 0..8 {
            pl.migrate_primary(p(i), n(1)).unwrap();
        }
        let clumps: Vec<Clump> = (0..8).map(|i| Clump::new(vec![p(i)], 1.0)).collect();
        let plan = rearrange(clumps, &pl, &[0.0; 8], &PlannerConfig::default(), true);
        assert_eq!(clumps_per_node(&plan, 4), [2, 2, 2, 2]);
        assert_eq!(plan.load, [2.0; 4]);
    }

    /// No clump fits a gap smaller than every clump: N0 holds five 0.97
    /// clumps (4.85 against θ = 4.8, gap 0.85), so the paper's rule finds
    /// nothing, and the smallest clump that leaves N3 (3.15) below 4.85 moves.
    #[test]
    fn fine_tuning_sheds_a_clump_bigger_than_the_gap() {
        let mut pl = Placement::round_robin(16, 4, 1);
        pl.migrate_primary(p(3), n(0)).unwrap();
        let clumps: Vec<Clump> = (0..16)
            .map(|i| {
                let w = match pl.primary_of(p(i)).0 {
                    0 => 0.97,
                    3 => 1.05,
                    _ => 1.0,
                };
                Clump::new(vec![p(i)], w)
            })
            .collect();
        let cfg = PlannerConfig {
            epsilon: 0.2,
            ..Default::default()
        };
        let plan = rearrange(clumps, &pl, &[0.0; 16], &cfg, true);
        assert_eq!(clumps_per_node(&plan, 4), [4, 4, 4, 4]);
        let theta = 4.0 * 1.2;
        assert!(plan.load.iter().all(|&l| l <= theta), "{:?}", plan.load);
    }

    fn z(i: u16) -> ZoneId {
        ZoneId(i)
    }

    /// RackSafe repair: a clump whose partitions would end up rack-local
    /// gains AddSecondary copies restoring cross-zone coverage, while the
    /// locality decision (the clump destination) is untouched.
    #[test]
    fn rack_safe_plan_repairs_zone_coverage() {
        // 4 nodes, racks Z0={N0,N1}, Z1={N2,N3}. Both partitions and all
        // their replicas live inside Z0.
        let zones = [z(0), z(0), z(1), z(1)];
        let mut pl = Placement::round_robin(2, 4, 1);
        pl.migrate_primary(p(0), n(0)).unwrap();
        pl.migrate_primary(p(1), n(0)).unwrap();
        pl.add_secondary(p(0), n(1)).unwrap();
        pl.add_secondary(p(1), n(1)).unwrap();
        let clumps = vec![Clump::new(vec![p(0), p(1)], 2.0)];
        let live = [true; 4];
        let plan = rearrange_with_topology(
            clumps,
            &pl,
            &[0.0; 2],
            &PlannerConfig::default(),
            true,
            &live,
            &zones,
            PlacementPolicy::RackSafe { min_zones: 2 },
        );
        // Destination stays in-zone (N0 is cheapest: both primaries local)…
        assert_eq!(plan.dest_of(p(0)), Some(n(0)));
        // …but each partition gets a Z1 copy.
        for part in [p(0), p(1)] {
            assert!(
                plan.entries.iter().any(|e| e.part == part
                    && e.action == PlanAction::AddSecondary
                    && zones[e.dest.idx()] == z(1)),
                "no cross-zone repair for {part}: {:?}",
                plan.entries
            );
        }
        // Applying the plan satisfies the floor.
        let mut after = pl.clone();
        plan.apply_to(&mut after);
        after.validate().unwrap();
        assert!(after.zone_coverage(p(0), &zones) >= 2);
        assert!(after.zone_coverage(p(1), &zones) >= 2);
    }

    /// A Migrate is a move: the old primary's zone must not count toward
    /// post-plan coverage, so migrating a partition's only replica across
    /// racks still triggers a repair copy back into the vacated rack.
    #[test]
    fn rack_safe_repair_accounts_for_migration_moves() {
        let zones = [z(0), z(0), z(1), z(1)];
        // P0's only replica is its primary on N2 (Z1). With N2 dead, the
        // replica-oblivious plan must Migrate it to a live node — N0 (Z0),
        // the cheapest survivor. The move vacates Z1, so counting the old
        // primary as still covering Z1 would (wrongly) skip the repair.
        let mut pl = Placement::round_robin(1, 4, 1);
        pl.migrate_primary(p(0), n(2)).unwrap();
        let live = [true, true, false, true];
        let plan = rearrange_with_topology(
            vec![Clump::new(vec![p(0)], 1.0)],
            &pl,
            &[0.0; 1],
            &PlannerConfig::default(),
            false, // replica-oblivious: Migrate, not AddReplica
            &live,
            &zones,
            PlacementPolicy::RackSafe { min_zones: 2 },
        );
        assert!(
            plan.entries
                .iter()
                .any(|e| e.part == p(0) && e.action == PlanAction::Migrate),
            "dead primary forces a migration: {:?}",
            plan.entries
        );
        assert!(
            plan.entries.iter().any(|e| e.part == p(0)
                && e.action == PlanAction::AddSecondary
                && zones[e.dest.idx()] == z(1)),
            "vacating Z1 must trigger a repair copy back into it: {:?}",
            plan.entries
        );
        let mut after = pl.clone();
        plan.apply_to(&mut after);
        after.validate().unwrap();
        assert!(after.zone_coverage(p(0), &zones) >= 2);
    }

    /// Repair never targets dead nodes, and an unsatisfiable floor (all
    /// other zones down) degrades gracefully instead of looping.
    #[test]
    fn rack_safe_repair_skips_dead_zones() {
        let zones = [z(0), z(0), z(1), z(1)];
        let mut pl = Placement::round_robin(1, 4, 1);
        pl.add_secondary(p(0), n(1)).unwrap();
        let clumps = vec![Clump::new(vec![p(0)], 1.0)];
        let live = [true, true, false, false]; // Z1 entirely down
        let plan = rearrange_with_topology(
            clumps,
            &pl,
            &[0.0; 1],
            &PlannerConfig::default(),
            true,
            &live,
            &zones,
            PlacementPolicy::RackSafe { min_zones: 2 },
        );
        assert!(
            plan.entries
                .iter()
                .all(|e| e.action != PlanAction::AddSecondary),
            "no live node outside Z0 exists: {:?}",
            plan.entries
        );
    }

    /// LocalityFirst (and the plain wrappers) never emit repair entries and
    /// stay byte-identical to the zone-free path.
    #[test]
    fn locality_first_matches_zone_free_plan() {
        let zones = [z(0), z(0), z(1)];
        let pl = fig4_placement();
        let live = [true; 3];
        let a = rearrange(fig4_clumps(), &pl, &[0.0; 5], &cfg(), true);
        let b = rearrange_with_topology(
            fig4_clumps(),
            &pl,
            &[0.0; 5],
            &cfg(),
            true,
            &live,
            &zones,
            PlacementPolicy::LocalityFirst,
        );
        assert_eq!(a.entries, b.entries);
        assert_eq!(a.total_cost, b.total_cost);
    }

    #[test]
    fn single_node_cluster_never_fine_tunes() {
        let pl = Placement::round_robin(3, 1, 1);
        let clumps = vec![Clump::new(vec![p(0), p(1), p(2)], 9.0)];
        let plan = rearrange(clumps, &pl, &[0.0; 3], &PlannerConfig::default(), true);
        assert!(plan.entries.is_empty());
        assert_eq!(plan.assignments[0].1, n(0));
    }
}
