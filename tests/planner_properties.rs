//! Property-based tests on the planning pipeline: arbitrary workloads and
//! placements must never violate placement invariants, and plans must be
//! idempotent once applied.

use lion::common::{NodeId, PartitionId, Placement};
use lion::planner::{generate_clumps, rearrange, schism_plan, Clump, HeatGraph, PlannerConfig};
use proptest::prelude::*;

fn arb_txn(n_parts: u32) -> impl Strategy<Value = Vec<PartitionId>> {
    proptest::collection::vec(0..n_parts, 1..4).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v.into_iter().map(PartitionId).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Applying any generated plan to the placement keeps every structural
    /// invariant: one primary per partition, no duplicate replicas.
    #[test]
    fn rearrangement_preserves_placement_invariants(
        txns in proptest::collection::vec(arb_txn(12), 1..200),
        nodes in 2usize..5,
        alpha in 1.0f64..8.0,
    ) {
        let mut placement = Placement::round_robin(12, nodes, 2);
        let mut graph = HeatGraph::new(12);
        for t in &txns {
            graph.add_txn(t, 1.0, &placement, 4.0);
        }
        let cfg = PlannerConfig { alpha, ..Default::default() };
        let clumps = generate_clumps(&graph, alpha, cfg.max_clump_size);
        let freq = graph.normalized_weights();
        let plan = rearrange(clumps, &placement, &freq, &cfg, true);
        prop_assert_eq!(plan.apply_to(&mut placement), 0, "Algorithm 1 emitted a refused entry");
        prop_assert!(placement.validate().is_ok());
    }

    /// A plan recomputed right after being applied must be (nearly) empty:
    /// the algorithm is stable at its own fixpoint.
    #[test]
    fn rearrangement_reaches_a_fixpoint(
        txns in proptest::collection::vec(arb_txn(8), 50..150),
    ) {
        let mut placement = Placement::round_robin(8, 4, 2);
        let cfg = PlannerConfig::default();
        let build = |placement: &Placement| {
            let mut graph = HeatGraph::new(8);
            for t in &txns {
                graph.add_txn(t, 1.0, placement, cfg.cross_edge_boost);
            }
            let clumps = generate_clumps(&graph, cfg.alpha, cfg.max_clump_size);
            let freq = graph.normalized_weights();
            rearrange(clumps, placement, &freq, &cfg, true)
        };
        let plan1 = build(&placement);
        prop_assert_eq!(plan1.apply_to(&mut placement), 0);
        let plan2 = build(&placement);
        prop_assert_eq!(plan2.apply_to(&mut placement), 0);
        let plan3 = build(&placement);
        prop_assert!(
            plan3.entries.len() <= plan2.entries.len().max(1),
            "plan sizes must not grow: {} then {}",
            plan2.entries.len(),
            plan3.entries.len()
        );
        prop_assert!(placement.validate().is_ok());
    }

    /// Fine-tuning never raises the peak: the plan's busiest node carries at
    /// most what it carries after dispatch alone (ε = ∞ skips Step 2).
    #[test]
    fn fine_tuning_never_raises_the_peak(
        txns in proptest::collection::vec(arb_txn(16), 1..200),
        nodes in 2usize..6,
        alpha in 0.5f64..8.0,
        epsilon in 0.0f64..1.0,
    ) {
        let placement = Placement::round_robin(16, nodes, 2);
        let mut graph = HeatGraph::new(16);
        for t in &txns {
            graph.add_txn(t, 1.0, &placement, 4.0);
        }
        let freq = graph.normalized_weights();
        let peak = |epsilon: f64| {
            let cfg = PlannerConfig { alpha, epsilon, ..Default::default() };
            let clumps = generate_clumps(&graph, alpha, cfg.max_clump_size);
            let plan = rearrange(clumps, &placement, &freq, &cfg, true);
            plan.load.iter().copied().fold(0.0, f64::max)
        };
        let (tuned, dispatched) = (peak(epsilon), peak(f64::INFINITY));
        prop_assert!(tuned <= dispatched + 1e-9, "peak {} after dispatch, {} tuned", dispatched, tuned);
    }

    /// Equal clumps, `k` per node on average, and ε < 1/k: θ sits below
    /// `k + 1`, so wherever dispatch put them every node ends with exactly `k`.
    #[test]
    fn equal_clumps_end_exactly_k_per_node(
        nodes in 2usize..6,
        k in 1usize..5,
        homes in proptest::collection::vec(0usize..6, 20..21),
        replicas in 1usize..3,
        slack in 0.0f64..1.0,
    ) {
        let n = k * nodes;
        let mut placement = Placement::round_robin(n, nodes, replicas);
        for (i, &home) in homes.iter().take(n).enumerate() {
            placement.migrate_primary(PartitionId(i as u32), NodeId((home % nodes) as u16)).unwrap();
        }
        let clumps = (0..n as u32).map(|i| Clump::new(vec![PartitionId(i)], 1.0)).collect();
        let cfg = PlannerConfig { epsilon: slack / k as f64, ..Default::default() };
        let plan = rearrange(clumps, &placement, &vec![0.0; n], &cfg, true);
        let mut per_node = vec![0; nodes];
        for (_, dest) in &plan.assignments {
            per_node[dest.idx()] += 1;
        }
        prop_assert_eq!(per_node, vec![k; nodes]);
    }

    /// Schism plans only migrate and also preserve invariants.
    #[test]
    fn schism_preserves_invariants(
        txns in proptest::collection::vec(arb_txn(12), 1..150),
    ) {
        let mut placement = Placement::round_robin(12, 3, 2);
        let mut graph = HeatGraph::new(12);
        for t in &txns {
            graph.add_txn(t, 1.0, &placement, 1.0);
        }
        let plan = schism_plan(&graph, &placement, 0.3);
        for e in &plan.entries {
            prop_assert_eq!(e.action, lion::planner::PlanAction::Migrate);
        }
        prop_assert_eq!(plan.apply_to(&mut placement), 0);
        prop_assert!(placement.validate().is_ok());
    }

    /// Clumps partition the accessed vertex set: disjoint and covering.
    #[test]
    fn clumps_are_disjoint_and_cover(
        txns in proptest::collection::vec(arb_txn(16), 1..100),
        alpha in 0.5f64..10.0,
        cap in 2usize..20,
    ) {
        let placement = Placement::round_robin(16, 4, 2);
        let mut graph = HeatGraph::new(16);
        for t in &txns {
            graph.add_txn(t, 1.0, &placement, 2.0);
        }
        let clumps = generate_clumps(&graph, alpha, cap);
        let mut seen = std::collections::HashSet::new();
        for c in &clumps {
            prop_assert!(c.parts.len() <= cap);
            for p in &c.parts {
                prop_assert!(seen.insert(*p), "partition {p} in two clumps");
            }
        }
        let accessed: std::collections::HashSet<PartitionId> =
            txns.iter().flatten().copied().collect();
        prop_assert_eq!(seen, accessed);
    }
}
