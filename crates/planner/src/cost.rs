//! The cost model of §IV-B.2 (Eq. 3–4), shared by the plan generator and the
//! transaction routers ("each of which is equipped with a cost model
//! identical to the planner's", §III): both price a placement with
//! [`operational_cost`].

use lion_common::{NodeId, PartitionId, Placement};

/// Eq. 3's weight `w_r`: the cost of remastering one partition onto the
/// target. Migration ≫ remaster, the ordering of the paper's Example 2: a
/// migration moves a full partition (~ms of transfer) while a remaster only
/// syncs the lag.
pub(crate) const W_R: f64 = 1.0;

/// Eq. 3's weight `w_m`: the cost of copying one partition onto the target.
pub(crate) const W_M: f64 = 10.0;

/// How a transaction (or a clump) would execute at a candidate node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnPlacementClass {
    /// Every accessed partition's primary is local: single-node, no extra
    /// work (§III case 1).
    AllPrimary,
    /// Every partition has a local replica but some are secondaries:
    /// single-node after remastering (§III case 2).
    NeedsRemaster { count: usize },
    /// Some partitions have no local replica: distributed 2PC (§III case 3).
    Distributed { remote_parts: usize },
}

/// Eq. 3: the operational cost `f_o(n, c)` of placing the partitions `parts`
/// (a clump, or one transaction's partitions) onto node `n` under the
/// current placement, with the placement class it implies.
///
/// Eq. 4 counts the work: the remaster count sums `1 + log2(f + 1)` over the
/// partitions `n` holds as a secondary, where `f` is the normalized access
/// frequency of the current primary — remastering a hot primary is priced
/// higher because it disrupts in-flight transactions; the migration count is
/// the number of partitions `n` holds no replica of, for which a data copy
/// (or, for the router, a remote participant) is unavoidable. The router
/// picks "the node with maximum requisite replicas, where the execution cost
/// is the lowest" (§III).
pub fn operational_cost(
    placement: &Placement,
    freq: &[f64],
    parts: &[PartitionId],
    n: NodeId,
) -> (TxnPlacementClass, f64) {
    let mut remasters = 0usize;
    let mut remaster_count = 0.0;
    let mut remote = 0usize;
    for &v in parts {
        if placement.is_primary(v, n) {
            continue;
        } else if placement.has_secondary(v, n) {
            remasters += 1;
            remaster_count += 1.0 + (freq[v.idx()] + 1.0).log2();
        } else {
            remote += 1;
        }
    }
    let class = if remote > 0 {
        TxnPlacementClass::Distributed {
            remote_parts: remote,
        }
    } else if remasters > 0 {
        TxnPlacementClass::NeedsRemaster { count: remasters }
    } else {
        TxnPlacementClass::AllPrimary
    };
    (class, W_R * remaster_count + W_M * remote as f64)
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

    /// Example 2 (§IV-B.3): clump C1 = {P1, P2}; replicas as in Fig. 4b.
    /// With equal frequencies, costs to N1/N2/N3 are w_r, w_m + w_r, w_m.
    #[test]
    fn fig4_example2_costs() {
        // Build the Fig. 4b layout over 5 partitions, 3 nodes:
        //   P1(=p0): primary N1, secondary N2 ; P2(=p1): primary N3, sec N1
        //   P3(=p2): primary N2              ; P4(=p3): primary N3
        //   P5(=p4): primary N1, secondary N2
        let mut pl = Placement::round_robin(5, 3, 1);
        // round_robin gives p0->N0, p1->N1, p2->N2, p3->N0, p4->N1; rewrite:
        pl.migrate_primary(p(0), n(0)).unwrap();
        pl.migrate_primary(p(1), n(2)).unwrap();
        pl.migrate_primary(p(2), n(1)).unwrap();
        pl.migrate_primary(p(3), n(2)).unwrap();
        pl.migrate_primary(p(4), n(0)).unwrap();
        pl.add_secondary(p(0), n(1)).unwrap();
        pl.add_secondary(p(1), n(0)).unwrap();
        pl.add_secondary(p(4), n(1)).unwrap();

        let freq = vec![0.0; 5]; // "all replicas have ~the same access frequency"
        let clump = [p(0), p(1)];
        let (_, c_n1) = operational_cost(&pl, &freq, &clump, n(0));
        let (_, c_n2) = operational_cost(&pl, &freq, &clump, n(1));
        let (_, c_n3) = operational_cost(&pl, &freq, &clump, n(2));
        assert_eq!(c_n1, W_R, "N1: P1 primary local, P2 secondary local");
        assert_eq!(c_n2, W_M + W_R, "N2: P2 missing, P1 secondary");
        assert_eq!(c_n3, W_M, "N3: P2 primary local, P1 missing");
        assert!(c_n1 < c_n3 && c_n3 < c_n2);
    }

    #[test]
    fn hot_primary_inflates_remaster_cost() {
        let mut pl = Placement::round_robin(1, 2, 1);
        pl.add_secondary(p(0), n(1)).unwrap();
        let (_, cold) = operational_cost(&pl, &[0.0], &[p(0)], n(1));
        let (_, hot) = operational_cost(&pl, &[1.0], &[p(0)], n(1));
        assert!(hot > cold);
        assert_eq!(cold, W_R * 1.0);
        assert_eq!(hot, W_R * 2.0, "f=1 doubles: 1 + log2(2) = 2");
    }

    #[test]
    fn execution_classes() {
        // p0 primary N0; p1 primary N1 with secondary N0; p2 primary N1.
        let mut pl = Placement::round_robin(3, 2, 1);
        pl.migrate_primary(p(2), n(1)).unwrap();
        pl.add_secondary(p(1), n(0)).unwrap();
        let freq = vec![0.0; 3];

        let (class, cost) = operational_cost(&pl, &freq, &[p(0)], n(0));
        assert_eq!(class, TxnPlacementClass::AllPrimary);
        assert_eq!(cost, 0.0);

        let (class, _) = operational_cost(&pl, &freq, &[p(0), p(1)], n(0));
        assert_eq!(class, TxnPlacementClass::NeedsRemaster { count: 1 });

        let (class, _) = operational_cost(&pl, &freq, &[p(0), p(2)], n(0));
        assert_eq!(class, TxnPlacementClass::Distributed { remote_parts: 1 });
    }
}
