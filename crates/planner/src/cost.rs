//! The cost model of §IV-B.2 (Eq. 3–4), shared by the plan generator and the
//! transaction routers ("each of which is equipped with a cost model
//! identical to the planner's", §III).

use lion_common::{NodeId, PartitionId, Placement, ZoneId};

/// Operation cost weights: `w_r` per remaster, `w_m` per migration
/// (migration ≫ remaster; the paper's Example 2 uses the same ordering),
/// plus an optional cross-zone coordination term `w_z`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Cost of remastering one partition onto the target.
    pub w_r: f64,
    /// Cost of copying one partition onto the target.
    pub w_m: f64,
    /// Cross-zone surcharge per remote partition whose primary sits in a
    /// different failure domain than the candidate coordinator: the 2PC
    /// rounds to it traverse the aggregation layer, so deliberate routing
    /// should prefer rack-local coordinators under rack-safe placement.
    /// `0` (the default) reproduces the zone-oblivious Eq. 3 exactly.
    pub w_z: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        // Calibrated to the default timing knobs: a migration moves a full
        // partition (~ms of transfer) while a remaster only syncs the lag.
        CostWeights {
            w_r: 1.0,
            w_m: 10.0,
            w_z: 0.0,
        }
    }
}

impl CostWeights {
    /// Enables the cross-zone coordination term (builder style).
    pub fn with_zone_weight(mut self, w_z: f64) -> Self {
        self.w_z = w_z;
        self
    }
}

/// Eq. 4's `cnt_r(v, n)`: the (frequency-inflated) remaster count of placing
/// partition `v`'s clump on node `n`. `freq` is the normalized access
/// frequency `f(v, Np(v, p))` of the current primary — remastering a hot
/// primary is priced higher because it disrupts in-flight transactions.
fn cnt_r(placement: &Placement, freq: &[f64], v: PartitionId, n: NodeId) -> f64 {
    if placement.has_secondary(v, n) {
        1.0 + (freq[v.idx()] + 1.0).log2()
    } else {
        0.0
    }
}

/// Eq. 4's `cnt_m(v, n)`: 1 when node `n` holds no replica of `v` at all and
/// a data copy is unavoidable.
fn cnt_m(placement: &Placement, v: PartitionId, n: NodeId) -> f64 {
    if placement.has_replica(v, n) {
        0.0
    } else {
        1.0
    }
}

/// Eq. 3: the operational cost `f_o(n, c)` of placing the partitions `parts`
/// (a clump) onto node `n` under the current placement.
pub fn placement_cost(
    placement: &Placement,
    freq: &[f64],
    parts: &[PartitionId],
    n: NodeId,
    w: CostWeights,
) -> f64 {
    let mut remaster = 0.0;
    let mut migrate = 0.0;
    for &v in parts {
        remaster += cnt_r(placement, freq, v, n);
        migrate += cnt_m(placement, v, n);
    }
    w.w_r * remaster + w.w_m * migrate
}

/// How a transaction would execute at a candidate node.
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

/// Classifies + prices executing a transaction over `parts` at node `n`.
///
/// The returned cost mirrors Eq. 3 with a distributed-execution penalty per
/// remote partition, so routers can pick "the node with maximum requisite
/// replicas, where the execution cost is the lowest" (§III).
///
/// Zone-aware: each remote partition whose primary lives in a *different
/// failure domain* than the candidate coordinator additionally pays `w_z` —
/// its 2PC rounds cross the rack boundary. With `w_z = 0` or an empty
/// `zone_of` map this is exactly the zone-oblivious score, so single-zone
/// clusters are untouched.
pub fn execution_cost(
    placement: &Placement,
    freq: &[f64],
    parts: &[PartitionId],
    n: NodeId,
    w: CostWeights,
    zone_of: &[ZoneId],
) -> (TxnPlacementClass, f64) {
    let zoned = w.w_z != 0.0 && !zone_of.is_empty();
    let mut remasters = 0usize;
    let mut remote = 0usize;
    let mut cost = 0.0;
    for &v in parts {
        if placement.is_primary(v, n) {
            continue;
        } else if placement.has_secondary(v, n) {
            remasters += 1;
            cost += w.w_r * (1.0 + (freq[v.idx()] + 1.0).log2());
        } else {
            remote += 1;
            cost += w.w_m; // remote participation priced like a copy-class op
            if zoned && zone_of[placement.primary_of(v).idx()] != zone_of[n.idx()] {
                cost += w.w_z; // coordination rounds cross the rack boundary
            }
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
    (class, cost)
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
        let w = CostWeights {
            w_r: 1.0,
            w_m: 10.0,
            w_z: 0.0,
        };
        let clump = [p(0), p(1)];
        let c_n1 = placement_cost(&pl, &freq, &clump, n(0), w);
        let c_n2 = placement_cost(&pl, &freq, &clump, n(1), w);
        let c_n3 = placement_cost(&pl, &freq, &clump, n(2), w);
        assert_eq!(c_n1, w.w_r, "N1: P1 primary local, P2 secondary local");
        assert_eq!(c_n2, w.w_m + w.w_r, "N2: P2 missing, P1 secondary");
        assert_eq!(c_n3, w.w_m, "N3: P2 primary local, P1 missing");
        assert!(c_n1 < c_n3 && c_n3 < c_n2);
    }

    #[test]
    fn hot_primary_inflates_remaster_cost() {
        let mut pl = Placement::round_robin(1, 2, 1);
        pl.add_secondary(p(0), n(1)).unwrap();
        let w = CostWeights::default();
        let cold = placement_cost(&pl, &[0.0], &[p(0)], n(1), w);
        let hot = placement_cost(&pl, &[1.0], &[p(0)], n(1), w);
        assert!(hot > cold);
        assert_eq!(cold, w.w_r * 1.0);
        assert_eq!(hot, w.w_r * 2.0, "f=1 doubles: 1 + log2(2) = 2");
    }

    #[test]
    fn execution_classes() {
        // p0 primary N0; p1 primary N1 with secondary N0; p2 primary N1.
        let mut pl = Placement::round_robin(3, 2, 1);
        pl.migrate_primary(p(2), n(1)).unwrap();
        pl.add_secondary(p(1), n(0)).unwrap();
        let freq = vec![0.0; 3];
        let w = CostWeights::default();

        let (class, cost) = execution_cost(&pl, &freq, &[p(0)], n(0), w, &[]);
        assert_eq!(class, TxnPlacementClass::AllPrimary);
        assert_eq!(cost, 0.0);

        let (class, _) = execution_cost(&pl, &freq, &[p(0), p(1)], n(0), w, &[]);
        assert_eq!(class, TxnPlacementClass::NeedsRemaster { count: 1 });

        let (class, _) = execution_cost(&pl, &freq, &[p(0), p(2)], n(0), w, &[]);
        assert_eq!(class, TxnPlacementClass::Distributed { remote_parts: 1 });
    }

    #[test]
    fn zone_term_prefers_rack_local_coordinators() {
        use lion_common::ZoneId;
        // 4 nodes over 2 racks: Z0 = {N0, N1}, Z1 = {N2, N3}.
        // p0 primary N0, p1 primary N1, p2 primary N2, p3 primary N3 (rf 1).
        let pl = Placement::round_robin(4, 4, 1);
        let zones = vec![ZoneId(0), ZoneId(0), ZoneId(1), ZoneId(1)];
        let freq = vec![0.0; 4];
        let w = CostWeights::default().with_zone_weight(2.0);
        // A txn over {p0, p1}: N0 and N1 both see one remote partition, but
        // its primary is rack-local — no surcharge. N2/N3 pay 2 × (w_m+w_z).
        let parts = [p(0), p(1)];
        let (_, c_n0) = execution_cost(&pl, &freq, &parts, n(0), w, &zones);
        let (_, c_n2) = execution_cost(&pl, &freq, &parts, n(2), w, &zones);
        assert_eq!(c_n0, w.w_m, "rack-local remote pays no zone term");
        assert_eq!(c_n2, 2.0 * (w.w_m + w.w_z), "cross-rack coordination");
        // With the term disabled (or no zone map) the scores are the
        // zone-oblivious Eq. 3 — N0 and N2 differ only by the remote count.
        let flat = CostWeights::default();
        let (_, f_n0) = execution_cost(&pl, &freq, &parts, n(0), flat, &zones);
        let (c0, e0) = execution_cost(&pl, &freq, &parts, n(0), flat, &[]);
        assert_eq!(
            (c0, e0),
            (TxnPlacementClass::Distributed { remote_parts: 1 }, f_n0)
        );
    }
}
