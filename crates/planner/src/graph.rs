//! The heat graph `G(V, E)` of §IV-A.
//!
//! Vertices are partitions weighted by access frequency; edges connect
//! partitions co-accessed by the same transaction, weighted by co-access
//! count. Edges crossing node boundaries under the current placement (`e_c`)
//! are boosted relative to same-node edges (`e_s`), "emphasizing the higher
//! priority given to e_c" — those are the edges that currently force
//! distributed transactions.

use lion_common::{FastMap, PartitionId, Placement};

/// Weighted co-access graph over partitions.
#[derive(Debug, Clone)]
pub struct HeatGraph {
    n_partitions: usize,
    vertex_w: Vec<f64>,
    adj: Vec<FastMap<u32, f64>>,
}

impl HeatGraph {
    /// Creates an empty graph over `n_partitions` vertices.
    pub fn new(n_partitions: usize) -> Self {
        HeatGraph {
            n_partitions,
            vertex_w: vec![0.0; n_partitions],
            adj: vec![FastMap::default(); n_partitions],
        }
    }

    /// Number of vertices.
    pub fn n_partitions(&self) -> usize {
        self.n_partitions
    }

    /// Adds one transaction's accessed-partition set with weight `w`
    /// (1.0 for observed transactions, `wp` for predicted ones, §IV-C.1).
    /// `cross_boost` multiplies edge weight when the two partitions' primaries
    /// live on different nodes under `placement`.
    pub fn add_txn(
        &mut self,
        parts: &[PartitionId],
        w: f64,
        placement: &Placement,
        cross_boost: f64,
    ) {
        for &p in parts {
            self.vertex_w[p.idx()] += w;
        }
        for i in 0..parts.len() {
            for j in (i + 1)..parts.len() {
                let (u, v) = (parts[i], parts[j]);
                if u == v {
                    continue;
                }
                let cross = placement.primary_of(u) != placement.primary_of(v);
                let ew = if cross { w * cross_boost } else { w };
                self.add_edge(u, v, ew);
            }
        }
    }

    /// Adds `w` to the undirected edge `(u, v)`.
    pub fn add_edge(&mut self, u: PartitionId, v: PartitionId, w: f64) {
        debug_assert_ne!(u, v, "no self edges");
        *self.adj[u.idx()].entry(v.0).or_insert(0.0) += w;
        *self.adj[v.idx()].entry(u.0).or_insert(0.0) += w;
    }

    /// Vertex weight (access frequency) of `p`.
    pub fn vertex_weight(&self, p: PartitionId) -> f64 {
        self.vertex_w[p.idx()]
    }

    /// Edge weight between `u` and `v` (0 when absent).
    pub fn edge_weight(&self, u: PartitionId, v: PartitionId) -> f64 {
        self.adj[u.idx()].get(&v.0).copied().unwrap_or(0.0)
    }

    /// Neighbors of `p` with edge weights.
    pub fn neighbors(&self, p: PartitionId) -> impl Iterator<Item = (PartitionId, f64)> + '_ {
        self.adj[p.idx()].iter().map(|(&v, &w)| (PartitionId(v), w))
    }

    /// Vertices ordered hottest-first (the `hVertices` priority queue of
    /// §IV-A), restricted to vertices that were accessed at all.
    pub fn hot_vertices(&self) -> Vec<PartitionId> {
        let mut v: Vec<PartitionId> = (0..self.n_partitions as u32)
            .map(PartitionId)
            .filter(|p| self.vertex_w[p.idx()] > 0.0)
            .collect();
        v.sort_by(|a, b| {
            self.vertex_w[b.idx()]
                .partial_cmp(&self.vertex_w[a.idx()])
                .expect("weights are finite")
                .then(a.0.cmp(&b.0))
        });
        v
    }

    /// Normalized vertex weights (hottest = 1.0), the `f(v, ·)` input of
    /// Eq. 4 when built from the same observation window.
    pub fn normalized_weights(&self) -> Vec<f64> {
        let max = self.vertex_w.iter().cloned().fold(0.0f64, f64::max);
        if max == 0.0 {
            return vec![0.0; self.n_partitions];
        }
        self.vertex_w.iter().map(|w| w / max).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lion_common::Placement;

    fn p(i: u32) -> PartitionId {
        PartitionId(i)
    }

    /// The Fig. 3a example: T1{P1,P2} T2{P3} T3{P4} T4{P1,P2} T5{P5} T6{P4}
    /// T7{P5} (0-indexed here as P0..P4).
    fn fig3_graph() -> HeatGraph {
        let placement = Placement::round_robin(5, 3, 1);
        let mut g = HeatGraph::new(5);
        let txns: Vec<Vec<PartitionId>> = vec![
            vec![p(0), p(1)],
            vec![p(2)],
            vec![p(3)],
            vec![p(0), p(1)],
            vec![p(4)],
            vec![p(3)],
            vec![p(4)],
        ];
        for t in &txns {
            g.add_txn(t, 1.0, &placement, 1.0);
        }
        g
    }

    #[test]
    fn fig3_vertex_and_edge_weights() {
        let g = fig3_graph();
        assert_eq!(g.vertex_weight(p(0)), 2.0);
        assert_eq!(g.vertex_weight(p(1)), 2.0);
        assert_eq!(g.vertex_weight(p(2)), 1.0);
        assert_eq!(g.vertex_weight(p(3)), 2.0);
        assert_eq!(g.vertex_weight(p(4)), 2.0);
        assert_eq!(g.edge_weight(p(0), p(1)), 2.0);
        assert_eq!(g.edge_weight(p(0), p(2)), 0.0);
        let edges: usize = (0..5).map(|i| g.neighbors(p(i)).count()).sum();
        assert_eq!(edges, 2, "one undirected edge, seen from both ends");
    }

    #[test]
    fn cross_node_edges_are_boosted() {
        // P0 primary on N0, P1 primary on N1 (round-robin over 2 nodes).
        let placement = Placement::round_robin(4, 2, 1);
        let mut g = HeatGraph::new(4);
        g.add_txn(&[p(0), p(1)], 1.0, &placement, 10.0); // cross-node
        g.add_txn(&[p(0), p(2)], 1.0, &placement, 10.0); // same node (both N0)
        assert_eq!(g.edge_weight(p(0), p(1)), 10.0);
        assert_eq!(g.edge_weight(p(0), p(2)), 1.0);
    }

    #[test]
    fn hot_vertices_sorted_desc_with_stable_ties() {
        let g = fig3_graph();
        let hot = g.hot_vertices();
        assert_eq!(hot[4], p(2), "coldest vertex last");
        // all weight-2 vertices precede the weight-1 vertex, ties by id
        assert_eq!(hot[..4], [p(0), p(1), p(3), p(4)]);
    }

    #[test]
    fn hot_vertices_excludes_untouched() {
        let placement = Placement::round_robin(10, 2, 1);
        let mut g = HeatGraph::new(10);
        g.add_txn(&[p(7)], 1.0, &placement, 1.0);
        assert_eq!(g.hot_vertices(), vec![p(7)]);
    }

    #[test]
    fn predicted_weight_scales_contribution() {
        let placement = Placement::round_robin(3, 1, 1);
        let mut g = HeatGraph::new(3);
        g.add_txn(&[p(0), p(1)], 0.5, &placement, 1.0);
        assert_eq!(g.vertex_weight(p(0)), 0.5);
        assert_eq!(g.edge_weight(p(0), p(1)), 0.5);
    }

    #[test]
    fn normalized_weights_peak_at_one() {
        let g = fig3_graph();
        let norm = g.normalized_weights();
        assert_eq!(norm[p(0).idx()], 1.0);
        assert_eq!(norm[p(2).idx()], 0.5);
        let empty = HeatGraph::new(3);
        assert_eq!(empty.normalized_weights(), vec![0.0; 3]);
    }

    #[test]
    fn duplicate_partitions_in_txn_do_not_self_edge() {
        let placement = Placement::round_robin(2, 1, 1);
        let mut g = HeatGraph::new(2);
        g.add_txn(&[p(0), p(0), p(1)], 1.0, &placement, 1.0);
        assert_eq!(g.edge_weight(p(0), p(1)), 2.0, "two pairs (0,1) counted");
        assert_eq!(g.neighbors(p(0)).collect::<Vec<_>>(), [(p(1), 2.0)]);
    }
}
