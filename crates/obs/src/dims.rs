//! Dimensioned rollups: each commit, abort and byte fact is folded once,
//! into its node's cell. Every coarser view is an exact merge of those
//! cells — a zone's row ([`DimensionedSink::zone_rollups`], by the node→zone
//! map) and the run's latency histogram ([`DimensionedSink::latency`]). The
//! latency store is the mergeable log-bucketed [`Histogram`] (u64 counts,
//! u128 sum, exact min and max), so a merge answers every query bit for bit
//! as one histogram fed every sample would.

use crate::event::MetricEvent;
use crate::sink::MetricSink;
use lion_common::ZoneId;
use lion_sim::Histogram;

/// One dimension cell: the per-node accumulator (or a merge of several).
#[derive(Debug, Clone, Default)]
pub struct DimCell {
    /// Aborts homed in this dimension.
    pub aborts: u64,
    /// Bytes sent by this dimension (only events that carry a sender).
    pub bytes: u64,
    /// Commit-latency histogram for this dimension; its count is the
    /// dimension's commits.
    pub latency: Histogram,
}

impl DimCell {
    /// Folds another cell into this one (zone = merge of its nodes).
    pub fn merge(&mut self, other: &DimCell) {
        self.aborts += other.aborts;
        self.bytes += other.bytes;
        self.latency.merge(&other.latency);
    }
}

/// A finished rollup row for one node or zone.
#[derive(Debug, Clone)]
pub struct DimRollup {
    /// `"N3"` or `"Z1"`.
    pub label: String,
    /// Commits homed here.
    pub commits: u64,
    /// Aborts homed here.
    pub aborts: u64,
    /// Bytes sent from here.
    pub bytes: u64,
    /// Commits per second over the run horizon.
    pub goodput_tps: f64,
    /// Mean commit latency (µs).
    pub mean_latency_us: f64,
    /// Median commit latency (µs).
    pub p50_us: u64,
    /// Tail commit latency (µs).
    pub p95_us: u64,
}

/// Per-node accumulation, fed by [`MetricSink::on_event`].
#[derive(Debug, Clone, Default)]
pub struct DimensionedSink {
    nodes: Vec<DimCell>,
}

impl DimensionedSink {
    fn node(&mut self, idx: usize) -> &mut DimCell {
        if idx >= self.nodes.len() {
            self.nodes.resize_with(idx + 1, DimCell::default);
        }
        &mut self.nodes[idx]
    }

    /// Raw per-node cells (index = node index; never-seen nodes absent
    /// past the highest observed index).
    pub fn node_cells(&self) -> &[DimCell] {
        &self.nodes
    }

    /// The run's commit-latency histogram: the merge of every node cell's.
    pub fn latency(&self) -> Histogram {
        let mut h = Histogram::new();
        for c in &self.nodes {
            h.merge(&c.latency);
        }
        h
    }

    /// Per-node rollup rows over a run of `duration_us` virtual µs.
    pub fn node_rollups(&self, duration_us: u64) -> Vec<DimRollup> {
        rollup_rows(&self.nodes, "N", duration_us)
    }

    /// Per-zone rollup rows over a run of `duration_us` virtual µs: each
    /// zone's row is the merge of its member nodes' cells under `zone_of`
    /// (node index → zone), up to the zone of the highest observed node.
    pub fn zone_rollups(&self, duration_us: u64, zone_of: &[ZoneId]) -> Vec<DimRollup> {
        let mut zones = Vec::new();
        for (cell, zone) in self.nodes.iter().zip(zone_of) {
            if zone.idx() >= zones.len() {
                zones.resize_with(zone.idx() + 1, DimCell::default);
            }
            zones[zone.idx()].merge(cell);
        }
        rollup_rows(&zones, "Z", duration_us)
    }
}

fn rollup_rows(cells: &[DimCell], prefix: &str, duration_us: u64) -> Vec<DimRollup> {
    let secs = (duration_us.max(1)) as f64 / 1e6;
    cells
        .iter()
        .enumerate()
        .map(|(i, c)| DimRollup {
            label: format!("{prefix}{i}"),
            commits: c.latency.count(),
            aborts: c.aborts,
            bytes: c.bytes,
            goodput_tps: c.latency.count() as f64 / secs,
            mean_latency_us: c.latency.mean(),
            p50_us: c.latency.quantile(0.50),
            p95_us: c.latency.quantile(0.95),
        })
        .collect()
}

impl MetricSink for DimensionedSink {
    fn on_event(&mut self, ev: &MetricEvent) {
        match *ev {
            MetricEvent::Commit {
                latency_us, node, ..
            } => self.node(node.idx()).latency.record(latency_us),
            MetricEvent::Abort { node, .. } => self.node(node.idx()).aborts += 1,
            MetricEvent::Bytes {
                bytes,
                node: Some(n),
                ..
            } => self.node(n.idx()).bytes += bytes,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ByteClass, CommitClass};
    use lion_common::NodeId;

    fn commit(node: u16, latency_us: u64) -> MetricEvent {
        MetricEvent::Commit {
            at: 10,
            latency_us,
            class: CommitClass::SingleNode,
            node: NodeId(node),
            phase_us: [0; 5],
        }
    }

    #[test]
    fn rollups_split_by_node_and_zone() {
        let mut d = DimensionedSink::default();
        for (node, lat) in [(0u16, 100u64), (1, 300), (2, 500)] {
            d.on_event(&commit(node, lat));
        }
        d.on_event(&MetricEvent::Abort {
            at: 20,
            fault: false,
            node: NodeId(2),
        });
        d.on_event(&MetricEvent::Bytes {
            at: 30,
            class: ByteClass::Message,
            bytes: 640,
            node: Some(NodeId(1)),
        });
        let nodes = d.node_rollups(1_000_000);
        assert_eq!(nodes.len(), 3);
        assert_eq!(nodes[0].commits, 1);
        assert_eq!(nodes[1].bytes, 640);
        assert_eq!(nodes[2].aborts, 1);
        assert!((nodes[0].goodput_tps - 1.0).abs() < 1e-9);
        let zones = d.zone_rollups(1_000_000, &[ZoneId(0), ZoneId(0), ZoneId(1)]);
        assert_eq!(zones.len(), 2);
        assert_eq!(zones[0].commits, 2);
        assert_eq!(zones[0].bytes, 640);
        assert_eq!(zones[1].aborts, 1);
    }

    #[test]
    fn zone_rollup_equals_merge_of_member_nodes() {
        let mut d = DimensionedSink::default();
        for (node, lat) in [(0u16, 80u64), (1, 200), (0, 1_000), (2, 40)] {
            d.on_event(&commit(node, lat));
        }
        let mut merged = DimCell::default();
        for c in &d.node_cells()[..2] {
            merged.merge(c);
        }
        let zones = d.zone_rollups(1_000_000, &[ZoneId(0), ZoneId(0), ZoneId(1)]);
        let z = &zones[0];
        assert_eq!(z.label, "Z0");
        assert_eq!(z.commits, merged.latency.count());
        assert_eq!(z.mean_latency_us.to_bits(), merged.latency.mean().to_bits());
        assert_eq!(z.p95_us, merged.latency.quantile(0.95));
        assert_eq!(zones[1].commits, 1);
        // The run histogram is the merge of every node, zone-free.
        let all = d.latency();
        assert_eq!(all.count(), 4);
        assert_eq!((all.min(), all.max()), (40, 1_000));
    }
}
