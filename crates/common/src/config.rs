//! Simulation configuration.
//!
//! All knobs carry defaults calibrated to the paper's testbed (§VI-A): 8
//! worker threads per executor node, ~937 Mbit/s links, 2 initial replicas
//! per partition with a cap of 4, a 3000 µs remastering delay, 10 ms commit
//! epochs and 10 k-transaction batches. DESIGN.md §5 documents the CPU cost
//! calibration.

use crate::ids::{NodeId, ZoneId};
use crate::placement::PlacementPolicy;
use crate::Time;

/// Network model: every message pays a fixed one-way latency plus a
/// bandwidth-proportional serialization delay. Messages crossing a zone
/// (rack) boundary pay an extra fixed hop on top — traffic leaves the
/// top-of-rack switch and traverses the aggregation layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// One-way message latency in µs (LAN RTT ≈ 80 µs).
    pub one_way_us: Time,
    /// Link bandwidth in bytes per µs. 937 Mbit/s ≈ 117 B/µs, matching the
    /// iperf3 measurement in §VI-A.
    pub bytes_per_us: f64,
    /// Fixed per-message framing overhead in bytes.
    pub msg_overhead_bytes: u32,
    /// Extra one-way latency in µs for messages that cross a zone boundary.
    /// Zero by default: single-zone clusters and the paper's figures see no
    /// change; the figf2 failure-domain experiment turns it on.
    pub cross_zone_extra_us: Time,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            one_way_us: 40,
            bytes_per_us: 117.0,
            msg_overhead_bytes: 64,
            cross_zone_extra_us: 0,
        }
    }
}

impl NetConfig {
    /// Delay for a message carrying `payload` bytes (zone-local path).
    pub fn delay(&self, payload: u32) -> Time {
        let bytes = (payload + self.msg_overhead_bytes) as f64;
        self.one_way_us + (bytes / self.bytes_per_us).ceil() as Time
    }

    /// Delay for a message carrying `payload` bytes between two zones: the
    /// zone-local delay plus the aggregation-hop surcharge when they differ.
    pub fn delay_between(&self, from: ZoneId, to: ZoneId, payload: u32) -> Time {
        let base = self.delay(payload);
        if from == to {
            base
        } else {
            base + self.cross_zone_extra_us
        }
    }
}

/// CPU service demands, in µs, for the node worker model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuConfig {
    /// Executing one read operation.
    pub read_us: Time,
    /// Executing one write operation (buffering + logging).
    pub write_us: Time,
    /// OCC validation of one transaction at one participant.
    pub validate_us: Time,
    /// Installing the write set of one transaction at one participant.
    pub install_us: Time,
    /// Fixed per-transaction overhead (parsing, context setup).
    pub txn_overhead_us: Time,
    /// Handling one network message (messenger thread work).
    pub msg_handle_us: Time,
    /// Lock-manager service time per transaction (deterministic protocols).
    pub lock_mgr_us: Time,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            read_us: 3,
            write_us: 4,
            validate_us: 6,
            install_us: 8,
            txn_overhead_us: 18,
            msg_handle_us: 2,
            lock_mgr_us: 2,
        }
    }
}

/// Top-level simulated-cluster configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Executor node count (paper default: 4; scalability sweep 4..10).
    pub nodes: usize,
    /// Partitions hosted per node at start (primaries, round-robin).
    pub partitions_per_node: usize,
    /// Rows per partition. Scaled down from the paper's 24 M/node; the access
    /// distribution, not the raw size, drives behaviour.
    pub keys_per_partition: u64,
    /// Payload bytes per row.
    pub value_size: u32,
    /// Initial replicas per partition (k, paper default 2).
    pub replication_factor: usize,
    /// Maximum replicas per partition before eviction (paper default 4).
    pub max_replicas: usize,
    /// Worker threads per node (paper: 8).
    pub workers_per_node: usize,
    /// Closed-loop client contexts per node driving load.
    pub clients_per_node: usize,
    /// Network model.
    pub net: NetConfig,
    /// CPU service demands.
    pub cpu: CpuConfig,
    /// Remastering duration: log sync + leader hand-off (default 3000 µs,
    /// swept 500–3500 in Fig. 13b).
    pub remaster_delay_us: Time,
    /// Fixed component of a partition migration, on top of data transfer.
    /// Sized so the remaster-vs-migration cost gap stays realistic at the
    /// scaled-down table sizes (paper-scale partitions are tens of MB: a
    /// migration blackout is orders of magnitude longer than a remaster).
    pub migration_fixed_us: Time,
    /// Epoch-based group-replication interval (paper: 10 ms). Under epoch
    /// group commit the flush runs every `epoch_commit_us` instead.
    pub epoch_us: Time,
    /// Failure-detection delay: virtual time between a node halting and the
    /// recovery coordinator acting on it (heartbeat timeout).
    pub failure_detect_us: Time,
    /// Poll interval for operations stalled on a partition whose primary is
    /// down with no live replica to promote.
    pub stall_poll_us: Time,
    /// Transactions per batch for batch-execution protocols (paper: 10 k).
    pub batch_size: usize,
    /// Back-off before retrying an aborted transaction.
    pub retry_backoff_us: Time,
    /// RNG seed for deterministic runs.
    pub seed: u64,
    /// Number of failure domains (racks / availability zones). Nodes map to
    /// zones in contiguous blocks unless [`SimConfig::zone_map`] overrides
    /// it. 1 (the default) disables failure-domain modeling entirely.
    pub zones: usize,
    /// Explicit node→zone assignment; empty means the contiguous-block
    /// default derived from [`SimConfig::zones`] (nodes 0..n/z in zone 0,
    /// the next block in zone 1, …) — the layout of racked hardware.
    pub zone_map: Vec<u16>,
    /// Replica placement policy: pure locality (the paper's Algorithm 1) or
    /// rack-safe anti-affinity that spreads every partition's replicas
    /// across at least `min_zones` failure domains.
    pub placement: PlacementPolicy,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            nodes: 4,
            partitions_per_node: 12,
            keys_per_partition: 10_000,
            value_size: 100,
            replication_factor: 2,
            max_replicas: 4,
            workers_per_node: 8,
            clients_per_node: 32,
            net: NetConfig::default(),
            cpu: CpuConfig::default(),
            remaster_delay_us: 3_000,
            migration_fixed_us: 10_000,
            epoch_us: 10_000,
            failure_detect_us: 50_000,
            stall_poll_us: 10_000,
            batch_size: 512,
            retry_backoff_us: 50,
            seed: 0xD1CE_5EED,
            zones: 1,
            zone_map: Vec::new(),
            placement: PlacementPolicy::LocalityFirst,
        }
    }
}

impl SimConfig {
    /// Total partition count.
    pub fn n_partitions(&self) -> usize {
        self.nodes * self.partitions_per_node
    }

    /// Bytes of one full partition copy (for migration/replica-add costs).
    pub fn partition_bytes(&self) -> u64 {
        self.keys_per_partition * (self.value_size as u64 + 16)
    }

    /// Total closed-loop clients.
    pub fn total_clients(&self) -> usize {
        self.nodes * self.clients_per_node
    }

    /// Builder-style override helpers, used heavily by the bench harness.
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Override the remastering delay (Fig. 13b sweep).
    pub fn with_remaster_delay(mut self, us: Time) -> Self {
        self.remaster_delay_us = us;
        self
    }

    /// Override the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the failure-domain count (contiguous-block node assignment).
    pub fn with_zones(mut self, zones: usize) -> Self {
        assert!(zones >= 1, "need at least one zone");
        assert!(
            zones <= self.nodes,
            "{zones} zones over {} nodes would leave some zones empty \
             (set nodes first, or use an explicit zone_map)",
            self.nodes
        );
        self.zones = zones;
        self
    }

    /// Override the replica placement policy.
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Zone of `node`: the explicit [`SimConfig::zone_map`] entry when one
    /// is set, otherwise the contiguous-block default (`idx·zones/nodes`).
    pub fn zone_of(&self, node: NodeId) -> ZoneId {
        if let Some(&z) = self.zone_map.get(node.idx()) {
            return ZoneId(z);
        }
        debug_assert!(self.zones >= 1 && node.idx() < self.nodes);
        ZoneId((node.idx() * self.zones / self.nodes) as u16)
    }

    /// The full node→zone map, one entry per node.
    pub fn node_zones(&self) -> Vec<ZoneId> {
        (0..self.nodes as u16)
            .map(|n| self.zone_of(NodeId(n)))
            .collect()
    }

    /// Nodes assigned to `zone`, in id order.
    pub fn nodes_in_zone(&self, zone: ZoneId) -> Vec<NodeId> {
        (0..self.nodes as u16)
            .map(NodeId)
            .filter(|&n| self.zone_of(n) == zone)
            .collect()
    }

    /// Number of distinct zones actually referenced by the per-node
    /// resolution (equals [`SimConfig::zones`] for the derived layout).
    /// Computed from [`SimConfig::node_zones`] so a partial `zone_map` —
    /// explicit entries for some nodes, the derived formula for the rest —
    /// still counts every zone a node can land in.
    pub fn n_zones(&self) -> usize {
        self.node_zones()
            .into_iter()
            .map(|z| z.idx() + 1)
            .max()
            .unwrap_or(1)
    }

    /// The theoretical minimum commit round-trip this topology allows: the
    /// cheapest empty-payload request/response between two *distinct* nodes
    /// (framing overhead included, zone surcharge where the pair crosses
    /// one). No protocol that coordinates at all can commit a distributed
    /// transaction faster, so reports quote p50 latency as a multiple of
    /// this floor — a scheduling-quality number that survives hardware and
    /// topology changes. Zero for single-node clusters (nothing to cross).
    pub fn commit_floor_us(&self) -> Time {
        if self.nodes < 2 {
            return 0;
        }
        let zones = self.node_zones();
        let mut floor = Time::MAX;
        for a in 0..self.nodes {
            for b in (a + 1)..self.nodes {
                let rtt = self.net.delay_between(zones[a], zones[b], 0)
                    + self.net.delay_between(zones[b], zones[a], 0);
                floor = floor.min(rtt);
            }
        }
        floor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = SimConfig::default();
        assert_eq!(c.nodes, 4);
        assert_eq!(c.replication_factor, 2);
        assert_eq!(c.max_replicas, 4);
        assert_eq!(c.workers_per_node, 8);
        assert_eq!(c.remaster_delay_us, 3_000);
        assert_eq!(c.epoch_us, 10_000);
    }

    #[test]
    fn net_delay_scales_with_bytes() {
        let net = NetConfig::default();
        let small = net.delay(0);
        let big = net.delay(117_000);
        assert!(small >= net.one_way_us);
        assert!(big >= small + 1_000, "1000 µs of serialization for ~117 kB");
    }

    #[test]
    fn partition_bytes_counts_overhead() {
        let c = SimConfig {
            keys_per_partition: 10,
            value_size: 100,
            ..Default::default()
        };
        assert_eq!(c.partition_bytes(), 10 * 116);
    }

    #[test]
    fn builder_overrides() {
        let c = SimConfig::default()
            .with_nodes(10)
            .with_remaster_delay(500)
            .with_seed(7);
        assert_eq!(c.nodes, 10);
        assert_eq!(c.remaster_delay_us, 500);
        assert_eq!(c.seed, 7);
        assert_eq!(c.n_partitions(), 10 * c.partitions_per_node);
    }

    #[test]
    fn commit_floor_is_cheapest_cross_node_round_trip() {
        let c = SimConfig::default();
        // Single zone: the floor is one empty-payload RTT.
        assert_eq!(c.commit_floor_us(), 2 * c.net.delay(0));
        // Two zones with a surcharge: some pair is still intra-zone, so the
        // floor does not pay the surcharge.
        let mut zoned = SimConfig::default().with_nodes(4).with_zones(2);
        zoned.net.cross_zone_extra_us = 60;
        assert_eq!(zoned.commit_floor_us(), 2 * zoned.net.delay(0));
        // Every node in its own zone: now the surcharge is unavoidable.
        let mut all_zoned = SimConfig::default().with_nodes(2).with_zones(2);
        all_zoned.net.cross_zone_extra_us = 60;
        assert_eq!(
            all_zoned.commit_floor_us(),
            2 * (all_zoned.net.delay(0) + 60)
        );
        // One node: no coordination, no floor.
        assert_eq!(SimConfig::default().with_nodes(1).commit_floor_us(), 0);
    }

    #[test]
    fn zone_map_defaults_to_contiguous_blocks() {
        let c = SimConfig::default().with_nodes(4).with_zones(2);
        // Racked layout: nodes 0-1 in Z0, nodes 2-3 in Z1.
        assert_eq!(
            c.node_zones(),
            vec![ZoneId(0), ZoneId(0), ZoneId(1), ZoneId(1)]
        );
        assert_eq!(c.nodes_in_zone(ZoneId(1)), vec![NodeId(2), NodeId(3)]);
        assert_eq!(c.n_zones(), 2);
        // single-zone default: everyone in Z0
        let c1 = SimConfig::default().with_nodes(3);
        assert!(c1.node_zones().iter().all(|&z| z == ZoneId(0)));
    }

    #[test]
    fn explicit_zone_map_overrides_blocks() {
        let mut c = SimConfig::default().with_nodes(4).with_zones(2);
        c.zone_map = vec![0, 1, 0, 1]; // interleaved racks
        assert_eq!(c.zone_of(NodeId(1)), ZoneId(1));
        assert_eq!(c.zone_of(NodeId(2)), ZoneId(0));
        assert_eq!(c.n_zones(), 2);
    }

    #[test]
    fn partial_zone_map_counts_derived_zones() {
        // N0 pinned explicitly; N1-N3 fall back to the contiguous-block
        // formula (Z0, Z1, Z1) — n_zones must count those too.
        let mut c = SimConfig::default().with_nodes(4).with_zones(2);
        c.zone_map = vec![0];
        assert_eq!(c.zone_of(NodeId(3)), ZoneId(1));
        assert_eq!(c.n_zones(), 2);
    }

    #[test]
    #[should_panic(expected = "zones over")]
    fn more_zones_than_nodes_is_rejected() {
        let _ = SimConfig::default().with_nodes(2).with_zones(4);
    }

    #[test]
    fn cross_zone_delay_adds_fixed_hop() {
        let net = NetConfig {
            cross_zone_extra_us: 150,
            ..NetConfig::default()
        };
        let local = net.delay_between(ZoneId(0), ZoneId(0), 100);
        let cross = net.delay_between(ZoneId(0), ZoneId(1), 100);
        assert_eq!(local, net.delay(100));
        assert_eq!(cross, local + 150);
        // zero surcharge (the default) leaves every path identical
        let flat = NetConfig::default();
        assert_eq!(flat.delay_between(ZoneId(0), ZoneId(1), 64), flat.delay(64));
    }
}
