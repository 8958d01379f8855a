//! Simulation configuration.
//!
//! All knobs carry defaults calibrated to the paper's testbed (§VI-A): ~937
//! Mbit/s links, 2 initial replicas per partition with a cap of 4, a 3000 µs
//! remastering delay, 10 ms replication epochs and 512-transaction batches.
//! What the testbed fixes and no run varies is a constant beside its reader:
//! the link bandwidth and message framing here, the 8 workers per node in
//! `lion-cluster`, the CPU service demands in `lion-engine`.

use crate::ids::{NodeId, ZoneId};
use crate::placement::PlacementPolicy;
use crate::Time;

/// Link bandwidth in bytes per µs: 937 Mbit/s ≈ 117 B/µs, the iperf3
/// measurement of §VI-A.
pub const BYTES_PER_US: u64 = 117;

/// Serialization time of `bytes` on one link: whole µs, rounded up.
pub fn wire_us(bytes: u64) -> Time {
    bytes.div_ceil(BYTES_PER_US)
}

/// Fixed per-message framing overhead in bytes.
pub const MSG_OVERHEAD_BYTES: u32 = 64;

/// Network model: every message pays a fixed one-way latency plus a
/// bandwidth-proportional serialization delay ([`BYTES_PER_US`], framing
/// [`MSG_OVERHEAD_BYTES`] included). Messages crossing a zone (rack)
/// boundary pay an extra fixed hop on top — traffic leaves the top-of-rack
/// switch and traverses the aggregation layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// One-way message latency in µs (LAN RTT ≈ 80 µs).
    pub one_way_us: Time,
    /// Extra one-way latency in µs for messages that cross a zone boundary.
    /// Zero by default: single-zone clusters and the paper's figures see no
    /// change; the figf2 failure-domain experiment turns it on.
    pub cross_zone_extra_us: Time,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            one_way_us: 40,
            cross_zone_extra_us: 0,
        }
    }
}

impl NetConfig {
    /// Delay for a message carrying `payload` bytes (zone-local path).
    pub fn delay(&self, payload: u32) -> Time {
        self.one_way_us + wire_us(u64::from(payload) + u64::from(MSG_OVERHEAD_BYTES))
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
    /// Closed-loop client contexts per node driving load.
    pub clients_per_node: usize,
    /// Network model.
    pub net: NetConfig,
    /// Remastering duration: log sync + leader hand-off (default 3000 µs,
    /// swept 500–3500 in Fig. 13b).
    pub remaster_delay_us: Time,
    /// Epoch-based group-replication interval (paper: 10 ms). Under epoch
    /// group commit the flush runs every `epoch_commit_us` instead.
    pub epoch_us: Time,
    /// Poll interval for operations stalled on a partition whose primary is
    /// down with no live replica to promote.
    pub stall_poll_us: Time,
    /// Transactions per batch for batch-execution protocols (paper: 10 k;
    /// 512 here, scaled with the tables).
    pub batch_size: usize,
    /// Back-off before retrying an aborted transaction.
    pub retry_backoff_us: Time,
    /// RNG seed for deterministic runs.
    pub seed: u64,
    /// Number of failure domains (racks / availability zones). Nodes map to
    /// zones in contiguous blocks (nodes 0..n/z in zone 0, the next block in
    /// zone 1, …), the layout of racked hardware. 1 (the default) disables
    /// failure-domain modeling entirely.
    pub zones: usize,
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
            clients_per_node: 32,
            net: NetConfig::default(),
            remaster_delay_us: 3_000,
            epoch_us: 10_000,
            stall_poll_us: 10_000,
            batch_size: 512,
            retry_backoff_us: 50,
            seed: 0xD1CE_5EED,
            zones: 1,
            placement: PlacementPolicy::LocalityFirst,
        }
    }
}

impl SimConfig {
    /// Total partition count.
    pub fn n_partitions(&self) -> usize {
        self.nodes * self.partitions_per_node
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
             (set nodes first)",
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

    /// Zone of `node`: contiguous blocks, `idx·zones/nodes`.
    pub fn zone_of(&self, node: NodeId) -> ZoneId {
        debug_assert!(self.zones >= 1 && node.idx() < self.nodes);
        ZoneId((node.idx() * self.zones / self.nodes) as u16)
    }

    /// The full node→zone map, one entry per node.
    pub fn node_zones(&self) -> Vec<ZoneId> {
        (0..self.nodes as u16)
            .map(|n| self.zone_of(NodeId(n)))
            .collect()
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
    fn wire_time_is_the_f64_ceiling_it_replaced() {
        let f64_ceil = |b: u64| (b as f64 / 117.0).ceil() as Time;
        let near_u32_max = u64::from(u32::MAX) - 300..=u64::from(u32::MAX) + 300;
        for b in (0..=1 << 20).chain(near_u32_max) {
            assert_eq!(wire_us(b), f64_ceil(b), "{b} bytes");
        }
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
        // single-zone default: everyone in Z0
        let c1 = SimConfig::default().with_nodes(3);
        assert!(c1.node_zones().iter().all(|&z| z == ZoneId(0)));
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
