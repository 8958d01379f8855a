//! The `Cluster` struct, its construction, the read accessors every layer
//! uses (stores, liveness, zones, network pricing, a partition's hand-off
//! state) and the cross-structure consistency check.

use crate::freq::FreqTracker;
use crate::replicas::populate_stores;
use crate::split::SplitBrain;
use crate::transfer::{PartitionRuntime, Transfer};
use lion_common::{FastMap, NodeId, PartitionId, SimConfig, Time, ZoneId};
use lion_sim::MultiServer;
use lion_storage::{ReplicaRole, ReplicaStore};

/// Worker threads per node: the paper's 8 (§VI-A).
const WORKERS_PER_NODE: usize = 8;

/// The simulated cluster state shared by every protocol.
pub struct Cluster {
    /// Static configuration.
    pub cfg: SimConfig,
    /// Current replica placement (the "global router table" of §V); in
    /// this crate only `replicas.rs` writes it.
    pub placement: lion_common::Placement,
    /// Per-node worker pools.
    pub workers: Vec<MultiServer>,
    /// Per-partition adaptor runtime state.
    pub parts: Vec<PartitionRuntime>,
    /// Access-frequency tracking for the cost model and eviction.
    pub freq: FreqTracker,
    /// Per-node liveness (fault injection; all nodes start up).
    pub node_up: Vec<bool>,
    /// Node→failure-domain map (from [`SimConfig::node_zones`]). Every
    /// zone-aware decision — cross-zone network pricing, anti-affinity
    /// eviction, correlated crash scenarios — reads this one vector.
    pub zone_of: Vec<ZoneId>,
    /// Per-node stores by partition; only `replicas.rs` inserts or removes.
    pub(crate) stores: Vec<FastMap<u32, ReplicaStore>>,
    /// Active split-brain window, when a `split_brain` fault plan has a
    /// partition open (`None` outside windows and on the legacy path).
    pub(crate) split: Option<SplitBrain>,
}

impl Cluster {
    /// Builds a cluster with the paper's default round-robin layout and
    /// populated tables.
    pub fn new(cfg: SimConfig) -> Self {
        let n_parts = cfg.n_partitions();
        let zone_of = cfg.node_zones();
        // Rack-safe deployments start from the anti-affinity layout; the
        // locality-first default's floor of one zone makes the same call
        // the paper's round-robin exactly.
        let placement = lion_common::Placement::zone_spread(
            n_parts,
            cfg.nodes,
            cfg.replication_factor,
            &zone_of,
            cfg.placement.min_zones(),
        );
        let workers = (0..cfg.nodes)
            .map(|_| MultiServer::new(WORKERS_PER_NODE))
            .collect();
        let stores = populate_stores(&cfg, &placement);
        let parts = vec![PartitionRuntime::default(); n_parts];
        let freq = FreqTracker::new(n_parts);
        let node_up = vec![true; cfg.nodes];
        Cluster {
            cfg,
            placement,
            workers,
            parts,
            freq,
            node_up,
            zone_of,
            stores,
            split: None,
        }
    }

    /// Node count.
    pub fn n_nodes(&self) -> usize {
        self.cfg.nodes
    }

    /// Partition count.
    pub fn n_partitions(&self) -> usize {
        self.parts.len()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.cfg.nodes as u16).map(NodeId)
    }

    /// Replica store hosted by `node` for `part`, if any.
    pub fn store(&self, node: NodeId, part: PartitionId) -> Option<&ReplicaStore> {
        self.stores[node.idx()].get(&part.0)
    }

    /// Mutable replica store.
    pub fn store_mut(&mut self, node: NodeId, part: PartitionId) -> Option<&mut ReplicaStore> {
        self.stores[node.idx()].get_mut(&part.0)
    }

    /// Store of the current primary replica.
    pub(crate) fn primary_store(&self, part: PartitionId) -> &ReplicaStore {
        self.store(self.placement.primary_of(part), part)
            .expect("primary store must exist")
    }

    /// Mutable store of the current primary replica.
    pub fn primary_store_mut(&mut self, part: PartitionId) -> &mut ReplicaStore {
        self.store_mut(self.placement.primary_of(part), part)
            .expect("primary store must exist")
    }

    /// Head LSN of `node`'s log for `part` (0 when it holds no store).
    pub fn log_head(&self, node: NodeId, part: PartitionId) -> u64 {
        self.store(node, part).map_or(0, |s| s.log.head_lsn())
    }

    /// Network delay for one message of `bytes` payload (zone-local path;
    /// use [`Cluster::net_delay_between`] when both endpoints are known).
    pub fn net_delay(&self, bytes: u32) -> Time {
        self.cfg.net.delay(bytes)
    }

    /// Network delay for one message of `bytes` payload from `from` to
    /// `to`: zone-local messages pay the base cost, cross-zone messages the
    /// aggregation-layer surcharge on top.
    pub fn net_delay_between(&self, from: NodeId, to: NodeId, bytes: u32) -> Time {
        self.cfg
            .net
            .delay_between(self.zone_of[from.idx()], self.zone_of[to.idx()], bytes)
    }

    /// The failure domain hosting `node`.
    #[inline]
    pub fn zone(&self, node: NodeId) -> ZoneId {
        self.zone_of[node.idx()]
    }

    /// Distinct failure domains currently covered by `part`'s replica set.
    pub fn zone_coverage(&self, part: PartitionId) -> usize {
        self.placement.zone_coverage(part, &self.zone_of)
    }

    /// True when `node` is alive.
    #[inline]
    pub fn is_up(&self, node: NodeId) -> bool {
        self.node_up[node.idx()]
    }

    /// Number of live nodes.
    pub fn live_count(&self) -> usize {
        self.node_up.iter().filter(|&&u| u).count()
    }

    /// Live node ids.
    pub fn live_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_up
            .iter()
            .enumerate()
            .filter(|(_, &up)| up)
            .map(|(i, _)| NodeId(i as u16))
    }

    /// Earliest time operations on `part` may execute.
    pub fn available_at(&self, part: PartitionId) -> Time {
        self.parts[part.idx()].blocked_until
    }

    /// The hand-off in flight on `part`.
    pub fn transfer(&self, part: PartitionId) -> Transfer {
        self.parts[part.idx()].transfer()
    }

    /// Checks cross-structure consistency: placement against stores and
    /// roles, and whether each partition's hand-off can still land. Called
    /// by tests and, on every run, by the benchmark's correctness gate.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.placement.validate().map_err(|e| e.to_string())?;
        for p in 0..self.n_partitions() {
            let part = PartitionId(p as u32);
            let primary = self.placement.primary_of(part);
            let store = self
                .store(primary, part)
                .ok_or_else(|| format!("{part}: primary node {primary} has no store"))?;
            if store.role != ReplicaRole::Primary {
                return Err(format!("{part}: store on {primary} is not primary"));
            }
            // A cell names the same row in every store of the partition,
            // listed or left on a down node's disk.
            let foreign = |m: &FastMap<u32, ReplicaStore>| {
                m.get(&part.0)
                    .is_some_and(|s| !s.table.shares_cells_with(&store.table))
            };
            if let Some(n) = self.stores.iter().position(foreign) {
                return Err(format!(
                    "{part}: store on N{n} does not share the primary's cells"
                ));
            }
            for &sec in self.placement.secondaries_of(part) {
                let s = self
                    .store(sec, part)
                    .ok_or_else(|| format!("{part}: secondary {sec} has no store"))?;
                if s.role != ReplicaRole::Secondary {
                    return Err(format!("{part}: store on {sec} is not secondary"));
                }
                // Crashes strip dead secondaries at once; only a window's
                // cross-cut promotion can leave one listed, until the heal.
                if !self.split_active() && !self.is_up(sec) {
                    return Err(format!("{part}: dead secondary {sec} outside a window"));
                }
            }
            // The transfer state: whatever is in flight can still land.
            let rt = &self.parts[p];
            let sound = match rt.transfer() {
                Transfer::Idle => rt.blocked_until <= rt.idle_cap(),
                Transfer::Remaster { to } => {
                    self.reachable(primary, to) && self.placement.has_secondary(part, to)
                }
                Transfer::Migrate { to } => self.reachable(primary, to),
                Transfer::Failover { to } => self.is_up(to) && self.store(to, part).is_some(),
                Transfer::Stalled => !self.is_up(primary),
            } && rt.failover.is_some()
                == matches!(rt.transfer(), Transfer::Failover { .. });
            if !sound {
                return Err(format!(
                    "{part}: {:?} cannot hold (primary {primary}, blocked until {}, idle cap {})",
                    rt.transfer(),
                    rt.blocked_until,
                    rt.idle_cap()
                ));
            }
            let lost = |n: &NodeId| !self.is_up(*n) || !self.same_side(primary, *n);
            if let Some(n) = rt.copy_targets().find(lost) {
                return Err(format!("{part}: copy toward dead or cut-off node {n}"));
            }
        }
        Ok(())
    }
}
