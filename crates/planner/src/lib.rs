//! # lion-planner
//!
//! Lion's *planner* node (§III): the workload analyzer and plan generator.
//!
//! * [`graph`] — the heat graph `G(V, E)` built from a batch of observed
//!   (and predicted) transactions (§IV-A, Fig. 3a);
//! * [`clump`] — the clustering pass that grows clumps of co-accessed
//!   partitions from the hottest seeds (§IV-A, Fig. 3b);
//! * [`cost`] — the cost model of Eq. 3–4 pricing a placement by remastering
//!   vs migration work, one body for Algorithm 1 and the routers;
//! * [`rearrange()`] — Algorithm 1: greedy clump dispatching followed by load
//!   fine-tuning (§IV-B, Fig. 4);
//! * [`schism`] — a Schism-style replica-oblivious graph partitioner used by
//!   the `Lion(S)`/`Lion(SW)` ablation variants (Table II).
//!
//! Everything here is a pure function over [`lion_common`] types, so the
//! whole planning pipeline is unit- and property-testable in isolation.

pub mod clump;
pub mod cost;
pub mod graph;
pub mod rearrange;
pub mod schism;

pub use clump::{generate_clumps, Clump};
pub use cost::{operational_cost, TxnPlacementClass};
pub use graph::HeatGraph;
pub use rearrange::{
    rearrange, rearrange_with_topology, PlanAction, PlanEntry, PlannerConfig, ReconfigurationPlan,
};
pub use schism::{schism_partition, schism_plan};
