//! # lion
//!
//! A from-scratch Rust reproduction of **"Lion: Minimizing Distributed
//! Transactions through Adaptive Replica Provision"** (ICDE 2024).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] — the Lion protocol: cost-model routing, remastering-based
//!   single-node conversion, the adaptive replica provision planner, and the
//!   LSTM-driven pre-replication trigger;
//! * [`baselines`] — the eight comparison systems of the paper's evaluation;
//! * [`engine`] / [`cluster`] / [`storage`] / [`sim`] — the simulated
//!   distributed-database substrate everything runs on;
//! * [`planner`] / [`predictor`] — the pure planning and forecasting
//!   algorithms;
//! * [`obs`] — the typed metric-event pipeline: `MetricEvent`s emitted from
//!   the engine hot path into composable `MetricSink`s (run metrics,
//!   per-node/per-zone rollups, JSON export);
//! * [`workloads`] — YCSB and TPC-C generators with the paper's knobs.
//!
//! ## Quick start
//!
//! ```
//! use lion::prelude::*;
//!
//! let sim = SimConfig { nodes: 2, partitions_per_node: 2,
//!     keys_per_partition: 512, clients_per_node: 4, ..Default::default() };
//! let wl = Box::new(YcsbWorkload::new(
//!     YcsbConfig::for_cluster(2, 2, 512).with_mix(0.5, 0.0)));
//! let mut eng = Engine::new(sim, wl);
//! let mut lion = Lion::standard();
//! let report = eng.run(&mut lion, SECOND / 2);
//! assert!(report.commits > 0);
//! ```

pub use lion_baselines as baselines;
pub use lion_cluster as cluster;
pub use lion_common as common;
pub use lion_core as core;
pub use lion_engine as engine;
pub use lion_faults as faults;
pub use lion_obs as obs;
pub use lion_planner as planner;
pub use lion_predictor as predictor;
pub use lion_sim as sim;
pub use lion_storage as storage;
pub use lion_workloads as workloads;

/// The names most programs need.
pub mod prelude {
    pub use lion_baselines::{clay, leap, two_pc, Aria, Calvin, Hermes, Lotus, Star};
    pub use lion_cluster::Cluster;
    pub use lion_common::{
        ClientId, Key, NodeId, Op, OpKind, PartitionId, Phase, Placement, PlacementPolicy,
        SimConfig, Time, TxnId, TxnRequest, Workload, ZoneId, MILLIS, SECOND,
    };
    pub use lion_core::{Lion, LionConfig, Partitioning};
    pub use lion_engine::{DurabilityConfig, Engine, EngineConfig, Protocol, RunReport, TickKind};
    pub use lion_faults::{FaultKind, FaultNotice, FaultPlan};
    pub use lion_obs::{MetricEvent, MetricSink, ObsMode};
    pub use lion_planner::PlannerConfig;
    pub use lion_predictor::{Lstm, PredictorConfig, WorkloadPredictor};
    pub use lion_workloads::{Schedule, TpccConfig, TpccWorkload, YcsbConfig, YcsbWorkload, Zipf};
}
