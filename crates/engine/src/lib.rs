//! # lion-engine
//!
//! The transaction-processing engine every protocol (Lion and all eight
//! baselines) runs on. It drives the discrete-event simulation:
//!
//! * closed-loop clients (standard mode) or batch arming (batch mode, §IV-D);
//! * CPU primitives against each node's worker pool and network primitives
//!   against the latency+bandwidth model;
//! * OCC data access: versioned reads, prepare-locking, validation, install,
//!   with real per-row state so contention and aborts emerge from the data;
//! * epoch-based group replication (§V) and the adaptor operations
//!   (remaster / add-replica / migrate) scheduled on the virtual clock;
//! * observability: every metric flows as a typed [`MetricEvent`] through
//!   [`Engine::emit`] into the `lion-obs` sink pipeline — the run sink
//!   behind every report, the per-node cells whose merges are the zone
//!   rollups and the run's latency histogram, and any caller-attached sinks
//!   (see `ARCHITECTURE.md` § Observability).
//!
//! Protocols implement the [`Protocol`] trait as explicit state machines:
//! the engine wakes them with `(txn, tag)` continuations. The route →
//! execute → local-commit-or-2PC machine lives here once, in [`standard`],
//! and is the `Protocol` of every [`StandardPolicy`].

pub mod cpu;
pub mod engine;
pub mod protocol;
pub mod report;
pub mod slab;
pub mod standard;
pub mod tags;
pub mod txn;

pub use engine::{Engine, EngineConfig, OpFail};
pub use lion_durability::{DurabilityConfig, DurableEpoch, EpochManager, PendingAck};
pub use lion_faults::{FaultEvent, FaultKind, FaultNotice, FaultPlan};
pub use lion_obs::run::{FailoverRecord, Metrics, UnavailWindow};
pub use lion_obs::{ByteClass, CommitClass, DimRollup, MetricEvent, MetricSink, ObsHub, ObsMode};
pub use protocol::{Protocol, TickKind};
pub use report::RunReport;
pub use slab::TxnSlab;
pub use standard::{RemoteAction, StandardPolicy};
pub use txn::{TxnClass, TxnCtx};
