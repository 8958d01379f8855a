//! # lion-cluster
//!
//! The simulated share-nothing cluster of §III: executor nodes with worker
//! pools, partition replicas with primary/secondary roles, and the *adaptor*
//! operations every protocol composes:
//!
//! * **remastering** — promote a secondary after syncing its lag, blocking
//!   the partition only for the hand-off window (§III);
//! * **replica addition** — background snapshot copy that never blocks the
//!   primary (§III "asynchronous adjustment");
//! * **migration** — full data move that blocks the partition while in
//!   flight (the cost the migration-based baselines pay, §II-B.1);
//! * **replica removal** — eviction when the replica cap is exceeded
//!   (§IV-B.2).
//!
//! Timing is decided here (durations, bytes); the engine schedules the
//! corresponding events on the virtual clock.
//!
//! One `Cluster` struct, five plain `impl Cluster` files, one job each
//! (ARCHITECTURE.md § Cluster modules): `cluster.rs` the struct and its read
//! accessors, `replicas.rs` every write to the replica set and every log
//! shipment, `transfer.rs` the hand-off state machine and the adaptor
//! operations, `failure.rs` crash/failover/restart, `split.rs` the
//! split-brain view.

mod cluster;
mod failure;
pub mod freq;
mod replicas;
mod split;
#[cfg(test)]
mod tests;
mod transfer;

pub use cluster::Cluster;
pub use failure::{CrashReport, Promotion, RecoveryReport};
pub use freq::FreqTracker;
pub use replicas::EpochFlush;
pub use split::SplitBrain;
pub use transfer::{AdaptorError, CopyLanded, PartitionRuntime, Transfer, LAG_SYNC_US_PER_ENTRY};
