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

pub mod freq;
pub mod topology;

pub use freq::FreqTracker;
pub use topology::{
    AdaptorError, Cluster, CrashReport, EpochFlush, PartitionRuntime, RecoveryReport, SplitBrain,
    Transfer, LAG_SYNC_US_PER_ENTRY,
};
