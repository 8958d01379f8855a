//! # lion-storage
//!
//! The storage substrate of the reproduced cluster (§II-A): in-memory
//! versioned tables with per-row lock bits for OCC, a primary-to-secondary
//! replication log with epoch-batched shipping, and replica copies for
//! replica add. A row is addressed by its key on every replica.
//!
//! Each partition replica is a [`ReplicaStore`]; a node hosts one store per
//! replica it holds. Primaries execute reads/writes and append log entries;
//! secondaries apply shipped entries and track their replication lag (which
//! prices remastering: a lagging secondary must sync before taking over).

pub mod log;
pub mod row;
pub mod store;
pub mod table;

pub use log::{LogEntry, ReplicationLog};
pub use row::{Bytes, Row};
pub use store::{ReplicaRole, ReplicaStore};
pub use table::{OpOutcome, Table};
