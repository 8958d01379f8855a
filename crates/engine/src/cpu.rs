//! CPU service demands, in µs, of the node worker model (8 workers per node,
//! a `lion-cluster` constant). The testbed fixes them (§VI-A), so they are
//! constants: a single-node 10-op YCSB transaction, half reads, occupies one
//! worker for 18 + 5·3 + 5·4 = 53 µs of execution and 6 + 8 = 14 µs of
//! commit.

use lion_common::Time;

/// Executing one read operation.
pub const READ_US: Time = 3;
/// Executing one write operation (buffering + logging).
pub const WRITE_US: Time = 4;
/// OCC validation of one transaction at one participant.
pub const VALIDATE_US: Time = 6;
/// Installing the write set of one transaction at one participant.
pub const INSTALL_US: Time = 8;
/// Fixed per-transaction overhead (parsing, context setup).
pub const TXN_OVERHEAD_US: Time = 18;
/// Handling one network message (messenger thread work).
pub const MSG_HANDLE_US: Time = 2;
/// Lock-manager service time per transaction (deterministic protocols).
pub const LOCK_MGR_US: Time = 2;
