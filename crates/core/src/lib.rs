//! # lion-core
//!
//! The paper's primary contribution: the **Lion** transaction processing
//! protocol (§III–§IV).
//!
//! * [`config`] — protocol configuration and the Table II ablation variants
//!   (`Lion(S)`, `Lion(R)`, `Lion(SW)`, `Lion(RW)`, `Lion(RB)`, `Lion`);
//! * [`router`] — the cost-model transaction router: "dispatch T to a node
//!   with maximum requisite replicas, where the execution cost is the
//!   lowest" (§III);
//! * [`protocol`] — the Lion executor: single-node fast path, inline
//!   remastering of local secondaries, 2PC fallback, and the batch variant
//!   with asynchronous remastering (§IV-D);
//! * [`provision`] — the adaptive replica provision loop: workload analysis
//!   → clump generation → Algorithm 1 → adaptor actions, with LSTM-driven
//!   pre-replication (§IV-A/B/C).

pub mod config;
pub mod protocol;
pub mod provision;
pub mod router;

pub use config::{LionConfig, Partitioning};
pub use protocol::Lion;
pub use provision::{PlanRound, Trigger};
pub use router::route_txn;
