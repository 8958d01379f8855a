//! # lion-baselines
//!
//! All eight comparison systems of §VI-A.2, re-implemented on the same
//! engine and primitives as Lion (the paper's "apples-to-apples, same
//! framework" methodology):
//!
//! **Standard execution** (closed-loop; each is a `StandardPolicy` over the
//! machine in `lion_engine::standard`, like Lion itself):
//! * [`TwoPc`] — classic OCC + two-phase commit; never adapts placement;
//! * [`Leap`] — aggressive on-demand migration: every remote partition is
//!   pulled to the executing node before the operation runs;
//! * [`Clay`] — 2PC execution plus a periodic load monitor that migrates
//!   hot partition clumps off overloaded nodes.
//!
//! **Batch execution** (each implements `Protocol` itself and calls the
//! shared kit in `batch.rs`):
//! * [`Star`] — full-replica "super node" + two-phase switching;
//! * [`Calvin`] — deterministic ordering via a single-threaded lock manager;
//! * [`Hermes`] — deterministic execution + prescient reordering + demand
//!   migration;
//! * [`Aria`] — optimistic parallel execution + write/read reservations;
//! * [`Lotus`] — epoch-based execution with row claims and asynchronous
//!   commit.

pub mod aria;
mod batch;
pub mod calvin;
pub mod clay;
pub mod hermes;
pub mod lotus;
pub mod standard;
pub mod star;

pub use aria::Aria;
pub use calvin::Calvin;
pub use clay::{clay, Clay, ClayPolicy};
pub use hermes::Hermes;
pub use lotus::Lotus;
pub use standard::{leap, two_pc, Leap, TwoPc};
pub use star::Star;
