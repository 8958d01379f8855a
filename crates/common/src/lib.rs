//! # lion-common
//!
//! Shared vocabulary types for the Lion reproduction: identifiers, operations,
//! transaction requests, the replica [`Placement`] map that every component
//! (router, planner, adaptor) reasons about, and the configuration knobs that
//! mirror the parameters of the paper's evaluation (§VI-A).
//!
//! This crate is dependency-light on purpose: the planner and predictor are
//! pure algorithms over these types, which keeps them testable without the
//! simulation engine.

pub mod config;
pub mod ids;
pub mod ops;
pub mod placement;
pub mod workload;

pub use config::{NetConfig, SimConfig, BYTES_PER_US, MSG_OVERHEAD_BYTES};
pub use ids::{ClientId, Key, NodeId, PartitionId, TxnId, ZoneId};
pub use ops::{Op, OpKind, Phase, TxnRecord, TxnRequest};
pub use placement::{FailoverRecord, Placement, PlacementError, PlacementPolicy};
pub use workload::Workload;

/// Deterministic fast hash map for hot-path state (row tables, transaction
/// maps, planner graphs). Backed by the vendored Fx hasher: no per-process
/// SipHash seed, so the same keys hash — and the same capacity resizes
/// happen — identically in every run, and small-integer keys hash in a few
/// cycles instead of a full SipHash permutation.
pub type FastMap<K, V> = fxhash::FxHashMap<K, V>;

/// Deterministic fast hash set; see [`FastMap`].
pub type FastSet<T> = fxhash::FxHashSet<T>;

/// Builds a [`FastMap`] pre-sized for `cap` entries (the `HashMap::new`-style
/// constructors are not available for custom hashers).
pub fn fast_map_with_capacity<K, V>(cap: usize) -> FastMap<K, V> {
    FastMap::with_capacity_and_hasher(cap, Default::default())
}

/// Virtual time in microseconds. The whole simulation runs on this clock.
pub type Time = u64;

/// One simulated second, in [`Time`] units.
pub const SECOND: Time = 1_000_000;

/// One simulated millisecond, in [`Time`] units.
pub const MILLIS: Time = 1_000;
