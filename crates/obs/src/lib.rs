//! # lion-obs
//!
//! The observability pipeline: the engine hot path emits typed
//! [`MetricEvent`]s; **sinks** decide what to retain. The split follows
//! reth's `MetricsListener` design — instrumentation points carry facts
//! (what happened, when, where), not storage decisions.
//!
//! * [`MetricEvent`] — the event taxonomy: commit/abort/ack with latency
//!   and phase breakdown, bytes by class, remaster/migration/replica ops,
//!   and the crash/recover/failover/epoch lifecycle. Every event carries
//!   its virtual timestamp; node/partition context rides along where it is
//!   meaningful (a node's zone is configuration, so only a zone loss names
//!   one).
//! * [`MetricSink`] — the sink contract: a single `on_event`.
//! * [`Metrics`] (the *run sink*, alias [`RunMetricsSink`]) — the
//!   aggregate every `RunReport` is built from. Its event handlers perform
//!   exactly the mutations the engine's old inline field pokes did, in the
//!   same order, so the pinned digest goldens are byte-identical.
//! * [`DimensionedSink`] — per-node cells (aborts, bytes, a commit-latency
//!   histogram): the one place a commit's latency is folded. Zone rows and
//!   the run's latency histogram are exact merges of these cells.
//! * [`ObsHub`] — the engine-side dispatcher: run sink + dimensioned sink
//!   + any extra boxed sinks, gated by [`ObsMode`].
//! * [`ObsMode::Null`] — drops everything; the overhead yardstick for the
//!   `lion-bench obsgate` CI gate.
//! * [`json`] — the hand-rolled JSON writer/parser every machine-readable
//!   export shares (the offline build has no serde).
//!
//! Time series inside the sinks use [`lion_sim::RingSeries`], so sink
//! memory is constant in run length.

pub mod dims;
pub mod event;
pub mod json;
pub mod run;
pub mod sink;

pub use dims::{DimCell, DimRollup, DimensionedSink};
pub use event::{ByteClass, CommitClass, MetricEvent};
pub use run::{
    FailoverRecord, Metrics, RunMetricsSink, UnavailWindow, GOODPUT_BUCKET_US, SERIES_BUCKET_US,
};
pub use sink::{MetricSink, ObsHub, ObsMode};
