//! The sink contract and the engine-side dispatcher.

use crate::dims::DimensionedSink;
use crate::event::MetricEvent;
use crate::run::Metrics;

/// A metric sink: receives every hot-path event, decides what to retain.
///
/// Contract: `on_event` must not panic on any event order the engine can
/// produce, must be deterministic (no wall clock, no ambient randomness),
/// and must never feed back into the simulation — sinks observe, they do
/// not steer. The digest goldens pin the run sink's folds; anything a new
/// sink accumulates is digest-excluded by construction because `digest()`
/// never reads it.
pub trait MetricSink {
    /// Folds one event into the sink's state.
    fn on_event(&mut self, ev: &MetricEvent);
}

/// How much of the pipeline runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObsMode {
    /// Drop every event: the zero-cost yardstick the `lion-bench obsgate`
    /// overhead gate compares the full pipeline against (`RunReport` comes
    /// out zeroed).
    Null,
    /// Run sink + dimensioned rollups + any extra sinks.
    #[default]
    Full,
}

/// The engine-side dispatcher: owns every sink except the run sink (which
/// the engine keeps as a public field so tests and examples can read the
/// aggregate directly) and fans each event out according to [`ObsMode`].
#[derive(Default)]
pub struct ObsHub {
    /// Pipeline mode.
    pub mode: ObsMode,
    /// Per-node cells; zone rows and the run's latency histogram are
    /// merges of them.
    pub dims: DimensionedSink,
    /// Caller-attached sinks.
    pub extras: Vec<Box<dyn MetricSink>>,
}

impl std::fmt::Debug for ObsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsHub")
            .field("mode", &self.mode)
            .field("dims", &self.dims)
            .field("extras", &self.extras.len())
            .finish()
    }
}

impl ObsHub {
    /// Creates a hub in the given mode with no extra sinks.
    pub fn new(mode: ObsMode) -> Self {
        ObsHub {
            mode,
            dims: DimensionedSink::default(),
            extras: Vec::new(),
        }
    }

    /// Dispatches one event: run sink first (digest order is its business),
    /// then the dimensioned sink, then extras in attachment order.
    #[inline]
    pub fn emit(&mut self, run: &mut Metrics, ev: MetricEvent) {
        if self.mode == ObsMode::Null {
            return;
        }
        run.on_event(&ev);
        self.dims.on_event(&ev);
        for s in &mut self.extras {
            s.on_event(&ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lion_common::NodeId;

    fn commit_ev(at: u64) -> MetricEvent {
        MetricEvent::Commit {
            at,
            latency_us: 100,
            class: crate::CommitClass::SingleNode,
            node: NodeId(0),
            phase_us: [0; 5],
        }
    }

    #[test]
    fn null_mode_reaches_no_sink() {
        let mut hub = ObsHub::new(ObsMode::Null);
        let mut run = Metrics::new();
        hub.emit(&mut run, commit_ev(5));
        assert_eq!(run.commits, 0);
        assert!(hub.dims.node_rollups(1_000_000).is_empty());
    }

    #[test]
    fn full_mode_feeds_run_dims_and_extras() {
        struct Counter(u64);
        impl MetricSink for Counter {
            fn on_event(&mut self, _ev: &MetricEvent) {
                self.0 += 1;
            }
        }
        let mut hub = ObsHub::new(ObsMode::Full);
        hub.extras.push(Box::new(Counter(0)));
        let mut run = Metrics::new();
        hub.emit(&mut run, commit_ev(5));
        hub.emit(&mut run, commit_ev(6));
        assert_eq!(run.commits, 2);
        // One latency sample per commit, in its node's cell.
        assert_eq!(hub.dims.node_rollups(1_000_000).len(), 1);
        assert_eq!(hub.dims.latency().count(), 2);
    }
}
