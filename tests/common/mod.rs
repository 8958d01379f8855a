//! Shared by the integration tests that watch client-visible acks: a
//! `MetricSink` that keeps every `Ack` and `EpochSealed` event an engine
//! emits, and the per-client ack-order check read from it.

use lion::common::FastMap;
use lion::engine::Engine;
use lion::obs::{MetricEvent, MetricSink};
use std::cell::RefCell;
use std::rc::Rc;

/// Records the `Ack` and `EpochSealed` events of one run, in emission order.
/// The engine owns the boxed sink; the test keeps this clone to read it.
#[derive(Clone, Default)]
pub struct AckTap(Rc<RefCell<Vec<MetricEvent>>>);

impl AckTap {
    /// Attaches a fresh tap to `eng.obs.extras`.
    pub fn attach(eng: &mut Engine) -> Self {
        let tap = AckTap::default();
        eng.obs.extras.push(Box::new(tap.clone()));
        tap
    }

    /// The events recorded so far.
    pub fn take(&self) -> Vec<MetricEvent> {
        std::mem::take(&mut self.0.borrow_mut())
    }
}

impl MetricSink for AckTap {
    fn on_event(&mut self, ev: &MetricEvent) {
        if matches!(
            ev,
            MetricEvent::Ack { .. } | MetricEvent::EpochSealed { .. }
        ) {
            self.0.borrow_mut().push(ev.clone());
        }
    }
}

/// Closed-loop protocols: the acks one client observes never go backwards —
/// submission sequence strictly rising, release time never falling.
pub fn assert_client_monotonic(events: &[MetricEvent], label: &str) {
    let mut last: FastMap<u32, (u64, u64)> = FastMap::default();
    for ev in events {
        let MetricEvent::Ack {
            at, client, seq, ..
        } = *ev
        else {
            continue;
        };
        if let Some(&(prev_seq, prev_at)) = last.get(&client.0) {
            assert!(
                seq > prev_seq && at >= prev_at,
                "{label}: client {} saw ack seq {seq} at t={at} after seq {prev_seq} at t={prev_at}",
                client.0
            );
        }
        last.insert(client.0, (seq, at));
    }
}
