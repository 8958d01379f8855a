//! The one epoch clock: every tick ships every pending replication log
//! (§V), and under epoch group commit the tick is also the seal, so an
//! epoch's client-visible acks escape only behind that flush's replication
//! round trip. Reachable only from the event loop and from `commit`.

use super::{Engine, Ev};
use lion_durability::PendingAck;
use lion_obs::{ByteClass, MetricEvent};

impl Engine {
    /// One epoch boundary: flushes every pending replication log and hands
    /// the flush to the epoch manager, which seals the open epoch on it
    /// (group commit) or declines (ack-at-commit). A sealed epoch rides out
    /// the slowest secondary round trip before its acks are released.
    /// Re-arms itself.
    pub(super) fn epoch_tick(&mut self) {
        let flush = self.cluster.epoch_flush_for_seal();
        // Emitted even for 0 bytes: the series bucket this touches is part
        // of the digest contract.
        self.emit_bytes(ByteClass::Replication, flush.bytes);
        if let Some(id) = self.epochs.seal(flush.frontiers) {
            let at = self.now();
            self.emit(MetricEvent::EpochSealed { at });
            self.queue
                .schedule(flush.max_transit_us, Ev::EpochDurable(id));
        }
        self.queue
            .schedule(self.epochs.period(self.cfg.sim.epoch_us), Ev::Epoch);
    }

    /// A sealed epoch's replication landed: certify its log frontiers as
    /// acked and release every parked ack. Stale when a crash (or a cut's
    /// promotions) advanced the epoch fence past `id` in the meantime.
    pub(super) fn epoch_durable(&mut self, id: u64) {
        let now = self.now();
        let Some(epoch) = self.epochs.take_durable(id, now) else {
            return;
        };
        for (part, lsn) in epoch.frontiers {
            let primary = self.cluster.placement.primary_of(part);
            if let Some(store) = self.cluster.store_mut(primary, part) {
                // Epoch-mode acks only ever escape *behind* replication, so
                // the ack frontier can never legitimately pass the shipped
                // frontier. Capping matters when the primary moved between
                // seal and durability (a remaster raced the transit): the
                // new primary's log never shipped these entries, and an
                // uncapped mark would fabricate acked-but-unshipped state
                // the split-brain heal audit then miscounts as lost acks.
                let capped = lsn.min(store.log.shipped_lsn());
                store.log.mark_acked(capped);
            }
        }
        for &ack in &epoch.acks {
            self.release_ack(ack);
        }
        self.epochs.recycle(epoch.acks);
    }

    /// The ack half of `commit`: ack-at-commit releases the client-visible
    /// ack on the spot; epoch group commit parks it in the open epoch until
    /// that epoch's replication is durable — fenced, when the quorum fence
    /// says it can never turn durable inside this split window (the heal
    /// retries it).
    pub(super) fn ack_or_park(&mut self, ack: PendingAck, fenced: bool) {
        if !self.epochs.enabled() {
            self.release_ack(ack);
        } else if fenced {
            self.emit(MetricEvent::FencedAck {
                at: ack.committed_at,
            });
            self.epochs.park_fenced(ack);
        } else {
            self.epochs.park(ack);
        }
    }

    /// Releases one client-visible ack: emits its one record, the `Ack`
    /// event, and re-arms the issuing client (standard mode; batch clients
    /// are paced by the batch loop and only get the latency accounting).
    fn release_ack(&mut self, ack: PendingAck) {
        let at = self.now();
        self.emit(MetricEvent::Ack {
            at,
            latency_us: at.saturating_sub(ack.start),
            client: ack.client,
            seq: ack.seq,
        });
        if !self.batch_mode {
            self.queue.schedule(1, Ev::ClientNext(ack.client));
        }
    }

    /// A crash voids every non-durable epoch: their parked transactions
    /// were never acked, so instead of losing acked work the clients simply
    /// retry (and re-observe the committed result). The epoch fence advances
    /// so a promoted primary cannot release an ack from the dead primary's
    /// timeline.
    pub(super) fn abort_open_epochs(&mut self) {
        if self.epochs.enabled() {
            let abort = self.epochs.on_crash();
            let (at, n) = (self.now(), abort.epochs_aborted);
            self.emit(MetricEvent::EpochsAborted { at, n });
            self.retry_unacked(abort.retried);
        }
    }

    /// The clients of an aborted epoch's parked, never-released acks retry
    /// after the back-off (standard mode; batch clients are paced by the
    /// batch loop). Group-commit-aware retry pricing: when `retry_round_trip`
    /// is on, each idempotent resubmission pays its own request round trip
    /// on the wire (request out + ack back, at message framing size) instead
    /// of reappearing for free after the back-off.
    pub(super) fn retry_unacked(&mut self, retried: Vec<PendingAck>) {
        let now = self.now();
        let mut delay = self.cfg.sim.retry_backoff_us;
        if self.epochs.retry_round_trip() && !retried.is_empty() {
            let framing = u64::from(lion_common::MSG_OVERHEAD_BYTES);
            self.emit_bytes(ByteClass::Message, 2 * framing * retried.len() as u64);
            delay += 2 * self.cfg.sim.net.delay(0);
        }
        for ack in retried {
            self.emit(MetricEvent::EpochRetriedAck { at: now });
            if !self.batch_mode {
                self.queue.schedule(delay, Ev::ClientNext(ack.client));
            }
        }
    }
}
