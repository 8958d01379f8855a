//! # lion-durability
//!
//! Epoch-consistent group commit (COCO/STAR-style): the *client-visible ack*
//! of a transaction is decoupled from its protocol commit and held until the
//! commit epoch it belongs to is **durable** — its prepare-log entries
//! flushed and replicated to every live secondary.
//!
//! The engine keeps committing exactly as before (locks release, writes
//! install, the context is freed); what this crate manages is the *ack*:
//!
//! * every committing transaction is parked in the open epoch;
//! * the epoch seals on the DES clock every `epoch_commit_us`, and the seal
//!   *is* the replication flush (there is no second flush clock), so the
//!   epoch becomes durable once the slowest secondary round-trip lands;
//! * at durability, every parked transaction is acked: its client learns
//!   the outcome, the ack-latency histogram records `now - start`, and
//!   closed-loop clients are re-armed;
//! * a node crash **aborts every non-durable epoch**: their parked (never
//!   acked!) transactions are retried by their clients instead of being
//!   reported successful-then-lost, and the epoch fence advances so a
//!   promoted primary can never ack an epoch the dead primary's timeline
//!   already decided differently.
//!
//! With `epoch_commit_us = 0` the manager is disabled and the engine acks at
//! commit time, byte-for-byte reproducing the pre-subsystem behavior (the
//! determinism-digest goldens pin this).

use lion_common::{ClientId, PartitionId, Time, TxnId};

/// Durability configuration carried inside the engine config.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurabilityConfig {
    /// Epoch-commit interval in µs: client-visible acks are released only at
    /// epoch boundaries, once the epoch's log entries are replicated.
    /// `0` (the default) disables epoch group commit — acks escape at
    /// protocol-commit time, exactly the pre-subsystem behavior.
    pub epoch_commit_us: Time,
    /// Charge an idempotent-resubmit round trip when a client retries a
    /// transaction swept up by an epoch abort (crash or heal-time divergence
    /// reconciliation): the retry re-enters after `backoff + client↔home RTT`
    /// and its resubmission message is priced on the wire. Off by default —
    /// the pre-existing free-instant-retry behavior is what the pinned
    /// digest goldens capture.
    pub retry_round_trip: bool,
}

impl DurabilityConfig {
    /// Ack-at-commit mode (the legacy behavior).
    pub fn ack_at_commit() -> Self {
        Self::default()
    }

    /// Epoch group commit with the given epoch length.
    pub fn epoch(epoch_commit_us: Time) -> Self {
        DurabilityConfig {
            epoch_commit_us,
            ..Self::default()
        }
    }

    /// Enables the priced resubmission round trip on epoch-abort retries.
    pub fn with_retry_round_trip(mut self) -> Self {
        self.retry_round_trip = true;
        self
    }
}

/// A committed transaction whose client-visible ack is parked until its
/// epoch turns durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingAck {
    /// The transaction (context already freed by the engine).
    pub txn: TxnId,
    /// Issuing closed-loop client (re-armed at ack time in standard mode).
    pub client: ClientId,
    /// Global submission sequence — the deterministic ack order within an
    /// epoch and the monotonicity witness per client.
    pub seq: u64,
    /// First submission time (ack latency is measured from here).
    pub start: Time,
    /// Protocol-commit time (commit latency already recorded there).
    pub committed_at: Time,
}

/// A sealed epoch in flight between its log flush and its durability point.
#[derive(Debug)]
struct SealedEpoch {
    id: u64,
    acks: Vec<PendingAck>,
    /// Per-partition log head at seal time: the durable frontier this epoch
    /// certifies once its replication round-trip lands.
    frontiers: Vec<(PartitionId, u64)>,
}

/// A sealed epoch whose replication landed: everything the engine needs to
/// release it (returned by [`EpochManager::take_durable`]).
#[derive(Debug)]
pub struct DurableEpoch {
    /// Parked acks to release, in park (commit) order.
    pub acks: Vec<PendingAck>,
    /// Per-partition log frontiers the epoch's flush certified durable.
    pub frontiers: Vec<(PartitionId, u64)>,
}

/// What an epoch abort (node crash) swept up.
#[derive(Debug, Default)]
pub struct EpochAbort {
    /// Parked, never-acked transactions, in submission order. Their clients
    /// retry: the committed result is re-observed on resubmission, so no
    /// acked work is lost — the ack was simply never released.
    pub retried: Vec<PendingAck>,
    /// Number of epochs (open + sealed-in-flight) the crash aborted.
    pub epochs_aborted: u64,
}

/// The epoch group-commit manager the engine drives from its event loop.
#[derive(Debug)]
pub struct EpochManager {
    cfg: DurabilityConfig,
    /// Id the *open* epoch will seal as. Monotonic across the run.
    next_id: u64,
    /// Acks parked in the open epoch, in commit (≙ submission-deterministic)
    /// order.
    open: Vec<PendingAck>,
    /// Sealed epochs whose replication round-trip is still in flight.
    inflight: Vec<SealedEpoch>,
    /// Epoch fence: ids below this can never turn durable. Advanced by
    /// crashes so a promoted primary cannot ack an epoch the dead primary's
    /// timeline already aborted.
    fence: u64,
    /// Quorum-fenced acks: commits whose writes touch a partition served
    /// from the non-quorum side of an active split-brain window. They can
    /// never reach a majority of the replica set, so they bypass the open
    /// epoch and park here until heal-time reconciliation
    /// ([`EpochManager::abort_fenced`]) retries their clients.
    fenced: Vec<PendingAck>,
    /// True when a fenced ack parked since the last epoch-seal boundary —
    /// drives [`EpochManager::fenced_epochs`] accounting.
    fenced_since_seal: bool,
    /// Epoch-seal boundaries the divergent (fenced) timeline has spanned so
    /// far: the `n` reported by a heal's `DivergentEpochAborted` event.
    fenced_epochs: u64,
}

impl EpochManager {
    /// Builds the manager.
    pub fn new(cfg: DurabilityConfig) -> Self {
        EpochManager {
            cfg,
            next_id: 1,
            open: Vec::new(),
            inflight: Vec::new(),
            fence: 0,
            fenced: Vec::new(),
            fenced_since_seal: false,
            fenced_epochs: 0,
        }
    }

    /// True when epoch group commit is active (`epoch_commit_us > 0`).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.cfg.epoch_commit_us > 0
    }

    /// The period of the engine's one epoch clock, whose every tick is a
    /// replication flush: the commit epoch under group commit (the seal is
    /// that flush), `flush_us` otherwise.
    #[inline]
    pub fn period(&self, flush_us: Time) -> Time {
        if self.enabled() {
            self.cfg.epoch_commit_us
        } else {
            flush_us
        }
    }

    /// Current epoch fence (see [`EpochManager`] field docs).
    #[inline]
    pub fn fence(&self) -> u64 {
        self.fence
    }

    /// Parked acks not yet released (open epoch + sealed in flight).
    pub fn parked(&self) -> usize {
        self.open.len() + self.inflight.iter().map(|e| e.acks.len()).sum::<usize>()
    }

    /// Parks a committed transaction's ack in the open epoch. Only called
    /// when [`EpochManager::enabled`].
    pub fn park(&mut self, ack: PendingAck) {
        debug_assert!(self.enabled(), "parking with epoch commit disabled");
        self.open.push(ack);
    }

    /// Whether epoch-abort retries pay a resubmission round trip
    /// (see [`DurabilityConfig::retry_round_trip`]).
    #[inline]
    pub fn retry_round_trip(&self) -> bool {
        self.cfg.retry_round_trip
    }

    /// Parks a commit whose ack is **quorum-fenced**: some written partition
    /// is served from the non-quorum side of an active split-brain window,
    /// so the seal can never replicate to a majority of its replica set.
    /// The ack bypasses epochs entirely and waits for
    /// [`EpochManager::abort_fenced`] at heal.
    pub fn park_fenced(&mut self, ack: PendingAck) {
        debug_assert!(self.enabled(), "fencing with epoch commit disabled");
        self.fenced.push(ack);
        self.fenced_since_seal = true;
    }

    /// Number of acks currently quorum-fenced (0 outside split-brain
    /// windows and after a completed heal).
    #[inline]
    pub fn fenced_count(&self) -> usize {
        self.fenced.len()
    }

    /// Heal-time divergence reconciliation: every quorum-fenced ack aborts,
    /// its client retries, and the count of epoch boundaries the divergent
    /// timeline spanned is reported as `epochs_aborted` (the `n` of a
    /// `DivergentEpochAborted` event). A partially-filled divergent epoch at
    /// heal counts as one.
    pub fn abort_fenced(&mut self) -> EpochAbort {
        let mut abort = EpochAbort {
            epochs_aborted: self.fenced_epochs + u64::from(self.fenced_since_seal),
            ..EpochAbort::default()
        };
        abort.retried.append(&mut self.fenced);
        abort.retried.sort_unstable_by_key(|a| a.seq);
        self.fenced_epochs = 0;
        self.fenced_since_seal = false;
        abort
    }

    /// Seals the open epoch: the engine has just flushed the replication
    /// logs and hands over the per-partition frontiers that flush certifies.
    /// Returns the sealed epoch id, or `None` when group commit is off or
    /// there was nothing to seal (no parked acks and no flushed entries —
    /// the tick rotates silently).
    pub fn seal(&mut self, frontiers: Vec<(PartitionId, u64)>) -> Option<u64> {
        if !self.enabled() {
            return None;
        }
        if self.fenced_since_seal {
            self.fenced_epochs += 1;
            self.fenced_since_seal = false;
        }
        if self.open.is_empty() && frontiers.is_empty() {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.inflight.push(SealedEpoch {
            id,
            acks: std::mem::take(&mut self.open),
            frontiers,
        });
        Some(id)
    }

    /// An epoch's replication round-trip landed: release its acks. Returns
    /// `None` for epochs swept away by a crash (stale durability events) or
    /// behind the fence. `_now` is unread: the engine's `Ack` events carry
    /// the release time.
    pub fn take_durable(&mut self, id: u64, _now: Time) -> Option<DurableEpoch> {
        if id < self.fence {
            return None;
        }
        let pos = self.inflight.iter().position(|e| e.id == id)?;
        let ep = self.inflight.remove(pos);
        Some(DurableEpoch {
            acks: ep.acks,
            frontiers: ep.frontiers,
        })
    }

    /// Hands a released epoch's ack buffer back: it is cleared and becomes
    /// the open epoch's buffer, so the next epoch parks into its capacity
    /// instead of regrowing from empty. Acks parked since the seal are kept.
    pub fn recycle(&mut self, mut acks: Vec<PendingAck>) {
        if acks.capacity() > self.open.capacity() {
            acks.clear();
            acks.append(&mut self.open);
            self.open = acks;
        }
    }

    /// A node crashed: every non-durable epoch aborts. The open epoch's and
    /// the in-flight epochs' parked transactions are returned for retry (in
    /// submission order), and the fence advances past every id issued so
    /// far — in-flight durability events that fire later find nothing.
    /// Quorum-fenced acks are left parked: they resolve at heal via
    /// [`EpochManager::abort_fenced`], never on the crash path.
    pub fn on_crash(&mut self) -> EpochAbort {
        let mut abort = EpochAbort::default();
        if !self.open.is_empty() {
            abort.epochs_aborted += 1;
            abort.retried.append(&mut self.open);
        }
        for mut ep in self.inflight.drain(..) {
            abort.epochs_aborted += 1;
            abort.retried.append(&mut ep.acks);
        }
        self.fence = self.next_id;
        abort.retried.sort_unstable_by_key(|a| a.seq);
        abort
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(seq: u64) -> PendingAck {
        PendingAck {
            txn: TxnId(seq),
            client: ClientId(seq as u32 % 3),
            seq,
            start: seq * 10,
            committed_at: seq * 10 + 5,
        }
    }

    #[test]
    fn disabled_by_default() {
        let mut m = EpochManager::new(DurabilityConfig::default());
        assert!(!m.enabled());
        assert_eq!(m.period(10_000), 10_000, "the plain replication flush");
        assert_eq!(m.seal(vec![(PartitionId(0), 3)]), None, "nothing seals");
        let m = EpochManager::new(DurabilityConfig::epoch(5_000));
        assert!(m.enabled());
        assert_eq!(m.period(10_000), 5_000, "the seal is the flush");
    }

    #[test]
    fn seal_and_durable_release_acks_in_park_order() {
        let mut m = EpochManager::new(DurabilityConfig::epoch(1_000));
        m.park(ack(1));
        m.park(ack(2));
        let id = m.seal(vec![(PartitionId(0), 7)]).expect("non-empty epoch");
        assert_eq!(m.parked(), 2);
        // a later epoch seals independently
        m.park(ack(3));
        let id2 = m.seal(Vec::new()).expect("second epoch");
        assert!(id2 > id, "epoch ids are monotonic");
        let ep = m.take_durable(id, 2_000).expect("in flight");
        assert_eq!(
            ep.acks.iter().map(|a| a.seq).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(ep.frontiers, vec![(PartitionId(0), 7)]);
        assert_eq!(m.parked(), 1);
        // double delivery is stale
        assert!(m.take_durable(id, 2_100).is_none());
    }

    #[test]
    fn recycle_returns_the_capacity_to_the_open_epoch() {
        let mut m = EpochManager::new(DurabilityConfig::epoch(1_000));
        for seq in 0..8 {
            m.park(ack(seq));
        }
        let id = m.seal(Vec::new()).expect("sealed");
        m.park(ack(8));
        let ep = m.take_durable(id, 2_000).expect("in flight");
        let cap = ep.acks.capacity();
        m.recycle(ep.acks);
        m.park(ack(9));
        let next = m.seal(Vec::new()).expect("sealed");
        let ep = m.take_durable(next, 3_000).expect("in flight");
        assert_eq!(
            ep.acks.iter().map(|a| a.seq).collect::<Vec<_>>(),
            vec![8, 9],
            "acks parked before the recycle are kept"
        );
        assert_eq!(ep.acks.capacity(), cap, "the released buffer was reused");
    }

    #[test]
    fn empty_tick_rotates_silently() {
        let mut m = EpochManager::new(DurabilityConfig::epoch(1_000));
        assert_eq!(m.seal(Vec::new()), None);
        m.park(ack(9));
        assert!(m.seal(Vec::new()).is_some());
    }

    #[test]
    fn crash_aborts_open_and_inflight_epochs_and_fences() {
        let mut m = EpochManager::new(DurabilityConfig::epoch(1_000));
        m.park(ack(4));
        let sealed = m.seal(Vec::new()).expect("sealed");
        m.park(ack(2)); // open epoch
        let abort = m.on_crash();
        assert_eq!(abort.epochs_aborted, 2);
        assert_eq!(
            abort.retried.iter().map(|a| a.seq).collect::<Vec<_>>(),
            vec![2, 4],
            "retries come back in submission order"
        );
        assert_eq!(m.parked(), 0);
        // The sealed epoch's durability event arriving late finds a fence.
        assert!(m.take_durable(sealed, 9_999).is_none());
        assert!(m.fence() > sealed);
        // New epochs seal beyond the fence.
        m.park(ack(8));
        let next = m.seal(Vec::new()).expect("post-crash epoch");
        assert!(next >= m.fence());
        assert!(m.take_durable(next, 10_000).is_some());
    }

    #[test]
    fn fenced_acks_park_outside_epochs_and_abort_at_heal() {
        let mut m = EpochManager::new(DurabilityConfig::epoch(1_000));
        m.park_fenced(ack(5));
        m.park_fenced(ack(3));
        assert_eq!(m.fenced_count(), 2);
        assert_eq!(m.parked(), 0, "fenced acks never enter epochs");
        // Fenced acks alone don't make a seal boundary non-empty...
        assert_eq!(m.seal(Vec::new()), None);
        m.park_fenced(ack(7));
        assert_eq!(m.seal(Vec::new()), None);
        // ...but a crash sweeps only epochs, never the fenced set.
        let crash = m.on_crash();
        assert_eq!(crash.epochs_aborted, 0);
        assert!(crash.retried.is_empty());
        assert_eq!(m.fenced_count(), 3);
        // Heal: retries in submission order; both seal boundaries closed an
        // interval holding fresh fenced acks, and nothing parked after the
        // second, so the divergent timeline spanned exactly two epochs.
        let heal = m.abort_fenced();
        assert_eq!(
            heal.retried.iter().map(|a| a.seq).collect::<Vec<_>>(),
            vec![3, 5, 7]
        );
        assert_eq!(heal.epochs_aborted, 2);
        assert_eq!(m.fenced_count(), 0);
        // Idempotent after drain.
        let again = m.abort_fenced();
        assert_eq!(again.epochs_aborted, 0);
        assert!(again.retried.is_empty());
    }

    #[test]
    fn partial_divergent_epoch_at_heal_counts_as_one() {
        let mut m = EpochManager::new(DurabilityConfig::epoch(1_000));
        m.park_fenced(ack(1));
        // No seal boundary passed — heal still reports one divergent epoch.
        let heal = m.abort_fenced();
        assert_eq!(heal.epochs_aborted, 1);
        assert_eq!(heal.retried.len(), 1);
    }

    #[test]
    fn retry_round_trip_builder() {
        let cfg = DurabilityConfig::epoch(5_000).with_retry_round_trip();
        assert!(cfg.retry_round_trip);
        assert!(EpochManager::new(cfg).retry_round_trip());
        assert!(!EpochManager::new(DurabilityConfig::epoch(5_000)).retry_round_trip());
    }
}
