//! The run sink: the aggregate `Metrics` struct every `RunReport` is built
//! from, fed through [`MetricSink::on_event`].
//!
//! This is the digest-bearing state. Each event handler performs exactly
//! the mutations the engine's pre-pipeline inline field pokes did, in the
//! same order and with the same operand granularity (one `bytes_series.add`
//! per bytes-on-the-wire fact — f64 accumulation is order-sensitive), so
//! the twenty-three pinned digest goldens in `tests/determinism_digest.rs`
//! stay byte-identical across refactors. Commit latency is the one fact it
//! does not fold: that lives in the per-node cells of
//! [`crate::DimensionedSink`], and the report reads the merge.

use crate::event::{ByteClass, CommitClass, MetricEvent};
use crate::sink::MetricSink;
pub use lion_common::FailoverRecord;
use lion_common::{FastMap, PartitionId, Time};
use lion_sim::{Histogram, RingSeries};

/// Time-series bucket width (1 simulated second), matching the granularity
/// of the paper's timeline figures.
pub const SERIES_BUCKET_US: Time = 1_000_000;

/// Fine-grained goodput bucket width (100 ms): resolves the dip and ramp
/// around a node failure, which 1 s buckets blur.
pub const GOODPUT_BUCKET_US: Time = 100_000;

/// One completed (or still open) window during which a partition could not
/// serve operations because its primary was dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnavailWindow {
    /// The partition.
    pub part: PartitionId,
    /// When the primary died.
    pub from: Time,
    /// When the partition was serving again (`None` while still open).
    pub until: Option<Time>,
}

/// All metrics collected during a run. Implements [`MetricSink`]; the alias
/// [`RunMetricsSink`] names that role.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts (each retry re-counts).
    pub aborts: u64,
    /// Transactions that committed on a single node without remastering.
    pub single_node: u64,
    /// Transactions converted to single-node via remastering.
    pub remastered: u64,
    /// Transactions executed as distributed 2PC.
    pub distributed: u64,
    /// Completed remaster operations.
    pub remasters: u64,
    /// Remaster requests rejected because another was in flight (§III
    /// remastering conflicts).
    pub remaster_conflicts: u64,
    /// Completed background replica additions.
    pub replica_adds: u64,
    /// Secondary replicas evicted by the replica cap.
    pub replica_evictions: u64,
    /// Completed blocking migrations.
    pub migrations: u64,
    /// Total message bytes (requests, acks, prepare/commit rounds).
    pub msg_bytes: u64,
    /// Replication bytes (epoch flushes + remaster lag sync).
    pub replication_bytes: u64,
    /// Migration / replica-copy bytes.
    pub migration_bytes: u64,
    /// Per-phase accumulated µs across committed work.
    pub phase_us: [u128; 5],
    /// Commits per second.
    pub commits_series: RingSeries,
    /// Network bytes per second (all classes combined).
    pub bytes_series: RingSeries,
    /// Remasters per second.
    pub remaster_series: RingSeries,
    /// Injected node crashes (including partition isolations).
    pub crashes: u64,
    /// Correlated zone-loss events (each also counts its members under
    /// [`Metrics::crashes`]).
    pub zone_crashes: u64,
    /// Partitions that entered a stall — primary dead with *no* live
    /// promotable replica — and could only resume when a node came back.
    /// Zero under rack-safe placement during a single-zone loss; the
    /// headline availability metric of figf2.
    pub stalled_partitions: u64,
    /// Node restarts (including partition heals).
    pub node_recoveries: u64,
    /// Completed failover promotions.
    pub failovers: u64,
    /// In-flight transactions aborted because a node they touched died.
    pub fault_aborts: u64,
    /// Prepare-log entries replayed to survivors during failover.
    pub replayed_entries: u64,
    /// Per-partition crash→available recovery latency (µs).
    pub recovery_latency: Histogram,
    /// Per-partition unavailability windows, in crash order.
    pub unavailability: Vec<UnavailWindow>,
    /// Completed failovers with their log-continuity evidence.
    pub failover_log: Vec<FailoverRecord>,
    /// Commits per 100 ms bucket (goodput dip/ramp around failures).
    pub goodput_series: RingSeries,
    /// Client-visible acks released. Equals `commits` in ack-at-commit
    /// mode; under epoch group commit it trails by the parked epochs (and
    /// by crash-retried acks).
    pub acked: u64,
    /// Client-visible ack latency (µs): submission → ack release. In
    /// ack-at-commit mode this mirrors the commit latency
    /// ([`crate::DimensionedSink::latency`]); under epoch group commit it
    /// adds the epoch residency + replication transit — the latency a
    /// client actually observes.
    pub ack_latency: Histogram,
    /// Commit epochs sealed (non-empty seal ticks).
    pub epochs_sealed: u64,
    /// Commit epochs voided by node crashes before turning durable.
    pub epochs_aborted: u64,
    /// Parked transactions whose epoch aborted: never acked, retried by
    /// their clients (the committed result is re-observed — not lost work).
    pub epoch_retried_acks: u64,
    /// No-acked-commit-lost audit: log entries a crashed primary had acked
    /// to clients but never shipped to any secondary. Non-zero quantifies
    /// the ack-at-commit durability hole; epoch group commit must keep it
    /// at zero.
    pub acked_then_lost: u64,
    /// Split-brain windows opened (digest-excluded).
    pub partitions_begun: u64,
    /// Split-brain windows healed (digest-excluded).
    pub partitions_healed: u64,
    /// Commit acks quorum-fenced during split-brain windows: parked outside
    /// epochs, resolved only by heal reconciliation (digest-excluded).
    pub fenced_acks: u64,
    /// Epoch boundaries spanned by divergent timelines aborted at heal
    /// (digest-excluded).
    pub divergent_epochs_aborted: u64,
    /// Commits executed on the minority (non-quorum) side of an active
    /// split — the availability both-sides-live buys (digest-excluded).
    pub minority_commits: u64,
    /// Minority-side commits per 100 ms bucket: the minority-goodput view
    /// of a split-brain window (digest-excluded).
    pub minority_goodput_series: RingSeries,
    /// Open unavailability windows keyed by partition index: window start
    /// plus the window's index in `unavailability`, so closing is O(1)
    /// instead of a reverse scan (quadratic under rolling-outage sweeps).
    unavail_open: FastMap<u32, (Time, usize)>,
}

/// The run sink by its pipeline role: [`Metrics`] fed through
/// [`MetricSink::on_event`].
pub type RunMetricsSink = Metrics;

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Creates empty metrics.
    pub fn new() -> Self {
        Metrics {
            commits: 0,
            aborts: 0,
            single_node: 0,
            remastered: 0,
            distributed: 0,
            remasters: 0,
            remaster_conflicts: 0,
            replica_adds: 0,
            replica_evictions: 0,
            migrations: 0,
            msg_bytes: 0,
            replication_bytes: 0,
            migration_bytes: 0,
            phase_us: [0; 5],
            commits_series: RingSeries::new(SERIES_BUCKET_US),
            bytes_series: RingSeries::new(SERIES_BUCKET_US),
            remaster_series: RingSeries::new(SERIES_BUCKET_US),
            crashes: 0,
            zone_crashes: 0,
            stalled_partitions: 0,
            node_recoveries: 0,
            failovers: 0,
            fault_aborts: 0,
            replayed_entries: 0,
            recovery_latency: Histogram::new(),
            unavailability: Vec::new(),
            failover_log: Vec::new(),
            goodput_series: RingSeries::new(GOODPUT_BUCKET_US),
            acked: 0,
            ack_latency: Histogram::new(),
            epochs_sealed: 0,
            epochs_aborted: 0,
            epoch_retried_acks: 0,
            acked_then_lost: 0,
            partitions_begun: 0,
            partitions_healed: 0,
            fenced_acks: 0,
            divergent_epochs_aborted: 0,
            minority_commits: 0,
            minority_goodput_series: RingSeries::new(GOODPUT_BUCKET_US),
            unavail_open: FastMap::default(),
        }
    }

    /// Opens an unavailability window for `part` (its primary died at `at`).
    pub fn unavail_begin(&mut self, part: PartitionId, at: Time) {
        if self.unavail_open.contains_key(&part.0) {
            return; // already tracked (e.g. stalled partition re-reported)
        }
        self.unavail_open
            .insert(part.0, (at, self.unavailability.len()));
        self.unavailability.push(UnavailWindow {
            part,
            from: at,
            until: None,
        });
    }

    /// Closes the open unavailability window for `part`: the partition can
    /// serve again at `at`. Records the recovery latency.
    pub fn unavail_end(&mut self, part: PartitionId, at: Time) {
        let Some((from, idx)) = self.unavail_open.remove(&part.0) else {
            return;
        };
        self.unavailability[idx].until = Some(at);
        self.recovery_latency.record(at.saturating_sub(from));
    }

    /// Total partition-unavailability µs, counting windows still open at
    /// `horizon` as ending there.
    pub fn unavailability_us(&self, horizon: Time) -> u128 {
        self.unavailability
            .iter()
            .map(|w| (w.until.unwrap_or(horizon).saturating_sub(w.from)) as u128)
            .sum()
    }

    /// Total accumulated phase time.
    pub fn phase_total(&self) -> u128 {
        self.phase_us.iter().sum()
    }

    /// Normalized per-phase fractions (Fig. 14b bars).
    pub fn phase_fractions(&self) -> [f64; 5] {
        let total = self.phase_total().max(1) as f64;
        let mut out = [0.0; 5];
        for (i, &v) in self.phase_us.iter().enumerate() {
            out[i] = v as f64 / total;
        }
        out
    }

    /// Abort rate over attempts.
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.commits + self.aborts;
        if attempts == 0 {
            0.0
        } else {
            self.aborts as f64 / attempts as f64
        }
    }

    /// Network bytes per committed transaction (Fig. 12b's metric).
    pub fn bytes_per_txn(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            (self.msg_bytes + self.replication_bytes + self.migration_bytes) as f64
                / self.commits as f64
        }
    }
}

impl MetricSink for Metrics {
    fn on_event(&mut self, ev: &MetricEvent) {
        match *ev {
            MetricEvent::Commit {
                at,
                class,
                phase_us,
                ..
            } => {
                self.commits += 1;
                self.commits_series.incr(at);
                self.goodput_series.incr(at);
                match class {
                    CommitClass::SingleNode => self.single_node += 1,
                    CommitClass::Remastered => self.remastered += 1,
                    CommitClass::Distributed => self.distributed += 1,
                }
                for (i, &us) in phase_us.iter().enumerate() {
                    self.phase_us[i] += us as u128;
                }
            }
            MetricEvent::Abort { fault, .. } => {
                self.aborts += 1;
                if fault {
                    self.fault_aborts += 1;
                }
            }
            MetricEvent::Ack { latency_us, .. } => {
                self.acked += 1;
                self.ack_latency.record(latency_us);
            }
            MetricEvent::Bytes {
                at, class, bytes, ..
            } => {
                match class {
                    ByteClass::Message => self.msg_bytes += bytes,
                    ByteClass::Replication => self.replication_bytes += bytes,
                    ByteClass::Migration => self.migration_bytes += bytes,
                }
                self.bytes_series.add(at, bytes as f64);
            }
            MetricEvent::Remaster { at, .. } => {
                self.remasters += 1;
                self.remaster_series.incr(at);
            }
            MetricEvent::RemasterConflict { .. } => self.remaster_conflicts += 1,
            MetricEvent::ReplicaAdd { evicted, .. } => {
                self.replica_adds += 1;
                if evicted {
                    self.replica_evictions += 1;
                }
            }
            MetricEvent::Migration { .. } => self.migrations += 1,
            MetricEvent::Crash { .. } => self.crashes += 1,
            MetricEvent::ZoneCrash { .. } => self.zone_crashes += 1,
            MetricEvent::Recover { .. } => self.node_recoveries += 1,
            MetricEvent::PartitionStalled { .. } => self.stalled_partitions += 1,
            MetricEvent::Failover { record, replayed } => {
                self.failovers += 1;
                self.replayed_entries += replayed;
                self.failover_log.push(record);
            }
            MetricEvent::UnavailBegin { at, part } => self.unavail_begin(part, at),
            MetricEvent::UnavailEnd { at, part } => self.unavail_end(part, at),
            MetricEvent::EpochSealed { .. } => self.epochs_sealed += 1,
            MetricEvent::EpochsAborted { n, .. } => self.epochs_aborted += n,
            MetricEvent::EpochRetriedAck { .. } => self.epoch_retried_acks += 1,
            MetricEvent::AckedThenLost { n, .. } => self.acked_then_lost += n,
            MetricEvent::PartitionBegin { .. } => self.partitions_begun += 1,
            MetricEvent::PartitionHeal { .. } => self.partitions_healed += 1,
            MetricEvent::DivergentEpochAborted { n, .. } => self.divergent_epochs_aborted += n,
            MetricEvent::FencedAck { .. } => self.fenced_acks += 1,
            MetricEvent::MinorityCommit { at } => {
                self.minority_commits += 1;
                self.minority_goodput_series.incr(at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lion_common::{NodeId, Phase};

    #[test]
    fn phase_fractions_sum_to_one() {
        let mut m = Metrics::new();
        m.phase_us[Phase::Execution.idx()] += 30;
        m.phase_us[Phase::Commit.idx()] += 50;
        m.phase_us[Phase::Replication.idx()] += 20;
        let f = m.phase_fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((f[Phase::Commit.idx()] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn abort_rate_and_bytes_per_txn() {
        let mut m = Metrics::new();
        assert_eq!(m.abort_rate(), 0.0);
        assert_eq!(m.bytes_per_txn(), 0.0);
        m.commits = 8;
        m.aborts = 2;
        m.msg_bytes = 700;
        m.replication_bytes = 100;
        assert!((m.abort_rate() - 0.2).abs() < 1e-9);
        assert!((m.bytes_per_txn() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn unavailability_windows_open_close_and_clip() {
        let mut m = Metrics::new();
        let p = PartitionId(3);
        m.unavail_begin(p, 1_000);
        m.unavail_begin(p, 2_000); // duplicate begin is ignored
        m.unavail_end(p, 51_000);
        assert_eq!(m.unavailability.len(), 1);
        assert_eq!(m.unavailability[0].until, Some(51_000));
        assert_eq!(m.recovery_latency.count(), 1);
        assert_eq!(m.recovery_latency.max(), 50_000);
        // A window still open at the horizon is clipped there.
        m.unavail_begin(PartitionId(4), 80_000);
        assert_eq!(m.unavailability_us(100_000), 50_000 + 20_000);
        // Ending a partition that never began is a no-op.
        m.unavail_end(PartitionId(9), 5);
        assert_eq!(m.unavailability.len(), 2);
    }

    #[test]
    fn interleaved_windows_close_their_own_entry() {
        // Two partitions open, then close in reverse order: each must hit
        // its own window (the O(1) index fix must not cross wires).
        let mut m = Metrics::new();
        m.unavail_begin(PartitionId(1), 100);
        m.unavail_begin(PartitionId(2), 200);
        m.unavail_end(PartitionId(1), 300);
        m.unavail_end(PartitionId(2), 500);
        assert_eq!(m.unavailability[0].until, Some(300));
        assert_eq!(m.unavailability[1].until, Some(500));
        // Re-open a partition that already completed one window: a fresh
        // entry, the old one untouched.
        m.unavail_begin(PartitionId(1), 600);
        m.unavail_end(PartitionId(1), 650);
        assert_eq!(m.unavailability.len(), 3);
        assert_eq!(m.unavailability[0].until, Some(300));
        assert_eq!(m.unavailability[2].until, Some(650));
    }

    #[test]
    fn byte_series_accumulates() {
        let mut m = Metrics::new();
        for (at, bytes) in [(0, 100), (500_000, 200), (1_200_000, 50)] {
            m.on_event(&MetricEvent::Bytes {
                at,
                class: ByteClass::Message,
                bytes,
                node: None,
            });
        }
        assert_eq!(m.msg_bytes, 350);
        assert_eq!(m.bytes_series.buckets(), &[300.0, 50.0]);
    }

    #[test]
    fn events_reproduce_direct_mutation() {
        // The same facts delivered as events must produce the same state
        // as the legacy direct pokes — the byte-for-byte contract.
        let mut direct = Metrics::new();
        direct.commits += 1;
        direct.commits_series.incr(7);
        direct.goodput_series.incr(7);
        direct.single_node += 1;
        direct.phase_us[0] += 100;
        direct.msg_bytes += 640;
        direct.bytes_series.add(7, 640.0);

        let mut sunk = Metrics::new();
        sunk.on_event(&MetricEvent::Commit {
            at: 7,
            latency_us: 120,
            class: CommitClass::SingleNode,
            node: NodeId(0),
            phase_us: [100, 0, 0, 0, 0],
        });
        sunk.on_event(&MetricEvent::Bytes {
            at: 7,
            class: ByteClass::Message,
            bytes: 640,
            node: None,
        });
        assert_eq!(sunk.commits, direct.commits);
        assert_eq!(sunk.single_node, direct.single_node);
        assert_eq!(sunk.msg_bytes, direct.msg_bytes);
        assert_eq!(sunk.phase_us, direct.phase_us);
        assert_eq!(sunk.bytes_series.buckets(), direct.bytes_series.buckets());
    }
}
