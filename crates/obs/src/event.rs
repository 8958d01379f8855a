//! The typed event taxonomy the engine emits.
//!
//! Each variant is one fact from the hot path, stamped with virtual time
//! and whatever topology context is meaningful at the emission point. The
//! run sink ([`crate::Metrics`]) folds them into the legacy aggregate; the
//! dimensioned sink keys off the `node` field instead. A node's zone is
//! configuration, not part of the fact: only `ZoneCrash`, where the zone
//! *is* the fact, carries one. Adding a metric means adding a variant (or a
//! field) here and handling it in the sinks that care — emission points
//! never choose a storage layout.

use crate::run::FailoverRecord;
use lion_common::{ClientId, NodeId, PartitionId, Time, ZoneId};

/// Which §III execution class a commit took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitClass {
    /// Committed on a single node without remastering.
    SingleNode,
    /// Converted to single-node via remastering.
    Remastered,
    /// Executed as distributed 2PC.
    Distributed,
}

/// Which accounting class bytes on the wire belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByteClass {
    /// Request/response/prepare/commit messages.
    Message,
    /// Replication traffic (epoch flushes, prepare replication, failover
    /// replay, remaster lag sync).
    Replication,
    /// Migration and background replica-copy traffic.
    Migration,
}

/// One hot-path fact. All timestamps are virtual µs.
#[derive(Debug, Clone)]
pub enum MetricEvent {
    /// A transaction committed at its home node.
    Commit {
        /// Commit time.
        at: Time,
        /// Submission → commit latency.
        latency_us: Time,
        /// Execution class.
        class: CommitClass,
        /// Home (coordinator) node.
        node: NodeId,
        /// Per-phase µs the transaction accumulated.
        phase_us: [Time; 5],
    },
    /// A transaction attempt aborted (it will retry).
    Abort {
        /// Abort time.
        at: Time,
        /// True when a node failure (not a data conflict) killed it.
        fault: bool,
        /// Home node of the aborted attempt.
        node: NodeId,
    },
    /// A client-visible ack was released (at commit, or when the commit's
    /// epoch turned durable). The ack's one record.
    Ack {
        /// Release time.
        at: Time,
        /// Submission → ack latency.
        latency_us: Time,
        /// The client the ack went to.
        client: ClientId,
        /// Submission sequence of the acked transaction.
        seq: u64,
    },
    /// Bytes hit the wire.
    Bytes {
        /// Send time.
        at: Time,
        /// Accounting class.
        class: ByteClass,
        /// Payload + framing bytes.
        bytes: u64,
        /// Sending node, where the emission point knows it.
        node: Option<NodeId>,
    },
    /// A remaster hand-off completed.
    Remaster {
        /// Completion time.
        at: Time,
        /// The remastered partition.
        part: PartitionId,
    },
    /// A remaster request lost to a concurrent transfer (§III conflicts).
    RemasterConflict {
        /// Rejection time.
        at: Time,
    },
    /// A background replica copy landed.
    ReplicaAdd {
        /// Completion time.
        at: Time,
        /// The replicated partition.
        part: PartitionId,
        /// True when the replica cap evicted another secondary to make room.
        evicted: bool,
    },
    /// A blocking migration completed.
    Migration {
        /// Completion time.
        at: Time,
        /// The migrated partition.
        part: PartitionId,
    },
    /// A node halted (injected crash or partition isolation).
    Crash {
        /// Crash time.
        at: Time,
        /// The dead node.
        node: NodeId,
    },
    /// A whole zone was lost (its member crashes are also emitted).
    ZoneCrash {
        /// Loss time.
        at: Time,
        /// The dead zone.
        zone: ZoneId,
    },
    /// A node restarted.
    Recover {
        /// Restart time.
        at: Time,
        /// The restarted node.
        node: NodeId,
    },
    /// A partition stalled: primary dead with no live promotable replica.
    PartitionStalled {
        /// Stall detection time.
        at: Time,
        /// The stalled partition.
        part: PartitionId,
    },
    /// A failover promotion completed, with its log-continuity evidence.
    Failover {
        /// The completed promotion.
        record: FailoverRecord,
        /// Prepare-log entries replayed to the survivor.
        replayed: u64,
    },
    /// A partition's primary died: its unavailability window opens.
    UnavailBegin {
        /// Window start.
        at: Time,
        /// The unavailable partition.
        part: PartitionId,
    },
    /// A partition serves again: its unavailability window closes.
    UnavailEnd {
        /// Window end.
        at: Time,
        /// The recovered partition.
        part: PartitionId,
    },
    /// A commit epoch sealed (non-empty seal tick).
    EpochSealed {
        /// Seal time.
        at: Time,
    },
    /// Open epochs were voided by a crash before turning durable.
    EpochsAborted {
        /// Crash time.
        at: Time,
        /// How many epochs died.
        n: u64,
    },
    /// A parked, never-released ack was retried because its epoch aborted.
    EpochRetriedAck {
        /// Retry-scheduling time.
        at: Time,
    },
    /// Crash audit: log entries a dead primary had acked to clients but
    /// never shipped to any secondary (the ack-at-commit durability hole).
    AckedThenLost {
        /// Audit time.
        at: Time,
        /// Acked-but-unshipped entries found on one partition.
        n: u64,
    },
    /// An honest split-brain window opened: both sides stay live, quorum
    /// sides are frozen.
    PartitionBegin {
        /// Split time.
        at: Time,
    },
    /// A split-brain window healed: divergence reconciliation ran.
    PartitionHeal {
        /// Heal time.
        at: Time,
    },
    /// Heal reconciliation aborted the divergent timeline's fenced epochs
    /// and scheduled their parked clients for retry.
    DivergentEpochAborted {
        /// Heal time.
        at: Time,
        /// Epoch boundaries the divergent timeline spanned.
        n: u64,
    },
    /// A commit's ack was quorum-fenced: some written partition is served
    /// from the non-quorum side of an active split, so the ack can never
    /// turn durable and parks until heal.
    FencedAck {
        /// Fencing (commit) time.
        at: Time,
    },
    /// A transaction committed on the minority (non-quorum) side of an
    /// active split — the work that keeps the minority side live. Emitted
    /// alongside the regular `Commit` so the digest-bearing aggregate stays
    /// byte-identical; feeds the minority-goodput series.
    MinorityCommit {
        /// Commit time.
        at: Time,
    },
}

impl MetricEvent {
    /// The event's virtual timestamp.
    pub fn at(&self) -> Time {
        match self {
            MetricEvent::Commit { at, .. }
            | MetricEvent::Abort { at, .. }
            | MetricEvent::Ack { at, .. }
            | MetricEvent::Bytes { at, .. }
            | MetricEvent::Remaster { at, .. }
            | MetricEvent::RemasterConflict { at }
            | MetricEvent::ReplicaAdd { at, .. }
            | MetricEvent::Migration { at, .. }
            | MetricEvent::Crash { at, .. }
            | MetricEvent::ZoneCrash { at, .. }
            | MetricEvent::Recover { at, .. }
            | MetricEvent::PartitionStalled { at, .. }
            | MetricEvent::UnavailBegin { at, .. }
            | MetricEvent::UnavailEnd { at, .. }
            | MetricEvent::EpochSealed { at }
            | MetricEvent::EpochsAborted { at, .. }
            | MetricEvent::EpochRetriedAck { at }
            | MetricEvent::AckedThenLost { at, .. }
            | MetricEvent::PartitionBegin { at }
            | MetricEvent::PartitionHeal { at }
            | MetricEvent::DivergentEpochAborted { at, .. }
            | MetricEvent::FencedAck { at }
            | MetricEvent::MinorityCommit { at } => *at,
            MetricEvent::Failover { record, .. } => record.completed_at,
        }
    }
}
