//! # lion-faults
//!
//! Deterministic fault injection and the failover recovery coordinator for
//! the simulated cluster. This crate opens the fault/recovery scenario
//! dimension: Lion's adaptively provisioned secondaries (PAPER.md §IV) are
//! warm standbys under the epoch-based group replication of §V, so the same
//! replicas that minimize distributed transactions also bound how long a
//! partition stays unavailable after its primary dies.
//!
//! ## The `FaultPlan` DSL
//!
//! A [`FaultPlan`] is an ordered script of [`FaultEvent`]s scheduled on the
//! engine's virtual clock. Because the whole simulation is a deterministic
//! discrete-event system, the same seed and the same plan always reproduce
//! the identical failure and recovery timeline — crash at the same virtual
//! microsecond, promote the same secondaries, measure the same windows.
//!
//! ```
//! use lion_faults::FaultPlan;
//! use lion_common::NodeId;
//!
//! // Crash node 1 two (virtual) seconds in; bring it back at six seconds.
//! let plan = FaultPlan::new()
//!     .crash_at(2_000_000, NodeId(1))
//!     .recover_at(6_000_000, NodeId(1));
//! assert!(plan.validate(4).is_ok());
//! assert_eq!(plan.len(), 2);
//! ```
//!
//! The event kinds:
//!
//! | event | semantics |
//! |---|---|
//! | [`FaultKind::Crash`] | the node halts: its workers stop, in-flight transactions touching it abort, its primaries fail over (or stall when no live replica exists) |
//! | [`FaultKind::Recover`] | the node restarts with its on-disk state: stalled primaries resume after a restart window; stale secondaries re-join via background snapshot copies |
//! | [`FaultKind::Partition`] | a network partition isolates a set of nodes. By default the majority side treats them exactly like crashed nodes; with [`FaultPlan::with_split_brain`] **both sides stay live** — per data partition the side holding a strict majority of the replica set owns the durable timeline, the other side's coordinators keep accepting quorum-fenced work, and the [`heal`] coordinator reconciles the divergence at heal |
//! | [`FaultKind::Heal`] | the network partition heals; isolated nodes re-join like recovered nodes (split-brain plans additionally audit, abort, and retry the divergent timeline's fenced work) |
//! | [`FaultKind::ZoneCrash`] | **correlated failure**: every live node of a failure domain halts atomically on one virtual-clock tick (rack power loss) — including a failover target mid-promotion, which is re-planned over the survivors |
//! | [`FaultKind::ZoneHeal`] | power restored: every down node of the zone restarts |
//! | [`FaultKind::ZonePartition`] | zone-aware network partition: whole racks are cut off until the matching [`FaultKind::Heal`] |
//!
//! Validation is two-layered: [`FaultPlan::validate_with_zones`] checks the
//! script structurally (ids in range, no double-crash, someone always
//! alive), and [`FaultPlan::validate_against`] additionally rejects plans
//! whose combined node + zone crashes leave some partition with **zero live
//! replica holders at the end of the script** — a run that would silently
//! stall forever fails fast at submission instead. The engine applies the
//! full check at run start and executes the **lowered schedule** it returns:
//! zone events and default-mode partitions are sugar for `Crash`/`Recover`
//! steps on the same tick, expanded in that one validation pass.
//!
//! ## Failover semantics
//!
//! When a node dies, the *recovery coordinator* (driven by the engine, with
//! the decision logic in [`recovery`]) promotes, for each partition whose
//! primary was on the dead node, the **freshest live secondary** — the one
//! with the highest densely-applied LSN and no gap in its applied-epoch
//! prefix ([`select_promotion_target`]). Promotion is priced exactly like
//! remastering (§III): a failure-detection delay plus the configured
//! hand-off window plus one microsecond per log entry of replication lag the
//! new primary must sync. Writes that committed on the dead primary but had
//! not been epoch-flushed are recovered by replaying the prepare log that
//! §II-A synchronously replicated to the secondaries — no committed write is
//! lost. Partitions with **no** live replica stall (operations block,
//! availability clock keeps running) until the node recovers.
//!
//! Protocols observe topology changes through
//! `Protocol::on_fault` ([`FaultNotice`]); Lion reacts by dropping routing
//! affinity to the dead node and re-running the provision loop (Algorithm 1)
//! once failover lands.

pub mod heal;
pub mod plan;
pub mod recovery;

pub use heal::{plan_heal, plan_split_promotions, HealStep, SplitAction, SplitDecision};
pub use plan::{FaultEvent, FaultKind, FaultPlan, FaultPlanError};
pub use recovery::{
    plan_failover, plan_promotion, price_promotion, promotion_candidates, select_promotion_target,
    FailoverDecision, PromotionCandidate, FAILURE_DETECT_US,
};

use lion_common::{NodeId, PartitionId};

/// Topology-change notification delivered to protocols via
/// `Protocol::on_fault`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultNotice {
    /// A node crashed (or became isolated by a network partition). Placement
    /// still routes its primaries to it until the corresponding
    /// [`FaultNotice::FailoverComplete`] events fire.
    NodeDown(NodeId),
    /// A node rejoined the cluster (restart or partition heal).
    NodeUp(NodeId),
    /// A partition's primary was promoted onto a surviving replica.
    FailoverComplete {
        /// The partition that failed over.
        part: PartitionId,
        /// The dead node that held the primary.
        from: NodeId,
        /// The surviving node now holding the primary.
        to: NodeId,
    },
}
