//! A partition's one primary hand-off: the `Transfer` state machine, its
//! start guard, start, finish and cancel, and the adaptor operations built
//! on them — remastering, background replica addition, blocking migration.

use crate::cluster::Cluster;
use crate::failure::FailoverCtx;
use crate::replicas::Store;
use lion_common::{NodeId, PartitionId, Time, BYTES_PER_US};
use std::fmt;

/// Per-µs cost of syncing one lagging log entry during remastering (and,
/// identically, during failover promotion — see `lion-faults`).
pub const LAG_SYNC_US_PER_ENTRY: Time = 1;

/// Fixed component of a partition migration, on top of data transfer; a
/// background replica copy pays half. Sized so the remaster-vs-migration
/// cost gap stays realistic at the scaled-down table sizes (paper-scale
/// partitions are tens of MB: a migration blackout is orders of magnitude
/// longer than a remaster).
const MIGRATION_FIXED_US: Time = 10_000;

/// Errors from adaptor operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptorError {
    /// Another remaster/migration is already in flight for the partition.
    Busy(PartitionId),
    /// The target node holds no replica of the partition.
    NoReplica { part: PartitionId, node: NodeId },
    /// The target node already is the primary.
    AlreadyPrimary { part: PartitionId, node: NodeId },
    /// The target node already holds (or is copying) a replica.
    AlreadyHosted { part: PartitionId, node: NodeId },
}

impl fmt::Display for AdaptorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdaptorError::Busy(p) => write!(f, "{p} already has a replica operation in flight"),
            AdaptorError::NoReplica { part, node } => {
                write!(f, "{node} holds no replica of {part}")
            }
            AdaptorError::AlreadyPrimary { part, node } => {
                write!(f, "{node} is already primary of {part}")
            }
            AdaptorError::AlreadyHosted { part, node } => {
                write!(f, "{node} already hosts/copies a replica of {part}")
            }
        }
    }
}

impl std::error::Error for AdaptorError {}

/// The one primary hand-off a partition can have in flight. The states are
/// mutually exclusive by construction; only [`Cluster`] moves a partition
/// between them (one start path in, `finish_*` or a cancel out).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transfer {
    /// Nothing in flight: the placement's primary serves.
    #[default]
    Idle,
    /// Mastership is moving onto the secondary at `to` (§III).
    Remaster {
        /// The secondary being promoted.
        to: NodeId,
    },
    /// The primary's data is moving to `to` (the baselines' blocking path).
    Migrate {
        /// The destination node.
        to: NodeId,
    },
    /// The primary died and the survivor at `to` is being promoted.
    Failover {
        /// The promotion target.
        to: NodeId,
    },
    /// The primary's node is down and no live replica can take over: every
    /// operation stalls until the node recovers.
    Stalled,
}

impl Transfer {
    /// The node the hand-off makes primary, if one is in flight.
    pub fn target(self) -> Option<NodeId> {
        match self {
            Transfer::Remaster { to } | Transfer::Migrate { to } | Transfer::Failover { to } => {
                Some(to)
            }
            Transfer::Idle | Transfer::Stalled => None,
        }
    }
}

/// How a background copy's completion ended
/// ([`Cluster::finish_add_replica`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyLanded {
    /// No copy with that stamp is in flight any more: nothing lands.
    Stale,
    /// The copy was still in flight but its source died: dropped.
    Canceled,
    /// The node is a holder now.
    Added {
        /// The secondary the replica cap evicted to make room, if any.
        evicted: Option<NodeId>,
    },
}

/// Runtime state of one partition: adaptor operations in flight.
#[derive(Debug, Clone, Default)]
pub struct PartitionRuntime {
    /// Operations on the partition cannot execute before this time
    /// (remaster hand-off window / migration blackout).
    pub blocked_until: Time,
    /// Background replica copies in flight: `(destination, stamp)`. The
    /// stamp is what [`Cluster::begin_add_replica`] issued; a completion
    /// carrying any other is stale, even toward the same node.
    pub(crate) copies: Vec<(NodeId, u64)>,
    /// Copies begun so far: the next copy's stamp.
    copies_begun: u64,
    /// What a failover promotion carries from the crash that orphaned the
    /// partition to the landing; `Some` exactly while the transfer is
    /// `Failover` (written and consumed in `failure.rs`).
    pub(crate) failover: Option<FailoverCtx>,
    /// The hand-off in flight; written only by [`Cluster`]'s start, finish
    /// and cancel routines.
    transfer: Transfer,
    /// Transfer generation: bumped whenever a hand-off starts or is
    /// canceled, so a completion scheduled for a superseded hand-off is
    /// recognized as stale (its stamp no longer equals this) and dropped.
    gen: u64,
    /// Ceiling `blocked_until` may sit at while `Idle`: what the last exit
    /// from a hand-off allowed (a finished one keeps its window, a canceled
    /// one must release it). Stored only for [`Cluster::check_invariants`].
    idle_cap: Time,
}

impl PartitionRuntime {
    /// The hand-off in flight.
    pub fn transfer(&self) -> Transfer {
        self.transfer
    }

    /// The current transfer generation: the stamp a completion scheduled
    /// for the hand-off in flight must still carry when it fires.
    pub fn gen(&self) -> u64 {
        self.gen
    }

    /// Nodes currently receiving a background replica copy.
    pub fn copy_targets(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.copies.iter().map(|&(to, _)| to)
    }

    /// The `Idle` ceiling of `blocked_until` (see the field docs).
    pub(crate) fn idle_cap(&self) -> Time {
        self.idle_cap
    }
}

impl Cluster {
    // ------------------------------------------------------------------
    // The one start guard, start, finish and cancel
    // ------------------------------------------------------------------

    /// The start guard every adaptor operation shares: the serving primary
    /// and `to` must both be up and on the same side of any active cut (the
    /// two nodes have to exchange the hand-off or the snapshot), and an
    /// `exclusive` operation — one that moves the primary — needs the
    /// partition `Idle`.
    fn may_start(
        &self,
        part: PartitionId,
        to: NodeId,
        exclusive: bool,
    ) -> Result<(), AdaptorError> {
        let primary = self.placement.primary_of(part);
        if (exclusive && self.transfer(part) != Transfer::Idle) || !self.reachable(primary, to) {
            return Err(AdaptorError::Busy(part));
        }
        Ok(())
    }

    /// The only way into a non-`Idle` state: records the hand-off, opens a
    /// new generation for its completion event and blocks the partition
    /// until `until`.
    pub(crate) fn start(&mut self, part: PartitionId, transfer: Transfer, until: Time) {
        let rt = &mut self.parts[part.idx()];
        debug_assert!(
            matches!(rt.transfer, Transfer::Idle | Transfer::Stalled),
            "{part} already has {:?} in flight",
            rt.transfer
        );
        rt.transfer = transfer;
        rt.gen += 1;
        rt.blocked_until = rt.blocked_until.max(until);
    }

    /// Takes `part`'s hand-off for completion, leaving the partition `Idle`
    /// (its block window stands: the hand-off lands at the end of it).
    pub(crate) fn finish(&mut self, part: PartitionId) -> Transfer {
        let rt = &mut self.parts[part.idx()];
        rt.idle_cap = rt.blocked_until;
        std::mem::take(&mut rt.transfer)
    }

    /// Cancels whatever hand-off `part` has in flight: the partition returns
    /// to `Idle`, the generation bump turns the scheduled completion stale,
    /// and the block window is released. Returns true when a failover
    /// promotion was aborted (the caller owes the partition a re-plan).
    pub(crate) fn cancel(&mut self, part: PartitionId, now: Time) -> bool {
        let rt = &mut self.parts[part.idx()];
        let was = std::mem::take(&mut rt.transfer);
        if was != Transfer::Idle {
            rt.gen += 1;
            rt.blocked_until = rt.blocked_until.min(now);
            rt.idle_cap = now;
        }
        matches!(was, Transfer::Failover { .. })
    }

    /// The hand-off sync: ships the primary's unshipped epoch buffer (the
    /// "lagging logs" of §III) to the secondaries it can reach, so the
    /// hand-off starts from a consistent state on its own side of any cut.
    /// Returns the wire bytes spent.
    fn sync_lag(&mut self, part: PartitionId) -> u64 {
        let primary = self.placement.primary_of(part);
        let pending = self.primary_store_mut(part).log.take_pending();
        self.ship(part, primary, &pending).0
    }

    /// `(duration, wire bytes)` of sending a full snapshot of `part`'s
    /// primary after `fixed_us` of setup.
    fn snapshot_cost(&self, part: PartitionId, fixed_us: Time) -> (Time, u64) {
        let bytes = self.primary_store(part).table.bytes() + 16 * self.cfg.keys_per_partition;
        let transit = (bytes as f64 / BYTES_PER_US).ceil() as Time;
        (fixed_us + transit, bytes)
    }

    // ------------------------------------------------------------------
    // Adaptor: remastering (§III)
    // ------------------------------------------------------------------

    /// Starts remastering `part` onto `to`. Returns the duration of the
    /// hand-off window: the configured delay plus log-lag sync time. The
    /// partition blocks for that window (new operations wait, §III).
    pub fn begin_remaster(
        &mut self,
        part: PartitionId,
        to: NodeId,
        now: Time,
    ) -> Result<Time, AdaptorError> {
        if self.placement.is_primary(part, to) {
            return Err(AdaptorError::AlreadyPrimary { part, node: to });
        }
        if !self.placement.has_secondary(part, to) {
            return Err(AdaptorError::NoReplica { part, node: to });
        }
        self.may_start(part, to, true)?;
        let head = self.primary_store(part).log.head_lsn();
        let lag = self
            .store(to, part)
            .expect("a listed secondary holds a store")
            .lag_behind(head);
        let duration = self.cfg.remaster_delay_us + lag * LAG_SYNC_US_PER_ENTRY;
        self.start(part, Transfer::Remaster { to }, now + duration);
        Ok(duration)
    }

    /// Completes an in-flight remaster: syncs the pending log to every
    /// reachable secondary, swaps roles, and updates the placement. Returns
    /// the wire bytes spent on the lag sync (for network accounting).
    pub fn finish_remaster(&mut self, part: PartitionId, now: Time) -> u64 {
        let Transfer::Remaster { to } = self.finish(part) else {
            panic!("finish_remaster without begin_remaster");
        };
        let bytes = self.sync_lag(part);
        let head = self.primary_store(part).log.head_lsn();
        self.swap_primary(part, to, head, now);
        bytes
    }

    // ------------------------------------------------------------------
    // Adaptor: background replica addition (§III, §V AddRepReqHandler)
    // ------------------------------------------------------------------

    /// Starts copying a new secondary of `part` onto `to` in the background.
    /// Returns `(copy duration, wire bytes, stamp)`; the completion hands the
    /// stamp back to [`Cluster::finish_add_replica`]. The partition stays
    /// fully available: this is the non-intrusive path Lion relies on.
    pub fn begin_add_replica(
        &mut self,
        part: PartitionId,
        to: NodeId,
    ) -> Result<(Time, u64, u64), AdaptorError> {
        let rt = &self.parts[part.idx()];
        if self.placement.has_replica(part, to) || rt.copy_targets().any(|n| n == to) {
            return Err(AdaptorError::AlreadyHosted { part, node: to });
        }
        self.may_start(part, to, false)?;
        let rt = &mut self.parts[part.idx()];
        rt.copies_begun += 1;
        let stamp = rt.copies_begun;
        rt.copies.push((to, stamp));
        let (duration, bytes) = self.snapshot_cost(part, MIGRATION_FIXED_US / 2);
        Ok((duration, bytes, stamp))
    }

    /// The copy of `part` onto `to` stamped `stamp` completes — unless it
    /// is no longer in flight (a crash of `to` or a cut canceled it, whatever
    /// runs toward the same node now) or its source died mid-copy. Otherwise
    /// the secondary is registered and, when the replica cap is exceeded, the
    /// coldest other secondary — never the target of a hand-off in flight —
    /// is evicted (§IV-B.2). A copy landing on a node that became a holder
    /// in the meantime (a migration moved the primary there) adds nothing.
    pub fn finish_add_replica(
        &mut self,
        part: PartitionId,
        to: NodeId,
        stamp: u64,
        now: Time,
    ) -> CopyLanded {
        let rt = &mut self.parts[part.idx()];
        let Some(pos) = rt.copies.iter().position(|&c| c == (to, stamp)) else {
            return CopyLanded::Stale;
        };
        rt.copies.swap_remove(pos);
        if !self.reachable(self.placement.primary_of(part), to) {
            return CopyLanded::Canceled;
        }
        let mut evicted = None;
        if self.attach(part, to).is_err() {
            return CopyLanded::Added { evicted };
        }
        self.freq.touch(part, to, now);

        if self.placement.replica_count(part) > self.cfg.max_replicas {
            let mut victims: Vec<NodeId> = self
                .placement
                .secondaries_of(part)
                .iter()
                .copied()
                .filter(|&n| n != to && Some(n) != self.transfer(part).target())
                // Across an open cut sits the other side's claim to the
                // partition (its promotion or shadow target among them), and
                // nobody there can be told to drop anything.
                .filter(|&n| self.same_side(to, n))
                .collect();
            // Anti-affinity: evicting a replica must not collapse the
            // partition's zone spread below the policy floor (or below the
            // spread it currently has, when already under the floor). Fall
            // back to the unconstrained victim set if no candidate
            // qualifies — the replica cap is a hard resource limit.
            if self.cfg.placement.is_rack_safe() {
                let floor = self.cfg.placement.min_zones().min(self.zone_coverage(part));
                let safe: Vec<NodeId> = victims
                    .iter()
                    .copied()
                    .filter(|&v| {
                        self.placement.zone_coverage_without(part, v, &self.zone_of) >= floor
                    })
                    .collect();
                if !safe.is_empty() {
                    victims = safe;
                }
            }
            evicted = self.freq.coldest(part, &victims);
            if let Some(victim) = evicted {
                self.detach(part, victim, Store::Dropped);
            }
        }
        CopyLanded::Added { evicted }
    }

    /// Provisions a secondary replica instantly and free of charge —
    /// deployment-time setup only (e.g. Star's full-replica "super node"
    /// exists before the workload starts; it is not built online).
    pub fn install_secondary_free(
        &mut self,
        part: PartitionId,
        node: NodeId,
    ) -> Result<(), AdaptorError> {
        self.attach(part, node)
    }

    // ------------------------------------------------------------------
    // Adaptor: blocking migration (the baselines' expensive path)
    // ------------------------------------------------------------------

    /// Starts migrating the primary of `part` to `to` (full data move).
    /// Returns `(duration, wire bytes)`; the partition blocks throughout.
    pub fn begin_migration(
        &mut self,
        part: PartitionId,
        to: NodeId,
        now: Time,
    ) -> Result<(Time, u64), AdaptorError> {
        if self.placement.is_primary(part, to) {
            return Err(AdaptorError::AlreadyPrimary { part, node: to });
        }
        self.may_start(part, to, true)?;
        let (duration, bytes) = self.snapshot_cost(part, MIGRATION_FIXED_US);
        self.start(part, Transfer::Migrate { to }, now + duration);
        Ok((duration, bytes))
    }

    /// Completes a migration: flushes unshipped entries to the reachable
    /// secondaries, then moves the primary's data to the target and updates
    /// the placement.
    pub fn finish_migration(&mut self, part: PartitionId, now: Time) {
        let Transfer::Migrate { to } = self.finish(part) else {
            panic!("finish_migration without begin_migration");
        };
        self.sync_lag(part);
        self.move_primary(part, to, now);
    }
}
