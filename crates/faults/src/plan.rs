//! The fault-plan DSL: deterministic failure scripts on the virtual clock.

use lion_common::{NodeId, PartitionId, Placement, Time, ZoneId};
use std::fmt;

/// What happens at a fault event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// The node halts and its volatile state (unshipped epoch buffers) is
    /// lost; committed writes survive via the prepare logs replicated to
    /// secondaries.
    Crash(NodeId),
    /// The node restarts with its durable state and re-joins.
    Recover(NodeId),
    /// A network partition isolates the listed nodes from the rest of the
    /// cluster. The surviving majority side treats them as failed.
    Partition(Vec<NodeId>),
    /// The network partition heals; isolated nodes re-join.
    Heal,
    /// Correlated failure: every live node of the zone halts atomically on
    /// one virtual-clock tick (rack power / top-of-rack switch loss). A
    /// failover already in flight toward a zone member dies with it and is
    /// re-planned over the survivors.
    ZoneCrash(ZoneId),
    /// Every down node of the zone restarts (power restored).
    ZoneHeal(ZoneId),
    /// Zone-aware network partition: the listed zones are cut off from the
    /// rest of the cluster (aggregation-switch loss); the surviving side
    /// treats their members as failed until the matching [`FaultKind::Heal`].
    ZonePartition(Vec<ZoneId>),
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual time (µs) the event fires.
    pub at: Time,
    /// The event.
    pub kind: FaultKind,
}

/// Errors found by [`FaultPlan::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPlanError {
    /// A node id is out of range for the cluster.
    UnknownNode(NodeId),
    /// Crash/isolate of a node that is already down at that point.
    AlreadyDown(NodeId),
    /// Recover of a node that is up at that point.
    AlreadyUp(NodeId),
    /// The plan would take down every node in the cluster.
    WholeClusterDown(Time),
    /// `Heal` without a preceding un-healed `Partition`.
    HealWithoutPartition(Time),
    /// A second `Partition` before the first healed.
    AlreadyPartitioned(Time),
    /// An empty isolation set.
    EmptyPartition(Time),
    /// A zone id with no member nodes in the cluster.
    UnknownZone(ZoneId),
    /// ZoneCrash of a zone whose members are all already down.
    ZoneAlreadyDown(ZoneId),
    /// ZoneHeal of a zone whose members are all already up.
    ZoneAlreadyUp(ZoneId),
    /// The plan's combined crashes leave every replica holder of a
    /// partition down at the end of the script, with no matching
    /// `Recover`/`ZoneHeal`/`Heal`: the run would stall that partition
    /// forever. Caught at validation instead of silently hanging.
    OrphanedForever(PartitionId),
    /// Split-brain refinement of [`FaultPlanError::OrphanedForever`]: at
    /// some instant of an open split-brain partition window, *neither* side
    /// of the cut holds a strict majority of this data partition's replica
    /// set among its live nodes. No side could fence the other, both
    /// timelines would claim durability, and the heal reconciliation would
    /// have no surviving timeline to keep — rejected up front.
    NoQuorumSide {
        /// Virtual time (µs) at which the quorum was lost (the partition
        /// event itself, or a crash inside the window).
        at: Time,
        /// The data partition with no quorum side.
        part: PartitionId,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::UnknownNode(n) => write!(f, "unknown node {n}"),
            FaultPlanError::AlreadyDown(n) => write!(f, "{n} is already down"),
            FaultPlanError::AlreadyUp(n) => write!(f, "{n} is already up"),
            FaultPlanError::WholeClusterDown(t) => {
                write!(f, "plan takes the whole cluster down at t={t}µs")
            }
            FaultPlanError::HealWithoutPartition(t) => {
                write!(f, "heal at t={t}µs without an open network partition")
            }
            FaultPlanError::AlreadyPartitioned(t) => {
                write!(
                    f,
                    "second network partition at t={t}µs before the first healed"
                )
            }
            FaultPlanError::EmptyPartition(t) => {
                write!(f, "network partition at t={t}µs isolates no nodes")
            }
            FaultPlanError::UnknownZone(z) => write!(f, "unknown zone {z}"),
            FaultPlanError::ZoneAlreadyDown(z) => {
                write!(f, "every node of {z} is already down")
            }
            FaultPlanError::ZoneAlreadyUp(z) => {
                write!(f, "every node of {z} is already up")
            }
            FaultPlanError::OrphanedForever(p) => {
                write!(
                    f,
                    "plan leaves every replica of {p} down forever (no recover/heal)"
                )
            }
            FaultPlanError::NoQuorumSide { at, part } => {
                write!(
                    f,
                    "split-brain partition at t={at}µs leaves no side with a \
                     live majority of {part}'s replica set"
                )
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// An ordered, deterministic script of fault events.
///
/// Built with the `*_at` combinators; events keep insertion order within the
/// same timestamp and are sorted stably by time, so the execution order is a
/// pure function of the plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    /// Honest split-brain mode: `Partition`/`ZonePartition` keep **both**
    /// sides live instead of approximating the isolated side as crashed.
    /// Minority-side coordinators keep accepting work (their acks fence
    /// behind the quorum seal), the quorum side promotes, and the matching
    /// `Heal` runs divergence reconciliation. Off by default — the legacy
    /// crash-approximation path stays bit-identical.
    split_brain: bool,
}

impl FaultPlan {
    /// An empty plan (no faults — the default for every run).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Alias for [`FaultPlan::new`], reading better at call sites.
    pub fn none() -> Self {
        Self::new()
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The events in firing order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    fn push(mut self, at: Time, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at, kind });
        // Stable sort: same-time events fire in insertion order.
        self.events.sort_by_key(|e| e.at);
        self
    }

    /// Schedules a crash of `node` at `at`.
    pub fn crash_at(self, at: Time, node: NodeId) -> Self {
        self.push(at, FaultKind::Crash(node))
    }

    /// Schedules a restart of `node` at `at`.
    pub fn recover_at(self, at: Time, node: NodeId) -> Self {
        self.push(at, FaultKind::Recover(node))
    }

    /// Schedules a network partition isolating `nodes` at `at`.
    pub fn partition_at(self, at: Time, nodes: Vec<NodeId>) -> Self {
        self.push(at, FaultKind::Partition(nodes))
    }

    /// Opts the plan into honest split-brain semantics: partitions keep
    /// both sides live (see the field docs on [`FaultPlan`]). Validation
    /// then additionally requires every data partition to keep one side
    /// with a live replica-set majority for the whole window
    /// ([`FaultPlanError::NoQuorumSide`]).
    pub fn with_split_brain(mut self) -> Self {
        self.split_brain = true;
        self
    }

    /// True when the plan runs partitions in honest split-brain mode.
    pub fn split_brain(&self) -> bool {
        self.split_brain
    }

    /// Schedules the heal of the open network partition at `at`.
    pub fn heal_at(self, at: Time) -> Self {
        self.push(at, FaultKind::Heal)
    }

    /// Schedules a correlated crash of every node in `zone` at `at`.
    pub fn crash_zone_at(self, at: Time, zone: ZoneId) -> Self {
        self.push(at, FaultKind::ZoneCrash(zone))
    }

    /// Schedules the restart of every down node in `zone` at `at`.
    pub fn heal_zone_at(self, at: Time, zone: ZoneId) -> Self {
        self.push(at, FaultKind::ZoneHeal(zone))
    }

    /// Schedules a network partition cutting the listed zones off at `at`.
    pub fn partition_zones_at(self, at: Time, zones: Vec<ZoneId>) -> Self {
        self.push(at, FaultKind::ZonePartition(zones))
    }

    /// Convenience: one zone-loss/zone-restore cycle.
    pub fn zone_failure(crash_at: Time, zone: ZoneId, heal_at: Time) -> Self {
        assert!(crash_at < heal_at, "the heal must follow the crash");
        Self::new()
            .crash_zone_at(crash_at, zone)
            .heal_zone_at(heal_at, zone)
    }

    /// Convenience: one crash/recover cycle of a single node.
    pub fn single_failure(crash_at: Time, node: NodeId, recover_at: Time) -> Self {
        assert!(crash_at < recover_at, "recovery must follow the crash");
        Self::new()
            .crash_at(crash_at, node)
            .recover_at(recover_at, node)
    }

    /// Checks the plan against a cluster of `n_nodes` nodes in one zone:
    /// ids in range, no double-crash / double-recover, heals paired with
    /// partitions, and at least one node left alive at every point. Plans
    /// with zone events need [`FaultPlan::validate_with_zones`].
    pub fn validate(&self, n_nodes: usize) -> Result<(), FaultPlanError> {
        let zone_of = vec![ZoneId(0); n_nodes];
        self.validate_with_zones(n_nodes, &zone_of)
    }

    /// [`FaultPlan::validate`] with a node→zone map, so zone events resolve
    /// to their member sets. Returns the final down-set for the orphan check
    /// and the lowered schedule (see [`FaultPlan::validate_against`]).
    ///
    /// In split-brain mode isolated nodes are *not* marked down (both sides
    /// stay live); when `placement` is given, every instant of an open
    /// split-brain window must leave each data partition one side holding a
    /// live strict majority of its replica set.
    fn simulate(
        &self,
        n_nodes: usize,
        zone_of: &[ZoneId],
        placement: Option<&Placement>,
    ) -> Result<(Vec<bool>, Vec<Vec<FaultKind>>), FaultPlanError> {
        debug_assert_eq!(zone_of.len(), n_nodes);
        let mut down = vec![false; n_nodes];
        let mut isolated: Option<Vec<NodeId>> = None;
        let mut lowered = Vec::with_capacity(self.events.len());
        let check = |n: NodeId| {
            if n.idx() >= n_nodes {
                Err(FaultPlanError::UnknownNode(n))
            } else {
                Ok(())
            }
        };
        let members = |z: ZoneId| -> Result<Vec<NodeId>, FaultPlanError> {
            let m: Vec<NodeId> = (0..n_nodes)
                .filter(|&i| zone_of[i] == z)
                .map(|i| NodeId(i as u16))
                .collect();
            if m.is_empty() {
                Err(FaultPlanError::UnknownZone(z))
            } else {
                Ok(m)
            }
        };
        // Flips every node of `nodes` not yet in the `to_down` state,
        // recording the `Crash`/`Recover` step that does it.
        fn flip(down: &mut [bool], steps: &mut Vec<FaultKind>, nodes: Vec<NodeId>, to_down: bool) {
            for n in nodes {
                if down[n.idx()] != to_down {
                    down[n.idx()] = to_down;
                    steps.push(if to_down {
                        FaultKind::Crash(n)
                    } else {
                        FaultKind::Recover(n)
                    });
                }
            }
        }
        for ev in &self.events {
            let mut steps = Vec::new();
            // The cut this event opens, already resolved to live nodes.
            let mut cut: Option<Vec<NodeId>> = None;
            let cuts = matches!(
                ev.kind,
                FaultKind::Partition(_) | FaultKind::ZonePartition(_)
            );
            if cuts && isolated.is_some() {
                return Err(FaultPlanError::AlreadyPartitioned(ev.at));
            }
            match &ev.kind {
                FaultKind::Crash(n) => {
                    check(*n)?;
                    if down[n.idx()] {
                        return Err(FaultPlanError::AlreadyDown(*n));
                    }
                    down[n.idx()] = true;
                    steps.push(ev.kind.clone());
                }
                FaultKind::Recover(n) => {
                    check(*n)?;
                    if !down[n.idx()] {
                        return Err(FaultPlanError::AlreadyUp(*n));
                    }
                    down[n.idx()] = false;
                    steps.push(ev.kind.clone());
                }
                FaultKind::Partition(nodes) => {
                    for n in nodes {
                        check(*n)?;
                        if down[n.idx()] {
                            return Err(FaultPlanError::AlreadyDown(*n));
                        }
                        down[n.idx()] = !self.split_brain;
                    }
                    cut = Some(nodes.clone());
                }
                FaultKind::Heal => match isolated.take() {
                    Some(_) if self.split_brain => steps.push(FaultKind::Heal),
                    Some(nodes) => flip(&mut down, &mut steps, nodes, false),
                    None => return Err(FaultPlanError::HealWithoutPartition(ev.at)),
                },
                FaultKind::ZoneCrash(z) => {
                    let m = members(*z)?;
                    if m.iter().all(|n| down[n.idx()]) {
                        return Err(FaultPlanError::ZoneAlreadyDown(*z));
                    }
                    steps.push(ev.kind.clone());
                    flip(&mut down, &mut steps, m, true);
                }
                FaultKind::ZoneHeal(z) => {
                    let m = members(*z)?;
                    if m.iter().all(|n| !down[n.idx()]) {
                        return Err(FaultPlanError::ZoneAlreadyUp(*z));
                    }
                    flip(&mut down, &mut steps, m, false);
                }
                FaultKind::ZonePartition(zones) => {
                    let mut live = Vec::new();
                    for z in zones {
                        for n in members(*z)? {
                            if !down[n.idx()] {
                                down[n.idx()] = !self.split_brain;
                                live.push(n);
                            }
                        }
                    }
                    cut = Some(live);
                }
            }
            if let Some(cut) = cut {
                if cut.is_empty() {
                    return Err(FaultPlanError::EmptyPartition(ev.at));
                }
                if self.split_brain {
                    steps.push(FaultKind::Partition(cut.clone()));
                } else {
                    steps.extend(cut.iter().map(|&n| FaultKind::Crash(n)));
                }
                isolated = Some(cut);
            }
            let restores = matches!(
                ev.kind,
                FaultKind::Recover(_) | FaultKind::ZoneHeal(_) | FaultKind::Heal
            );
            if self.split_brain && !restores {
                // The cut itself, or a crash inside its window, can cost a
                // partition its quorum side (`Placement::quorum_side`).
                if let (Some(iso), Some(pl)) = (&isolated, placement) {
                    let (live, side) = (|h: NodeId| !down[h.idx()], |h| u8::from(iso.contains(&h)));
                    let mut parts = (0..pl.n_partitions() as u32).map(PartitionId);
                    if let Some(part) = parts.find(|&p| pl.quorum_side(p, live, side).is_none()) {
                        return Err(FaultPlanError::NoQuorumSide { at: ev.at, part });
                    }
                }
            }
            if down.iter().all(|&d| d) {
                return Err(FaultPlanError::WholeClusterDown(ev.at));
            }
            lowered.push(steps);
        }
        Ok((down, lowered))
    }

    /// Structural validation with zone resolution (see [`FaultPlan::validate`]).
    pub fn validate_with_zones(
        &self,
        n_nodes: usize,
        zone_of: &[ZoneId],
    ) -> Result<(), FaultPlanError> {
        self.simulate(n_nodes, zone_of, None).map(|_| ())
    }

    /// Full validation against a concrete topology: the structural checks
    /// plus the *liveness* check — the script's terminal state must leave
    /// every partition with at least one live replica holder. A plan whose
    /// combined node and zone crashes take down every replica of some
    /// partition without a matching `Recover`/`ZoneHeal`/`Heal` would stall
    /// that partition to the end of the run; this rejects it up front
    /// instead. (Conservative: protocols that provision replicas online may
    /// outrun the static check, but a plan that only passes because of
    /// runtime replication is a fragile experiment.)
    ///
    /// Returns the **lowered schedule** the engine executes: per scripted
    /// event, in [`FaultPlan::events`] order, the primitive steps to run on
    /// that tick. Zone events and the default (crash-approximation)
    /// partition mode are sugar — they lower to `Crash`/`Recover` steps over
    /// exactly the nodes whose liveness they flip (list order; zone-list
    /// then node-id order). What survives lowering besides those two:
    /// `ZoneCrash` as the bare marker of a correlated loss (its members'
    /// crashes follow it), and in split-brain mode `Partition` (the cut,
    /// resolved to live nodes) and `Heal`.
    pub fn validate_against(
        &self,
        placement: &Placement,
        zone_of: &[ZoneId],
    ) -> Result<Vec<Vec<FaultKind>>, FaultPlanError> {
        let (down, lowered) = self.simulate(placement.n_nodes(), zone_of, Some(placement))?;
        for p in 0..placement.n_partitions() {
            let part = PartitionId(p as u32);
            let orphaned = placement
                .replica_nodes(part)
                .iter()
                .all(|holder| down[holder.idx()]);
            if orphaned {
                return Err(FaultPlanError::OrphanedForever(part));
            }
        }
        Ok(lowered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn builder_sorts_stably_by_time() {
        let plan = FaultPlan::new()
            .recover_at(500, n(0))
            .crash_at(100, n(0))
            .crash_at(500, n(1))
            .recover_at(900, n(1));
        let at: Vec<Time> = plan.events().iter().map(|e| e.at).collect();
        assert_eq!(at, vec![100, 500, 500, 900]);
        // same-time events keep insertion order: recover(n0) before crash(n1)
        assert_eq!(plan.events()[1].kind, FaultKind::Recover(n(0)));
        assert_eq!(plan.events()[2].kind, FaultKind::Crash(n(1)));
        assert!(plan.validate(2).is_ok());
    }

    #[test]
    fn validate_rejects_double_crash_and_unknown_nodes() {
        let p = FaultPlan::new().crash_at(1, n(0)).crash_at(2, n(0));
        assert_eq!(p.validate(4), Err(FaultPlanError::AlreadyDown(n(0))));
        let p = FaultPlan::new().crash_at(1, n(9));
        assert_eq!(p.validate(4), Err(FaultPlanError::UnknownNode(n(9))));
        let p = FaultPlan::new().recover_at(1, n(0));
        assert_eq!(p.validate(4), Err(FaultPlanError::AlreadyUp(n(0))));
    }

    #[test]
    fn validate_rejects_killing_everyone() {
        let p = FaultPlan::new().crash_at(1, n(0)).crash_at(2, n(1));
        assert_eq!(p.validate(2), Err(FaultPlanError::WholeClusterDown(2)));
        assert!(p.validate(3).is_ok());
    }

    #[test]
    fn partition_heal_pairing() {
        let p = FaultPlan::new().heal_at(5);
        assert_eq!(p.validate(2), Err(FaultPlanError::HealWithoutPartition(5)));
        let p = FaultPlan::new()
            .partition_at(1, vec![n(1)])
            .partition_at(2, vec![n(2)]);
        assert_eq!(p.validate(4), Err(FaultPlanError::AlreadyPartitioned(2)));
        let p = FaultPlan::new().partition_at(1, vec![]);
        assert_eq!(p.validate(4), Err(FaultPlanError::EmptyPartition(1)));
        let p = FaultPlan::new()
            .partition_at(1, vec![n(1), n(2)])
            .heal_at(9)
            .partition_at(10, vec![n(0)])
            .heal_at(20);
        assert!(p.validate(4).is_ok());
    }

    #[test]
    fn single_failure_roundtrip() {
        let p = FaultPlan::single_failure(1_000, n(2), 5_000);
        assert_eq!(p.len(), 2);
        assert!(p.validate(4).is_ok());
    }

    fn z(i: u16) -> ZoneId {
        ZoneId(i)
    }

    /// 4 nodes, racks Z0={N0,N1}, Z1={N2,N3}.
    fn two_zone_map() -> Vec<ZoneId> {
        vec![z(0), z(0), z(1), z(1)]
    }

    #[test]
    fn zone_crash_heal_cycle_validates() {
        let p = FaultPlan::zone_failure(1_000, z(1), 9_000);
        assert_eq!(p.len(), 2);
        assert!(p.validate_with_zones(4, &two_zone_map()).is_ok());
        // whole-cluster loss via zones is rejected
        let p = FaultPlan::new()
            .crash_zone_at(1, z(0))
            .crash_zone_at(2, z(1));
        assert_eq!(
            p.validate_with_zones(4, &two_zone_map()),
            Err(FaultPlanError::WholeClusterDown(2))
        );
        // unknown zone / double zone crash
        let p = FaultPlan::new().crash_zone_at(1, z(7));
        assert_eq!(
            p.validate_with_zones(4, &two_zone_map()),
            Err(FaultPlanError::UnknownZone(z(7)))
        );
        let p = FaultPlan::new()
            .crash_zone_at(1, z(1))
            .crash_zone_at(2, z(1));
        assert_eq!(
            p.validate_with_zones(4, &two_zone_map()),
            Err(FaultPlanError::ZoneAlreadyDown(z(1)))
        );
        let p = FaultPlan::new().heal_zone_at(1, z(0));
        assert_eq!(
            p.validate_with_zones(4, &two_zone_map()),
            Err(FaultPlanError::ZoneAlreadyUp(z(0)))
        );
    }

    #[test]
    fn zone_crash_composes_with_node_faults() {
        // N2 crashes alone; the later ZoneCrash takes its zone-mate N3 too;
        // ZoneHeal restores both.
        let p = FaultPlan::new()
            .crash_at(1, n(2))
            .crash_zone_at(5, z(1))
            .heal_zone_at(9, z(1));
        assert!(p.validate_with_zones(4, &two_zone_map()).is_ok());
        // plain validate (single-zone view) rejects zone ids it cannot map
        assert_eq!(
            FaultPlan::new().crash_zone_at(1, z(1)).validate(4),
            Err(FaultPlanError::UnknownZone(z(1)))
        );
    }

    #[test]
    fn zone_partition_isolates_members_until_heal() {
        let p = FaultPlan::new()
            .partition_zones_at(1, vec![z(1)])
            .heal_at(9);
        assert!(p.validate_with_zones(4, &two_zone_map()).is_ok());
        let p = FaultPlan::new().partition_zones_at(1, vec![z(0), z(1)]);
        assert_eq!(
            p.validate_with_zones(4, &two_zone_map()),
            Err(FaultPlanError::WholeClusterDown(1))
        );
        let p = FaultPlan::new().partition_zones_at(1, vec![]);
        assert_eq!(
            p.validate_with_zones(4, &two_zone_map()),
            Err(FaultPlanError::EmptyPartition(1))
        );
    }

    #[test]
    fn default_partitions_and_zone_events_lower_to_crash_recover() {
        let pl = Placement::round_robin(4, 4, 3);
        let zones = two_zone_map();
        // N3 restarts inside the window, so the heal only owes N2 a restart;
        // N0 is already down when its zone crashes, so only N1 crashes.
        let p = FaultPlan::new()
            .partition_zones_at(1, vec![z(1)])
            .recover_at(2, n(3))
            .heal_at(3)
            .crash_at(4, n(0))
            .recover_at(5, n(0))
            .partition_at(6, vec![n(3), n(1)])
            .heal_at(7)
            .crash_at(8, n(0))
            .crash_zone_at(9, z(0))
            .heal_zone_at(10, z(0));
        use FaultKind::*;
        assert_eq!(
            p.validate_against(&pl, &zones).unwrap(),
            vec![
                vec![Crash(n(2)), Crash(n(3))],
                vec![Recover(n(3))],
                vec![Recover(n(2))],
                vec![Crash(n(0))],
                vec![Recover(n(0))],
                vec![Crash(n(3)), Crash(n(1))],
                vec![Recover(n(3)), Recover(n(1))],
                vec![Crash(n(0))],
                vec![ZoneCrash(z(0)), Crash(n(1))],
                vec![Recover(n(0)), Recover(n(1))],
            ]
        );
        // Split-brain keeps the cut (resolved to its live nodes) and the heal.
        let sb = FaultPlan::new()
            .partition_zones_at(1, vec![z(1)])
            .heal_at(9)
            .with_split_brain();
        assert_eq!(
            sb.validate_against(&pl, &zones).unwrap(),
            vec![vec![Partition(vec![n(2), n(3)])], vec![Heal]]
        );
    }

    #[test]
    fn orphan_forever_plans_are_rejected() {
        // P0's replicas live on N0 and N1 — both in Z0. Crashing Z0 without
        // a heal stalls P0 to the horizon: rejected.
        let pl = Placement::round_robin(4, 4, 2);
        let zones = two_zone_map();
        let forever = FaultPlan::new().crash_zone_at(1_000, z(0));
        assert_eq!(
            forever.validate_against(&pl, &zones),
            Err(FaultPlanError::OrphanedForever(PartitionId(0)))
        );
        // The same loss with a heal is a legitimate outage scenario.
        let healed = FaultPlan::zone_failure(1_000, z(0), 9_000);
        assert!(healed.validate_against(&pl, &zones).is_ok());
        // Node+zone combination: crash N2 forever, zone-crash Z0 with heal —
        // P2 (replicas N2,N3) keeps N3, P0 recovers with the heal.
        let combo = FaultPlan::new()
            .crash_at(500, n(2))
            .crash_zone_at(1_000, z(0))
            .heal_zone_at(5_000, z(0));
        assert!(combo.validate_against(&pl, &zones).is_ok());
        // …but additionally crashing N3 forever orphans P2 = {N2, N3}.
        let combo_bad = FaultPlan::new()
            .crash_at(500, n(2))
            .crash_at(600, n(3))
            .heal_zone_at(5_000, z(1)); // heals Z1? no: both crashed individually
                                        // ZoneHeal restores down members of Z1 (N2, N3), so P2 survives:
        assert!(combo_bad.validate_against(&pl, &zones).is_ok());
        let truly_bad = FaultPlan::new().crash_at(500, n(2)).crash_at(600, n(3));
        assert_eq!(
            truly_bad.validate_against(&pl, &zones),
            Err(FaultPlanError::OrphanedForever(PartitionId(2)))
        );
        // Zone-safe placement survives the un-healed zone loss that
        // orphaned round-robin: every partition spans both racks.
        let safe = Placement::zone_spread(4, 4, 2, &zones, 2);
        assert!(forever.validate_against(&safe, &zones).is_ok());
    }

    #[test]
    fn split_brain_keeps_both_sides_structurally_live() {
        // Isolating one of two nodes would be WholeClusterDown-adjacent in
        // the crash approximation; in split-brain mode both sides stay up.
        let p = FaultPlan::new()
            .partition_at(1, vec![n(1)])
            .heal_at(9)
            .with_split_brain();
        assert!(p.split_brain());
        assert!(p.validate(2).is_ok());
        // The crash approximation of the same plan kills n1 for the window.
        let legacy = FaultPlan::new().partition_at(1, vec![n(1)]).heal_at(9);
        assert!(!legacy.split_brain());
        assert!(legacy.validate(2).is_ok());
        // Pairing rules are unchanged in split-brain mode.
        let p = FaultPlan::new().heal_at(5).with_split_brain();
        assert_eq!(p.validate(2), Err(FaultPlanError::HealWithoutPartition(5)));
    }

    #[test]
    fn split_brain_rejects_plans_with_no_quorum_side() {
        // rf=2: P0 lives on {N0, N1}; cutting N1 off splits its replica set
        // 1/1 — neither side holds a strict majority.
        let pl = Placement::round_robin(4, 4, 2);
        let zones = two_zone_map();
        let p = FaultPlan::new()
            .partition_at(1_000, vec![n(1)])
            .heal_at(9_000)
            .with_split_brain();
        assert_eq!(
            p.validate_against(&pl, &zones),
            Err(FaultPlanError::NoQuorumSide {
                at: 1_000,
                part: PartitionId(0)
            })
        );
        // The same cut with rf=3 leaves every partition a 2/1 split: ok.
        let pl3 = Placement::round_robin(4, 4, 3);
        assert!(p.validate_against(&pl3, &zones).is_ok());
        // Without split_brain the quorum rule does not apply (the isolated
        // side is approximated as crashed, and the heal restores it).
        let legacy = FaultPlan::new()
            .partition_at(1_000, vec![n(1)])
            .heal_at(9_000);
        assert!(legacy.validate_against(&pl, &zones).is_ok());
    }

    #[test]
    fn split_brain_quorum_holds_for_the_entire_window() {
        // rf=3 on 4 nodes, cut {N3}: at the partition P2 = {N2, N3, N0}
        // splits 2/1 toward the majority. Crashing N0 *inside* the window
        // drops the majority side to 1 live holder of 3 — rejected at the
        // crash instant, not the partition instant.
        let pl3 = Placement::round_robin(4, 4, 3);
        let zones = two_zone_map();
        let p = FaultPlan::new()
            .partition_at(1_000, vec![n(3)])
            .crash_at(2_000, n(0))
            .heal_at(9_000)
            .with_split_brain();
        assert_eq!(
            p.validate_against(&pl3, &zones),
            Err(FaultPlanError::NoQuorumSide {
                at: 2_000,
                part: PartitionId(2)
            })
        );
        // The same crash after the heal is fine.
        let p = FaultPlan::new()
            .partition_at(1_000, vec![n(3)])
            .heal_at(9_000)
            .crash_at(10_000, n(0))
            .with_split_brain();
        assert!(p.validate_against(&pl3, &zones).is_ok());
        // Zone cut in split-brain mode: Z1 = {N2, N3} keeps a 2/1 or 1/2
        // majority on every rf=3 partition.
        let p = FaultPlan::new()
            .partition_zones_at(1_000, vec![z(1)])
            .heal_at(9_000)
            .with_split_brain();
        assert!(p.validate_against(&pl3, &zones).is_ok());
    }
}
