//! Property tests for the failover building blocks: the replication log's
//! dense-prefix frontier, the promotion-target selection, and the
//! partition-transfer state machine under arbitrary interleavings.

use lion::cluster::{Cluster, Transfer};
use lion::common::{NodeId, PartitionId, SimConfig, Time, TxnId};
use lion::faults::{
    plan_heal, plan_promotion, plan_split_promotions, select_promotion_target, PromotionCandidate,
    SplitAction,
};
use lion::storage::{ReplicaStore, Table};
use proptest::prelude::*;

fn cand(node: u16, applied: u64, gap: bool) -> PromotionCandidate {
    PromotionCandidate {
        node: NodeId(node),
        applied_lsn: applied,
        has_gap: gap,
    }
}

/// Reference implementation of the selection rule: among gap-free
/// candidates, the highest applied LSN, ties to the lowest node id.
fn spec_select(cands: &[PromotionCandidate]) -> Option<NodeId> {
    cands
        .iter()
        .filter(|c| !c.has_gap)
        .map(|c| (c.applied_lsn, std::cmp::Reverse(c.node)))
        .max()
        .map(|(_, std::cmp::Reverse(node))| node)
}

/// One commit at `part`'s primary, stamped `at`: installed and logged, but
/// unshipped until the next flush or hand-off sync.
fn commit_at_primary(c: &mut Cluster, part: PartitionId, key: u64, at: Time, value_size: u32) {
    let txn = TxnId(at);
    let store = c.primary_store_mut(part);
    store.table.occ_lock(key, txn);
    let value = Table::synth_value(key, at, value_size);
    let v = store.table.occ_install(key, txn, value);
    store.log.append(part, key, v, value);
}

/// A bare [`Cluster`] driven the way the engine drives it, minus the clock:
/// completions are "scheduled" into a bag stamped with the generation their
/// start opened and delivered whenever the generated script says so.
struct Driver {
    c: Cluster,
    now: Time,
    /// Undelivered hand-off completions: `(partition, generation stamp)`.
    scheduled: Vec<(PartitionId, u64)>,
    /// Undelivered copy completions: `(partition, destination, stamp)`.
    copies: Vec<(PartitionId, NodeId, u64)>,
    /// Promotions the quorum side scheduled at split begin.
    promotions: Vec<(PartitionId, NodeId)>,
}

impl Driver {
    fn new() -> Self {
        let c = Cluster::new(SimConfig {
            nodes: 5,
            partitions_per_node: 1,
            keys_per_partition: 16,
            value_size: 8,
            replication_factor: 3,
            max_replicas: 4,
            ..Default::default()
        });
        Driver {
            c,
            now: 0,
            scheduled: Vec::new(),
            copies: Vec::new(),
            promotions: Vec::new(),
        }
    }

    fn schedule(&mut self, part: PartitionId) {
        self.scheduled.push((part, self.c.parts[part.idx()].gen()));
    }

    /// The engine's `promote_or_stall`, minus the clock: execute the one
    /// planner's decision — promote, or with nobody to promote let a live
    /// primary resume and stall a dead one.
    fn promote_or_stall(&mut self, part: PartitionId) {
        let d = plan_promotion(&self.c, part);
        if let Some(target) = d.target {
            self.c.begin_failover(part, target, d.duration, self.now);
            self.schedule(part);
        } else if self.c.abandon_failover(part, self.now).is_none() {
            self.c.stall_partition(part, self.now + 100);
        }
    }

    fn add_replica(&mut self, part: PartitionId, node: NodeId) {
        if let Ok((_, _, stamp)) = self.c.begin_add_replica(part, node) {
            self.copies.push((part, node, stamp));
        }
    }

    /// The split-brain rule plan validation enforces for every instant of a
    /// window (`FaultPlanError::NoQuorumSide`): with `cut` open and `dying`
    /// about to crash, each partition keeps a quorum side. A generator
    /// filter mirroring validation, not an oracle — it calls the rule.
    fn quorum_survives(&self, cut: &[NodeId], dying: Option<NodeId>) -> bool {
        let live = |h: NodeId| self.c.is_up(h) && Some(h) != dying;
        let side = |h: NodeId| u8::from(cut.contains(&h));
        (0..self.c.n_partitions() as u32).all(|p| {
            self.c
                .placement
                .quorum_side(PartitionId(p), live, side)
                .is_some()
        })
    }

    fn step(&mut self, op: u8, a: usize, b: usize) {
        self.now += 1 + (a as Time % 7) * 50;
        let now = self.now;
        let part = PartitionId((a % self.c.n_partitions()) as u32);
        let node = NodeId((b % self.c.n_nodes()) as u16);
        match op {
            0 => {
                if self.c.begin_remaster(part, node, now).is_ok() {
                    self.schedule(part);
                }
            }
            1 => {
                if self.c.begin_migration(part, node, now).is_ok() {
                    self.schedule(part);
                }
            }
            2 => self.add_replica(part, node),
            3 => {
                // A copy's completion fires (the engine's `ReplicaCopied`);
                // whether it is stale is the cluster's call.
                if !self.copies.is_empty() {
                    let (part, to, stamp) = self.copies.swap_remove(b % self.copies.len());
                    self.c.finish_add_replica(part, to, stamp, now);
                }
            }
            4 => {
                // A scheduled completion fires (the engine's `TransferDone`).
                if self.scheduled.is_empty() {
                    return;
                }
                let (part, gen) = self.scheduled.swap_remove(b % self.scheduled.len());
                if self.c.parts[part.idx()].gen() != gen {
                    return; // stale
                }
                match self.c.transfer(part) {
                    Transfer::Remaster { .. } => {
                        self.c.finish_remaster(part, now);
                    }
                    Transfer::Migrate { .. } => self.c.finish_migration(part, now),
                    Transfer::Failover { .. } => {
                        let landed = self.c.finish_failover(part, now).expect("in flight").record;
                        assert_eq!(landed.promoted_head, landed.dead_head, "{part}");
                    }
                    other => panic!("{part}: current generation but {other:?}"),
                }
            }
            5 => {
                let cut: Vec<NodeId> = self
                    .c
                    .node_ids()
                    .filter(|&n| self.c.side_of(n) == 1)
                    .collect();
                let splits_quorum =
                    self.c.split_active() && !self.quorum_survives(&cut, Some(node));
                if !self.c.is_up(node) || self.c.live_count() == 1 || splits_quorum {
                    return;
                }
                let report = self.c.crash_node(node, now);
                for part in report.orphaned.into_iter().chain(report.aborted_failovers) {
                    self.promote_or_stall(part);
                }
            }
            6 => {
                // A restart — mid-promotion or not.
                if self.c.is_up(node) {
                    return;
                }
                for part in self.c.recover_node(node, now).rejoin_secondaries {
                    self.add_replica(part, node);
                }
            }
            7 => {
                // The cut opens over a non-empty proper subset of the nodes.
                if self.c.split_active() {
                    return;
                }
                let mask = 1 + a % ((1 << self.c.n_nodes()) - 2);
                let cut: Vec<NodeId> = self.c.node_ids().filter(|n| mask >> n.0 & 1 == 1).collect();
                if !self.quorum_survives(&cut, None) {
                    return;
                }
                for part in self.c.begin_split(&cut, now) {
                    self.promote_or_stall(part);
                }
                self.promotions.clear();
                for d in plan_split_promotions(&self.c) {
                    match d.action {
                        SplitAction::Promote { target, .. } => {
                            self.promotions.push((d.part, target))
                        }
                        SplitAction::Shadow { target } => self.c.set_shadow(d.part, target),
                        SplitAction::Stall => {}
                    }
                }
            }
            8 => {
                // A quorum-side promotion lands (the engine's `SplitPromote`,
                // behind the same guard).
                if !self.c.split_active() || self.promotions.is_empty() {
                    return;
                }
                let (part, target) = self.promotions.swap_remove(b % self.promotions.len());
                let primary = self.c.placement.primary_of(part);
                if self.c.is_up(target) && self.c.side_of(primary) != self.c.quorum_side_of(part) {
                    self.c.split_promote(part, target, now);
                }
            }
            9 => {
                // The cut heals (the engine's `heal_split_brain`).
                if !self.c.split_active() {
                    return;
                }
                let steps = plan_heal(&self.c);
                for s in &steps {
                    if let Some(target) = s.shadow {
                        self.c.split_promote(s.part, target, now);
                    }
                }
                for s in &steps {
                    for &n in &s.stale {
                        self.c.drop_stale_secondary(s.part, n);
                    }
                }
                self.c.end_split();
            }
            10 => {
                // A commit on the primary, unshipped until the next flush. A
                // primary that is down, or back up under a promotion away
                // from it, serves nothing (the engine blocks the partition
                // until the promotion lands).
                let primary = self.c.placement.primary_of(part);
                let promoting = matches!(self.c.transfer(part), Transfer::Failover { .. });
                if !self.c.is_up(primary) || promoting {
                    return;
                }
                commit_at_primary(&mut self.c, part, b as u64 % 16, now, 8);
            }
            _ => {
                self.c.epoch_flush_for_seal();
            }
        }
    }

    /// Every secondary store that sits across an open cut from its
    /// partition's serving primary, with what it has applied and whether it
    /// holds a parked entry. Empty outside split-brain windows. Reads only
    /// `store()`, `side_of` and `placement` — none of the shipping code.
    fn cut_off_secondaries(&self) -> Vec<(PartitionId, NodeId, u64, bool)> {
        let mut out = Vec::new();
        for p in 0..self.c.n_partitions() as u32 {
            let part = PartitionId(p);
            let primary_side = self.c.side_of(self.c.placement.primary_of(part));
            for &sec in self.c.placement.secondaries_of(part) {
                if self.c.side_of(sec) != primary_side {
                    let s = self
                        .c
                        .store(sec, part)
                        .expect("listed secondary has a store");
                    out.push((part, sec, s.applied_lsn, s.has_gap()));
                }
            }
        }
        out
    }

    /// `check_invariants`, plus: a partition with a hand-off in flight is
    /// owed exactly one scheduled completion stamped with its current
    /// generation, an `Idle` or `Stalled` one none; and no log entry crossed
    /// the cut during the last step — a secondary cut off from its serving
    /// primary both before (`cut_off_before`) and after the step neither
    /// advanced its frontier nor parked an entry.
    fn check(&self, cut_off_before: &[(PartitionId, NodeId, u64, bool)]) -> Result<(), String> {
        self.c.check_invariants()?;
        for &(part, sec, applied, parked) in &self.cut_off_secondaries() {
            let before = cut_off_before
                .iter()
                .find(|&&(p, n, ..)| (p, n) == (part, sec));
            if let Some(&(_, _, applied_before, parked_before)) = before {
                if applied != applied_before || (parked && !parked_before) {
                    return Err(format!(
                        "{part}: an entry crossed the cut to {sec} \
                         (applied {applied_before} -> {applied}, parked {parked_before} -> {parked})"
                    ));
                }
            }
        }
        for (p, rt) in self.c.parts.iter().enumerate() {
            let current = self
                .scheduled
                .iter()
                .filter(|&&(part, gen)| part.idx() == p && gen == rt.gen())
                .count();
            let owed = usize::from(rt.transfer().target().is_some());
            if current != owed {
                return Err(format!(
                    "P{p}: {:?} with {current} un-superseded completions",
                    rt.transfer()
                ));
            }
        }
        Ok(())
    }
}

/// 4 nodes × rf 3, one partition per node (holders of p_i = {i, i+1, i+2
/// mod 4}) with the cut {N2, N3} open: p3's primary N3 serves the isolated
/// side, cut off from its secondaries N0 and N1 and from its quorum.
fn cut_cluster() -> Cluster {
    let mut c = Cluster::new(SimConfig {
        nodes: 4,
        partitions_per_node: 1,
        keys_per_partition: 32,
        value_size: 16,
        replication_factor: 3,
        max_replicas: 4,
        ..Default::default()
    });
    c.begin_split(&[NodeId(2), NodeId(3)], 1_000);
    c
}

/// The secondaries across the cut saw nothing of the fenced write, so the
/// quorum side's promotion adopts an empty head.
fn assert_nothing_crossed(c: &mut Cluster, part: PartitionId) {
    for across in [NodeId(0), NodeId(1)] {
        let s = c.store(across, part).expect("listed secondary");
        assert_eq!(s.applied_lsn, 0, "{across} applied a fenced minority write");
        assert!(!s.has_gap(), "{across} parked a fenced minority write");
    }
    c.split_promote(part, NodeId(0), 9_000);
    assert_eq!(
        c.store(NodeId(0), part).expect("promoted").log.head_lsn(),
        0,
        "the quorum side adopted the minority's post-cut write as its head"
    );
    c.check_invariants().unwrap();
}

/// Regression: the hand-off sync of a remaster or migration that completes
/// inside a split-brain window shipped the cut-off primary's post-cut
/// buffer to every listed secondary, cut or no cut, so a later quorum-side
/// promotion adopted fenced minority writes as its durable head.
#[test]
fn a_hand_off_inside_a_cut_ships_nothing_across_it() {
    let (p3, n2) = (PartitionId(3), NodeId(2));

    // A same-side remaster N3 -> N2, onto a replica added inside the window.
    let mut c = cut_cluster();
    let (copy, _, stamp) = c.begin_add_replica(p3, n2).unwrap();
    c.finish_add_replica(p3, n2, stamp, 1_000 + copy);
    commit_at_primary(&mut c, p3, 5, 1, 16);
    let window = c.begin_remaster(p3, n2, 5_000).unwrap();
    let bytes = c.finish_remaster(p3, 5_000 + window);
    assert_eq!(bytes, 16 + 32, "one entry to the one same-side secondary");
    assert_nothing_crossed(&mut c, p3);

    // A same-side migration N3 -> N2 runs the same sync before the move.
    let mut c = cut_cluster();
    commit_at_primary(&mut c, p3, 5, 1, 16);
    let (blackout, _) = c.begin_migration(p3, n2, 5_000).unwrap();
    c.finish_migration(p3, 5_000 + blackout);
    assert_nothing_crossed(&mut c, p3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any interleaving of adaptor operations, commits, flushes, crashes,
    /// restarts, cuts, quorum-side promotions and heals leaves every
    /// partition in a transfer state whose completion can still land, with
    /// exactly one live completion per hand-off in flight, and ships no log
    /// entry across an open cut.
    #[test]
    fn transfer_state_machine_survives_any_interleaving(
        script in proptest::collection::vec((0u8..12, 0usize..1000, 0usize..1000), 1..120),
    ) {
        let mut d = Driver::new();
        for (i, &(op, a, b)) in script.iter().enumerate() {
            let cut_off = d.cut_off_secondaries();
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| d.step(op, a, b))).is_err() { eprintln!("SCRIPT {:?}", &script[..=i]); panic!(); }
            if let Err(e) = d.check(&cut_off) {
                // No shrinking in the offline proptest: print the prefix.
                prop_assert!(false, "{} after the last step of {:?}", e, &script[..=i]);
            }
        }
    }

    /// Selection is a pure function of the candidate *set*: it matches the
    /// reference rule and is invariant under permutation (deterministic
    /// under seed — no iteration-order or tie-break ambiguity).
    #[test]
    fn selection_is_deterministic_and_order_independent(
        raw in proptest::collection::vec((0u16..8, 0u64..50, 0u8..4), 0..12),
    ) {
        let cands: Vec<PromotionCandidate> =
            raw.iter().map(|&(n, a, g)| cand(n, a, g == 0)).collect();
        let picked = select_promotion_target(&cands);
        prop_assert_eq!(picked, spec_select(&cands));
        let mut reversed = cands.clone();
        reversed.reverse();
        prop_assert_eq!(select_promotion_target(&reversed), picked);
        let mut rotated = cands.clone();
        if !rotated.is_empty() {
            rotated.rotate_left(1);
        }
        prop_assert_eq!(select_promotion_target(&rotated), picked);
    }

    /// Promotion never elects a replica whose applied-epoch prefix has a
    /// gap, no matter how fresh it claims to be.
    #[test]
    fn gapped_replicas_are_never_promoted(
        raw in proptest::collection::vec((0u16..8, 0u64..1000, 0u8..2), 1..12),
    ) {
        // Each node holds at most one replica of a partition: dedupe ids.
        let mut seen = std::collections::BTreeSet::new();
        let cands: Vec<PromotionCandidate> = raw
            .iter()
            .filter(|(n, _, _)| seen.insert(*n))
            .map(|&(n, a, g)| cand(n, a, g == 0))
            .collect();
        if let Some(node) = select_promotion_target(&cands) {
            let winner = cands.iter().find(|c| c.node == node).expect("winner in set");
            prop_assert!(!winner.has_gap, "elected a gapped replica {:?}", winner);
        } else {
            prop_assert!(cands.iter().all(|c| c.has_gap), "refused despite gap-free options");
        }
    }

    /// The replica frontier is exactly the longest dense prefix of the
    /// delivered LSNs, regardless of delivery order or duplication, and
    /// `has_gap` flags precisely the out-of-prefix leftovers. Delivering
    /// everything always converges to the primary's state.
    #[test]
    fn applied_lsn_is_the_longest_dense_prefix(
        order in proptest::collection::vec((0usize..20, 0u8..2), 1..60),
    ) {
        let part = PartitionId(0);
        let n_entries = 20u64;
        let mut primary = ReplicaStore::new_primary(part, n_entries + 1, 8);
        let mut log = Vec::new();
        for k in 0..n_entries {
            let txn = TxnId(k);
            primary.table.occ_lock(k, txn);
            let v = primary.table.occ_install(k, txn, Table::synth_value(k, 1, 8));
            primary.log.append(part, k, v, Table::synth_value(k, 1, 8));
            log = primary.log.pending().to_vec();
        }

        let mut secondary = ReplicaStore::new_secondary(part, n_entries + 1, 8);
        let mut delivered = std::collections::BTreeSet::new();
        for &(idx, dup) in &order {
            let e = &log[idx % log.len()];
            secondary.apply_entries(std::slice::from_ref(e));
            if dup == 1 {
                secondary.apply_entries(std::slice::from_ref(e)); // duplicate delivery
            }
            delivered.insert(e.lsn);

            let mut prefix = 0u64;
            while delivered.contains(&(prefix + 1)) {
                prefix += 1;
            }
            prop_assert_eq!(secondary.applied_lsn, prefix,
                "frontier must be the longest dense prefix of {:?}", delivered);
            prop_assert_eq!(secondary.has_gap(), delivered.iter().any(|&l| l > prefix),
                "gap flag wrong for {:?}", delivered);
        }

        // Deliver the rest: the secondary converges to the primary.
        secondary.apply_entries(&log);
        prop_assert_eq!(secondary.applied_lsn, primary.log.head_lsn());
        prop_assert!(!secondary.has_gap());
        for k in 0..n_entries {
            prop_assert_eq!(
                &secondary.table.get(k).unwrap().value,
                &primary.table.get(k).unwrap().value
            );
        }
    }
}

#[test]
fn zz_debug_script() {
    let script: Vec<(u8, usize, usize)> = vec![
        (2, 530, 703),
        (10, 918, 802),
        (10, 334, 972),
        (11, 440, 226),
        (7, 941, 113),
        (1, 53, 591),
        (11, 337, 314),
        (8, 857, 435),
        (5, 518, 764),
        (11, 735, 205),
        (5, 94, 779),
        (7, 980, 459),
        (5, 38, 818),
        (10, 343, 934),
        (8, 297, 633),
        (2, 750, 609),
        (5, 54, 48),
        (8, 158, 3),
        (3, 658, 593),
        (7, 970, 439),
        (10, 198, 164),
        (5, 838, 710),
        (7, 480, 86),
        (5, 936, 868),
        (2, 536, 264),
        (10, 478, 28),
        (10, 409, 600),
        (1, 129, 782),
        (1, 523, 348),
        (10, 564, 880),
        (5, 709, 75),
        (1, 568, 883),
        (5, 494, 411),
        (4, 506, 907),
        (10, 160, 208),
        (4, 343, 207),
        (11, 309, 22),
        (8, 991, 289),
        (10, 511, 820),
        (3, 585, 372),
        (5, 34, 97),
        (4, 33, 227),
        (0, 828, 295),
        (8, 797, 824),
        (6, 953, 131),
        (8, 460, 387),
        (11, 57, 850),
        (2, 663, 635),
        (4, 424, 714),
        (3, 42, 959),
        (2, 26, 840),
        (2, 23, 587),
        (8, 435, 821),
        (4, 269, 143),
        (4, 181, 103),
        (3, 301, 158),
        (6, 612, 107),
        (1, 394, 109),
        (9, 919, 351),
    ];
    let mut d = Driver::new();
    for &(op, a, b) in &script {
        let part = a % 5;
        let node = b % 5;
        eprintln!("op {op} part P{part} node N{node}");
        d.step(op, a, b);
        for p in 0..5u32 {
            let pp = PartitionId(p);
            eprintln!(
                "   P{p}: prim {:?} secs {:?} {:?} copies {:?}",
                d.c.placement.primary_of(pp),
                d.c.placement.secondaries_of(pp),
                d.c.transfer(pp),
                d.c.parts[p as usize].copy_targets().collect::<Vec<_>>()
            );
        }
        eprintln!(
            "   up {:?} shadow {:?}",
            d.c.node_ids().map(|n| d.c.is_up(n)).collect::<Vec<_>>(),
            (0..5)
                .map(|p| d.c.shadow_of(PartitionId(p)))
                .collect::<Vec<_>>()
        );
        eprintln!(
            "   sides {:?} promos {:?} copies {:?}",
            d.c.node_ids().map(|n| d.c.side_of(n)).collect::<Vec<_>>(),
            d.promotions,
            d.copies
        );
    }
}
