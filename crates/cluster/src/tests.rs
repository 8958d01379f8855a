//! Cluster unit tests: construction, the three adaptor operations, the
//! crash/failover/restart cycle, zones, epoch shipping and the split-brain
//! window, each on a bare `Cluster`.

use super::*;
use lion_common::{NodeId, PartitionId, SimConfig, TxnId};
use lion_storage::{Bytes, ReplicaRole};

fn small_cfg() -> SimConfig {
    SimConfig {
        nodes: 3,
        partitions_per_node: 2,
        keys_per_partition: 32,
        value_size: 16,
        replication_factor: 2,
        max_replicas: 3,
        ..Default::default()
    }
}

fn p(i: u32) -> PartitionId {
    PartitionId(i)
}
fn n(i: u16) -> NodeId {
    NodeId(i)
}

#[test]
fn construction_matches_placement() {
    let c = Cluster::new(small_cfg());
    c.check_invariants().unwrap();
    assert_eq!(c.n_partitions(), 6);
    assert!(c.store(n(0), p(0)).is_some());
    assert!(c.store(n(1), p(0)).is_some(), "secondary store exists");
    assert!(c.store(n(2), p(0)).is_none());
}

#[test]
fn remaster_lifecycle_swaps_roles() {
    let mut c = Cluster::new(small_cfg());
    let dur = c.begin_remaster(p(0), n(1), 100).unwrap();
    assert_eq!(dur, c.cfg.remaster_delay_us);
    assert_eq!(c.available_at(p(0)), 100 + dur);
    // concurrent remaster on the same partition conflicts (§III)
    assert_eq!(
        c.begin_remaster(p(0), n(1), 110),
        Err(AdaptorError::Busy(p(0)))
    );
    c.finish_remaster(p(0), 100 + dur);
    assert_eq!(c.placement.primary_of(p(0)), n(1));
    c.check_invariants().unwrap();
}

#[test]
fn remaster_syncs_pending_log() {
    let mut c = Cluster::new(small_cfg());
    // commit a write on the primary without an epoch flush
    let txn = TxnId(9);
    {
        let store = c.primary_store_mut(p(0));
        store.table.occ_lock(5, txn);
        let v = store
            .table
            .occ_install(5, txn, Bytes::synth(0x0707_0707_0707_0707, 16));
        store
            .log
            .append(p(0), 5, v, Bytes::synth(0x0707_0707_0707_0707, 16));
    }
    let dur = c.begin_remaster(p(0), n(1), 0).unwrap();
    assert!(dur > c.cfg.remaster_delay_us, "lag adds sync time");
    let bytes = c.finish_remaster(p(0), dur);
    assert!(bytes > 0);
    let new_primary = c.store(n(1), p(0)).unwrap();
    assert_eq!(
        new_primary.table.get(5).unwrap().value,
        Bytes::synth(0x0707_0707_0707_0707, 16)
    );
    c.check_invariants().unwrap();
}

#[test]
fn remaster_requires_secondary() {
    let mut c = Cluster::new(small_cfg());
    assert_eq!(
        c.begin_remaster(p(0), n(2), 0),
        Err(AdaptorError::NoReplica {
            part: p(0),
            node: n(2)
        })
    );
    assert_eq!(
        c.begin_remaster(p(0), n(0), 0),
        Err(AdaptorError::AlreadyPrimary {
            part: p(0),
            node: n(0)
        })
    );
}

#[test]
fn add_replica_does_not_block_partition() {
    let mut c = Cluster::new(small_cfg());
    let (dur, bytes, stamp) = c.begin_add_replica(p(0), n(2)).unwrap();
    assert!(dur > 0 && bytes > 0);
    assert_eq!(c.available_at(p(0)), 0, "background copy never blocks");
    assert_eq!(
        c.begin_add_replica(p(0), n(2)),
        Err(AdaptorError::AlreadyHosted {
            part: p(0),
            node: n(2)
        })
    );
    let landed = c.finish_add_replica(p(0), n(2), stamp, dur);
    assert_eq!(landed, CopyLanded::Added { evicted: None });
    assert!(c.placement.has_secondary(p(0), n(2)));
    assert!(c.store(n(2), p(0)).is_some());
    c.check_invariants().unwrap();
}

#[test]
fn replica_cap_evicts_coldest() {
    let mut cfg = small_cfg();
    cfg.nodes = 4;
    cfg.max_replicas = 2; // primary + 1 secondary
    let mut c = Cluster::new(cfg);
    // p0: primary n0, secondary n1. Adding on n2 must evict n1.
    let (dur, _, stamp) = c.begin_add_replica(p(0), n(2)).unwrap();
    let landed = c.finish_add_replica(p(0), n(2), stamp, dur);
    assert_eq!(
        landed,
        CopyLanded::Added {
            evicted: Some(n(1))
        }
    );
    assert!(!c.placement.has_secondary(p(0), n(1)));
    assert!(c.store(n(1), p(0)).is_none());
    c.check_invariants().unwrap();
}

#[test]
fn migration_blocks_and_moves_data() {
    let mut c = Cluster::new(small_cfg());
    let (dur, bytes) = c.begin_migration(p(0), n(2), 50).unwrap();
    assert!(bytes >= c.cfg.keys_per_partition * c.cfg.value_size as u64);
    assert_eq!(
        c.available_at(p(0)),
        50 + dur,
        "migration blocks the partition"
    );
    c.finish_migration(p(0), 50 + dur);
    assert_eq!(c.placement.primary_of(p(0)), n(2));
    assert!(c.store(n(0), p(0)).is_none(), "source copy dropped (move)");
    assert!(c.store(n(2), p(0)).is_some());
    c.check_invariants().unwrap();
}

#[test]
fn migration_onto_secondary_promotes_in_place() {
    let mut c = Cluster::new(small_cfg());
    let (dur, _) = c.begin_migration(p(0), n(1), 0).unwrap();
    c.finish_migration(p(0), dur);
    assert_eq!(c.placement.primary_of(p(0)), n(1));
    assert!(c.store(n(0), p(0)).is_none());
    c.check_invariants().unwrap();
}

#[test]
fn crash_failover_lifecycle_preserves_log_continuity() {
    let mut c = Cluster::new(small_cfg());
    // Commit a write on P0's primary (N0) that never epoch-flushes: the
    // failover must recover it from the prepare-log replay.
    let txn = TxnId(5);
    {
        let store = c.primary_store_mut(p(0));
        store.table.occ_lock(9, txn);
        let v = store
            .table
            .occ_install(9, txn, Bytes::synth(0x0404_0404_0404_0404, 16));
        store
            .log
            .append(p(0), 9, v, Bytes::synth(0x0404_0404_0404_0404, 16));
    }
    let head_before = c.store(n(0), p(0)).unwrap().log.head_lsn();
    let report = c.crash_node(n(0), 1_000);
    assert!(!c.is_up(n(0)));
    assert_eq!(c.live_count(), 2);
    // N0 primaries P0 and P3 under 3-node round-robin.
    assert_eq!(report.orphaned, [p(0), p(3)]);
    let part = p(0);
    // N0 is stripped from every secondary list it was on.
    for lost in 0..6 {
        assert!(!c.placement.has_secondary(p(lost), n(0)));
    }

    c.begin_failover(part, n(1), 3_000, 1_000);
    assert_eq!(
        c.available_at(part),
        4_000,
        "promotion blocks the partition"
    );
    let done = c
        .finish_failover(part, 4_000)
        .expect("a promotion in flight");
    let landed = done.record;
    assert_eq!((landed.part, landed.completed_at), (part, 4_000));
    assert_eq!(
        (landed.from, landed.to, landed.lag, landed.crashed_at),
        (n(0), n(1), 1, 1_000)
    );
    assert_eq!(
        done.replayed, 1,
        "unflushed write recovered from prepare log"
    );
    assert!(done.bytes > 0);
    assert_eq!(
        (landed.dead_head, landed.promoted_head),
        (head_before, head_before),
        "no committed write lost"
    );
    assert_eq!(c.finish_failover(part, 4_000), None, "nothing left to land");
    // An orphaned partition is owed a promotion or a stall.
    assert!(c.check_invariants().is_err(), "P3 is still orphaned");
    c.begin_failover(p(3), n(1), 3_000, 1_000);
    assert_eq!(c.placement.primary_of(part), n(1));
    assert!(
        !c.placement.has_secondary(part, n(0)),
        "dead node out of the replica set"
    );
    let new_primary = c.store(n(1), part).unwrap();
    assert_eq!(new_primary.log.head_lsn(), head_before);
    assert_eq!(
        new_primary.table.get(9).unwrap().value,
        Bytes::synth(0x0404_0404_0404_0404, 16),
        "replayed write visible at the new primary"
    );
    c.check_invariants().unwrap();
}

#[test]
fn recover_node_reports_rejoins_and_restores() {
    let mut cfg = small_cfg();
    cfg.replication_factor = 1; // no secondaries: crashes stall partitions
    let mut c = Cluster::new(cfg);
    let report = c.crash_node(n(0), 0);
    assert_eq!(report.orphaned.len(), 2);
    for part in &report.orphaned {
        assert_eq!(c.abandon_failover(*part, 0), None, "a dead primary stalls");
        c.stall_partition(*part, 10_000);
        assert_eq!(c.transfer(*part), Transfer::Stalled);
    }
    c.check_invariants().unwrap();
    let rec = c.recover_node(n(0), 20_000);
    assert_eq!(rec.restored_primaries.len(), 2);
    assert!(rec.rejoin_secondaries.is_empty());
    for part in &rec.restored_primaries {
        assert_eq!(
            c.transfer(*part),
            Transfer::Idle,
            "the restart ends the stall"
        );
        assert_eq!(
            c.available_at(*part),
            20_000 + c.cfg.remaster_delay_us,
            "operations resume after the restart window"
        );
    }
    c.check_invariants().unwrap();
}

#[test]
fn crashed_node_rejoins_as_secondary_after_failover() {
    let mut c = Cluster::new(small_cfg());
    let report = c.crash_node(n(0), 0);
    for part in &report.orphaned {
        c.begin_failover(*part, n(1), 1_000, 0);
        c.finish_failover(*part, 1_000);
    }
    let rec = c.recover_node(n(0), 50_000);
    assert!(rec.restored_primaries.is_empty());
    // Former primaries P0/P3 and former secondaries P2/P5 (stale stores
    // dropped at restart) all re-join via background copies.
    assert_eq!(rec.rejoin_secondaries.len(), 4);
    for part in &rec.rejoin_secondaries {
        assert!(c.store(n(0), *part).is_none(), "stale copy dropped");
        let (dur, _, stamp) = c.begin_add_replica(*part, n(0)).unwrap();
        c.finish_add_replica(*part, n(0), stamp, 50_000 + dur);
        assert!(c.placement.has_secondary(*part, n(0)));
    }
    c.check_invariants().unwrap();
}

/// Regression: a copy's completion was recognised by its destination alone,
/// so a copy canceled and re-begun toward the same node was landed early by
/// the first copy's stale completion.
#[test]
fn a_canceled_copys_completion_does_not_land_its_successor() {
    let mut c = Cluster::new(small_cfg());
    let (dur, _, first) = c.begin_add_replica(p(0), n(2)).unwrap();
    for orphan in c.crash_node(n(2), 10).orphaned {
        c.stall_partition(orphan, 1_000);
    }
    assert_eq!(c.parts[0].copy_targets().count(), 0, "the crash cancels it");
    c.recover_node(n(2), 20);
    let (_, _, second) = c.begin_add_replica(p(0), n(2)).unwrap();
    assert_ne!(first, second);
    assert_eq!(
        c.finish_add_replica(p(0), n(2), first, dur),
        CopyLanded::Stale
    );
    assert!(!c.placement.has_replica(p(0), n(2)), "nothing landed");
    assert_eq!(c.parts[0].copy_targets().collect::<Vec<_>>(), [n(2)]);
    // The source dying mid-copy cancels the copy at its completion.
    c.crash_node(n(0), 30);
    assert_eq!(
        c.finish_add_replica(p(0), n(2), second, 20 + dur),
        CopyLanded::Canceled
    );
    assert_eq!(c.parts[0].copy_targets().count(), 0);
}

/// One unshipped commit on `part`'s primary, crash of that primary, and the
/// promotion of `to` begun: the state the three mid-promotion transitions
/// start from.
fn mid_promotion(c: &mut Cluster, part: PartitionId, to: NodeId) -> NodeId {
    append_write(c, part, 9, TxnId(5));
    let dead = c.placement.primary_of(part);
    for orphan in c.crash_node(dead, 1_000).orphaned {
        let target = c.placement.secondaries_of(orphan)[0];
        c.begin_failover(orphan, target, 3_000, 1_000);
    }
    assert_eq!(c.transfer(part), Transfer::Failover { to });
    dead
}

/// The original primary restarts mid-promotion and crashes again: the
/// second crash orphans nothing new and the promotion lands with the first
/// crash's context — its replay, its crash time, its head.
#[test]
fn a_second_crash_of_the_restarted_primary_keeps_the_promotion_and_its_replay() {
    let mut c = Cluster::new(small_cfg());
    let dead = mid_promotion(&mut c, p(0), n(1));
    let rec = c.recover_node(dead, 1_500);
    assert!(rec.restored_primaries.is_empty(), "the promotion stays");
    c.check_invariants().unwrap();
    let again = c.crash_node(dead, 2_000);
    assert!(again.orphaned.is_empty() && again.aborted_failovers.is_empty());
    assert_eq!(c.transfer(p(0)), Transfer::Failover { to: n(1) });
    c.check_invariants().unwrap();
    let done = c.finish_failover(p(0), 4_000).expect("still in flight");
    let landed = done.record;
    assert_eq!((done.replayed, landed.crashed_at), (1, 1_000));
    assert_eq!(landed.promoted_head, landed.dead_head);
    assert_eq!(c.store(n(1), p(0)).unwrap().applied_lsn, landed.dead_head);
    assert!(!c.placement.has_replica(p(0), dead));
    c.check_invariants().unwrap();
}

/// The promotion target dies with the original primary back up and nobody
/// else to promote: the promotion is abandoned and the primary resumes
/// behind the restart window — it does not stall.
#[test]
fn a_dead_target_with_the_primary_back_up_abandons_the_promotion() {
    let mut c = Cluster::new(small_cfg());
    let dead = mid_promotion(&mut c, p(0), n(1));
    c.recover_node(dead, 1_500);
    let report = c.crash_node(n(1), 2_000);
    assert_eq!(report.aborted_failovers, [p(0), p(3)]);
    for part in report.aborted_failovers {
        let (resumed, _) = c
            .abandon_failover(part, 2_000)
            .expect("a live primary does not stall");
        assert_eq!(resumed, 2_000 + c.cfg.remaster_delay_us);
        assert_eq!(c.transfer(part), Transfer::Idle);
        assert_eq!(c.available_at(part), resumed);
        assert_eq!(c.placement.primary_of(part), dead);
    }
    for &orphan in &report.orphaned {
        c.stall_partition(orphan, 12_000);
    }
    c.check_invariants().unwrap();
}

#[test]
fn dead_nodes_refuse_adaptor_operations() {
    let mut c = Cluster::new(small_cfg());
    c.crash_node(n(2), 0);
    // remaster away from a dead primary (failover's job, not the adaptor's)
    assert_eq!(
        c.begin_remaster(p(2), n(0), 0),
        Err(AdaptorError::Busy(p(2)))
    );
    // migration toward a dead node
    assert_eq!(
        c.begin_migration(p(1), n(2), 0),
        Err(AdaptorError::Busy(p(1)))
    );
    // replica copy toward a dead node
    assert_eq!(
        c.begin_add_replica(p(0), n(2)),
        Err(AdaptorError::Busy(p(0)))
    );
}

#[test]
fn zone_queries_follow_the_config_map() {
    let mut cfg = small_cfg();
    cfg.nodes = 4;
    cfg.zones = 2;
    let c = Cluster::new(cfg);
    assert_eq!(c.zone(n(0)), lion_common::ZoneId(0));
    assert_eq!(c.zone(n(3)), lion_common::ZoneId(1));
    // default: no cross-zone surcharge, both paths identical
    assert_eq!(c.net_delay_between(n(0), n(3), 100), c.net_delay(100));
}

#[test]
fn cross_zone_surcharge_prices_remote_zones() {
    let mut cfg = small_cfg();
    cfg.nodes = 4;
    cfg.zones = 2;
    cfg.net.cross_zone_extra_us = 200;
    let c = Cluster::new(cfg);
    assert_eq!(
        c.net_delay_between(n(0), n(1), 64),
        c.net_delay(64),
        "rack-local stays at base cost"
    );
    assert_eq!(
        c.net_delay_between(n(1), n(2), 64),
        c.net_delay(64) + 200,
        "crossing the rack boundary pays the surcharge"
    );
}

#[test]
fn rack_safe_construction_spreads_every_partition() {
    let mut cfg = small_cfg();
    cfg.nodes = 4;
    cfg.zones = 2;
    cfg.placement = lion_common::PlacementPolicy::RackSafe { min_zones: 2 };
    let c = Cluster::new(cfg);
    c.check_invariants().unwrap();
    for p_idx in 0..c.n_partitions() {
        assert!(
            c.zone_coverage(p(p_idx as u32)) >= 2,
            "P{p_idx} not spread across zones"
        );
    }
}

#[test]
fn rack_safe_eviction_keeps_zone_coverage() {
    let mut cfg = small_cfg();
    cfg.nodes = 6; // N0-N2 in Z0, N3-N5 in Z1
    cfg.zones = 2;
    cfg.max_replicas = 3;
    cfg.placement = lion_common::PlacementPolicy::RackSafe { min_zones: 2 };
    let mut c = Cluster::new(cfg);
    // Zone-safe layout gives P0: primary N0 (Z0), secondary N3 (Z1).
    assert_eq!(c.placement.secondaries_of(p(0)), &[n(3)]);
    // Third replica inside Z0, then the cap-exceeding add on N2 (Z0).
    // Eviction candidates are {N1, N3}; N3 is the coldest — but it is
    // also the only Z1 holder, so plain coldest-eviction would collapse
    // P0 into one rack. The zone guard must evict N1 instead.
    c.install_secondary_free(p(0), n(1)).unwrap();
    c.freq.touch(p(0), n(1), 100);
    c.freq.touch(p(0), n(3), 1);
    let (dur, _, stamp) = c.begin_add_replica(p(0), n(2)).unwrap();
    let landed = c.finish_add_replica(p(0), n(2), stamp, dur);
    assert_eq!(
        landed,
        CopyLanded::Added {
            evicted: Some(n(1))
        },
        "the zone guard overrides coldness"
    );
    assert!(
        c.placement.has_replica(p(0), n(3)),
        "the only cross-zone replica must survive eviction"
    );
    assert!(c.zone_coverage(p(0)) >= 2);
    c.check_invariants().unwrap();
}

#[test]
fn epoch_flush_ships_to_all_secondaries() {
    let mut c = Cluster::new(small_cfg());
    let txn = TxnId(1);
    {
        let store = c.primary_store_mut(p(2));
        store.table.occ_lock(0, txn);
        let v = store
            .table
            .occ_install(0, txn, Bytes::synth(0x0303_0303_0303_0303, 16));
        store
            .log
            .append(p(2), 0, v, Bytes::synth(0x0303_0303_0303_0303, 16));
    }
    let flush = c.epoch_flush_for_seal();
    assert!(flush.bytes > 0);
    assert_eq!(flush.frontiers, vec![(p(2), 1)]);
    let sec = c.placement.secondaries_of(p(2))[0];
    assert_eq!(
        c.store(sec, p(2)).unwrap().table.get(0).unwrap().value,
        Bytes::synth(0x0303_0303_0303_0303, 16)
    );
    // flushing again is free and certifies nothing
    let again = c.epoch_flush_for_seal();
    assert_eq!((again.bytes, again.max_transit_us), (0, 0));
    assert!(again.frontiers.is_empty());
}

/// 4 nodes × rf 3, one partition per node: isolating {N2, N3} produces
/// all four per-partition split cases (see the figsb topology notes).
fn split_cfg() -> SimConfig {
    SimConfig {
        nodes: 4,
        partitions_per_node: 1,
        keys_per_partition: 32,
        value_size: 16,
        replication_factor: 3,
        max_replicas: 4,
        ..Default::default()
    }
}

fn append_write(c: &mut Cluster, part: PartitionId, key: u64, txn: TxnId) {
    let store = c.primary_store_mut(part);
    store.table.occ_lock(key, txn);
    let v = store
        .table
        .occ_install(key, txn, Bytes::synth(0x0909_0909_0909_0909, 16));
    store
        .log
        .append(part, key, v, Bytes::synth(0x0909_0909_0909_0909, 16));
}

#[test]
fn begin_split_freezes_quorum_sides_and_reachability() {
    let mut c = Cluster::new(split_cfg());
    assert!(c.same_side(n(0), n(3)) && c.reachable(n(0), n(3)));
    let aborted = c.begin_split(&[n(2), n(3)], 1_000);
    assert!(aborted.is_empty());
    assert!(c.split_active());
    assert_eq!(c.side_of(n(0)), 0);
    assert_eq!(c.side_of(n(2)), 1);
    assert!(c.same_side(n(2), n(3)));
    assert!(!c.same_side(n(1), n(2)));
    assert!(!c.reachable(n(1), n(2)));
    assert!(c.reachable(n(2), n(3)));
    // round_robin(4, 4, 3): holders of p_i = {i, i+1, i+2 mod 4}
    assert_eq!(c.quorum_side_of(p(0)), 0, "p0 {{0,1,2}}: majority rests");
    assert_eq!(c.quorum_side_of(p(1)), 1, "p1 {{1,2,3}}: majority isolated");
    assert_eq!(c.quorum_side_of(p(2)), 1, "p2 {{2,3,0}}: majority isolated");
    assert_eq!(c.quorum_side_of(p(3)), 0, "p3 {{3,0,1}}: majority rests");
    let state = c.end_split().expect("window was open");
    assert_eq!(state.quorum_side, vec![0, 1, 1, 0]);
    assert!(!c.split_active());
    assert!(c.reachable(n(1), n(2)));
}

#[test]
fn quorum_side_counts_only_live_holders_at_split_begin() {
    let mut c = Cluster::new(split_cfg());
    // p0 holders {0,1,2}: with N1 dead the cut {2,3} splits the live
    // holders 1/1 — no strict majority, fallback keeps the rest side.
    c.crash_node(n(1), 500);
    c.begin_split(&[n(2), n(3)], 1_000);
    assert_eq!(c.quorum_side_of(p(0)), 0);
    // p1 holders {1,2,3}: live holders 0/2 — isolated side quorum.
    assert_eq!(c.quorum_side_of(p(1)), 1);
}

#[test]
fn split_promote_swaps_primary_without_cross_cut_replay() {
    let mut c = Cluster::new(split_cfg());
    // p3 holders {3,0,1}: primary N3 isolated, quorum side rests.
    append_write(&mut c, p(3), 4, TxnId(1));
    c.epoch_flush_for_seal(); // replicated pre-split
    append_write(&mut c, p(3), 5, TxnId(2)); // stranded on N3
    c.begin_split(&[n(2), n(3)], 1_000);
    let target_head = c.store(n(0), p(3)).unwrap().applied_lsn;
    c.split_promote(p(3), n(0), 2_000);
    assert_eq!(c.placement.primary_of(p(3)), n(0));
    let promoted = c.store(n(0), p(3)).unwrap();
    assert_eq!(promoted.role, ReplicaRole::Primary);
    assert_eq!(
        promoted.applied_lsn, target_head,
        "no cross-cut replay: the target adopts its own head"
    );
    // The divergent old primary demoted in place, log intact for the
    // heal audit.
    let old = c.store(n(3), p(3)).unwrap();
    assert_eq!(old.role, ReplicaRole::Secondary);
    assert_eq!(old.log.pending().len(), 1, "stranded entry survives");
    assert!(c.placement.has_secondary(p(3), n(3)));
    c.check_invariants().unwrap();
}

#[test]
fn seal_flush_skips_fenced_partitions_and_cut_off_secondaries() {
    let mut c = Cluster::new(split_cfg());
    c.begin_split(&[n(2), n(3)], 1_000);
    // p1's primary N1 serves from the non-quorum side: fenced.
    append_write(&mut c, p(1), 3, TxnId(1));
    // p0's primary N0 is on its quorum side: ships, but only to N1.
    append_write(&mut c, p(0), 2, TxnId(2));
    let flush = c.epoch_flush_for_seal();
    assert_eq!(
        flush.frontiers.iter().map(|f| f.0).collect::<Vec<_>>(),
        vec![p(0)],
        "only the quorum-served partition certifies a frontier"
    );
    assert!(
        !c.store(n(1), p(1)).unwrap().log.pending().is_empty()
            || c.store(n(1), p(1)).unwrap().applied_lsn == 0,
        "fenced partition shipped nothing"
    );
    // N1 (same side) caught up on p0; N2 (cut off) did not.
    assert_eq!(c.store(n(1), p(0)).unwrap().applied_lsn, 1);
    assert_eq!(c.store(n(2), p(0)).unwrap().applied_lsn, 0);
    // The fenced primary's buffer is still intact for the heal audit.
    assert_eq!(c.store(n(1), p(1)).unwrap().log.pending().len(), 1);
}

#[test]
fn begin_split_cancels_transfers_straddling_the_cut() {
    let mut c = Cluster::new(split_cfg());
    // p0 primary N0: remaster toward N2 crosses the upcoming cut.
    c.begin_remaster(p(0), n(2), 100).unwrap();
    // p1 primary N1 → N3 also crosses; p2 primary N2 → N3 stays inside.
    c.begin_remaster(p(1), n(3), 100).unwrap();
    c.begin_remaster(p(2), n(3), 100).unwrap();
    let g0 = c.parts[0].gen();
    let g2 = c.parts[2].gen();
    let aborted = c.begin_split(&[n(2), n(3)], 1_000);
    assert!(aborted.is_empty(), "no failovers were in flight");
    assert_eq!(c.transfer(p(0)), Transfer::Idle);
    assert_eq!(c.transfer(p(1)), Transfer::Idle);
    assert!(c.parts[0].gen() > g0, "stale completion fenced by gen bump");
    assert_eq!(c.available_at(p(0)), 1_000, "hand-off window released");
    assert_eq!(
        c.transfer(p(2)),
        Transfer::Remaster { to: n(3) },
        "same-side transfer survives"
    );
    assert_eq!(c.parts[2].gen(), g2);
    c.check_invariants().unwrap();
}

/// Regression: a quorum-side promotion landing on a partition with a
/// remaster in flight used to bump the generation without clearing the
/// remaster, so its completion was dropped as stale and every later
/// remaster/migration of the partition answered `Busy` forever.
#[test]
fn split_promote_cancels_the_hand_off_it_supersedes() {
    let mut c = Cluster::new(split_cfg());
    // p3 holders {3,0,1}: primary N3 isolated, quorum side rests.
    c.begin_split(&[n(2), n(3)], 1_000);
    // N2 joins p3 on the primary's side, then a same-side remaster
    // toward it starts just before the quorum side's promotion lands.
    let (dur, _, stamp) = c.begin_add_replica(p(3), n(2)).unwrap();
    c.finish_add_replica(p(3), n(2), stamp, 1_000 + dur);
    c.begin_remaster(p(3), n(2), 2_000).unwrap();
    let stale = c.parts[3].gen();
    c.split_promote(p(3), n(0), 2_500);
    assert_eq!(c.transfer(p(3)), Transfer::Idle);
    assert!(
        c.parts[3].gen() > stale,
        "the remaster's completion is stale"
    );
    assert_eq!(c.available_at(p(3)), 2_500, "hand-off window released");
    c.check_invariants().unwrap();
    c.end_split();
    c.begin_remaster(p(3), n(1), 3_000)
        .expect("the partition must not stay busy forever");
    c.check_invariants().unwrap();
}

/// The same leak through a *shadow* promotion applied at heal, with a
/// migration in flight on the divergent side.
#[test]
fn shadow_promotion_at_heal_cancels_an_in_flight_migration() {
    let mut c = Cluster::new(split_cfg());
    // p1 holders {1,2,3}: primary N1 rests, quorum side is the isolated
    // set — N1 keeps serving and the promotion is recorded in shadow.
    c.begin_split(&[n(2), n(3)], 1_000);
    c.set_shadow(p(1), n(2));
    c.begin_migration(p(1), n(0), 2_000).unwrap();
    // Heal: the shadow applies while the window is still open.
    c.split_promote(p(1), n(2), 5_000);
    assert_eq!(c.transfer(p(1)), Transfer::Idle);
    assert_eq!(c.available_at(p(1)), 5_000, "migration blackout released");
    c.check_invariants().unwrap();
    c.end_split();
    c.begin_remaster(p(1), n(3), 6_000)
        .expect("the partition must not stay busy forever");
    c.check_invariants().unwrap();
}
