//! Engine unit tests: the loop, the ops API, the adaptor, fault execution
//! and the epoch clock, each driven through a few-line protocol.

use super::*;
use crate::txn::TxnClass;
use lion_cluster::Transfer;
use lion_common::{Key, Op, Phase, SECOND};

fn tiny_cfg() -> SimConfig {
    SimConfig {
        nodes: 2,
        partitions_per_node: 2,
        keys_per_partition: 64,
        value_size: 16,
        clients_per_node: 2,
        ..Default::default()
    }
}

fn uniform_workload(parts: usize) -> Box<dyn Workload> {
    let mut i = 0u64;
    Box::new(move |_now: Time| {
        i += 1;
        let p = PartitionId((i % parts as u64) as u32);
        TxnRequest::new(vec![Op::read(p, i % 64), Op::write(p, (i + 1) % 64)])
    })
}

/// The simplest possible protocol: execute everything at the primary of
/// the first partition, one CPU slice, then commit.
struct TrivialProto;
impl Protocol for TrivialProto {
    fn name(&self) -> &'static str {
        "trivial"
    }
    fn on_submit(&mut self, eng: &mut Engine, txn: TxnId) {
        let home = eng.cluster.placement.primary_of(eng.txn(txn).parts[0]);
        eng.txn_mut(txn).home = home;
        match eng.exec_group_at(home, txn, 0) {
            Ok(_) => {
                let cpu = eng.op_cpu(1, 1) + crate::cpu::TXN_OVERHEAD_US;
                eng.cpu(home, Phase::Execution, cpu, txn, 1);
            }
            Err(_) => eng.abort_retry(txn),
        }
    }
    fn on_wake(&mut self, eng: &mut Engine, txn: TxnId, tag: u32) {
        assert_eq!(tag, 1);
        let home = eng.txn(txn).home;
        if eng.validate_at(home, txn) {
            eng.install_at(home, txn);
            eng.commit(txn);
        } else {
            eng.abort_retry(txn);
        }
    }
}

#[test]
fn closed_loop_commits_transactions() {
    let mut eng = Engine::new(tiny_cfg(), uniform_workload(4));
    let report = eng.run(&mut TrivialProto, SECOND / 2);
    assert!(report.commits > 100, "got {}", report.commits);
    assert_eq!(report.commits, eng.metrics.single_node);
    assert!(report.throughput_tps > 0.0);
    eng.cluster.check_invariants().unwrap();
}

/// A wake scheduled by an attempt that then aborts never reaches the
/// protocol, though the transaction is still live when it fires: the
/// engine delivers a wake only to the attempt that scheduled it.
#[test]
fn a_wake_never_reaches_a_later_attempt() {
    const STALE: u32 = 1;
    const DONE: u32 = 2;
    /// The first attempt schedules a wake 1 ms out and aborts; the next
    /// waits 10 ms and commits, so the first one's wake fires mid-attempt.
    #[derive(Default)]
    struct AbortsOnce {
        stale_wakes: u64,
        commits: u64,
    }
    impl Protocol for AbortsOnce {
        fn name(&self) -> &'static str {
            "aborts-once"
        }
        fn on_submit(&mut self, eng: &mut Engine, txn: TxnId) {
            if eng.txn(txn).attempts == 1 {
                eng.sleep(1_000, Phase::Execution, txn, STALE);
                eng.abort_retry(txn);
            } else {
                eng.sleep(10_000, Phase::Execution, txn, DONE);
            }
        }
        fn on_wake(&mut self, eng: &mut Engine, txn: TxnId, tag: u32) {
            if tag == STALE {
                self.stale_wakes += 1;
                return;
            }
            self.commits += 1;
            eng.txn_mut(txn).class = TxnClass::SingleNode;
            eng.commit(txn);
        }
    }
    let mut eng = Engine::new(tiny_cfg(), uniform_workload(4));
    let mut proto = AbortsOnce::default();
    let report = eng.run(&mut proto, SECOND / 10);
    assert!(proto.commits > 0 && report.aborts >= proto.commits);
    assert_eq!(
        proto.stale_wakes, 0,
        "an aborted attempt's wake was delivered"
    );
}

#[test]
fn epoch_flush_replicates_writes() {
    let mut eng = Engine::new(tiny_cfg(), uniform_workload(4));
    eng.run(&mut TrivialProto, SECOND / 4);
    assert!(
        eng.metrics.replication_bytes > 0,
        "epoch flushes shipped bytes"
    );
    // After the final epoch flush, secondaries lag only by the last
    // unflushed epoch; force one more flush and check sync.
    eng.cluster.epoch_flush_for_seal();
    for p in 0..eng.cluster.n_partitions() {
        let part = PartitionId(p as u32);
        let primary = eng.cluster.placement.primary_of(part);
        let head = eng.cluster.store(primary, part).unwrap().log.head_lsn();
        for &s in eng.cluster.placement.secondaries_of(part) {
            assert_eq!(
                eng.cluster.store(s, part).unwrap().lag_behind(head),
                0,
                "secondary {s} of {part} must be in sync after flush"
            );
        }
    }
}

#[test]
fn conflicting_writes_abort_and_retry() {
    // Single key hammered by every client: version conflicts must abort
    // some attempts, and retries must eventually commit.
    let wl = Box::new(move |_now: Time| {
        TxnRequest::new(vec![
            Op::read(PartitionId(0), 0),
            Op::write(PartitionId(0), 0),
        ])
    });
    let mut cfg = tiny_cfg();
    cfg.clients_per_node = 8;
    let mut eng = Engine::new(cfg, wl);
    let report = eng.run(&mut TrivialProto, SECOND / 4);
    assert!(report.commits > 0);
    // trivially validating/installing in one wake: no interleaving
    // between validate and install of a single txn, so no aborts here —
    // the version check itself is exercised in the 2PC protocol tests.
    let key_version = {
        let part = PartitionId(0);
        let primary = eng.cluster.placement.primary_of(part);
        eng.cluster
            .store(primary, part)
            .unwrap()
            .table
            .get(0)
            .unwrap()
            .version
    };
    assert_eq!(
        key_version,
        report.commits + 1,
        "every commit bumped the version once"
    );
}

#[test]
fn remaster_async_flips_placement_after_delay() {
    let mut eng = Engine::new(tiny_cfg(), uniform_workload(4));
    let part = PartitionId(0);
    let sec = eng.cluster.placement.secondaries_of(part)[0];
    // drive the engine with a protocol that triggers a remaster once
    struct Remasterer {
        target: NodeId,
        part: PartitionId,
        fired: bool,
    }
    impl Protocol for Remasterer {
        fn name(&self) -> &'static str {
            "remasterer"
        }
        fn on_submit(&mut self, eng: &mut Engine, txn: TxnId) {
            if !self.fired {
                self.fired = true;
                eng.remaster_async(self.part, self.target).unwrap();
            }
            eng.txn_mut(txn).class = TxnClass::SingleNode;
            eng.cpu(NodeId(0), Phase::Execution, 10, txn, 0);
        }
        fn on_wake(&mut self, eng: &mut Engine, txn: TxnId, _tag: u32) {
            eng.commit(txn);
        }
    }
    let mut proto = Remasterer {
        target: sec,
        part,
        fired: false,
    };
    eng.run(&mut proto, SECOND / 10);
    assert_eq!(eng.cluster.placement.primary_of(part), sec);
    assert_eq!(eng.metrics.remasters, 1);
    eng.cluster.check_invariants().unwrap();
}

#[test]
fn join_helper_counts_branches() {
    let mut eng = Engine::new(tiny_cfg(), uniform_workload(4));
    let id = eng.inject_txn(
        ClientId(0),
        TxnRequest::new(vec![Op::read(PartitionId(0), 1)]),
    );
    eng.join_begin(id, 3);
    assert_eq!(eng.join_arrive(id, true), None);
    assert_eq!(eng.join_arrive(id, false), None);
    assert_eq!(eng.join_arrive(id, true), Some(false), "one branch failed");
    eng.join_begin(id, 1);
    assert_eq!(eng.join_arrive(id, true), Some(true));
}

/// One admission body: a directly injected transaction is recorded for the
/// planner under the same `history_cap` as a client's (it used to grow
/// `history` without bound).
#[test]
fn injected_transactions_respect_the_history_cap() {
    let mut cfg = EngineConfig::from(tiny_cfg());
    cfg.history_cap = 2;
    let mut eng = Engine::new(cfg, uniform_workload(4));
    for _ in 0..5 {
        eng.inject_txn(
            ClientId(0),
            TxnRequest::new(vec![Op::read(PartitionId(0), 1)]),
        );
    }
    assert_eq!(eng.submitted(), 5);
    assert_eq!(eng.drain_history().len(), 2);
}

#[test]
fn blocked_partition_rejects_ops() {
    let mut eng = Engine::new(tiny_cfg(), uniform_workload(4));
    let part = PartitionId(0);
    let sec = eng.cluster.placement.secondaries_of(part)[0];
    eng.cluster.begin_remaster(part, sec, 0).unwrap();
    let id = eng.inject_txn(ClientId(0), TxnRequest::new(vec![Op::read(part, 1)]));
    let err = eng.exec_group_at(NodeId(0), id, 0).unwrap_err();
    assert!(matches!(err, OpFail::Blocked { .. }));
}

/// Regression: a remaster racing the 2PC commit window must not leak
/// prepare-locks. Before the fix, `install_at` silently skipped
/// partitions whose primary had moved, leaving the row locked on the
/// demoted store forever — and permanently unavailable once the
/// partition remastered back ("poisoned rows").
#[test]
fn remaster_during_commit_window_releases_locks() {
    let mut eng = Engine::new(tiny_cfg(), uniform_workload(4));
    let part = PartitionId(0);
    let home = NodeId(0);
    let sec = eng.cluster.placement.secondaries_of(part)[0];
    let txn = eng.inject_txn(
        ClientId(0),
        TxnRequest::new(vec![Op::read(part, 1), Op::write(part, 1)]),
    );
    eng.exec_group_at(home, txn, 0).unwrap();
    assert!(
        eng.validate_at(home, txn),
        "prepare-lock taken at the old primary"
    );

    // Remaster completes between prepare and commit.
    let d = eng.cluster.begin_remaster(part, sec, eng.now()).unwrap();
    eng.cluster.finish_remaster(part, d);
    assert_eq!(eng.cluster.placement.primary_of(part), sec);

    // Commit decision arrives at the old primary: no install possible,
    // but the lock must be released everywhere.
    eng.install_at(home, txn);
    for holder in eng.cluster.placement.replica_nodes(part) {
        let row = eng
            .cluster
            .store(holder, part)
            .unwrap()
            .table
            .get(1)
            .unwrap();
        assert!(row.lock().is_none(), "lock leaked on {holder}");
    }
    // A later transaction can lock the row at the new primary.
    let txn2 = eng.inject_txn(ClientId(1), TxnRequest::new(vec![Op::write(part, 1)]));
    eng.load_declared_sets(txn2);
    assert!(eng.validate_at(sec, txn2), "row must not be poisoned");
}

/// Executes `ops` for a fresh transaction at `home` and returns it, ready
/// to validate.
fn executed(eng: &mut Engine, home: NodeId, ops: Vec<Op>) -> TxnId {
    let txn = eng.inject_txn(ClientId(0), TxnRequest::new(ops));
    eng.txn_mut(txn).home = home;
    for gi in 0..eng.txn(txn).n_groups() {
        eng.exec_group_at(home, txn, gi).unwrap();
    }
    txn
}

/// `(rows, rows locked)` among `keys` of `part`, per replica holder.
fn rows_and_locks(eng: &Engine, part: PartitionId, keys: &[Key]) -> Vec<(usize, usize)> {
    let holders = eng.cluster.placement.replica_nodes(part);
    let count = |node| {
        let table = &eng.cluster.store(node, part).unwrap().table;
        let locked = keys.iter().filter_map(|&k| table.get(k)?.lock()).count();
        (table.len(), locked)
    };
    holders.into_iter().map(count).collect()
}

/// The contract validate-then-lock rests on: a `validate_at` that returns
/// `false` leaves every table as it found it — no lock, no insert
/// placeholder — and the attempt owes its abort no release.
#[test]
fn failed_validation_mutates_nothing() {
    const FRESH: Key = 7 << 56; // beyond the dense range: lives in the sparse map
    let keys = [1, 3, 5, 7, FRESH];
    let mut eng = Engine::new(tiny_cfg(), uniform_workload(4));
    let (part, home) = (PartitionId(0), NodeId(0));

    // A stale read: `winner` installs key 1 between `loser`'s read and its
    // validation.
    let rw = vec![
        Op::read(part, 1),
        Op::write(part, 1),
        Op::write(part, FRESH),
    ];
    let loser = executed(&mut eng, home, rw.clone());
    let winner = executed(&mut eng, home, vec![Op::write(part, 1)]);
    assert!(eng.validate_at(home, winner));
    eng.install_at(home, winner);
    let before = rows_and_locks(&eng, part, &keys);
    assert!(before.iter().all(|&(_, locked)| locked == 0));
    assert!(!eng.validate_at(home, loser), "key 1 moved on");
    assert_eq!(rows_and_locks(&eng, part, &keys), before);
    assert!(!eng.txn(loser).holds_locks);

    // A foreign lock midway through the write set: the locks and the
    // placeholder taken before it are gone again, the foreign lock stays.
    let holder = executed(&mut eng, home, vec![Op::write(part, 5)]);
    assert!(eng.validate_at(home, holder));
    assert!(eng.txn(holder).holds_locks);
    let before = rows_and_locks(&eng, part, &keys);
    assert_eq!(before[0].1, 1, "key 5 is prepare-locked at the primary");
    let blocked = executed(
        &mut eng,
        home,
        vec![
            Op::write(part, 3),
            Op::write(part, FRESH),
            Op::write(part, 5),
            Op::write(part, 7),
        ],
    );
    assert!(!eng.validate_at(home, blocked), "key 5 is foreign-locked");
    assert_eq!(rows_and_locks(&eng, part, &keys), before);
    assert!(!eng.txn(blocked).holds_locks);
    let table = &eng.cluster.store(home, part).unwrap().table;
    assert_eq!(table.get(5).unwrap().lock(), Some(holder));
    eng.abort_retry(holder);

    // Own locks are re-entrant under the new order too: a row the
    // transaction both read and locked validates and locks again.
    let again = executed(&mut eng, home, rw);
    assert!(eng.validate_at(home, again));
    assert!(eng.validate_at(home, again), "own lock is not a conflict");
    assert!(eng.txn(again).holds_locks);
    eng.install_at(home, again);
    let after = rows_and_locks(&eng, part, &keys);
    assert_eq!(after[0], (before[0].0 + 1, 0), "one insert, no lock left");
}

/// The abort twin of the regression above, and the one abort that must
/// still walk every holder: the prepare-lock sits on a node that stopped
/// being the primary before the vote came back negative.
#[test]
fn remaster_during_prepare_window_then_abort_releases_locks() {
    let mut eng = Engine::new(tiny_cfg(), uniform_workload(4));
    let (part, home) = (PartitionId(0), NodeId(0));
    let sec = eng.cluster.placement.secondaries_of(part)[0];
    let txn = executed(&mut eng, home, vec![Op::read(part, 1), Op::write(part, 1)]);
    assert!(
        eng.validate_at(home, txn),
        "prepare-lock at the old primary"
    );

    let d = eng.cluster.begin_remaster(part, sec, eng.now()).unwrap();
    eng.cluster.finish_remaster(part, d);
    assert_eq!(eng.cluster.placement.primary_of(part), sec);

    eng.abort_retry(txn);
    let locked = rows_and_locks(&eng, part, &[1]);
    assert!(
        locked.iter().all(|&(_, n)| n == 0),
        "lock leaked: {locked:?}"
    );
    // A later transaction can lock the row at the new primary (its write
    // set is loaded from its declared ops: the hand-off blackout still
    // blocks execution).
    let next = eng.inject_txn(ClientId(1), TxnRequest::new(vec![Op::write(part, 1)]));
    eng.load_declared_sets(next);
    assert!(eng.validate_at(sec, next), "row must not be poisoned");
}

#[test]
fn scripted_crash_fails_over_and_keeps_committing() {
    let mut cfg = EngineConfig::from(tiny_cfg());
    cfg.faults = lion_faults::FaultPlan::new().crash_at(SECOND / 8, NodeId(1));
    let mut eng = Engine::new(cfg, uniform_workload(4));
    let report = eng.run(&mut TrivialProto, SECOND / 2);
    assert_eq!(report.crashes, 1);
    assert_eq!(
        report.failovers, 2,
        "both partitions primaried on N1 must promote their secondary"
    );
    assert_eq!(eng.cluster.placement.primaries_on(NodeId(1)), 0);
    assert!(!eng.cluster.is_up(NodeId(1)));
    assert!(report.commits > 100, "commits continue after the crash");
    for f in &eng.metrics.failover_log {
        assert_eq!(
            f.promoted_head, f.dead_head,
            "log continuity across failover"
        );
    }
    assert_eq!(report.unavailability_windows, 2);
    assert!(report.mean_recovery_latency_us >= lion_faults::FAILURE_DETECT_US as f64);
    eng.cluster.check_invariants().unwrap();
}

#[test]
fn crash_and_recover_restores_replica_coverage() {
    let mut cfg = EngineConfig::from(tiny_cfg());
    cfg.faults = lion_faults::FaultPlan::single_failure(SECOND / 8, NodeId(1), SECOND / 4);
    let mut eng = Engine::new(cfg, uniform_workload(4));
    let report = eng.run(&mut TrivialProto, SECOND);
    assert!(eng.cluster.is_up(NodeId(1)));
    assert_eq!(report.crashes, 1);
    assert!(
        report.replica_adds > 0,
        "recovered node re-joins via snapshot copies"
    );
    // After the rejoin copies land, every partition is fully replicated
    // again (replication factor 2).
    for p in 0..eng.cluster.n_partitions() {
        assert_eq!(
            eng.cluster.placement.replica_count(PartitionId(p as u32)),
            2,
            "P{p} must be back to full replication"
        );
    }
    eng.cluster.check_invariants().unwrap();
}

/// Regression: crashing the promotion target mid-promotion must not
/// panic. With a third replica the failover re-plans onto it; with none
/// left the partition stalls until the original primary recovers.
#[test]
fn crashing_the_promotion_target_replans_onto_survivor() {
    let mut sim = tiny_cfg();
    sim.nodes = 3;
    sim.replication_factor = 3; // primary + 2 secondaries
    let mut cfg = EngineConfig::from(sim);
    // N1 is P1's primary; its failover (to N2, the lowest-id secondary)
    // is still inside the ~53ms detect+handoff window when N2 dies too.
    cfg.faults = lion_faults::FaultPlan::new()
        .crash_at(SECOND / 8, NodeId(1))
        .crash_at(SECOND / 8 + 20_000, NodeId(2));
    let mut eng = Engine::new(cfg, uniform_workload(4));
    let report = eng.run(&mut TrivialProto, SECOND / 2);
    assert_eq!(report.crashes, 2);
    // Every partition ends up primaried on the only survivor, N0.
    for p in 0..eng.cluster.n_partitions() {
        assert_eq!(
            eng.cluster.placement.primary_of(PartitionId(p as u32)),
            NodeId(0)
        );
    }
    assert!(report.commits > 0, "the survivor keeps committing");
    for f in &eng.metrics.failover_log {
        assert_eq!(
            f.to,
            NodeId(0),
            "re-planned promotions land on the survivor"
        );
        assert_eq!(
            f.promoted_head, f.dead_head,
            "log continuity survives the re-plan"
        );
    }
    eng.cluster.check_invariants().unwrap();
}

#[test]
fn crashing_the_only_promotion_target_stalls_until_recovery() {
    let mut sim = tiny_cfg();
    sim.nodes = 3;
    sim.partitions_per_node = 1; // P0@N0, P1@N1, P2@N2; rf 2
    let mut cfg = EngineConfig::from(sim);
    // P1 fails over toward N2; N2 dies mid-promotion leaving no replica
    // of P1 — it must stall, then resume when N1 restarts.
    cfg.faults = lion_faults::FaultPlan::new()
        .crash_at(SECOND / 8, NodeId(1))
        .crash_at(SECOND / 8 + 20_000, NodeId(2))
        .recover_at(SECOND / 4, NodeId(1));
    let mut eng = Engine::new(cfg, uniform_workload(3));
    let report = eng.run(&mut TrivialProto, SECOND);
    assert_eq!(report.crashes, 2);
    assert!(eng.cluster.is_up(NodeId(1)));
    assert_eq!(
        eng.cluster.placement.primary_of(PartitionId(1)),
        NodeId(1),
        "stalled partition restores in place on recovery"
    );
    assert_eq!(eng.cluster.transfer(PartitionId(1)), Transfer::Idle);
    assert!(report.commits > 0);
    eng.cluster.check_invariants().unwrap();
}

#[test]
#[should_panic(expected = "invalid fault plan")]
fn invalid_fault_plan_is_rejected_at_run_start() {
    let mut cfg = EngineConfig::from(tiny_cfg());
    cfg.faults = lion_faults::FaultPlan::new().crash_at(10, NodeId(9));
    let mut eng = Engine::new(cfg, uniform_workload(4));
    eng.run(&mut TrivialProto, SECOND / 10);
}

/// A plan that crashes every replica holder of some partition with no
/// recovery in the script would stall the run forever; the validator
/// must reject it before a single event fires.
#[test]
#[should_panic(expected = "invalid fault plan")]
fn orphaning_fault_plan_is_rejected_at_run_start() {
    let mut sim = tiny_cfg();
    sim.nodes = 3;
    sim.replication_factor = 2; // P0 lives on {N0, N1} only
    let mut cfg = EngineConfig::from(sim);
    cfg.faults = lion_faults::FaultPlan::new()
        .crash_at(10, NodeId(0))
        .crash_at(20, NodeId(1));
    let mut eng = Engine::new(cfg, uniform_workload(6));
    eng.run(&mut TrivialProto, SECOND / 10);
}

/// Correlated loss: both nodes of a rack die on one virtual-clock tick.
/// The 4-node/2-zone round-robin layout leaves some partitions wholly
/// inside the dead rack (they stall until the heal) while others fail
/// over to the surviving rack — both paths on the same event.
#[test]
fn zone_crash_takes_the_rack_down_atomically() {
    let mut sim = tiny_cfg();
    sim.nodes = 4;
    sim.zones = 2; // Z0 = {N0, N1}, Z1 = {N2, N3}
    let mut cfg = EngineConfig::from(sim);
    cfg.faults =
        lion_faults::FaultPlan::zone_failure(SECOND / 8, lion_common::ZoneId(1), SECOND / 2);
    let mut eng = Engine::new(cfg, uniform_workload(8));
    let report = eng.run(&mut TrivialProto, SECOND);
    assert_eq!(report.zone_crashes, 1);
    assert_eq!(report.crashes, 2, "both rack members died");
    assert!(eng.cluster.is_up(NodeId(2)) && eng.cluster.is_up(NodeId(3)));
    // Round-robin rf=2: P2 = {N2, N3} is rack-local and must stall;
    // P1 = {N1, N2} and P3 = {N3, N0} keep a live replica and fail over.
    assert!(report.stalled_partitions > 0, "rack-local partitions stall");
    assert!(report.failovers > 0, "cross-rack partitions promote");
    assert!(report.commits > 100, "survivors keep committing");
    eng.cluster.check_invariants().unwrap();
}

/// Under rack-safe placement the same rack loss leaves every partition
/// a live replica: zero stalls, every orphaned partition fails over.
#[test]
fn rack_safe_placement_survives_zone_crash_without_stalls() {
    let mut sim = tiny_cfg();
    sim.nodes = 4;
    sim.zones = 2;
    sim.placement = lion_common::PlacementPolicy::RackSafe { min_zones: 2 };
    let mut cfg = EngineConfig::from(sim);
    cfg.faults =
        lion_faults::FaultPlan::zone_failure(SECOND / 8, lion_common::ZoneId(1), SECOND / 2);
    let mut eng = Engine::new(cfg, uniform_workload(8));
    let report = eng.run(&mut TrivialProto, SECOND);
    assert_eq!(report.zone_crashes, 1);
    assert_eq!(
        report.stalled_partitions, 0,
        "rack-safe placement must leave every partition promotable"
    );
    // Every partition primaried in the dead rack failed over to Z0.
    assert!(report.failovers > 0);
    for p in 0..eng.cluster.n_partitions() {
        let primary = eng.cluster.placement.primary_of(PartitionId(p as u32));
        assert!(eng.cluster.is_up(primary));
    }
    assert!(report.commits > 100);
    eng.cluster.check_invariants().unwrap();
}

#[test]
fn ack_at_commit_mirrors_commit_latency() {
    let mut eng = Engine::new(tiny_cfg(), uniform_workload(4));
    let report = eng.run(&mut TrivialProto, SECOND / 2);
    assert_eq!(report.acked, report.commits, "every commit acks instantly");
    assert_eq!(report.mean_ack_latency_us, report.mean_latency_us);
    assert_eq!(report.epochs_sealed, 0, "no epochs without the subsystem");
    assert_eq!(report.acked_then_lost, 0, "no crash, no hole");
}

#[test]
fn epoch_commit_defers_acks_to_epoch_boundaries() {
    let mut cfg = EngineConfig::from(tiny_cfg());
    cfg.durability = lion_durability::DurabilityConfig::epoch(5_000);
    let mut eng = Engine::new(cfg, uniform_workload(4));
    let report = eng.run(&mut TrivialProto, SECOND / 2);
    assert!(report.commits > 100, "commits {}", report.commits);
    assert!(report.epochs_sealed > 10, "sealed {}", report.epochs_sealed);
    assert!(report.acked > 0);
    assert!(
        report.acked <= report.commits,
        "acks can only trail commits (the last epochs are still open)"
    );
    // A client-visible ack pays the epoch residency + replication
    // transit on top of the commit latency.
    assert!(
        report.mean_ack_latency_us > report.mean_latency_us,
        "ack {:.0}us must exceed commit {:.0}us",
        report.mean_ack_latency_us,
        report.mean_latency_us
    );
    // Closed-loop clients stall on the ack, so the whole run's mean ack
    // latency sits near the epoch length.
    assert!(report.mean_ack_latency_us > 2_000.0);
    eng.cluster.check_invariants().unwrap();
}

#[test]
fn epoch_zero_behaves_exactly_like_ack_at_commit() {
    let run = |durability| {
        let mut cfg = EngineConfig::from(tiny_cfg());
        cfg.durability = durability;
        let mut eng = Engine::new(cfg, uniform_workload(4));
        eng.run(&mut TrivialProto, SECOND / 4).digest()
    };
    assert_eq!(
        run(lion_durability::DurabilityConfig::default()),
        run(lion_durability::DurabilityConfig::epoch(0)),
        "epoch_commit_us = 0 must be byte-identical to the legacy mode"
    );
}

#[test]
fn ack_at_commit_crash_loses_acked_commits() {
    // Crash between two 10 ms flushes: the commits acked since the last
    // flush live only in the dead primary's epoch buffer — the audit
    // must count them (a real deployment loses them after acking).
    let mut cfg = EngineConfig::from(tiny_cfg());
    cfg.faults = lion_faults::FaultPlan::new().crash_at(125_000, NodeId(1));
    let mut eng = Engine::new(cfg, uniform_workload(4));
    let report = eng.run(&mut TrivialProto, SECOND / 2);
    assert_eq!(report.crashes, 1);
    assert!(
        report.acked_then_lost > 0,
        "ack-at-commit must leak acked-but-unreplicated writes"
    );
    assert_eq!(report.epochs_aborted, 0);
}

#[test]
fn epoch_commit_crash_retries_parked_acks_and_loses_nothing() {
    let mut cfg = EngineConfig::from(tiny_cfg());
    cfg.durability = lion_durability::DurabilityConfig::epoch(5_000);
    cfg.faults = lion_faults::FaultPlan::new().crash_at(126_000, NodeId(1));
    let mut eng = Engine::new(cfg, uniform_workload(4));
    let report = eng.run(&mut TrivialProto, SECOND / 2);
    assert_eq!(report.crashes, 1);
    assert_eq!(
        report.acked_then_lost, 0,
        "an ack never escapes ahead of its epoch's replication"
    );
    assert!(
        report.epochs_aborted > 0,
        "the open epoch dies with the node"
    );
    assert!(
        report.epoch_retried_acks > 0,
        "parked transactions retry instead of acking"
    );
    assert!(report.acked > 0, "acks resume after the failover");
    // The fence advanced past every pre-crash epoch.
    assert!(eng.epoch_manager().fence() > 0);
    eng.cluster.check_invariants().unwrap();
}

#[test]
fn epoch_commit_acks_survive_in_batch_mode() {
    struct BatchCommit;
    impl Protocol for BatchCommit {
        fn name(&self) -> &'static str {
            "batch-commit"
        }
        fn batch_mode(&self) -> bool {
            true
        }
        fn on_submit(&mut self, _: &mut Engine, _: TxnId) {}
        fn on_wake(&mut self, eng: &mut Engine, txn: TxnId, _tag: u32) {
            eng.commit(txn);
        }
        fn on_batch(&mut self, eng: &mut Engine, batch: &[TxnId]) {
            for &t in batch {
                let home = eng.cluster.placement.primary_of(eng.txn(t).parts[0]);
                eng.txn_mut(t).home = home;
                let _ = eng.exec_group_at(home, t, 0);
                eng.cpu(home, Phase::Execution, 20, t, 0);
            }
        }
    }
    let mut sim = tiny_cfg();
    sim.batch_size = 32;
    let mut cfg = EngineConfig::from(sim);
    cfg.durability = lion_durability::DurabilityConfig::epoch(5_000);
    let mut eng = Engine::new(cfg, uniform_workload(4));
    let report = eng.run(&mut BatchCommit, SECOND / 5);
    assert!(report.commits >= 64, "batches keep flowing while acks park");
    assert!(report.acked > 0, "parked batch acks release at durability");
    assert!(report.mean_ack_latency_us >= report.mean_latency_us);
}

#[test]
fn batch_mode_arms_batches() {
    struct BatchNoop;
    impl Protocol for BatchNoop {
        fn name(&self) -> &'static str {
            "batch-noop"
        }
        fn batch_mode(&self) -> bool {
            true
        }
        fn on_submit(&mut self, _: &mut Engine, _: TxnId) {}
        fn on_wake(&mut self, eng: &mut Engine, txn: TxnId, _tag: u32) {
            eng.commit(txn);
        }
        fn on_batch(&mut self, eng: &mut Engine, batch: &[TxnId]) {
            for &t in batch {
                let home = eng.cluster.placement.primary_of(eng.txn(t).parts[0]);
                eng.txn_mut(t).home = home;
                let _ = eng.exec_group_at(home, t, 0);
                eng.cpu(home, Phase::Execution, 20, t, 0);
            }
        }
    }
    let mut cfg = tiny_cfg();
    cfg.batch_size = 32;
    let mut eng = Engine::new(cfg, uniform_workload(4));
    let report = eng.run(&mut BatchNoop, SECOND / 5);
    assert!(
        report.commits >= 64,
        "at least two batches: {}",
        report.commits
    );
    assert_eq!(report.commits % 32, 0, "whole batches commit");
}
