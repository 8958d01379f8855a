//! End-to-end failover: crash a primary-holding node mid-run under YCSB and
//! check the three promises of the fault subsystem — a secondary is
//! promoted, no committed (logged) write is lost, and goodput recovers.

use lion::prelude::*;

const CRASH_AT: Time = 2 * SECOND;
const HORIZON: Time = 6 * SECOND;
const VICTIM: NodeId = NodeId(1);

fn sim() -> SimConfig {
    SimConfig {
        nodes: 4,
        partitions_per_node: 4,
        keys_per_partition: 2_048,
        value_size: 32,
        clients_per_node: 8,
        ..Default::default()
    }
}

fn run_once() -> (Engine, RunReport) {
    let cfg = EngineConfig {
        sim: sim(),
        plan_interval_us: 500_000,
        faults: FaultPlan::new().crash_at(CRASH_AT, VICTIM),
        ..Default::default()
    };
    let workload = Box::new(YcsbWorkload::new(
        YcsbConfig::for_cluster(4, 4, 2_048)
            .with_mix(0.5, 0.0)
            .with_seed(42),
    ));
    let mut eng = Engine::new(cfg, workload);
    let mut lion = Lion::standard();
    let report = eng.run(&mut lion, HORIZON);
    (eng, report)
}

#[test]
fn crash_promotes_secondaries_and_loses_nothing() {
    let (eng, report) = run_once();

    // The crash happened and every orphaned partition was failed over.
    assert_eq!(report.crashes, 1);
    assert!(
        report.failovers >= sim().partitions_per_node as u64,
        "every partition primaried on the victim fails over (got {})",
        report.failovers
    );
    assert_eq!(
        eng.cluster.placement.primaries_on(VICTIM),
        0,
        "no primary may remain on the dead node"
    );
    assert!(!eng.cluster.is_up(VICTIM));
    eng.cluster.check_invariants().unwrap();

    // Promotion chose live secondaries and adopted the full log: the
    // replication-log replay check — the promoted head equals the dead
    // primary's durability frontier, so no committed write is lost.
    for f in &eng.metrics.failover_log {
        assert_eq!(f.from, VICTIM);
        assert_ne!(f.to, VICTIM);
        assert!(eng.cluster.is_up(f.to));
        assert_eq!(
            f.promoted_head, f.dead_head,
            "{}: promoted head {} != dead head {} (lost writes)",
            f.part, f.promoted_head, f.dead_head
        );
        // The new primary's log continues from that frontier.
        let store = eng.cluster.store(f.to, f.part).expect("promoted store");
        assert!(store.log.head_lsn() >= f.dead_head);
        // The engine recorded a closed unavailability window for it.
        let w = eng
            .metrics
            .unavailability
            .iter()
            .find(|w| w.part == f.part)
            .expect("unavailability window recorded");
        assert_eq!(w.from, f.crashed_at);
        assert_eq!(w.until, Some(f.completed_at));
    }

    // Commits kept flowing after the crash.
    assert!(report.commits > 1_000, "commits {}", report.commits);
    assert!(
        report.fault_aborts > 0,
        "in-flight work on the victim aborted"
    );

    // Throughput recovers to >= 80% of the pre-crash level within the run.
    let pre: f64 = report.throughput_series[..2].iter().sum::<f64>() / 2.0;
    let post = *report.throughput_series[3..]
        .iter()
        .max_by(|a, b| a.partial_cmp(b).unwrap())
        .unwrap();
    assert!(
        post >= 0.8 * pre,
        "post-failover peak {post:.0} tps below 80% of pre-crash {pre:.0} tps"
    );
    let ramp = report
        .recovery_ramp_us(CRASH_AT, CRASH_AT, 0.8)
        .expect("goodput must return to 80% of the pre-crash baseline");
    assert!(
        ramp < HORIZON - CRASH_AT,
        "recovery ramp {ramp}us must land inside the run"
    );
}

#[test]
fn same_seed_reproduces_identical_recovery_timeline() {
    let (eng_a, ra) = run_once();
    let (eng_b, rb) = run_once();
    assert_eq!(ra.commits, rb.commits);
    assert_eq!(ra.failovers, rb.failovers);
    assert_eq!(ra.unavailability_us, rb.unavailability_us);
    assert_eq!(
        eng_a.metrics.failover_log.len(),
        eng_b.metrics.failover_log.len()
    );
    for (a, b) in eng_a
        .metrics
        .failover_log
        .iter()
        .zip(&eng_b.metrics.failover_log)
    {
        assert_eq!(a, b, "failover timelines must be identical under one seed");
    }
}

#[test]
fn stalled_partition_resumes_after_recovery() {
    // Replication factor 1: no secondaries, so a crash stalls the victim's
    // partitions until the node comes back ("protocols without a live
    // replica stall until Recover").
    let mut s = sim();
    s.replication_factor = 1;
    s.partitions_per_node = 2;
    let cfg = EngineConfig {
        sim: s,
        plan_interval_us: 500_000,
        faults: FaultPlan::single_failure(SECOND, VICTIM, 2 * SECOND),
        ..Default::default()
    };
    let workload = Box::new(YcsbWorkload::new(
        YcsbConfig::for_cluster(4, 2, 2_048)
            .with_mix(0.0, 0.0)
            .with_seed(43),
    ));
    let mut eng = Engine::new(cfg, workload);
    let report = eng.run(&mut lion::baselines::two_pc(), 4 * SECOND);

    assert_eq!(report.crashes, 1);
    assert_eq!(
        report.failovers, 0,
        "nothing to promote at replication factor 1"
    );
    assert_eq!(
        report.unavailability_windows, 2,
        "both victim partitions stalled"
    );
    // The windows close shortly after the recovery, not at the horizon.
    assert!(
        report.unavailability_us < 2 * (SECOND + 100_000) as u128,
        "stall must end at recovery (unavail {}us)",
        report.unavailability_us
    );
    assert!(eng.cluster.is_up(VICTIM));
    assert_eq!(
        eng.cluster.placement.primaries_on(VICTIM),
        2,
        "primaries restored in place"
    );
    // Work on the stalled partitions resumed: commits in the final second
    // are comparable to the first.
    let first = report.throughput_series.first().copied().unwrap_or(0.0);
    let last = report.throughput_series.last().copied().unwrap_or(0.0);
    assert!(
        last > 0.5 * first,
        "throughput after recovery ({last:.0}) too far below start ({first:.0})"
    );
    eng.cluster.check_invariants().unwrap();
}

#[test]
fn rejoin_refused_by_a_second_failure_is_counted() {
    // Replication factor 2, round-robin: N1's partitions keep their only
    // secondary on N2. N2 crashes, then N1 — N1's partitions now stall with
    // no live replica — and N2 restarts while N1 is still down. N2's stale
    // copies of N1's partitions cannot re-sync (their primary is dead), so
    // each refused rejoin must show up in `remaster_conflicts`.
    let rejoiner = NodeId(2);
    let cfg = EngineConfig {
        sim: sim(),
        plan_interval_us: 500_000,
        faults: FaultPlan::new()
            .crash_at(SECOND, rejoiner)
            .crash_at(2 * SECOND, VICTIM)
            .recover_at(3 * SECOND, rejoiner),
        ..Default::default()
    };
    let workload = Box::new(YcsbWorkload::new(
        YcsbConfig::for_cluster(4, 4, 2_048)
            .with_mix(0.5, 0.0)
            .with_seed(44),
    ));
    let mut eng = Engine::new(cfg, workload);
    let report = eng.run(&mut lion::baselines::two_pc(), 4 * SECOND);

    assert_eq!((report.crashes, eng.metrics.node_recoveries), (2, 1));
    let refused: Vec<PartitionId> = (0..16)
        .map(PartitionId)
        .filter(|&p| eng.cluster.placement.primary_of(p) == VICTIM)
        .collect();
    assert_eq!(refused.len(), 4, "N1's partitions had nowhere to fail over");
    for &p in &refused {
        assert!(!eng.cluster.placement.has_replica(p, rejoiner));
    }
    assert_eq!(eng.metrics.remaster_conflicts, refused.len() as u64);
    eng.cluster.check_invariants().unwrap();
}

/// Split-brain sim: 4 nodes at replication factor 3, so a `{N2, N3}` cut
/// leaves every data partition a strict replica majority on one side.
fn sb_sim() -> SimConfig {
    SimConfig {
        replication_factor: 3,
        max_replicas: 4,
        ..sim()
    }
}

fn run_split_brain(faults: FaultPlan, horizon: Time) -> (Engine, RunReport) {
    let cfg = EngineConfig {
        sim: sb_sim(),
        plan_interval_us: 500_000,
        faults,
        durability: DurabilityConfig::epoch(5_000).with_retry_round_trip(),
        ..Default::default()
    };
    let workload = Box::new(YcsbWorkload::new(
        YcsbConfig::for_cluster(4, 4, 2_048)
            .with_mix(0.5, 0.0)
            .with_seed(45),
    ));
    let mut eng = Engine::new(cfg, workload);
    let mut lion = Lion::standard();
    let report = eng.run(&mut lion, horizon);
    (eng, report)
}

/// A node dies *inside* an open split-brain window — once on each side of
/// the cut. 10 nodes at rf 3 with `{N5..N9}` isolated: N2's partitions are
/// replicated wholly on the rest side and N7's wholly on the isolated side,
/// so either crash leaves every partition a live quorum side (any other
/// victim would be rejected by `NoQuorumSide` validation). Each side must
/// fail the victim's partitions over within itself, and the heal must still
/// reconcile cleanly with two nodes down.
#[test]
fn crash_during_split_window_on_each_side() {
    let cfg = EngineConfig {
        sim: SimConfig {
            nodes: 10,
            partitions_per_node: 2,
            keys_per_partition: 1_000,
            value_size: 32,
            clients_per_node: 4,
            replication_factor: 3,
            max_replicas: 4,
            ..Default::default()
        },
        plan_interval_us: 500_000,
        faults: FaultPlan::new()
            .partition_at(SECOND, (5..10).map(NodeId).collect())
            .crash_at(SECOND + 300_000, NodeId(2))
            .crash_at(SECOND + 500_000, NodeId(7))
            .heal_at(2 * SECOND)
            .with_split_brain(),
        durability: DurabilityConfig::epoch(5_000).with_retry_round_trip(),
        ..Default::default()
    };
    let workload = Box::new(YcsbWorkload::new(
        YcsbConfig::for_cluster(10, 2, 1_000)
            .with_mix(0.5, 0.0)
            .with_seed(46),
    ));
    let mut eng = Engine::new(cfg, workload);
    let mut lion = Lion::standard();
    let report = eng.run(&mut lion, 3 * SECOND);

    assert_eq!(report.crashes, 2);
    assert_eq!(report.partitions_begun, 1);
    assert_eq!(report.partitions_healed, 1);
    assert!(
        report.failovers > 0,
        "each side promotes its crashed node's partitions within itself"
    );
    assert!(!eng.cluster.is_up(NodeId(2)));
    assert!(!eng.cluster.is_up(NodeId(7)));
    assert_eq!(
        eng.cluster.placement.primaries_on(NodeId(2))
            + eng.cluster.placement.primaries_on(NodeId(7)),
        0,
        "no primary may remain on a dead node after the heal"
    );
    assert_eq!(
        report.acked_then_lost, 0,
        "quorum fencing holds through mid-window crashes"
    );
    assert_eq!(
        eng.epoch_manager().fenced_count(),
        0,
        "no fenced ack survives the heal"
    );
    assert!(report.commits > 1_000, "commits {}", report.commits);
    eng.cluster.check_invariants().unwrap();
}

/// The heal lands 20 ms after the cut — inside the 53 ms failure-detect +
/// hand-off delay — so the quorum side's `SplitPromote` events are still in
/// flight when the window closes. The staleness guard must drop them (the
/// pre-cut primaries simply resume) and every unavailability window the cut
/// opened must be closed by the heal, not leak to the horizon.
#[test]
fn heal_races_inflight_split_promotion() {
    let plan = FaultPlan::new()
        .partition_at(SECOND, vec![NodeId(2), NodeId(3)])
        .heal_at(SECOND + 20_000)
        .with_split_brain();
    let (eng, report) = run_split_brain(plan, 3 * SECOND);

    assert_eq!(report.partitions_begun, 1);
    assert_eq!(report.partitions_healed, 1);
    assert_eq!(report.acked_then_lost, 0);
    assert_eq!(eng.epoch_manager().fenced_count(), 0);
    for w in &eng.metrics.unavailability {
        assert!(
            w.until.is_some(),
            "{}: unavailability window left open past the heal",
            w.part
        );
    }
    assert!(report.commits > 1_000, "commits {}", report.commits);
    eng.cluster.check_invariants().unwrap();
}

/// Back-to-back windows: the first cut heals 20 ms in (its promotions still
/// queued), a second cut of the same nodes opens 20 ms later, and the
/// first window's stale `SplitPromote` events fire *inside* the second
/// window — the per-window sequence number must drop them while the second
/// window's own promotions land. The final heal reconciles everything.
#[test]
fn back_to_back_partition_heal_partition() {
    let cut = vec![NodeId(2), NodeId(3)];
    let plan = FaultPlan::new()
        .partition_at(SECOND, cut.clone())
        .heal_at(SECOND + 20_000)
        .partition_at(SECOND + 40_000, cut)
        .heal_at(2 * SECOND)
        .with_split_brain();
    let (eng, report) = run_split_brain(plan, 3 * SECOND);

    assert_eq!(report.partitions_begun, 2);
    assert_eq!(report.partitions_healed, 2);
    assert_eq!(report.acked_then_lost, 0);
    assert_eq!(eng.epoch_manager().fenced_count(), 0);
    assert!(
        report.minority_commits > 0,
        "the second (full-length) window commits on the minority side"
    );
    for w in &eng.metrics.unavailability {
        assert!(
            w.until.is_some(),
            "{}: unavailability window left open past the final heal",
            w.part
        );
    }
    assert!(report.commits > 1_000, "commits {}", report.commits);
    eng.cluster.check_invariants().unwrap();
}

#[test]
fn network_partition_heals_like_recovery() {
    let cfg = EngineConfig {
        sim: sim(),
        plan_interval_us: 500_000,
        faults: FaultPlan::new()
            .partition_at(SECOND, vec![NodeId(3)])
            .heal_at(3 * SECOND),
        ..Default::default()
    };
    let workload = Box::new(YcsbWorkload::new(
        YcsbConfig::for_cluster(4, 4, 2_048)
            .with_mix(0.5, 0.0)
            .with_seed(44),
    ));
    let mut eng = Engine::new(cfg, workload);
    let mut lion = Lion::standard();
    let report = eng.run(&mut lion, 5 * SECOND);

    assert_eq!(
        report.crashes, 1,
        "isolation counts as a crash to the majority side"
    );
    assert!(report.failovers > 0, "isolated node's primaries fail over");
    assert!(eng.cluster.is_up(NodeId(3)), "heal brings the node back");
    assert!(report.commits > 1_000);
    eng.cluster.check_invariants().unwrap();
}
