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
        durability: DurabilityConfig::epoch(5_000),
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
        durability: DurabilityConfig::epoch(5_000),
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

// ---------------------------------------------------------------------------
// A second fault inside the promotion window (ROADMAP 5(f), closed by
// issue 24).
//
// N1 crashes at 1.000 s and restarts at 1.020 s, inside the ≈53 ms
// detect + hand-off window of the promotions away from it. Then, still
// inside that window, either N1 crashes again (plan A) or the promotion
// target N2 does (plan B). Both plans pass `validate_against`. At parent
// `7810cc8`, A panicked every debug build in `Cluster::start` and in release
// overwrote the first crash's replay (0 entries replayed instead of the
// single crash's, so the promoted table silently missed committed writes);
// B left N1's partitions `Stalled` under a live primary to the horizon.
// ---------------------------------------------------------------------------

const RACE_HORIZON: Time = 3 * SECOND;
const PROMOTED: NodeId = NodeId(2);

/// N1 crashes at 1 s, restarts `restart_after` later, and `second` crashes
/// `second_after` after that.
fn race_plan(restart_after: Time, second: NodeId, second_after: Time) -> FaultPlan {
    FaultPlan::new()
        .crash_at(SECOND, VICTIM)
        .recover_at(SECOND + restart_after, VICTIM)
        .crash_at(SECOND + restart_after + second_after, second)
}

/// 4 nodes × 2 partitions × 256 keys at the default replication factor 2:
/// N1 primaries P1 and P5, whose only secondary is N2. `None` when the plan
/// does not validate against that layout.
fn run_race(proto: &mut dyn Protocol, faults: FaultPlan) -> Option<(Engine, RunReport)> {
    let sim = SimConfig {
        nodes: 4,
        partitions_per_node: 2,
        keys_per_partition: 256,
        value_size: 32,
        clients_per_node: 8,
        ..Default::default()
    };
    let layout = Cluster::new(sim.clone());
    faults
        .validate_against(&layout.placement, &layout.zone_of)
        .ok()?;
    let cfg = EngineConfig {
        sim,
        faults,
        ..Default::default()
    };
    let workload = Box::new(YcsbWorkload::new(
        YcsbConfig::for_cluster(4, 2, 256)
            .with_mix(0.5, 0.0)
            .with_seed(5),
    ));
    let mut eng = Engine::new(cfg, workload);
    let report = eng.run(proto, RACE_HORIZON);
    Some((eng, report))
}

/// What every run that raced a second fault into a promotion must still
/// look like at the horizon: a sound cluster, nothing stalled under a live
/// primary, every unavailability window of a partition with a live primary
/// closed, every landed promotion at the dead primary's full head, and —
/// unless a partition lost its last replica holder for good, which wedges
/// any closed loop — the second after the last fault committing like the
/// one before the first.
fn assert_survived(name: &str, eng: &Engine, report: &RunReport) {
    eng.cluster
        .check_invariants()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut lost_for_good = false;
    for p in 0..eng.cluster.n_partitions() as u32 {
        let part = PartitionId(p);
        let primary = eng.cluster.placement.primary_of(part);
        let stalled = eng.cluster.transfer(part) == lion::cluster::Transfer::Stalled;
        if !eng.cluster.is_up(primary) {
            lost_for_good |= stalled;
            continue;
        }
        assert!(!stalled, "{name}: {part} stalled under its live primary");
        for w in eng.metrics.unavailability.iter().filter(|w| w.part == part) {
            assert!(
                w.until.is_some(),
                "{name}: {part} is served, its window open"
            );
        }
    }
    for f in &eng.metrics.failover_log {
        assert_eq!(
            f.promoted_head, f.dead_head,
            "{name}: {} promoted at {} under a dead head of {}",
            f.part, f.promoted_head, f.dead_head
        );
    }
    // The series ends at the last bucket that committed anything.
    let second = |i: usize| report.throughput_series.get(i).copied().unwrap_or(0.0);
    let (before, after) = (second(0), second(2));
    assert!(
        lost_for_good || after > 0.25 * before,
        "{name}: {after:.0} commits in the second after the faults, {before:.0} before them"
    );
}

type Build = fn() -> Box<dyn Protocol>;

/// 2PC, Lion and batch-mode Lion run on the engine's standard machine, which
/// serves nothing from a blocked partition. Calvin stands for the batch
/// kit, which installs at the placement's primary whatever its state — so
/// what it logs on a dead or restarted primary mid-promotion legitimately
/// joins the replay, and only the survival assertions apply to it.
const RACERS: [(&str, Build, bool); 4] = [
    ("2pc", || Box::new(lion::baselines::two_pc()), true),
    ("lion", || Box::new(Lion::standard()), true),
    ("lion-batch", || Box::new(Lion::full()), true),
    ("calvin", || Box::new(Calvin::new()), false),
];

/// The single crash/restart every race starts as, per racer: what it
/// replays is fixed at the crash, whatever follows.
fn single_crash(racer: usize) -> &'static RunReport {
    static ONCE: [std::sync::OnceLock<RunReport>; 4] = [const { std::sync::OnceLock::new() }; 4];
    ONCE[racer].get_or_init(|| {
        let single = FaultPlan::single_failure(SECOND, VICTIM, SECOND + 20_000);
        run_race(RACERS[racer].1().as_mut(), single)
            .expect("valid")
            .1
    })
}

/// The restarted primary crashed again (`second == VICTIM`): the second
/// crash orphans nothing new, so the promotions that land replay exactly
/// what the single crash/restart replays.
fn assert_replay_kept(racer: usize, report: &RunReport) {
    let (name, _, blocks) = RACERS[racer];
    let once = single_crash(racer);
    assert!(
        report.replayed_entries == once.replayed_entries
            || (!blocks && report.replayed_entries > once.replayed_entries),
        "{name}: the second crash changed what the promotion replays ({} against {})",
        report.replayed_entries,
        once.replayed_entries
    );
}

/// Plan A: the restarted primary crashes again before its promotion lands.
#[test]
fn primary_crashing_again_mid_promotion_keeps_its_replay() {
    for (racer, (name, build, _)) in RACERS.into_iter().enumerate() {
        let plan = race_plan(20_000, VICTIM, 20_000);
        let (eng, report) = run_race(build().as_mut(), plan).expect("plan A is valid");
        assert_survived(name, &eng, &report);
        let stalled = |p| eng.cluster.transfer(PartitionId(p)) == lion::cluster::Transfer::Stalled;
        assert!(!(0..8).any(stalled), "{name}: N2 holds every orphan");
        assert_eq!(report.crashes, 2, "{name}");
        assert_eq!(report.failovers, single_crash(racer).failovers, "{name}");
        assert_replay_kept(racer, &report);
        assert!(
            name != "2pc" || report.replayed_entries > 0,
            "the scenario must have something to lose"
        );
        for f in &eng.metrics.failover_log {
            assert_eq!(f.from, VICTIM, "{name}");
            // 2PC never moves a replica: the one secondary takes over.
            assert!(f.to == PROMOTED || name != "2pc", "{name}: {f:?}");
        }
        assert!(!eng.cluster.is_up(VICTIM));
        assert_eq!(eng.cluster.placement.primaries_on(VICTIM), 0, "{name}");
    }
}

/// Plan B: the promotion target dies with the original primary back up and
/// no other candidate. The promotion is abandoned — the restarted primary
/// resumes, its partitions end `Idle` — instead of stalling for ever.
#[test]
fn target_dying_with_the_primary_back_up_abandons_the_promotion() {
    for (racer, (name, build, _)) in RACERS.into_iter().enumerate() {
        let plan = race_plan(20_000, PROMOTED, 10_000);
        let (eng, report) = run_race(build().as_mut(), plan).expect("plan B is valid");
        assert_survived(name, &eng, &report);
        for p in 0..eng.cluster.n_partitions() as u32 {
            assert_eq!(
                eng.cluster.transfer(PartitionId(p)),
                lion::cluster::Transfer::Idle,
                "{name}: P{p}"
            );
        }
        if name == "2pc" {
            // No third replica to re-plan onto: the promotion is abandoned.
            assert!(
                eng.metrics.failover_log.iter().all(|f| f.from == PROMOTED),
                "{name}: only the dead target's own partitions fail over"
            );
            assert_eq!(
                eng.cluster.placement.primaries_on(VICTIM),
                2,
                "{name}: the restarted primary kept its partitions"
            );
        }
        for w in &eng.metrics.unavailability {
            assert!(w.until.is_some(), "{name}: {} window left open", w.part);
        }
        // Three live nodes carry on within the band the single-crash run
        // shows with four.
        let (last, reference) = (
            report.throughput_series[2],
            single_crash(racer).throughput_series[2],
        );
        assert!(
            last > 0.5 * reference,
            "{name}: {last:.0} tps in the last second against {reference:.0} after a single crash"
        );
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

    /// Any restart 1–60 ms after the crash followed 1–60 ms later by a
    /// second fault — the same node again, the promotion target, or a
    /// bystander; inside the ≈53 ms promotion window or just after it —
    /// runs to the horizon and survives.
    #[test]
    fn any_second_fault_around_a_restart_is_survived(
        restart_after in 1u64..=60,
        second in 0usize..3,
        second_after in 1u64..=60,
        racer in 0usize..RACERS.len(),
    ) {
        let second = [VICTIM, PROMOTED, NodeId(3)][second];
        let plan = race_plan(restart_after * MILLIS, second, second_after * MILLIS);
        let (name, build, _) = RACERS[racer];
        if let Some((eng, report)) = run_race(build().as_mut(), plan) {
            let name = format!("{name} restart +{restart_after} ms, {second} +{second_after} ms");
            assert_survived(&name, &eng, &report);
            // Inside the failure-detection delay no promotion has landed
            // yet; after it the node is a new primary or secondary somewhere
            // and its second crash is a failover of its own.
            if second == VICTIM && restart_after + second_after <= 50 {
                assert_replay_kept(racer, &report);
            }
        }
    }
}
