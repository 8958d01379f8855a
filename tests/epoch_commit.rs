//! Epoch group commit end-to-end: the no-acked-commit-lost invariant.
//!
//! The contract under test (ISSUE 4 acceptance):
//!
//! * **ack-at-commit mode** (`epoch_commit_us = 0`) acks the instant the
//!   protocol commits, while replication rides the 10 ms epoch flush — so a
//!   crash catches acked commits whose log entries exist only on the dead
//!   primary. The `acked_then_lost` audit counts them: the subsystem closes
//!   a *real* hole, not a hypothetical one.
//! * **epoch group commit** holds every ack behind its epoch's replication:
//!   the same crash scripts must show `acked_then_lost == 0` across
//!   Lion/2PC/Star/Calvin, for arbitrary seeds and crash times. Parked
//!   transactions of a voided epoch retry instead.
//! * acks released to one client never go backwards (per-client seq
//!   monotonicity), crash or no crash.
//! * no ack escapes at the instant its epoch seals: the seal is the
//!   replication flush, and the acks wait out that flush's round trip.

mod common;

use common::{assert_client_monotonic, AckTap};
use lion::baselines::two_pc;
use lion::common::{NodeId, SimConfig, SECOND};
use lion::core::Lion;
use lion::engine::{DurabilityConfig, Engine, EngineConfig, MetricEvent, Protocol, RunReport};
use lion::faults::FaultPlan;
use lion::workloads::{YcsbConfig, YcsbWorkload};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn sim(seed: u64) -> SimConfig {
    SimConfig {
        nodes: 3,
        partitions_per_node: 4,
        keys_per_partition: 1_000,
        value_size: 32,
        clients_per_node: 8,
        batch_size: 64,
        seed,
        ..Default::default()
    }
}

fn workload(seed: u64) -> Box<YcsbWorkload> {
    Box::new(YcsbWorkload::new(
        YcsbConfig::for_cluster(3, 4, 1_000)
            .with_mix(0.5, 0.3)
            .with_seed(seed),
    ))
}

fn build_proto(which: usize) -> Box<dyn Protocol> {
    match which {
        0 => Box::new(Lion::standard()),
        1 => Box::new(two_pc()),
        2 => Box::new(lion::baselines::Star::new()),
        _ => Box::new(lion::baselines::Calvin::new()),
    }
}

fn proto_name(which: usize) -> &'static str {
    ["Lion", "2PC", "Star", "Calvin"][which]
}

struct Run {
    report: RunReport,
    /// The run's `Ack` and `EpochSealed` events.
    events: Vec<MetricEvent>,
}

fn run_crash_scenario(which: usize, seed: u64, crash_at: u64, durability: DurabilityConfig) -> Run {
    let cfg = EngineConfig {
        sim: sim(seed),
        plan_interval_us: 200_000,
        faults: FaultPlan::single_failure(crash_at, NodeId(1), crash_at + SECOND / 8),
        durability,
        ..EngineConfig::default()
    };
    let mut eng = Engine::new(cfg, workload(seed ^ 0x5EED));
    let tap = AckTap::attach(&mut eng);
    let mut proto = build_proto(which);
    let report = eng.run(proto.as_mut(), SECOND / 2);
    Run {
        report,
        events: tap.take(),
    }
}

/// The deterministic contrast pair the acceptance criteria name: the same
/// crash script run in both durability modes, per protocol. Ack-at-commit
/// leaks acked writes (the hole is real); epoch commit closes it.
#[test]
fn ack_at_commit_loses_what_epoch_commit_keeps() {
    for which in 0..4 {
        // 3 ms past the 120 ms replication flush: the epoch buffer holds
        // freshly acked commits when N1 dies.
        let legacy = run_crash_scenario(which, 7, 123_000, DurabilityConfig::ack_at_commit());
        assert!(
            legacy.report.acked_then_lost > 0,
            "{}: ack-at-commit must show the durability hole",
            proto_name(which)
        );
        let epoch = run_crash_scenario(which, 7, 123_000, DurabilityConfig::epoch(4_000));
        assert_eq!(
            epoch.report.acked_then_lost,
            0,
            "{}: epoch commit must close the hole",
            proto_name(which)
        );
        assert!(
            epoch.report.epochs_aborted > 0,
            "{}: the crash voids the open epoch",
            proto_name(which)
        );
        assert!(
            epoch.report.acked > 0,
            "{}: acks flow before and after the crash",
            proto_name(which)
        );
        assert!(
            epoch.report.mean_ack_latency_us >= epoch.report.mean_latency_us,
            "{}: acks can only trail commits",
            proto_name(which)
        );
    }
}

/// The seal is the replication flush, so an epoch's acks wait out the round
/// trip of the flush that sealed it and none is released at the seal's own
/// instant. The epoch lengths divide the 10 ms replication period: with a
/// second flush clock, a flush firing at the seal's instant shipped the
/// epoch's entries first and its acks escaped with no transit at all. Every
/// transaction writes, so every parked ack has entries for its seal to ship.
#[test]
fn no_ack_escapes_before_its_epochs_replication() {
    for epoch_us in [1_000, 2_000, 5_000, 10_000] {
        for which in 0..2 {
            let cfg = EngineConfig {
                sim: sim(7),
                durability: DurabilityConfig::epoch(epoch_us),
                ..EngineConfig::default()
            };
            let writes_only = YcsbConfig {
                read_ratio: 0.0,
                ..YcsbConfig::for_cluster(3, 4, 1_000).with_mix(0.5, 0.3)
            };
            let mut eng = Engine::new(cfg, Box::new(YcsbWorkload::new(writes_only)));
            let tap = AckTap::attach(&mut eng);
            eng.run(build_proto(which).as_mut(), SECOND / 4);
            let events = tap.take();
            let seals: BTreeSet<u64> = events
                .iter()
                .filter(|e| matches!(e, MetricEvent::EpochSealed { .. }))
                .map(MetricEvent::at)
                .collect();
            let acks: Vec<u64> = events
                .iter()
                .filter(|e| matches!(e, MetricEvent::Ack { .. }))
                .map(MetricEvent::at)
                .collect();
            assert!(!seals.is_empty() && !acks.is_empty());
            let early = acks.iter().filter(|at| seals.contains(at)).count();
            assert_eq!(
                early,
                0,
                "{} at {epoch_us} us epochs: {early} of {} acks released at their seal's instant",
                proto_name(which),
                acks.len()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Arbitrary seeds, crash times, epoch lengths, protocols: no acked
    /// commit is ever lost under epoch group commit, and (closed-loop
    /// protocols) per-client acks stay monotonic.
    #[test]
    fn no_acked_commit_is_ever_lost(
        seed in 0u64..1_000_000,
        crash_at in 60_000u64..220_000,
        epoch_us in 1_000u64..12_000,
        which in 0usize..4,
    ) {
        let run = run_crash_scenario(which, seed, crash_at, DurabilityConfig::epoch(epoch_us));
        prop_assert_eq!(
            run.report.acked_then_lost, 0,
            "{}: acked commit lost (seed {}, crash {}, epoch {})",
            proto_name(which), seed, crash_at, epoch_us
        );
        prop_assert!(run.report.commits > 0);
        // Batch distributors hand one synthetic client several in-flight
        // transactions per batch, so seq monotonicity per client is only a
        // closed-loop guarantee; the epoch fence forbids a promoted primary
        // from releasing a pre-crash epoch late.
        if which < 2 {
            assert_client_monotonic(&run.events, proto_name(which));
        }
    }
}
