//! Same-seed determinism regression: the whole simulation must be a pure
//! function of its configuration.
//!
//! Each scenario is run twice in-process (two independent `Engine`s) and the
//! [`RunReport::digest`]s must match — no per-process hasher seeds, no
//! iteration-order dependence, no allocator-address leakage. On top of that,
//! every digest is pinned to a **golden value captured before the hot-path
//! overhaul** (FxHash maps, generation-tagged txn slab, zero-copy write
//! sets), proving those swaps changed performance, not behavior.
//!
//! **Golden provenance.** Every pinned constant below carries, beside it,
//! the scenario it pins and the PR that pinned it. All of them regenerate
//! with one command, which prints `name: 0x…` for every scenario:
//!
//! ```text
//! LION_PRINT_DIGESTS=1 cargo test --test determinism_digest -- --nocapture
//! ```
//!
//! A golden may only move in a change that says why, in that comment.

use lion::baselines::{clay, leap, two_pc, Aria, Calvin, Hermes, Lotus, Star};
use lion::common::{NodeId, PlacementPolicy, SimConfig, Workload, ZoneId, SECOND};
use lion::core::{Lion, LionConfig};
use lion::engine::{Engine, EngineConfig, Protocol, RunReport};
use lion::faults::FaultPlan;
use lion::workloads::{TpccConfig, TpccWorkload, YcsbConfig, YcsbWorkload};
use proptest::prelude::*;

fn sim() -> SimConfig {
    SimConfig {
        nodes: 3,
        partitions_per_node: 4,
        keys_per_partition: 1_000,
        value_size: 32,
        clients_per_node: 8,
        batch_size: 64,
        ..Default::default()
    }
}

fn workload(seed: u64) -> Box<YcsbWorkload> {
    Box::new(YcsbWorkload::new(
        YcsbConfig::for_cluster(3, 4, 1_000)
            .with_mix(0.6, 0.5)
            .with_seed(seed),
    ))
}

/// A cluster shape and the request stream it serves.
type World = (SimConfig, Box<dyn Workload>);

/// 3 nodes x 4 partitions, YCSB 60 % cross-partition at skew 0.5, workload
/// seed 42.
fn ycsb() -> World {
    (sim(), workload(42))
}

/// The mix `benchmark/src/spec.rs` runs as `tpcc_lion`, on its cluster shape:
/// 4 nodes x 8 warehouses, NewOrder only, 10 % remote, 24 clients per node.
/// Its inserted rows live in the arena, and so do the loaded ITEM
/// and STOCK rows past its 1,000-key dense range; four in ten attempts lose
/// their district-row race, so this is the world that exercises the OCC
/// abort/retry path.
fn tpcc() -> World {
    let sim = SimConfig {
        nodes: 4,
        partitions_per_node: 8,
        keys_per_partition: 1_000,
        value_size: 32,
        clients_per_node: 24,
        batch_size: 64,
        ..Default::default()
    };
    let wl = TpccWorkload::new(TpccConfig::for_cluster(4, 8).with_mix(0.1, 0.0));
    (sim, Box::new(wl))
}

fn run(s: &Scenario) -> RunReport {
    let (sim, workload) = (s.world)();
    let cfg = EngineConfig {
        sim,
        plan_interval_us: 300_000,
        faults: (s.faults)(),
        ..EngineConfig::default()
    };
    let mut eng = Engine::new(cfg, workload);
    eng.run((s.build)().as_mut(), s.horizon)
}

struct Scenario {
    name: &'static str,
    build: fn() -> Box<dyn Protocol>,
    world: fn() -> World,
    faults: fn() -> FaultPlan,
    horizon: u64,
    golden: u64,
}

/// One node crashes a quarter of the way in and restarts at the half.
fn crash_recover() -> FaultPlan {
    FaultPlan::single_failure(SECOND / 4, NodeId(1), SECOND / 2)
}

/// Every scenario runs its `world` with a planner tick every 300 ms (see
/// [`run`]); all but the last run [`ycsb`].
const SCENARIOS: &[Scenario] = &[
    // The four legacy goldens: pinned by PR 2 at commit `bca1f3b`, i.e.
    // captured *before* its hot-path overhaul.
    //
    // Re-pinned from `0x69715e0abe656466`: 2PC installs at its commit slice.
    // The decision's prepare-locks are held until the coordinator's
    // `INSTALL_US` slice ends, so a few more readers meet a lock. Commits
    // 79,244 → 78,746, aborts 19,651 → 20,393.
    Scenario {
        name: "2pc-ycsb",
        build: || Box::new(two_pc()),
        world: ycsb,
        faults: FaultPlan::none,
        horizon: SECOND,
        golden: 0xf24173d0df64a292,
    },
    Scenario {
        name: "lion-standard-ycsb",
        build: || Box::new(Lion::standard()),
        world: ycsb,
        faults: FaultPlan::none,
        horizon: SECOND,
        golden: 0x3c64e2e890e344a3,
    },
    // Re-pinned once (from `0x89fe08ff509c4f7c`, like `lion-rb-ycsb` and
    // `lion-batch-crash-recover` below) by batch Lion's ε = 0.2 together with
    // fine-tuning that re-reads loads every move and sheds a clump bigger
    // than the gap: neither alone moves it (the old fine-tuning gives up at
    // ε = 0.2). Commits 165,442 → 170,279.
    Scenario {
        name: "lion-batch-ycsb",
        build: || Box::new(Lion::full()),
        world: ycsb,
        faults: FaultPlan::none,
        horizon: SECOND,
        golden: 0xe4bd2ddd5842db18,
    },
    // Re-pinned from `0x846910caf3ea2f5b`: 2PC installs at its commit slice
    // (the reason `2pc-ycsb` gives). Commits 155,858 → 155,664, aborts
    // 20,662 → 20,816, fault aborts 6 either way.
    Scenario {
        name: "lion-crash-recover",
        build: || Box::new(Lion::standard()),
        world: ycsb,
        faults: crash_recover,
        horizon: SECOND,
        golden: 0x6e0e06e70eaae3bb,
    },
    // The remaining users of the standard-execution machine: pinned by
    // PR 14 at its parent commit `3640932`, before Lion became a policy
    // over that machine, so the merge is checkable against them.
    //
    // Leap: every remote group migrates its partition home and waits.
    // Re-pinned from `0x80bf43b6d41d26be`: a landing migration aborts the
    // transactions that executed on the partition, which before committed
    // without installing there, and Leap migrates only when no older
    // transaction executed on the partition (wound-wait). Commits
    // 666 → 747, aborts 9 → 182, migrations 719 → 617.
    Scenario {
        name: "leap-ycsb",
        build: || Box::new(leap()),
        world: ycsb,
        faults: FaultPlan::none,
        horizon: SECOND,
        golden: 0xd4e9565cdb47f251,
    },
    // Clay: 2PC execution + the load monitor (first fires at 1 s, hence
    // the longer horizon). Re-pinned from `0xa07c18c700368246`: 2PC installs
    // at its commit slice (the reason `2pc-ycsb` gives). Commits 283,449 →
    // 281,998, aborts 60,744 → 62,752.
    Scenario {
        name: "clay-ycsb",
        build: || Box::new(clay()),
        world: ycsb,
        faults: FaultPlan::none,
        horizon: 3 * SECOND,
        golden: 0x15c5fd6fcccb176f,
    },
    // Lion(S): Schism partitioning realized by blocking migrations.
    // Re-pinned from `0x3fbb2ae839e9e0d5`: its migrations and remasters
    // now abort the transactions that executed on the moved partition.
    // Commits 177,141 → 177,111, aborts 20,538 → 20,548.
    Scenario {
        name: "lion-s-ycsb",
        build: || Box::new(Lion::new(LionConfig::lion_s())),
        world: ycsb,
        faults: FaultPlan::none,
        horizon: SECOND,
        golden: 0x6463c66c83d7a603,
    },
    // Lion(RB): batch execution without workload prediction. Re-pinned from
    // `0xb7acf12f2a34806b` for the reason `lion-batch-ycsb` gives.
    Scenario {
        name: "lion-rb-ycsb",
        build: || Box::new(Lion::new(LionConfig::lion_rb())),
        world: ycsb,
        faults: FaultPlan::none,
        horizon: SECOND,
        golden: 0x3fbbbf3f89440057,
    },
    // Full Lion through a node crash: batch arming + fault aborts + defers.
    // Re-pinned from `0x506300b9ae349872` for the reason `lion-batch-ycsb`
    // gives; commits 135,126 → 136,668. Re-pinned again, from
    // `0x506d26705698eccf`: 2PC installs at its commit slice (the reason
    // `2pc-ycsb` gives). Commits 136,668 → 135,599, aborts 37,442 → 37,832,
    // fault aborts 30 either way. Re-pinned again, from `0x164c48f318e137d6`:
    // a read that meets a prepare-lock now waits for the next batch like
    // every other batch-mode abort, where it used to back off and retry
    // inside the batch. Commits 135,599 → 137,021, aborts 37,832 → 38,275,
    // fault aborts 30 either way.
    Scenario {
        name: "lion-batch-crash-recover",
        build: || Box::new(Lion::full()),
        world: ycsb,
        faults: crash_recover,
        horizon: SECOND,
        golden: 0x2f0fc33d82e498a9,
    },
    // The five batch baselines, without faults and through a crash: pinned
    // by PR 17 at its parent commit `3e42397`, before `engine.rs` was split
    // into `engine/` and their shared bodies moved into `baselines/batch.rs`
    // — they are the only users of `cpu_grant`, `wake_at` and
    // `charge_phase`, and the only ones to commit declared sets, which the
    // kit's commit wake loads in its own instant.
    //
    // Star: partition phase + single-master phase through the super node
    // (`cpu_grant`, `wake_at`, `exec_group_at`, `install`).
    Scenario {
        name: "star-ycsb",
        build: || Box::new(Star::new()),
        world: ycsb,
        faults: FaultPlan::none,
        horizon: SECOND,
        golden: 0x950f2f74ebc237ac,
    },
    // Re-pinned from `0xb877ffb7a030fbbd`: Star defers a moved group. A
    // partition-phase transaction whose partition the failover promoted
    // away since the batch was armed used to skip that group and commit the
    // rest; it now defers to the next batch. Commits 100,114 → 100,003,
    // aborts 4,418 → 4,441, fault aborts 4 either way.
    Scenario {
        name: "star-crash-recover",
        build: || Box::new(Star::new()),
        world: ycsb,
        faults: crash_recover,
        horizon: SECOND,
        golden: 0xa93342e698841ea1,
    },
    // Calvin: single-threaded lock manager + deterministic execution
    // (`charge_phase`, `cpu_grant`, `wake_at`, a commit wake that loads
    // the declared write set).
    Scenario {
        name: "calvin-ycsb",
        build: || Box::new(Calvin::new()),
        world: ycsb,
        faults: FaultPlan::none,
        horizon: SECOND,
        golden: 0x75128738457bda64,
    },
    Scenario {
        name: "calvin-crash-recover",
        build: || Box::new(Calvin::new()),
        world: ycsb,
        faults: crash_recover,
        horizon: SECOND,
        golden: 0x392537ece8359cac,
    },
    // Hermes: Calvin's pipeline behind prescient demand migration.
    Scenario {
        name: "hermes-ycsb",
        build: || Box::new(Hermes::new()),
        world: ycsb,
        faults: FaultPlan::none,
        horizon: SECOND,
        golden: 0xd5fce33864d1f5f0,
    },
    Scenario {
        name: "hermes-crash-recover",
        build: || Box::new(Hermes::new()),
        world: ycsb,
        faults: crash_recover,
        horizon: SECOND,
        golden: 0x3a0ed04d0a511eb5,
    },
    // Aria: parallel execution, reservation check, next-batch carry-over.
    Scenario {
        name: "aria-ycsb",
        build: || Box::new(Aria::new()),
        world: ycsb,
        faults: FaultPlan::none,
        horizon: SECOND,
        golden: 0xc0f488845ae16fb8,
    },
    Scenario {
        name: "aria-crash-recover",
        build: || Box::new(Aria::new()),
        world: ycsb,
        faults: crash_recover,
        horizon: SECOND,
        golden: 0x3779bec4599842e6,
    },
    // Lotus: epoch row claims, asynchronous commit at completion time.
    Scenario {
        name: "lotus-ycsb",
        build: || Box::new(Lotus::new()),
        world: ycsb,
        faults: FaultPlan::none,
        horizon: SECOND,
        golden: 0xc5d64df35b1c20b1,
    },
    Scenario {
        name: "lotus-crash-recover",
        build: || Box::new(Lotus::new()),
        world: ycsb,
        faults: crash_recover,
        horizon: SECOND,
        golden: 0xbc413939745c2f14,
    },
    // TPC-C under standard Lion: pinned by PR 19 at its parent commit
    // `dd73b96`, before `validate_at` turned validate-then-lock, aborts
    // stopped releasing locks they never took and partition groups were
    // resolved once — the only golden whose rows are sparse and whose
    // attempts mostly retry (the loop below asserts it aborts at all).
    // Re-pinned once, from `0x580ac03974b6020f`, by fine-tuning alone (ε
    // stays 0.4): it re-reads loads every move, so it stops sending clumps
    // to a node the last move filled; that rule alone gives this digest.
    // Commits 17,544 → 17,571, remasters 30 → 28. Re-pinned again, from
    // `0x0e0486774aed338d`: 2PC installs at its commit slice (the reason
    // `2pc-ycsb` gives). Commits 17,571 → 17,547, aborts 13,784 → 13,749,
    // remasters 28 either way. Re-pinned again, from `0xe2cb874cf689cb98`:
    // loaded TPC-C rows are dense: replica-add copies stop counting a
    // written loaded row twice. Commits 17,547 → 17,639, aborts 13,749 →
    // 13,758, remasters 28 either way.
    Scenario {
        name: "lion-tpcc",
        build: || Box::new(Lion::standard()),
        world: tpcc,
        faults: FaultPlan::none,
        horizon: SECOND / 2,
        golden: 0x71af500e35cd0154,
    },
];

#[test]
fn same_seed_runs_are_bit_identical_and_match_goldens() {
    let mut drift = Vec::new();
    for s in SCENARIOS {
        let a = run(s);
        let b = run(s);
        assert!(a.commits > 0, "{}: no commits", s.name);
        assert!(
            s.name != "lion-tpcc" || a.aborts > 0,
            "lion-tpcc pins the OCC abort path and must take it"
        );
        assert_eq!(
            a.digest(),
            b.digest(),
            "{}: two same-seed runs diverged",
            s.name
        );
        if std::env::var_os("LION_PRINT_DIGESTS").is_some() {
            eprintln!(
                "{}: 0x{:016x}  (commits {}, aborts {}, fault aborts {}, remasters {}, migrations {})",
                s.name,
                a.digest(),
                a.commits,
                a.aborts,
                a.fault_aborts,
                a.remasters,
                a.migrations
            );
        }
        if a.digest() != s.golden {
            drift.push(format!(
                "{}: digest 0x{:016x} departed from the pinned golden 0x{:016x}",
                s.name,
                a.digest(),
                s.golden
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "the run's behavior changed:\n{}",
        drift.join("\n")
    );
}

/// `lion-zone-crash`, pinned by PR 3 (which introduced failure domains):
/// standard Lion on a 4-node / 2-rack cluster under rack-safe placement
/// loses rack Z1 wholesale at 250 ms and heals it at 500 ms. Cross-zone
/// latency is non-zero so zone identity shows on the wire. Re-pinned from
/// `0x9537fd89d4544c40` when a landing remaster began to abort the
/// transactions that executed on its partition: commits 157,759 → 157,680,
/// aborts 31,268 → 31,323, fault aborts 25 either way. Re-pinned again, from
/// `0x20b67b783f2fbbcd`: 2PC installs at its commit slice (the reason
/// `2pc-ycsb` gives). Commits 157,680 → 157,245, aborts 31,323 → 31,648,
/// fault aborts 25 either way.
const ZONE_GOLDEN: u64 = 0x7a2bd845dfb1d7a0;

fn zone_sim() -> SimConfig {
    let mut s = SimConfig {
        nodes: 4,
        partitions_per_node: 3,
        keys_per_partition: 1_000,
        value_size: 32,
        clients_per_node: 8,
        batch_size: 64,
        zones: 2,
        placement: PlacementPolicy::RackSafe { min_zones: 2 },
        ..Default::default()
    };
    s.net.cross_zone_extra_us = 60;
    s
}

fn run_zone_scenario() -> RunReport {
    let cfg = EngineConfig {
        sim: zone_sim(),
        plan_interval_us: 300_000,
        faults: FaultPlan::zone_failure(SECOND / 4, ZoneId(1), SECOND / 2),
        ..EngineConfig::default()
    };
    let mut eng = Engine::new(
        cfg,
        Box::new(YcsbWorkload::new(
            YcsbConfig::for_cluster(4, 3, 1_000)
                .with_mix(0.6, 0.5)
                .with_seed(42),
        )),
    );
    let mut proto = Lion::standard();
    eng.run(&mut proto, SECOND)
}

#[test]
fn zone_crash_scenario_is_reproducible_and_pinned() {
    let a = run_zone_scenario();
    let b = run_zone_scenario();
    assert!(a.commits > 0, "zone scenario committed nothing");
    assert_eq!(a.zone_crashes, 1);
    assert_eq!(a.stalled_partitions, 0, "rack-safe leaves no stalls");
    assert_eq!(
        a.digest(),
        b.digest(),
        "zone scenario diverged under one seed"
    );
    if std::env::var_os("LION_PRINT_DIGESTS").is_some() {
        eprintln!("lion-zone-crash: 0x{:016x}", a.digest());
    }
    assert_eq!(
        a.digest(),
        ZONE_GOLDEN,
        "zone-crash digest 0x{:016x} departed from the pinned golden",
        a.digest()
    );
}

/// `lion-epoch-crash`, pinned by PR 4 (which introduced the durability
/// subsystem): the `lion-crash-recover` scenario of the table above under a
/// 4 ms commit epoch. Client pacing
/// changes under epoch acks (closed-loop clients wait for durability), so
/// this digest is distinct from — and pins behavior alongside — the
/// ack-at-commit goldens above, which the subsystem must leave untouched.
///
/// Re-pinned once, from `0x1644712f1fb2376a`, when the epoch seal became the
/// replication flush. A separate 10 ms flush used to fire at every fifth
/// 4 ms seal, ship the epoch's entries first and let its acks escape with
/// no replication round trip. Every such ack now pays it, which moves the
/// clients' pacing and the replication byte series the digest hashes.
/// Commits, acks and mean ack latency are unchanged; the ack p95/p99 fall
/// from 4,096 to 3,968 and 4,032 µs.
///
/// Re-pinned a second time, from `0x3a6a501b057b9883`: 2PC installs at its
/// commit slice (the reason `2pc-ycsb` gives). Commits 5,746 and acks 5,698
/// are unchanged; aborts 491 → 512.
///
/// Re-pinned a third time, from `0x57dfebfddaf08988`: every epoch-abort
/// retry is priced. The crash's 24 retried clients each pay a resubmission
/// round trip (framing bytes on the wire and `2 × net delay` before they
/// resubmit) where they used to reappear free after the back-off. Commits
/// 5,746, acks 5,698, aborts 512 and retried acks 24 are unchanged; bytes
/// per commit rise from 645.59 to 646.12.
const EPOCH_GOLDEN: u64 = 0xf8a2a051dde07612;

fn run_epoch_scenario() -> RunReport {
    let cfg = EngineConfig {
        sim: sim(),
        plan_interval_us: 300_000,
        faults: FaultPlan::single_failure(SECOND / 4, NodeId(1), SECOND / 2),
        durability: lion::engine::DurabilityConfig::epoch(4_000),
        ..EngineConfig::default()
    };
    let mut eng = Engine::new(cfg, workload(42));
    let mut proto = Lion::standard();
    eng.run(&mut proto, SECOND)
}

#[test]
fn epoch_commit_crash_scenario_is_reproducible_and_pinned() {
    let a = run_epoch_scenario();
    let b = run_epoch_scenario();
    assert!(a.commits > 0, "epoch scenario committed nothing");
    assert_eq!(a.crashes, 1);
    assert_eq!(a.acked_then_lost, 0, "no acked commit may be lost");
    assert!(a.epochs_sealed > 0);
    assert_eq!(
        a.digest(),
        b.digest(),
        "epoch scenario diverged under one seed"
    );
    if std::env::var_os("LION_PRINT_DIGESTS").is_some() {
        eprintln!("lion-epoch-crash: 0x{:016x}", a.digest());
    }
    assert_eq!(
        a.digest(),
        EPOCH_GOLDEN,
        "epoch-commit crash digest 0x{:016x} departed from the pinned golden",
        a.digest()
    );
}

/// `lion-split-brain`, pinned by PR 7 (which introduced quorum fencing) as
/// `0xce14a2f81c5d4bbc`: standard Lion on a 4-node cluster at
/// replication factor 3 under a 5 ms commit epoch takes a 2-v-2 cut at
/// 250 ms with both sides kept live, and the heal at 500 ms applies the
/// shadow promotions, aborts the divergent minority epochs, and retries
/// their clients. The park/fence/heal machinery must be a pure function of
/// the seed, and the goldens above — which never opt into `split_brain` —
/// must not move.
///
/// Re-pinned once, by PR 14's heal fix and for that reason only: the heal
/// used to ask for its replica re-adds while the cut was still open, so each
/// was refused and the refusal discarded; they are now issued after the
/// window closes, so the post-heal run carries their snapshot-copy bytes and
/// `ReplicaAdd` completions where it used to run under-replicated.
///
/// Re-pinned a second time, from `0x41501d8d069e5bd4`, by fine-tuning alone
/// (standard Lion keeps ε = 0.4): when no clump fits an overloaded node's
/// gap to the average, it now sheds the smallest clump that leaves the
/// destination below the source. Re-reading loads every move, without that
/// rule, leaves this digest unchanged.
///
/// Re-pinned a third time, from `0x2e34b07305afb447`, when the epoch seal
/// became the replication flush: the separate 10 ms flush no longer fires at
/// every second 5 ms seal and ships that epoch's entries ahead of it, so
/// those acks now wait out the round trip, which moves the clients' pacing
/// and the replication byte series the digest hashes. Commits, acks,
/// retries and minority commits are unchanged; the ack p50 rises from 4,890
/// to 4,992 µs and one more epoch seals (153 → 154).
///
/// Re-pinned a fourth time, from `0x526c6825676493bd`: 2PC installs at its
/// commit slice (the reason `2pc-ycsb` gives). Commits 4,850 and acks 4,754
/// are unchanged; aborts 450 → 451.
const SPLIT_BRAIN_GOLDEN: u64 = 0x40e1f8e30a7f1acb;

fn run_split_brain_scenario() -> RunReport {
    let cfg = EngineConfig {
        sim: SimConfig {
            nodes: 4,
            replication_factor: 3,
            max_replicas: 4,
            ..sim()
        },
        plan_interval_us: 300_000,
        faults: FaultPlan::new()
            .partition_at(SECOND / 4, vec![NodeId(2), NodeId(3)])
            .heal_at(SECOND / 2)
            .with_split_brain(),
        durability: lion::engine::DurabilityConfig::epoch(5_000),
        ..EngineConfig::default()
    };
    let mut eng = Engine::new(
        cfg,
        Box::new(YcsbWorkload::new(
            YcsbConfig::for_cluster(4, 4, 1_000)
                .with_mix(0.6, 0.5)
                .with_seed(42),
        )),
    );
    let mut proto = Lion::standard();
    eng.run(&mut proto, SECOND)
}

#[test]
fn split_brain_scenario_is_reproducible_and_pinned() {
    let a = run_split_brain_scenario();
    let b = run_split_brain_scenario();
    assert!(a.commits > 0, "split-brain scenario committed nothing");
    assert_eq!(a.partitions_begun, 1);
    assert_eq!(a.partitions_healed, 1);
    assert!(a.minority_commits > 0, "minority side must stay live");
    assert_eq!(a.acked_then_lost, 0, "no acked commit may be lost");
    assert_eq!(
        a.digest(),
        b.digest(),
        "split-brain scenario diverged under one seed"
    );
    if std::env::var_os("LION_PRINT_DIGESTS").is_some() {
        eprintln!("lion-split-brain: 0x{:016x}", a.digest());
    }
    assert_eq!(
        a.digest(),
        SPLIT_BRAIN_GOLDEN,
        "split-brain digest 0x{:016x} departed from the pinned golden",
        a.digest()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Determinism holds for *arbitrary* seeds, not just the pinned ones:
    /// two engines fed the same (engine seed, workload seed, fault toggle)
    /// produce byte-identical report digests. The fault-plan arm drives the
    /// crash → abort-in-flight → failover → recovery machinery, which is
    /// where slab-slot reuse and stale-wake drops would first leak
    /// nondeterminism.
    #[test]
    fn any_seed_is_reproducible(engine_seed in 0u64..1_000_000, wl_seed in 0u64..1_000_000, fault_arm in 0u8..2) {
        let faulty = fault_arm == 1;
        let one = |_| {
            let mut sim = sim();
            sim.seed = engine_seed;
            let faults = if faulty {
                FaultPlan::single_failure(SECOND / 16, NodeId(1), SECOND / 8)
            } else {
                FaultPlan::none()
            };
            let cfg = EngineConfig {
                sim,
                plan_interval_us: 100_000,
                faults,
                ..EngineConfig::default()
            };
            let mut eng = Engine::new(cfg, workload(wl_seed));
            let mut proto = Lion::standard();
            eng.run(&mut proto, SECOND / 4).digest()
        };
        prop_assert_eq!(one(0), one(1));
    }
}
