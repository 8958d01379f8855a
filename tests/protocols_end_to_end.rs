//! End-to-end integration: every protocol runs on a real (simulated)
//! cluster, commits work, and leaves the replicated storage consistent.

use lion::prelude::*;
use lion::storage::Table;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

fn small_sim(nodes: usize) -> SimConfig {
    SimConfig {
        nodes,
        partitions_per_node: 4,
        keys_per_partition: 1024,
        value_size: 32,
        clients_per_node: 4,
        batch_size: 64,
        ..Default::default()
    }
}

fn ycsb(nodes: u32, cross: f64, skew: f64, seed: u64) -> Box<YcsbWorkload> {
    Box::new(YcsbWorkload::new(
        YcsbConfig::for_cluster(nodes, 4, 1024)
            .with_mix(cross, skew)
            .with_seed(seed),
    ))
}

/// After a run plus one final epoch flush, every secondary must hold exactly
/// the primary's state (no lost or phantom replicated writes).
fn assert_replicas_in_sync(eng: &mut Engine) {
    eng.cluster.epoch_flush_for_seal();
    for p in 0..eng.cluster.n_partitions() {
        let part = lion::common::PartitionId(p as u32);
        let primary = eng.cluster.placement.primary_of(part);
        let head = eng
            .cluster
            .store(primary, part)
            .expect("primary store")
            .log
            .head_lsn();
        for &s in eng.cluster.placement.secondaries_of(part) {
            let store = eng.cluster.store(s, part).expect("secondary store");
            assert_eq!(store.lag_behind(head), 0, "{part} secondary on {s} lags");
        }
    }
}

/// Lock audit at the horizon: every row still prepare-locked is held by a
/// transaction that is live, in flight (not parked between attempts) and
/// knows it holds locks — the flag an abort consults before it releases
/// anything. YCSB tables are the dense range `0..keys_per_partition`, so the
/// key walk sees every row. (2PC and Clay end their runs with a handful of
/// rows inside a commit window; the others with none.)
fn audit_locks(eng: &Engine) {
    let keys = eng.config().sim.keys_per_partition;
    for n in 0..eng.cluster.n_nodes() {
        let node = lion::common::NodeId(n as u16);
        for p in 0..eng.cluster.n_partitions() {
            let part = lion::common::PartitionId(p as u32);
            let Some(store) = eng.cluster.store(node, part) else {
                continue;
            };
            for holder in (0..keys).filter_map(|k| store.table.get(k)?.lock()) {
                assert!(
                    eng.is_live(holder) && !eng.txn(holder).parked && eng.txn(holder).holds_locks,
                    "{part} on {node}: row locked by {holder:?}, which is not in flight"
                );
            }
        }
    }
}

fn run_end_to_end(proto: &mut dyn Protocol, cross: f64, skew: f64) -> RunReport {
    let mut eng = Engine::new(small_sim(4), ycsb(4, cross, skew, 99));
    let report = eng.run(proto, SECOND);
    assert!(
        report.commits > 50,
        "{} committed only {}",
        report.protocol,
        report.commits
    );
    eng.cluster
        .check_invariants()
        .unwrap_or_else(|e| panic!("{}: {e}", report.protocol));
    audit_locks(&eng);
    assert_replicas_in_sync(&mut eng);
    report
}

#[test]
fn two_pc_end_to_end() {
    run_end_to_end(&mut lion::baselines::two_pc(), 0.5, 0.0);
}

#[test]
fn leap_end_to_end() {
    let r = run_end_to_end(&mut lion::baselines::leap(), 0.3, 0.0);
    assert!(r.migrations > 0);
}

#[test]
fn clay_end_to_end() {
    run_end_to_end(&mut lion::baselines::clay(), 0.5, 0.7);
}

#[test]
fn lion_standard_end_to_end() {
    let r = run_end_to_end(&mut Lion::standard(), 0.8, 0.0);
    assert!(r.class_fractions[2] < 1.0);
}

#[test]
fn lion_batch_end_to_end() {
    run_end_to_end(&mut Lion::full(), 0.8, 0.0);
}

#[test]
fn star_end_to_end() {
    run_end_to_end(&mut Star::new(), 0.5, 0.0);
}

#[test]
fn calvin_end_to_end() {
    let r = run_end_to_end(&mut Calvin::new(), 0.5, 0.0);
    assert_eq!(r.aborts, 0, "deterministic locking never aborts");
}

#[test]
fn hermes_end_to_end() {
    run_end_to_end(&mut Hermes::new(), 0.5, 0.0);
}

#[test]
fn aria_end_to_end() {
    run_end_to_end(&mut Aria::new(), 0.5, 0.0);
}

#[test]
fn lotus_end_to_end() {
    run_end_to_end(&mut Lotus::new(), 0.5, 0.0);
}

#[test]
fn tpcc_runs_on_lion_and_2pc() {
    for lion_run in [true, false] {
        let wl = Box::new(TpccWorkload::new(
            TpccConfig::for_cluster(4, 4).with_mix(0.5, 0.5),
        ));
        let mut eng = Engine::new(small_sim(4), wl);
        let r = if lion_run {
            eng.run(&mut Lion::standard(), SECOND)
        } else {
            eng.run(&mut lion::baselines::two_pc(), SECOND)
        };
        assert!(r.commits > 20, "tpcc commits {}", r.commits);
        eng.cluster.check_invariants().unwrap();
        assert_replicas_in_sync(&mut eng);
    }
}

/// Convergence at quiesce: a fault-free TPC-C run under Lion, with
/// remasters and replica adds, whose clients switch to read-only filler
/// (dense-range rows TPC-C never touches) for the last quarter, so every
/// TPC-C transaction has committed and released its locks by the horizon.
/// After one final flush every secondary holds its primary's rows: the same
/// `len` and `bytes`, and the same `(version, value)` at every key the run
/// wrote.
#[test]
fn secondaries_equal_their_primary_at_quiesce() {
    // `Workload` is `Send`, so the wrapper records into an `Arc<Mutex<_>>`.
    let written = Arc::new(Mutex::new(BTreeSet::new()));
    let mut tpcc = TpccWorkload::new(TpccConfig::for_cluster(4, 4).with_mix(0.5, 0.5));
    let log = Arc::clone(&written);
    let workload = move |now: Time| {
        if now >= 3 * SECOND / 4 {
            return TxnRequest::new(vec![Op::read(PartitionId(0), now % 1024)]);
        }
        let req = tpcc.next_txn(now);
        let writes = req.ops.iter().filter(|o| o.kind == OpKind::Write);
        let keys = writes.map(|o| (o.partition, o.key));
        log.lock().expect("one thread").extend(keys);
        req
    };
    let cfg = EngineConfig {
        plan_interval_us: SECOND / 8,
        ..EngineConfig::from(small_sim(4))
    };
    let mut eng = Engine::new(cfg, Box::new(workload));
    let r = eng.run(&mut Lion::standard(), SECOND);
    let moves = (r.remasters, r.replica_adds);
    assert!(
        moves.0 > 0 && moves.1 > 0,
        "(remasters, replica adds) {moves:?}"
    );
    eng.cluster.check_invariants().unwrap();
    eng.cluster.epoch_flush_for_seal();
    let written = written.lock().expect("one thread");
    let cluster = &eng.cluster;
    for p in 0..cluster.n_partitions() {
        let part = PartitionId(p as u32);
        let primary = &cluster
            .store(cluster.placement.primary_of(part), part)
            .unwrap()
            .table;
        let row = |t: &Table, key| t.get(key).map(|r| (r.version, r.value, r.lock()));
        for &s in cluster.placement.secondaries_of(part) {
            let secondary = &cluster.store(s, part).unwrap().table;
            assert_eq!(
                (secondary.len(), secondary.bytes()),
                (primary.len(), primary.bytes()),
                "{part} on {s}: (len, bytes)"
            );
            for &(_, key) in written.range((part, 0)..=(part, Key::MAX)) {
                assert_eq!(
                    row(secondary, key),
                    row(primary, key),
                    "{part} on {s}: {key:#x}"
                );
            }
        }
    }
}

#[test]
fn runs_are_deterministic_for_a_seed() {
    let run = || {
        let mut eng = Engine::new(small_sim(2), ycsb(2, 0.5, 0.3, 7));
        let r = eng.run(&mut Lion::standard(), SECOND / 2);
        (r.commits, r.aborts, r.latency_p)
    };
    assert_eq!(run(), run(), "same seed must reproduce bit-for-bit");
}
