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
/// anything. Every table's lock list names every locked row, dense or
/// inserted. (2PC and Clay end their runs with a handful of rows inside a
/// commit window; the others with none.)
fn audit_locks(eng: &Engine) {
    for n in 0..eng.cluster.n_nodes() {
        let node = lion::common::NodeId(n as u16);
        for p in 0..eng.cluster.n_partitions() {
            let part = lion::common::PartitionId(p as u32);
            let Some(store) = eng.cluster.store(node, part) else {
                continue;
            };
            for (_, holder) in store.table.held_locks() {
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

/// A batch protocol that checks, after every batch it arms, that no
/// still-live member holds a read or write set: a declared attempt loads
/// its write set in the event that commits it, so a hand-off landing
/// between arming and commit finds nothing to strand.
struct HoldsNothingBetweenEvents<P>(P);

impl<P: Protocol> Protocol for HoldsNothingBetweenEvents<P> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn batch_mode(&self) -> bool {
        self.0.batch_mode()
    }
    fn on_submit(&mut self, eng: &mut Engine, txn: TxnId) {
        self.0.on_submit(eng, txn);
    }
    fn on_wake(&mut self, eng: &mut Engine, txn: TxnId, tag: u32) {
        self.0.on_wake(eng, txn, tag);
    }
    fn on_tick(&mut self, eng: &mut Engine, kind: TickKind) {
        self.0.on_tick(eng, kind);
    }
    fn on_batch(&mut self, eng: &mut Engine, batch: &[TxnId]) {
        self.0.on_batch(eng, batch);
        for &t in batch.iter().filter(|&&t| eng.is_live(t)) {
            let ctx = eng.txn(t);
            assert!(
                ctx.read_set.is_empty() && ctx.write_set.is_empty(),
                "{}: {t:?} holds sets after its batch was armed",
                self.0.name()
            );
        }
    }
    fn on_fault(&mut self, eng: &mut Engine, notice: &FaultNotice) {
        self.0.on_fault(eng, notice);
    }
}

#[test]
fn batch_attempts_hold_no_sets_between_events() {
    fn check<P: Protocol>(proto: P) -> RunReport {
        let mut wrapped = HoldsNothingBetweenEvents(proto);
        run_end_to_end(&mut wrapped, 0.8, 0.0)
    }
    check(Star::new());
    check(Calvin::new());
    let r = check(Hermes::new());
    assert!(r.migrations > 0, "Hermes migrates on cross-partition YCSB");
    check(Aria::new());
    check(Lotus::new());
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
        audit_locks(&eng);
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
        let row = |t: &Table, key| {
            let row = t.get(key).map(|r| (r.version(), r.value()));
            (row, t.lock_holder(key))
        };
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
