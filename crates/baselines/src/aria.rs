//! Aria (§VI-A.2): deterministic batches without pre-declared dependencies
//! at the scheduler.
//!
//! "It introduces an optimistic write reservation technique to execute the
//! transactions without coordination ... To reduce the abort ratio, it
//! designs a reordering mechanism that costs an additional 20% latency"
//! (§VI-G). The whole batch executes in parallel; reservations are then
//! checked in deterministic order: WAW conflicts abort, and RAW conflicts
//! abort unless reordering can flip them (no accompanying WAR). Aborted
//! transactions carry over to the next batch.

use crate::batch::{
    self, batch_barrier_rtt, charge_replication, distributed_commit_rounds, execute_at_owners,
    finish_at, Finish,
};
use lion_common::{FastMap, OpKind, Phase, Time, TxnId};
use lion_engine::{cpu, Engine, Protocol};

/// The Aria baseline.
#[derive(Default)]
pub struct Aria {
    /// Diagnostics: reservation conflicts per kind (waw, raw+war).
    pub waw_aborts: u64,
    /// RAW+WAR conflicts that reordering could not resolve.
    pub raw_aborts: u64,
}

impl Aria {
    /// Builds Aria.
    pub fn new() -> Self {
        Aria::default()
    }
}

impl Protocol for Aria {
    fn name(&self) -> &'static str {
        "Aria"
    }

    fn batch_mode(&self) -> bool {
        true
    }

    fn on_submit(&mut self, _: &mut Engine, _: TxnId) {}

    fn on_batch(&mut self, eng: &mut Engine, batch: &[TxnId]) {
        let now = eng.now();
        // ---- Execution phase: everything runs in parallel ---------------
        let mut completion: Vec<Time> = Vec::with_capacity(batch.len());
        let mut res_w: FastMap<(u32, u64), usize> = FastMap::default();
        let mut res_r: FastMap<(u32, u64), usize> = FastMap::default();
        for (i, &t) in batch.iter().enumerate() {
            eng.load_declared_sets(t);
            let (mut done, owners) = execute_at_owners(eng, t, now);
            if owners.len() > 1 {
                // Distributed: remote reads + the costly distributed commit
                // round (latency and participant CPU) that erodes Aria at
                // high cross ratios (§VI-D.1). Participant sets spanning a
                // rack pay the cross-zone surcharge per round, like the
                // other figf2 protocols.
                done = distributed_commit_rounds(eng, t, &owners, done, 64).0;
            }
            eng.charge_phase(t, Phase::Execution, done - now);
            completion.push(done);
            // Reservations in deterministic (batch) order: first wins.
            for op in &eng.txn(t).req.ops {
                let k = (op.partition.0, op.key);
                match op.kind {
                    OpKind::Write => {
                        res_w.entry(k).or_insert(i);
                    }
                    OpKind::Read => {
                        res_r.entry(k).or_insert(i);
                    }
                }
            }
        }

        // ---- Barrier + commit phase in deterministic order --------------
        let exec_end = completion.iter().copied().max().unwrap_or(now);
        // The reservation-check barrier reaches every live node; the
        // farthest (possibly cross-rack) round trip gates it.
        let barrier_rtt = batch_barrier_rtt(eng, 16);
        // The reordering pass costs "an additional 20% latency".
        let reorder = (exec_end - now) / 5;
        let barrier = exec_end + barrier_rtt + reorder;

        for (i, &t) in batch.iter().enumerate() {
            let mut waw = false;
            let mut raw = false;
            let mut war = false;
            for op in &eng.txn(t).req.ops {
                let k = (op.partition.0, op.key);
                match op.kind {
                    OpKind::Write => {
                        if res_w.get(&k).is_some_and(|&j| j < i) {
                            waw = true;
                        }
                        if res_r.get(&k).is_some_and(|&j| j < i) {
                            war = true;
                        }
                    }
                    OpKind::Read => {
                        if res_w.get(&k).is_some_and(|&j| j < i) {
                            raw = true;
                        }
                    }
                }
            }
            // Aria's commit rule with deterministic reordering: abort on
            // WAW; abort on RAW only when a WAR also exists.
            let abort = waw || (raw && war);
            eng.charge_phase(t, Phase::Commit, barrier.saturating_sub(completion[i]));
            if abort {
                if waw {
                    self.waw_aborts += 1;
                } else {
                    self.raw_aborts += 1;
                }
                finish_at(eng, t, barrier, Finish::Defer);
            } else {
                charge_replication(eng, t, barrier);
                finish_at(eng, t, barrier + cpu::INSTALL_US, Finish::Commit);
            }
        }
    }

    fn on_wake(&mut self, eng: &mut Engine, txn: TxnId, tagv: u32) {
        batch::on_wake(eng, txn, tagv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lion_common::{Op, PartitionId, SimConfig, TxnRequest, SECOND};
    use lion_workloads::{YcsbConfig, YcsbWorkload};

    fn cfg() -> SimConfig {
        SimConfig {
            nodes: 4,
            partitions_per_node: 4,
            // enough rows that same-batch birthday collisions are rare, as
            // at the paper's 24M-row scale
            keys_per_partition: 4096,
            value_size: 32,
            batch_size: 64,
            ..Default::default()
        }
    }

    #[test]
    fn aria_commits_conflict_free_batches() {
        let wl = Box::new(YcsbWorkload::new(
            YcsbConfig::for_cluster(4, 4, 4096)
                .with_mix(0.2, 0.0)
                .with_seed(31),
        ));
        let mut eng = Engine::new(cfg(), wl);
        let r = eng.run(&mut Aria::new(), SECOND);
        assert!(r.commits > 500, "commits {}", r.commits);
        assert!(
            r.abort_rate < 0.1,
            "uniform workload: few conflicts, got {}",
            r.abort_rate
        );
    }

    #[test]
    fn cross_zone_surcharge_prices_barrier_and_commit_rounds() {
        // Same seed, same workload: the only difference is the rack
        // surcharge. p50 latency must rise by at least one barrier hop —
        // the flat pricing the ROADMAP flagged would keep them identical.
        let p50 = |extra: u64| {
            let mut c = cfg();
            c.zones = 2;
            c.net.cross_zone_extra_us = extra;
            let wl = Box::new(YcsbWorkload::new(
                YcsbConfig::for_cluster(4, 4, 4096)
                    .with_mix(1.0, 0.0)
                    .with_seed(33),
            ));
            let mut eng = Engine::new(c, wl);
            eng.run(&mut Aria::new(), SECOND).latency_p[1]
        };
        let flat = p50(0);
        let zoned = p50(500);
        assert!(
            zoned >= flat + 500,
            "cross-zone batches must pay the surcharge: flat {flat} vs zoned {zoned}"
        );
    }

    #[test]
    fn waw_conflicts_defer_to_next_batch() {
        // Every transaction writes the same key: only the first of each
        // batch commits, the rest defer.
        let wl = Box::new(move |_now| TxnRequest::new(vec![Op::write(PartitionId(0), 0)]));
        let mut c = cfg();
        c.batch_size = 16;
        let mut eng = Engine::new(c, wl);
        let mut proto = Aria::new();
        let r = eng.run(&mut proto, SECOND / 2);
        assert!(r.commits > 0);
        assert!(proto.waw_aborts > 0, "WAW conflicts expected");
        assert!(
            r.abort_rate > 0.5,
            "heavy contention: abort rate {}",
            r.abort_rate
        );
        // deferred transactions eventually commit (carry-over works)
        assert!(r.commits >= 10);
    }

    #[test]
    fn reordering_saves_pure_raw_conflicts() {
        // T(2k): read key 0, write key 1. T(2k+1): write key 0. The readers
        // have RAW on key 0 against... actually writer comes *after* the
        // reader in batch order half the time; reordering commits pure-RAW
        // cases, so the abort rate stays far below the WAW-hammer case.
        let mut i = 0u64;
        let wl = Box::new(move |_now| {
            i += 1;
            if i.is_multiple_of(2) {
                TxnRequest::new(vec![
                    Op::read(PartitionId(0), 0),
                    Op::write(PartitionId(0), 1 + (i / 2) % 50),
                ])
            } else {
                TxnRequest::new(vec![Op::write(PartitionId(0), 0)])
            }
        });
        let mut c = cfg();
        c.batch_size = 16;
        let mut eng = Engine::new(c, wl);
        let mut proto = Aria::new();
        let r = eng.run(&mut proto, SECOND / 2);
        assert!(r.commits > 0);
        // the writers WAW-conflict with each other; readers mostly survive
        assert!(proto.waw_aborts > 0);
        assert!(
            proto.raw_aborts < proto.waw_aborts,
            "reordering resolves pure RAW: raw={} waw={}",
            proto.raw_aborts,
            proto.waw_aborts
        );
    }
}
