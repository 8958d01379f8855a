//! Lotus (§VI-A.2): epoch-based execution with granule locks and
//! asynchronous commit.
//!
//! "It is implemented with granule locks to enhance concurrency and
//! introduces batch execution/commit for overlapping computation,
//! communication, and asynchronous replication." The flip side the paper
//! measures: "Lotus maintains locks until the end of an epoch, leading to
//! transaction aborts and re-executions" under contention, and "a costly
//! commit protocol for distributed transactions" at high cross ratios.

use crate::batch::{
    self, charge_replication, distributed_commit_rounds, execute_at_owners, finish_at, Finish,
};
use lion_common::{FastSet, OpKind, Phase, Time, TxnId};
use lion_engine::{Engine, Protocol};

/// The Lotus baseline.
#[derive(Default)]
pub struct Lotus {
    /// Diagnostics: granule-claim conflicts.
    pub claim_conflicts: u64,
}

impl Lotus {
    /// Builds Lotus.
    pub fn new() -> Self {
        Lotus::default()
    }
}

impl Protocol for Lotus {
    fn name(&self) -> &'static str {
        "Lotus"
    }

    fn batch_mode(&self) -> bool {
        true
    }

    fn on_submit(&mut self, _: &mut Engine, _: TxnId) {}

    fn on_batch(&mut self, eng: &mut Engine, batch: &[TxnId]) {
        let now = eng.now();
        // Granule (row) claims held until epoch end: the first transaction
        // of the epoch to touch a row owns it; later conflicting ones abort
        // and re-execute next epoch.
        let mut claimed_w: FastSet<(u32, u64)> = FastSet::default();
        let mut claimed_r: FastSet<(u32, u64)> = FastSet::default();
        let mut epoch_end: Time = now;
        let mut winners: Vec<(TxnId, Time)> = Vec::new();
        let mut losers: Vec<TxnId> = Vec::new();

        for &t in batch {
            let conflict = eng.txn(t).req.ops.iter().any(|op| {
                let k = (op.partition.0, op.key);
                match op.kind {
                    OpKind::Write => claimed_w.contains(&k) || claimed_r.contains(&k),
                    OpKind::Read => claimed_w.contains(&k),
                }
            });
            if conflict {
                self.claim_conflicts += 1;
                losers.push(t);
                continue;
            }
            for op in &eng.txn(t).req.ops {
                let k = (op.partition.0, op.key);
                match op.kind {
                    OpKind::Write => {
                        claimed_w.insert(k);
                    }
                    OpKind::Read => {
                        claimed_r.insert(k);
                    }
                }
            }
            // Execute: per-node CPU in parallel; zero scheduling time (the
            // epoch structure replaces a lock manager, §VI-G).
            let (mut done, owners) = execute_at_owners(eng, t, now);
            if owners.len() > 1 {
                // Distributed transactions pay the full commit protocol:
                // two coordination rounds of latency plus prepare/commit
                // handling CPU at every participant. Each round pays the
                // cross-zone surcharge when the participants span racks.
                let (end, rounds) = distributed_commit_rounds(eng, t, &owners, done, 48);
                eng.charge_phase(t, Phase::Commit, rounds);
                done = end;
            }
            eng.charge_phase(t, Phase::Execution, done - now);
            charge_replication(eng, t, done);
            epoch_end = epoch_end.max(done);
            winners.push((t, done));
        }

        // Asynchronous commit: winners become visible at their completion
        // (not at the barrier) — Lotus's low median latency (Fig. 14a).
        for (t, done) in winners {
            finish_at(eng, t, done, Finish::Commit);
        }
        // Claim losers hold until epoch end, then re-execute next epoch —
        // the high tail latency of Fig. 14a.
        for t in losers {
            eng.charge_phase(t, Phase::Other, epoch_end - now);
            finish_at(eng, t, epoch_end, Finish::Defer);
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
    fn lotus_excels_on_low_cross_ratio() {
        let mk = |cross: f64| {
            let wl = Box::new(YcsbWorkload::new(
                YcsbConfig::for_cluster(4, 4, 4096)
                    .with_mix(cross, 0.0)
                    .with_seed(41),
            ));
            let mut eng = Engine::new(cfg(), wl);
            eng.run(&mut Lotus::new(), SECOND).throughput_tps
        };
        let low = mk(0.0);
        let high = mk(1.0);
        assert!(
            low > high * 1.3,
            "Lotus must degrade with cross ratio: low {low:.0} vs high {high:.0}"
        );
    }

    #[test]
    fn cross_zone_surcharge_prices_distributed_commit() {
        let p50 = |extra: u64| {
            // Two nodes, each its own rack: the YCSB partner pairing (p ↔
            // p^1) lands on adjacent nodes, so every cross pair crosses the
            // rack boundary and pays the surcharge.
            let mut c = SimConfig { nodes: 2, ..cfg() }.with_zones(2);
            c.net.cross_zone_extra_us = extra;
            let wl = Box::new(YcsbWorkload::new(
                YcsbConfig::for_cluster(2, 4, 4096)
                    .with_mix(1.0, 0.0)
                    .with_seed(43),
            ));
            let mut eng = Engine::new(c, wl);
            eng.run(&mut Lotus::new(), SECOND).latency_p[1]
        };
        let flat = p50(0);
        let zoned = p50(400);
        assert!(
            zoned > flat,
            "cross-rack commit rounds must pay the surcharge: flat {flat} vs zoned {zoned}"
        );
    }

    #[test]
    fn epoch_claims_abort_contended_rows() {
        let wl = Box::new(move |_now| TxnRequest::new(vec![Op::write(PartitionId(0), 0)]));
        let mut c = cfg();
        c.batch_size = 16;
        let mut eng = Engine::new(c, wl);
        let mut proto = Lotus::new();
        let r = eng.run(&mut proto, SECOND / 2);
        assert!(proto.claim_conflicts > 0);
        assert!(r.aborts > 0, "claim losers re-execute");
        assert!(r.commits > 0, "one winner per epoch still commits");
        // claim losers dominate: most attempts abort and re-execute
        assert!(r.abort_rate > 0.5, "abort rate {}", r.abort_rate);
    }

    #[test]
    fn uniform_workload_rarely_conflicts() {
        let wl = Box::new(YcsbWorkload::new(
            YcsbConfig::for_cluster(4, 4, 4096)
                .with_mix(0.0, 0.0)
                .with_seed(42),
        ));
        let mut eng = Engine::new(cfg(), wl);
        let mut proto = Lotus::new();
        let r = eng.run(&mut proto, SECOND);
        assert!(r.abort_rate < 0.1, "abort rate {}", r.abort_rate);
        assert!(r.commits > 500);
    }
}
