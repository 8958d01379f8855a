//! Lotus (§VI-A.2): epoch-based execution with granule locks and
//! asynchronous commit.
//!
//! "It is implemented with granule locks to enhance concurrency and
//! introduces batch execution/commit for overlapping computation,
//! communication, and asynchronous replication." The flip side the paper
//! measures: "Lotus maintains locks until the end of an epoch, leading to
//! transaction aborts and re-executions" under contention, and "a costly
//! commit protocol for distributed transactions" at high cross ratios.

use crate::calvin::{charge_replication, zone_surcharge};
use lion_common::{FastMap, FastSet, NodeId, OpKind, Phase, Time, TxnId};
use lion_engine::tags::{fresh, tag, untag};
use lion_engine::{Engine, Protocol, TxnClass};

const K_COMMIT: u8 = 1;
const K_ABORT: u8 = 2;

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
            eng.load_declared_sets(t);
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
            let mut by_node: FastMap<NodeId, (usize, usize)> = FastMap::default();
            for op in &eng.txn(t).req.ops {
                let n = eng.cluster.placement.primary_of(op.partition);
                let e = by_node.entry(n).or_insert((0, 0));
                match op.kind {
                    OpKind::Read => e.0 += 1,
                    OpKind::Write => e.1 += 1,
                }
            }
            let n_nodes = by_node.len();
            let nodes: Vec<NodeId> = by_node.keys().copied().collect();
            let mut done = now;
            for (node, (r, w)) in by_node {
                let (_, end) = eng.cpu_grant(node, now, eng.op_cpu(r, w));
                done = done.max(end);
            }
            if n_nodes > 1 {
                // Distributed transactions pay the full commit protocol:
                // two coordination rounds of latency plus prepare/commit
                // handling CPU at every participant. Each round pays the
                // cross-zone surcharge when the participants span racks.
                let rtt = eng.cluster.net_delay(48)
                    + eng.cluster.net_delay(16)
                    + zone_surcharge(eng, &nodes);
                done += 2 * rtt;
                let commit_cpu = eng.config().sim.cpu.validate_us
                    + eng.config().sim.cpu.install_us
                    + 2 * eng.config().sim.cpu.msg_handle_us;
                for node in nodes {
                    let (_, end) = eng.cpu_grant(node, done, commit_cpu);
                    done = done.max(end);
                }
                eng.txn_mut(t).class = TxnClass::Distributed;
                eng.charge_phase(t, Phase::Commit, 2 * rtt);
            }
            eng.charge_phase(t, Phase::Execution, done - now);
            charge_replication(eng, t, done);
            epoch_end = epoch_end.max(done);
            winners.push((t, done));
        }

        // Asynchronous commit: winners become visible at their completion
        // (not at the barrier) — Lotus's low median latency (Fig. 14a).
        for (t, done) in winners {
            let attempt = eng.txn(t).attempts;
            eng.wake_at(done, t, tag(K_COMMIT, attempt, 0));
        }
        // Claim losers hold until epoch end, then re-execute next epoch —
        // the high tail latency of Fig. 14a.
        for t in losers {
            eng.charge_phase(t, Phase::Other, epoch_end - now);
            let attempt = eng.txn(t).attempts;
            eng.wake_at(epoch_end, t, tag(K_ABORT, attempt, 0));
        }
    }

    fn on_wake(&mut self, eng: &mut Engine, txn: TxnId, tagv: u32) {
        let (kind, attempt, _) = untag(tagv);
        if !fresh(attempt, eng.txn(txn).attempts) {
            return;
        }
        match kind {
            K_COMMIT => {
                eng.install_unchecked(txn);
                eng.commit(txn);
            }
            K_ABORT => eng.abort_defer(txn),
            _ => unreachable!(),
        }
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
            let mut c = cfg();
            c.zones = 2;
            // Interleaved racks: the YCSB partner pairing (p ↔ p^1) lands on
            // adjacent nodes, so contiguous blocks would make every cross
            // pair rack-local and never exercise the surcharge.
            c.zone_map = vec![0, 1, 0, 1];
            c.net.cross_zone_extra_us = extra;
            let wl = Box::new(YcsbWorkload::new(
                YcsbConfig::for_cluster(4, 4, 4096)
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
