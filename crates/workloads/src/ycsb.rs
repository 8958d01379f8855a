//! YCSB workload generator (§VI-A.1) with the paper's dynamic-hotspot
//! schedules (§VI-C.2).
//!
//! Knobs mirror the paper exactly:
//! * `cross_ratio` — fraction of cross-partition transactions; "the
//!   cross-partitioned transactions always access two partitions";
//! * `skew_factor` — node-level skew: 0.8 ⇒ "80% of transactions tend to
//!   access the partitions in the one node";
//! * partner pairing — each partition has a deterministic partner on a
//!   *different* home node, so co-access patterns are stable and learnable
//!   (this is what replica co-location can exploit; 2PC never adapts);
//! * phase schedules — hotspot interval/position changes every 60 s for the
//!   dynamic experiments.

use crate::zipf::Zipf;
use lion_common::{Op, PartitionId, Time, TxnRequest, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One phase of a dynamic schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseCfg {
    /// Phase length in µs.
    pub duration_us: Time,
    /// Cross-partition transaction ratio in this phase.
    pub cross_ratio: f64,
    /// Node-level skew factor in this phase (0 = uniform).
    pub skew_factor: f64,
    /// Partition-id offset: shifts which partitions are hot / co-accessed
    /// (the "partition ID intervals shift among periods" of §VI-C.2).
    pub offset: u32,
}

/// Workload schedule: a static phase or a cycling list of phases.
#[derive(Debug, Clone, PartialEq)]
pub enum Schedule {
    /// One fixed phase forever.
    Static {
        /// Cross-partition ratio.
        cross_ratio: f64,
        /// Node-level skew factor.
        skew_factor: f64,
    },
    /// Cycle through phases (each with its own duration), repeating.
    Cycle(Vec<PhaseCfg>),
}

impl Schedule {
    /// The varying-hotspot-interval scenario (Fig. 8a): uniform access whose
    /// partition-id interval shifts by `shift` every `period_us`.
    pub fn interval_shift(period_us: Time, n_phases: u32, shift: u32, cross_ratio: f64) -> Self {
        let phases = (0..n_phases)
            .map(|i| PhaseCfg {
                duration_us: period_us,
                cross_ratio,
                skew_factor: 0.0,
                offset: i * shift,
            })
            .collect();
        Schedule::Cycle(phases)
    }

    /// The varying-hotspot-position scenario (Fig. 8b): periods A–D —
    /// uniform/50%, skew/50%, skew/100%, skew/100% with an id offset.
    pub fn position_shift(period_us: Time, skew: f64, offset: u32) -> Self {
        Schedule::Cycle(vec![
            PhaseCfg {
                duration_us: period_us,
                cross_ratio: 0.5,
                skew_factor: 0.0,
                offset: 0,
            },
            PhaseCfg {
                duration_us: period_us,
                cross_ratio: 0.5,
                skew_factor: skew,
                offset: 0,
            },
            PhaseCfg {
                duration_us: period_us,
                cross_ratio: 1.0,
                skew_factor: skew,
                offset: 0,
            },
            PhaseCfg {
                duration_us: period_us,
                cross_ratio: 1.0,
                skew_factor: skew,
                offset,
            },
        ])
    }

    /// Resolves the active phase at virtual time `now`.
    pub fn phase_at(&self, now: Time) -> PhaseCfg {
        match self {
            Schedule::Static {
                cross_ratio,
                skew_factor,
            } => PhaseCfg {
                duration_us: Time::MAX,
                cross_ratio: *cross_ratio,
                skew_factor: *skew_factor,
                offset: 0,
            },
            Schedule::Cycle(phases) => {
                debug_assert!(!phases.is_empty());
                let total: Time = phases.iter().map(|p| p.duration_us).sum();
                let mut t = now % total.max(1);
                for p in phases {
                    if t < p.duration_us {
                        return *p;
                    }
                    t -= p.duration_us;
                }
                *phases.last().expect("non-empty")
            }
        }
    }
}

/// Operations per transaction: the paper-standard 10 (§VI-A.1).
const OPS_PER_TXN: usize = 10;

/// Intra-partition key skew θ: uniform keys, the paper's skew being
/// node-level (`skew_factor`).
const KEY_THETA: f64 = 0.0;

/// YCSB configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct YcsbConfig {
    /// Total partitions (nodes × partitions/node).
    pub n_partitions: u32,
    /// Initial partitions per node (defines home nodes for skew targeting).
    pub partitions_per_node: u32,
    /// Rows per partition.
    pub keys_per_partition: u64,
    /// Fraction of read operations.
    pub read_ratio: f64,
    /// Access schedule.
    pub schedule: Schedule,
    /// RNG seed.
    pub seed: u64,
}

impl YcsbConfig {
    /// The paper's default setup for a given cluster shape.
    pub fn for_cluster(nodes: u32, partitions_per_node: u32, keys_per_partition: u64) -> Self {
        YcsbConfig {
            n_partitions: nodes * partitions_per_node,
            partitions_per_node,
            keys_per_partition,
            read_ratio: 0.5,
            schedule: Schedule::Static {
                cross_ratio: 0.0,
                skew_factor: 0.0,
            },
            seed: 0x5EED_EC5B,
        }
    }

    /// Sets a static cross-partition ratio and skew factor.
    pub fn with_mix(mut self, cross_ratio: f64, skew_factor: f64) -> Self {
        self.schedule = Schedule::Static {
            cross_ratio,
            skew_factor,
        };
        self
    }

    /// Sets a dynamic schedule.
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The YCSB transaction generator.
pub struct YcsbWorkload {
    cfg: YcsbConfig,
    rng: SmallRng,
    key_dist: Zipf,
}

impl YcsbWorkload {
    /// Builds the generator.
    pub fn new(cfg: YcsbConfig) -> Self {
        assert!(
            cfg.n_partitions >= 2,
            "cross transactions need two partitions"
        );
        let key_dist = Zipf::new(cfg.keys_per_partition, KEY_THETA);
        YcsbWorkload {
            rng: SmallRng::seed_from_u64(cfg.seed),
            cfg,
            key_dist,
        }
    }

    /// Configuration accessor.
    pub fn config(&self) -> &YcsbConfig {
        &self.cfg
    }

    /// Picks the "primary" partition of a transaction under the phase's
    /// skew: with probability `skew_factor`, one of the hot node's
    /// partitions; otherwise uniform.
    fn pick_partition(&mut self, phase: &PhaseCfg) -> u32 {
        let n = self.cfg.n_partitions;
        let ppn = self.cfg.partitions_per_node;
        let raw = if self.rng.gen::<f64>() < phase.skew_factor {
            // Hot node = node 0's initial partitions (ids ≡ 0 mod nodes
            // under round-robin: those are 0, nodes, 2*nodes, ...). We use
            // the first `ppn` partition ids whose home is node 0.
            let nodes = n / ppn;
            let slot = self.rng.gen_range(0..ppn);
            slot * nodes // id ≡ 0 (mod nodes) → home node 0
        } else {
            self.rng.gen_range(0..n)
        };
        (raw + phase.offset) % n
    }

    /// The deterministic partner of partition `p` (cross transactions).
    /// XOR-adjacent pairing in offset space: symmetric and disjoint, so the
    /// co-access graph decomposes into clumps of two that a placement can
    /// fully localize; the two partitions of a pair start on different
    /// home nodes under round-robin placement. The phase offset re-pairs
    /// partitions on hotspot shifts.
    fn partner(&self, p: u32, phase: &PhaseCfg) -> u32 {
        let n = self.cfg.n_partitions;
        let x = (p + phase.offset) % n;
        let y = x ^ 1;
        if y >= n {
            return p; // odd tail partition pairs with itself (single-part)
        }
        (y + n - (phase.offset % n)) % n
    }
}

impl Workload for YcsbWorkload {
    fn next_txn(&mut self, now: Time) -> TxnRequest {
        let phase = self.cfg.schedule.phase_at(now);
        let a = self.pick_partition(&phase);
        let cross = self.rng.gen::<f64>() < phase.cross_ratio;
        let b = if cross {
            Some(self.partner(a, &phase))
        } else {
            None
        };

        let mut ops = Vec::with_capacity(OPS_PER_TXN);
        for i in 0..OPS_PER_TXN {
            // Cross transactions keep most work at the home partition and
            // touch the partner with ~20% of their ops (so higher cross
            // ratios add coordination without offloading the hot node).
            let part = match b {
                Some(b) if i % 5 == 4 => b,
                _ => a,
            };
            let key = self.key_dist.sample_scrambled(&mut self.rng);
            let op = if self.rng.gen::<f64>() < self.cfg.read_ratio {
                Op::read(PartitionId(part), key)
            } else {
                Op::write(PartitionId(part), key)
            };
            ops.push(op);
        }
        TxnRequest::new(ops)
    }

    fn name(&self) -> &str {
        "ycsb"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> YcsbConfig {
        YcsbConfig::for_cluster(4, 12, 1000)
    }

    #[test]
    fn single_partition_when_cross_zero() {
        let mut w = YcsbWorkload::new(cfg().with_mix(0.0, 0.0));
        for _ in 0..200 {
            let t = w.next_txn(0);
            assert!(t.is_single_partition());
            assert_eq!(t.ops.len(), 10);
        }
    }

    #[test]
    fn cross_txns_access_exactly_two_partitions() {
        let mut w = YcsbWorkload::new(cfg().with_mix(1.0, 0.0));
        for _ in 0..200 {
            let t = w.next_txn(0);
            assert_eq!(t.partitions().len(), 2, "always two partitions (§VI-A.1)");
        }
    }

    #[test]
    fn partner_lands_on_a_different_home_node() {
        let w = YcsbWorkload::new(cfg().with_mix(1.0, 0.0));
        let phase = w.cfg.schedule.phase_at(0);
        let nodes = 4u32;
        for p in 0..48 {
            let q = w.partner(p, &phase);
            assert_ne!(
                p % nodes,
                q % nodes,
                "partner of {p} is {q}: same round-robin home"
            );
        }
    }

    #[test]
    fn pairing_is_symmetric_and_disjoint() {
        let w = YcsbWorkload::new(cfg().with_mix(1.0, 0.0));
        for offset in [0u32, 7, 16] {
            let phase = PhaseCfg {
                duration_us: 0,
                cross_ratio: 1.0,
                skew_factor: 0.0,
                offset,
            };
            for p in 0..48 {
                let q = w.partner(p, &phase);
                assert_eq!(
                    w.partner(q, &phase),
                    p,
                    "offset {offset}: partner not symmetric"
                );
            }
        }
    }

    #[test]
    fn offset_changes_the_pairing() {
        let w = YcsbWorkload::new(cfg().with_mix(1.0, 0.0));
        let a = PhaseCfg {
            duration_us: 0,
            cross_ratio: 1.0,
            skew_factor: 0.0,
            offset: 0,
        };
        let b = PhaseCfg {
            duration_us: 0,
            cross_ratio: 1.0,
            skew_factor: 0.0,
            offset: 7,
        };
        let changed = (0..48)
            .filter(|&p| w.partner(p, &a) != w.partner(p, &b))
            .count();
        assert!(
            changed > 24,
            "offset must re-pair most partitions: {changed}"
        );
    }

    #[test]
    fn skew_targets_one_node() {
        let mut w = YcsbWorkload::new(cfg().with_mix(0.0, 0.8));
        let nodes = 4;
        let mut on_hot = 0;
        const N: usize = 2000;
        for _ in 0..N {
            let t = w.next_txn(0);
            let p = t.partitions()[0].0;
            if p.is_multiple_of(nodes) {
                on_hot += 1;
            }
        }
        let frac = on_hot as f64 / N as f64;
        // 0.8 skew + 0.2*0.25 uniform → ~85% on node 0
        assert!(frac > 0.75, "hot-node share {frac}");
    }

    #[test]
    fn cross_ratio_statistics() {
        let mut w = YcsbWorkload::new(cfg().with_mix(0.5, 0.0));
        let mut cross = 0;
        const N: usize = 2000;
        for _ in 0..N {
            if w.next_txn(0).partitions().len() == 2 {
                cross += 1;
            }
        }
        let frac = cross as f64 / N as f64;
        assert!((frac - 0.5).abs() < 0.05, "cross share {frac}");
    }

    #[test]
    fn interval_shift_changes_accessed_partitions() {
        let sched = Schedule::interval_shift(60_000_000, 3, 16, 0.0);
        let cfg = cfg().with_schedule(sched);
        let mut w = YcsbWorkload::new(cfg);
        let collect = |w: &mut YcsbWorkload, at: Time| -> std::collections::HashSet<u32> {
            (0..300).map(|_| w.next_txn(at).partitions()[0].0).collect()
        };
        let phase0 = collect(&mut w, 0);
        let phase1 = collect(&mut w, 61_000_000);
        // both cover partitions, but the offset changes the mapping; with
        // uniform access over all 48 partitions both phases cover everything,
        // so instead check the schedule resolution directly:
        assert_eq!(w.cfg.schedule.phase_at(0).offset, 0);
        assert_eq!(w.cfg.schedule.phase_at(61_000_000).offset, 16);
        assert_eq!(w.cfg.schedule.phase_at(121_000_000).offset, 32);
        assert_eq!(w.cfg.schedule.phase_at(181_000_000).offset, 0, "cycles");
        assert!(!phase0.is_empty() && !phase1.is_empty());
    }

    #[test]
    fn position_shift_phases_match_paper_scenario() {
        let s = Schedule::position_shift(60_000_000, 0.8, 24);
        let a = s.phase_at(30_000_000);
        let b = s.phase_at(90_000_000);
        let c = s.phase_at(150_000_000);
        let d = s.phase_at(210_000_000);
        assert_eq!(
            (a.cross_ratio, a.skew_factor),
            (0.5, 0.0),
            "A: uniform, 50%"
        );
        assert_eq!((b.cross_ratio, b.skew_factor), (0.5, 0.8), "B: skew, 50%");
        assert_eq!((c.cross_ratio, c.skew_factor), (1.0, 0.8), "C: skew, 100%");
        assert_eq!(
            (d.cross_ratio, d.skew_factor, d.offset),
            (1.0, 0.8, 24),
            "D: shifted"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = YcsbWorkload::new(cfg().with_mix(0.5, 0.5).with_seed(9));
        let mut b = YcsbWorkload::new(cfg().with_mix(0.5, 0.5).with_seed(9));
        for _ in 0..50 {
            assert_eq!(a.next_txn(123).ops, b.next_txn(123).ops);
        }
    }
}
