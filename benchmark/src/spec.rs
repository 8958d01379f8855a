//! The four workloads of record: what each runs, and why it exists (the
//! one-line reasons are also in `BENCHMARK.json`, at more length in the README).
//!
//! Every workload shares one cluster shape (4 nodes × 8 partitions × 4 000
//! keys, 64 B values, 24 closed-loop clients per node or 256-transaction
//! batches in batch mode, 500 ms planner ticks, `ObsMode::Full`) and differs
//! in the request mix, the protocol, and the fault/durability configuration —
//! so a difference between two workloads is a difference in which layers do
//! the work, not in how much data there is.

use lion::prelude::*;

/// Nodes in every workload's cluster.
pub const NODES: u32 = 4;
/// Partitions (TPC-C: warehouses) per node.
pub const PARTS_PER_NODE: u32 = 8;
/// Rows per partition at start.
pub const KEYS_PER_PART: u64 = 4_000;
/// Planner tick: short enough that even the smoke horizons see a round.
pub const PLAN_INTERVAL_US: Time = 500_000;

/// Which request generator a workload draws from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// YCSB, 10 ops, 50 % reads, static cross-partition ratio and skew.
    Ycsb { cross: f64, skew: f64 },
    /// YCSB, all cross-partition, hot interval shifting every `period_us`.
    YcsbShift { period_us: Time },
    /// TPC-C NewOrder with the given remote-warehouse ratio.
    Tpcc { remote: f64 },
}

/// Which protocol drives the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// `Lion::standard()`: closed-loop clients, rearrangement + prediction.
    LionStandard,
    /// `Lion::full()`: batch execution + predictor.
    LionFull,
    /// OCC + two-phase commit, the replica-oblivious baseline.
    TwoPc,
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Request mix.
    pub mix: Mix,
    /// Protocol.
    pub proto: Proto,
    /// Virtual run length at full scale.
    pub horizon_us: Time,
    /// Crash node 1 at `.0`, restart it at `.1` (virtual µs).
    pub crash: Option<(Time, Time)>,
    /// Epoch group-commit length (0 = ack at commit).
    pub epoch_commit_us: Time,
}

/// The benchmark's workloads, in reporting order.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        // Cheapest events (~1 us): event loop, FEL, protocol wake and metric
        // emit dominate; storage does little
        name: "ycsb_lion",
        mix: Mix::Ycsb {
            cross: 0.5,
            skew: 0.7,
        },
        proto: Proto::LionStandard,
        horizon_us: 5 * SECOND,
        crash: None,
        epoch_commit_us: 0,
    },
    Spec {
        // Sparse bit-packed keys, wide rows, inserts and a 43% abort/retry
        // path: storage and OCC dominate, FEL does little
        name: "tpcc_lion",
        mix: Mix::Tpcc { remote: 0.1 },
        proto: Proto::LionStandard,
        horizon_us: 5 * SECOND,
        crash: None,
        epoch_commit_us: 0,
    },
    Spec {
        // Hot interval shifts every 1.5 s under batch mode: the only
        // workload where planner, predictor and adaptor decide the result
        name: "ycsb_shift_lion_batch",
        mix: Mix::YcsbShift {
            period_us: 1_500_000,
        },
        proto: Proto::LionFull,
        horizon_us: 6 * SECOND,
        crash: None,
        epoch_commit_us: 0,
    },
    Spec {
        // 2PC + 2 ms epoch commit through a node crash: distributed commit,
        // replication, sealing and failover, which Lion bypasses
        name: "ycsb_crash_2pc_epoch",
        mix: Mix::Ycsb {
            cross: 0.5,
            skew: 0.7,
        },
        proto: Proto::TwoPc,
        horizon_us: 24 * SECOND,
        crash: Some((6 * SECOND, 12 * SECOND)),
        epoch_commit_us: 2_000,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// SplitMix64: the one mixing function behind every derived seed and every
/// replay's synthetic input.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A workload instantiated for one `--seed` at one scale.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The workload.
    pub spec: Spec,
    /// `--seed`; the generator and `SimConfig` seeds are derived from it.
    pub seed: u64,
    /// Horizon and fault-time divisor: 1 at full scale, 10 under `--smoke`.
    pub scale_div: u64,
}

impl Scenario {
    /// Virtual run length at this scale.
    pub fn horizon(&self) -> Time {
        self.spec.horizon_us / self.scale_div
    }

    /// Virtual crash and restart times at this scale.
    pub fn crash(&self) -> Option<(Time, Time)> {
        self.spec
            .crash
            .map(|(down, up)| (down / self.scale_div, up / self.scale_div))
    }

    /// Virtual times at which the request mix changes phase.
    pub fn phase_boundaries(&self) -> Vec<Time> {
        match self.spec.mix {
            Mix::YcsbShift { period_us } => {
                let period = period_us / self.scale_div;
                (1..)
                    .map(|k| k * period)
                    .take_while(|&t| t < self.horizon())
                    .collect()
            }
            _ => Vec::new(),
        }
    }

    /// The cluster configuration.
    pub fn sim(&self) -> SimConfig {
        SimConfig {
            nodes: NODES as usize,
            partitions_per_node: PARTS_PER_NODE as usize,
            keys_per_partition: KEYS_PER_PART,
            value_size: 64,
            clients_per_node: 24,
            batch_size: 256,
            seed: splitmix(self.seed ^ 0x51D),
            ..SimConfig::default()
        }
    }

    /// The engine configuration (cluster + faults + durability).
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            sim: self.sim(),
            plan_interval_us: PLAN_INTERVAL_US,
            faults: match self.crash() {
                Some((down, up)) => FaultPlan::single_failure(down, NodeId(1), up),
                None => FaultPlan::none(),
            },
            durability: DurabilityConfig::epoch(self.spec.epoch_commit_us),
            obs_mode: ObsMode::Full,
            ..EngineConfig::default()
        }
    }

    /// A fresh request generator. Two generators built by the same scenario
    /// emit the same stream for the same sequence of `now` arguments, which
    /// is what lets the layer replays regenerate the stream a run saw.
    pub fn workload(&self) -> Box<dyn Workload> {
        let seed = splitmix(self.seed ^ 0x3A7);
        let ycsb = YcsbConfig::for_cluster(NODES, PARTS_PER_NODE, KEYS_PER_PART).with_seed(seed);
        match self.spec.mix {
            Mix::Ycsb { cross, skew } => Box::new(YcsbWorkload::new(ycsb.with_mix(cross, skew))),
            Mix::YcsbShift { period_us } => Box::new(YcsbWorkload::new(ycsb.with_schedule(
                Schedule::interval_shift(period_us / self.scale_div, 3, 9, 1.0),
            ))),
            Mix::Tpcc { remote } => {
                let mut cfg = TpccConfig::for_cluster(NODES, PARTS_PER_NODE).with_mix(remote, 0.0);
                cfg.seed = seed;
                Box::new(TpccWorkload::new(cfg))
            }
        }
    }

    /// A fresh protocol instance.
    pub fn protocol(&self) -> Box<dyn Protocol> {
        match self.spec.proto {
            Proto::LionStandard => Box::new(Lion::standard()),
            Proto::LionFull => Box::new(Lion::full()),
            Proto::TwoPc => Box::new(two_pc()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_change_every_derived_seed() {
        let a = Scenario {
            spec: WORKLOADS[0],
            seed: 7,
            scale_div: 1,
        };
        let b = Scenario {
            seed: 8,
            ..a.clone()
        };
        assert_ne!(a.sim().seed, b.sim().seed);
        let (mut wa, mut wb) = (a.workload(), b.workload());
        let differs = (0..64).any(|_| {
            let (x, y) = (wa.next_txn(0), wb.next_txn(0));
            x.ops.iter().map(|o| o.key).ne(y.ops.iter().map(|o| o.key))
        });
        assert!(differs, "generator seed must follow --seed");
    }

    #[test]
    fn smoke_scale_shrinks_horizon_faults_and_phases_together() {
        let full = Scenario {
            spec: by_name("ycsb_crash_2pc_epoch").unwrap(),
            seed: 7,
            scale_div: 1,
        };
        let smoke = Scenario {
            scale_div: 10,
            ..full.clone()
        };
        assert_eq!(smoke.horizon() * 10, full.horizon());
        assert_eq!(smoke.crash(), Some((600_000, 1_200_000)));
        let shift = Scenario {
            spec: by_name("ycsb_shift_lion_batch").unwrap(),
            seed: 7,
            scale_div: 1,
        };
        assert_eq!(
            shift.phase_boundaries(),
            vec![1_500_000, 3_000_000, 4_500_000]
        );
    }
}
