//! Job runner: protocol registry, workload specs, and a thread-pool sweep
//! executor (every run is an independent engine, so sweeps parallelize
//! perfectly).

use lion_baselines::{clay, leap, two_pc, Aria, Calvin, Hermes, Lotus, Star};
use lion_common::{SimConfig, Time};
use lion_core::{Lion, LionConfig};
use lion_engine::{DurabilityConfig, Engine, EngineConfig, FaultPlan, Protocol, RunReport};
use lion_workloads::{Schedule, TpccConfig, TpccWorkload, YcsbConfig, YcsbWorkload};
use std::sync::mpsc;
use std::thread;

/// Every protocol the harness can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoKind {
    /// Classic OCC + 2PC.
    TwoPc,
    /// Aggressive migration.
    Leap,
    /// Load-driven repartitioning.
    Clay,
    /// Lion, standard execution (rearrangement + prediction).
    LionStd,
    /// Lion, batch execution (the full system).
    LionFull,
    /// Ablation: Schism partitioning only.
    LionS,
    /// Ablation: rearrangement only.
    LionR,
    /// Ablation: Schism + prediction.
    LionSW,
    /// Ablation: rearrangement + prediction.
    LionRW,
    /// Ablation: rearrangement + batch.
    LionRB,
    /// Super-node full replication.
    Star,
    /// Deterministic, single-threaded lock manager.
    Calvin,
    /// Deterministic + demand migration.
    Hermes,
    /// Optimistic deterministic reservations.
    Aria,
    /// Epoch-based granule locks.
    Lotus,
}

impl ProtoKind {
    /// Legend label.
    pub fn label(&self) -> &'static str {
        match self {
            ProtoKind::TwoPc => "2PC",
            ProtoKind::Leap => "Leap",
            ProtoKind::Clay => "Clay",
            ProtoKind::LionStd | ProtoKind::LionFull => "Lion",
            ProtoKind::LionS => "Lion(S)",
            ProtoKind::LionR => "Lion(R)",
            ProtoKind::LionSW => "Lion(SW)",
            ProtoKind::LionRW => "Lion(RW)",
            ProtoKind::LionRB => "Lion(RB)",
            ProtoKind::Star => "Star",
            ProtoKind::Calvin => "Calvin",
            ProtoKind::Hermes => "Hermes",
            ProtoKind::Aria => "Aria",
            ProtoKind::Lotus => "Lotus",
        }
    }

    /// Builds a fresh protocol instance.
    pub fn build(&self) -> Box<dyn Protocol> {
        match self {
            ProtoKind::TwoPc => Box::new(two_pc()),
            ProtoKind::Leap => Box::new(leap()),
            ProtoKind::Clay => Box::new(clay()),
            ProtoKind::LionStd => Box::new(Lion::standard()),
            ProtoKind::LionFull => Box::new(Lion::full()),
            ProtoKind::LionS => Box::new(Lion::new(LionConfig::lion_s())),
            ProtoKind::LionR => Box::new(Lion::new(LionConfig::lion_r())),
            ProtoKind::LionSW => Box::new(Lion::new(LionConfig::lion_sw())),
            ProtoKind::LionRW => Box::new(Lion::new(LionConfig::lion_rw())),
            ProtoKind::LionRB => Box::new(Lion::new(LionConfig::lion_rb())),
            ProtoKind::Star => Box::new(Star::new()),
            ProtoKind::Calvin => Box::new(Calvin::new()),
            ProtoKind::Hermes => Box::new(Hermes::new()),
            ProtoKind::Aria => Box::new(Aria::new()),
            ProtoKind::Lotus => Box::new(Lotus::new()),
        }
    }

    /// The standard-execution comparison set (Figs. 7, 8, 11a).
    pub fn standard_set() -> Vec<ProtoKind> {
        vec![
            ProtoKind::TwoPc,
            ProtoKind::Leap,
            ProtoKind::Clay,
            ProtoKind::LionStd,
        ]
    }

    /// The batch-execution comparison set (Figs. 9, 10, 11b, 14).
    pub fn batch_set() -> Vec<ProtoKind> {
        vec![
            ProtoKind::Calvin,
            ProtoKind::Star,
            ProtoKind::Aria,
            ProtoKind::Lotus,
            ProtoKind::Hermes,
            ProtoKind::LionFull,
        ]
    }

    /// The Table II / Fig. 6 ablation set.
    pub fn ablation_set() -> Vec<ProtoKind> {
        vec![
            ProtoKind::TwoPc,
            ProtoKind::LionS,
            ProtoKind::LionR,
            ProtoKind::LionSW,
            ProtoKind::LionRW,
            ProtoKind::LionRB,
            ProtoKind::LionFull,
        ]
    }
}

/// A workload to instantiate inside the worker thread.
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// YCSB with the given config.
    Ycsb(YcsbConfig),
    /// TPC-C with the given config.
    Tpcc(TpccConfig),
}

impl WorkloadSpec {
    /// Instantiates the generator.
    pub fn build(&self) -> Box<dyn lion_common::Workload> {
        match self {
            WorkloadSpec::Ycsb(cfg) => Box::new(YcsbWorkload::new(cfg.clone())),
            WorkloadSpec::Tpcc(cfg) => Box::new(TpccWorkload::new(cfg.clone())),
        }
    }
}

/// One simulation run.
#[derive(Debug, Clone)]
pub struct Job {
    /// Row label in the experiment output.
    pub label: String,
    /// Protocol under test.
    pub proto: ProtoKind,
    /// Cluster configuration.
    pub sim: SimConfig,
    /// Workload.
    pub workload: WorkloadSpec,
    /// Virtual run length.
    pub horizon: Time,
    /// Deterministic fault script (empty = no failures).
    pub faults: FaultPlan,
    /// Epoch group-commit length (0 = ack at commit, the figure default).
    pub epoch_commit_us: Time,
    /// Price idempotent client resubmissions after an epoch abort as their
    /// own request round trip (figsb's group-commit-aware retry arm).
    pub retry_round_trip: bool,
}

impl Job {
    /// A fault-free job (the common case for the paper's figures).
    pub fn new(
        label: impl Into<String>,
        proto: ProtoKind,
        sim: SimConfig,
        workload: WorkloadSpec,
        horizon: Time,
    ) -> Self {
        Job {
            label: label.into(),
            proto,
            sim,
            workload,
            horizon,
            faults: FaultPlan::none(),
            epoch_commit_us: 0,
            retry_round_trip: false,
        }
    }

    /// Attaches a fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Enables epoch group commit with the given epoch length (fige).
    pub fn with_epoch_commit(mut self, epoch_commit_us: Time) -> Self {
        self.epoch_commit_us = epoch_commit_us;
        self
    }

    /// Prices epoch-abort retries as full client resubmission round trips.
    pub fn with_retry_round_trip(mut self) -> Self {
        self.retry_round_trip = true;
        self
    }
}

/// Harness time scale: `quick` shortens horizons (and the 60 s hotspot
/// periods, proportionally) so the whole suite finishes in minutes.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Steady-state run length.
    pub steady_us: Time,
    /// One hotspot period of the dynamic scenarios (paper: 60 s).
    pub period_us: Time,
}

impl Scale {
    /// Quick scale: 2 s steady runs, 6 s hotspot periods.
    pub fn quick() -> Self {
        Scale {
            steady_us: 2_000_000,
            period_us: 6_000_000,
        }
    }

    /// Full scale: 5 s steady runs, 15 s hotspot periods (still compressed
    /// vs the paper's 60 s; the adaptation dynamics are interval-scaled).
    pub fn full() -> Self {
        Scale {
            steady_us: 5_000_000,
            period_us: 15_000_000,
        }
    }
}

/// The harness's default cluster shape: the paper's 4 executor nodes × 8
/// workers (§VI-A), with tables scaled down: the access distribution, not
/// the raw size, drives behaviour.
pub fn base_sim(nodes: usize) -> SimConfig {
    SimConfig {
        nodes,
        partitions_per_node: 8,
        keys_per_partition: 4_000,
        value_size: 64,
        clients_per_node: 24,
        batch_size: 256,
        ..Default::default()
    }
}

/// YCSB spec matching a [`base_sim`] cluster.
pub fn ycsb_spec(nodes: u32, cross: f64, skew: f64, seed: u64) -> WorkloadSpec {
    WorkloadSpec::Ycsb(
        YcsbConfig::for_cluster(nodes, 8, 4_000)
            .with_mix(cross, skew)
            .with_seed(seed),
    )
}

/// YCSB spec with a dynamic schedule.
pub fn ycsb_sched_spec(nodes: u32, schedule: Schedule, seed: u64) -> WorkloadSpec {
    WorkloadSpec::Ycsb(
        YcsbConfig::for_cluster(nodes, 8, 4_000)
            .with_schedule(schedule)
            .with_seed(seed),
    )
}

/// TPC-C spec matching a [`base_sim`] cluster (8 warehouses per node).
pub fn tpcc_spec(nodes: u32, remote: f64, skew: f64) -> WorkloadSpec {
    WorkloadSpec::Tpcc(TpccConfig::for_cluster(nodes, 8).with_mix(remote, skew))
}

/// Runs one job to completion. The planner tick is shortened to 500 ms so
/// even the quick-scale runs see several planning rounds. The finished
/// report is handed to the `--export` collector (see [`crate::export`]).
pub fn run_job(job: &Job) -> RunReport {
    let report = run_job_with_obs(job, lion_engine::ObsMode::Full);
    crate::export::record(&report);
    report
}

/// [`run_job`] with an explicit observability mode and no export
/// side-effect — the overhead gate (`lion-bench obsgate`) runs the same job
/// under [`ObsMode::Null`](lion_engine::ObsMode) and `Full` and compares.
pub fn run_job_with_obs(job: &Job, obs_mode: lion_engine::ObsMode) -> RunReport {
    let mut durability = DurabilityConfig::epoch(job.epoch_commit_us);
    if job.retry_round_trip {
        durability = durability.with_retry_round_trip();
    }
    let cfg = EngineConfig {
        sim: job.sim.clone(),
        plan_interval_us: 500_000,
        faults: job.faults.clone(),
        durability,
        obs_mode,
        ..EngineConfig::default()
    };
    let mut eng = Engine::new(cfg, job.workload.build());
    let mut proto = job.proto.build();
    let mut report = eng.run(proto.as_mut(), job.horizon);
    report.protocol = job.label.clone();
    report
}

/// Runs jobs on a worker pool, preserving input order.
pub fn run_all(jobs: Vec<Job>) -> Vec<RunReport> {
    let threads = thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(jobs.len().max(1));
    let (tx, rx) = mpsc::channel::<(usize, RunReport)>();
    let jobs: Vec<(usize, Job)> = jobs.into_iter().enumerate().collect();
    let queue = std::sync::Mutex::new(jobs);
    let total = {
        let q = queue.lock().expect("fresh mutex");
        q.len()
    };
    thread::scope(|s| {
        for _ in 0..threads {
            let tx = tx.clone();
            let queue = &queue;
            s.spawn(move || loop {
                let next = {
                    let mut q = queue.lock().expect("job queue");
                    q.pop()
                };
                match next {
                    Some((i, job)) => {
                        let report = run_job(&job);
                        if tx.send((i, report)).is_err() {
                            break;
                        }
                    }
                    None => break,
                }
            });
        }
        drop(tx);
        let mut out: Vec<Option<RunReport>> = (0..total).map(|_| None).collect();
        for (i, r) in rx {
            out[i] = Some(r);
        }
        out.into_iter()
            .map(|r| r.expect("every job completed"))
            .collect()
    })
}

/// A 2-node, sub-second 2PC job for the harness-level tests.
#[cfg(test)]
pub(crate) fn tiny_job(label: impl Into<String>, seed: u64, horizon: Time) -> Job {
    let mut sim = base_sim(2);
    sim.partitions_per_node = 2;
    sim.keys_per_partition = 256;
    sim.clients_per_node = 2;
    let workload = YcsbConfig::for_cluster(2, 2, 256)
        .with_mix(0.0, 0.0)
        .with_seed(seed);
    Job::new(
        label,
        ProtoKind::TwoPc,
        sim,
        WorkloadSpec::Ycsb(workload),
        horizon,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_protocol_builds_and_commits() {
        // Smoke: a tiny run of each protocol commits something.
        for kind in [
            ProtoKind::TwoPc,
            ProtoKind::Leap,
            ProtoKind::Clay,
            ProtoKind::LionStd,
            ProtoKind::LionFull,
            ProtoKind::Star,
            ProtoKind::Calvin,
            ProtoKind::Hermes,
            ProtoKind::Aria,
            ProtoKind::Lotus,
        ] {
            let mut sim = base_sim(2);
            sim.partitions_per_node = 2;
            sim.keys_per_partition = 512;
            sim.clients_per_node = 4;
            sim.batch_size = 32;
            let workload = WorkloadSpec::Ycsb(
                YcsbConfig::for_cluster(2, 2, 512)
                    .with_mix(0.3, 0.0)
                    .with_seed(1),
            );
            let job = Job::new(kind.label(), kind, sim, workload, 300_000);
            let r = run_job(&job);
            assert!(r.commits > 0, "{} committed nothing", kind.label());
        }
    }

    #[test]
    fn run_all_preserves_order() {
        let jobs: Vec<Job> = (0..6)
            .map(|i| tiny_job(format!("job{i}"), i, 100_000))
            .collect();
        let reports = run_all(jobs);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.protocol, format!("job{i}"));
        }
    }
}
