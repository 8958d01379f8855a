//! One experiment per paper table/figure (§VI). Each function describes its
//! sweep as a `Grid` of jobs, runs it on the pool, and renders the same
//! rows/series the paper plots. [`EXPERIMENTS`] is the one list of them:
//! what `lion-bench` dispatches from, what `all` iterates, and what the
//! usage line is printed from.

use crate::harness::{
    base_sim, run_all, run_job, tpcc_spec, ycsb_sched_spec, ycsb_spec, Job, ProtoKind, Scale,
    WorkloadSpec,
};
use lion_common::{NodeId, Time};
use lion_core::LionConfig;
use lion_engine::{FaultPlan, RunReport};
use lion_workloads::Schedule;
use std::fmt::Write as _;

/// Cross-partition sweep points (% of cross-partition transactions).
const CROSS_POINTS: [f64; 5] = [0.0, 0.2, 0.5, 0.8, 1.0];

/// The protocols every fault figure compares (figf1 adds Hermes).
const FAULT_SET: [ProtoKind; 4] = [
    ProtoKind::LionStd,
    ProtoKind::TwoPc,
    ProtoKind::Star,
    ProtoKind::Calvin,
];

/// Arm indices of the two-arm fault figures (figf2, fige): the fault-free
/// run and the run under the fault script.
const STEADY: usize = 0;
const FAULTED: usize = 1;

/// A rows × columns × arms sweep. It generates one job per cell, runs them
/// on the pool, and is the only place that knows which report belongs to
/// which cell.
struct Grid {
    cols: usize,
    arms: usize,
    reports: Vec<RunReport>,
}

impl Grid {
    /// Builds `job(row, col, arm)` for every cell and runs them all.
    fn run(
        rows: usize,
        cols: usize,
        arms: usize,
        job: impl Fn(usize, usize, usize) -> Job,
    ) -> Grid {
        let mut jobs = Vec::with_capacity(rows * cols * arms);
        for r in 0..rows {
            for c in 0..cols {
                for a in 0..arms {
                    jobs.push(job(r, c, a));
                }
            }
        }
        Grid {
            cols,
            arms,
            reports: run_all(jobs),
        }
    }

    /// The report of the job generated for `(row, col, arm)`.
    fn at(&self, row: usize, col: usize, arm: usize) -> &RunReport {
        assert!(col < self.cols && arm < self.arms, "cell outside the grid");
        &self.reports[(row * self.cols + col) * self.arms + arm]
    }

    /// Every report, in `(row, col, arm)` order.
    fn iter(&self) -> impl Iterator<Item = &RunReport> {
        self.reports.iter()
    }
}

fn labels(protos: &[ProtoKind]) -> Vec<&'static str> {
    protos.iter().map(|p| p.label()).collect()
}

/// Renders one rows × cols table: a heading line, the column header (plus a
/// unit note), then one 8-wide cell per column from `cell(row, col)`.
fn table(
    heading: &str,
    unit: &str,
    rows: &[&str],
    cols: &[String],
    cell: impl Fn(usize, usize) -> String,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{heading}");
    let _ = write!(out, "{:<10}", "protocol");
    for c in cols {
        let _ = write!(out, "{c:>9}");
    }
    let _ = writeln!(out, "{unit}");
    for (ri, name) in rows.iter().enumerate() {
        let _ = write!(out, "{name:<10}");
        for ci in 0..cols.len() {
            let _ = write!(out, " {:>8}", cell(ri, ci));
        }
        let _ = writeln!(out);
    }
    out
}

fn kilo(tps: f64) -> String {
    format!("{:.1}", tps / 1000.0)
}

/// Renders a rows × sweep matrix of throughputs (k txn/s), arm 0 of `grid`.
fn matrix(title: &str, rows: &[&str], cols: &[String], grid: &Grid) -> String {
    let unit = "   (throughput, k txn/s)";
    table(&format!("== {title}"), unit, rows, cols, |r, c| {
        kilo(grid.at(r, c, 0).throughput_tps)
    })
}

/// Renders one throughput-over-time row per report of `grid`, named by its
/// job label: `name_w` columns of name, `cell_w` per second.
fn timeline(title: &str, name_w: usize, cell_w: usize, grid: &Grid) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} (k txn/s per second)");
    let secs = grid
        .iter()
        .map(|r| r.throughput_series.len())
        .max()
        .unwrap_or(0);
    let _ = write!(out, "{:<name_w$}", "t(s)");
    for s in 0..secs {
        let _ = write!(out, "{s:>cell_w$}");
    }
    let _ = writeln!(out);
    for r in grid.iter() {
        let _ = write!(out, "{:<name_w$}", r.protocol);
        for s in 0..secs {
            let v = r.throughput_series.get(s).copied().unwrap_or(0.0);
            let _ = write!(out, "{:>cell_w$.0}", v / 1000.0);
        }
        let _ = writeln!(out);
    }
    out
}

/// Timing of the fault figures: three steady periods, the fault one third
/// into the run and the repair at two thirds. Returns
/// `(horizon, fault_at, repair_at)`.
fn fault_window(scale: Scale) -> (Time, Time, Time) {
    let horizon = scale.steady_us * 3;
    (horizon, horizon / 3, 2 * horizon / 3)
}

// ---------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------

/// Table I: the qualitative comparison matrix (static content).
pub fn table1() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Table I: comparison of Lion with existing approaches"
    );
    let _ = writeln!(
        out,
        "{:<10} {:<26} {:<9} {:<11} {:<10} {:<12}",
        "system", "key design", "adaptive", "mig.-free", "balanced", "constraints"
    );
    for (sys, design, ad, mf, lb, cons) in [
        (
            "2PC",
            "distributed transactions",
            "n/a",
            "n/a",
            "n/a",
            "none",
        ),
        ("Schism", "offline repartitioning", "no", "no", "yes", "n/a"),
        ("Leap", "aggressive migration", "yes", "no", "no", "n/a"),
        ("Clay", "periodical migration", "yes", "no", "yes", "n/a"),
        (
            "Hermes",
            "deterministic migration",
            "yes",
            "no",
            "yes",
            "in batches",
        ),
        ("Star", "full replication", "no", "yes", "no", "in batches"),
        ("Lion", "adaptive replication", "yes", "yes", "yes", "none"),
    ] {
        let _ = writeln!(
            out,
            "{sys:<10} {design:<26} {ad:<9} {mf:<11} {lb:<10} {cons:<12}"
        );
    }
    out
}

/// Table II: the ablation variant settings, straight from the configs.
pub fn table2() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Table II: ablation variants");
    let _ = writeln!(
        out,
        "{:<10} {:<22} {:<11} {:<6}",
        "variant", "partitioning", "prediction", "batch"
    );
    let _ = writeln!(out, "{:<10} {:<22} {:<11} {:<6}", "2PC", "-", "-", "-");
    for cfg in LionConfig::all_variants() {
        let part = match cfg.partitioning {
            lion_core::Partitioning::Rearrange => "replica rearrangement",
            lion_core::Partitioning::Schism => "Schism",
        };
        let _ = writeln!(
            out,
            "{:<10} {:<22} {:<11} {:<6}",
            cfg.name,
            part,
            if cfg.prediction { "yes" } else { "-" },
            if cfg.batch { "yes" } else { "-" }
        );
    }
    out
}
// ---------------------------------------------------------------------
// Figs. 6, 7, 9: cross-partition sweeps
// ---------------------------------------------------------------------

/// One sweep panel: `protos` × [`CROSS_POINTS`] on 4 nodes, steady state.
/// `workload` maps `(cross ratio, per-point seed)` to the spec.
fn sweep(
    scale: Scale,
    title: &str,
    protos: &[ProtoKind],
    workload: impl Fn(f64, u64) -> WorkloadSpec,
) -> String {
    let cols: Vec<String> = CROSS_POINTS
        .iter()
        .map(|c| format!("{:.0}%", c * 100.0))
        .collect();
    let grid = Grid::run(protos.len(), cols.len(), 1, |r, c, _| {
        Job::new(
            format!("{}/{}", protos[r].label(), cols[c]),
            protos[r],
            base_sim(4),
            workload(CROSS_POINTS[c], 1000 + c as u64),
            scale.steady_us,
        )
    });
    matrix(title, &labels(protos), &cols, &grid)
}

/// Fig. 6: throughput of every ablation variant vs cross-partition ratio.
fn fig6(scale: Scale) -> String {
    let protos = ProtoKind::ablation_set();
    sweep(scale, "Fig. 6: ablation (uniform YCSB)", &protos, |c, s| {
        ycsb_spec(4, c, 0.0, s)
    })
}

/// Figs. 7 (standard protocols) and 9 (batch protocols): skewed YCSB (a)
/// and skewed TPC-C (b) sweeps of one protocol set.
fn skewed_sweeps(scale: Scale, fig: u32, set: &str, protos: &[ProtoKind]) -> String {
    let mut out = sweep(
        scale,
        &format!("Fig. {fig}a: skewed YCSB ({set})"),
        protos,
        |c, s| ycsb_spec(4, c, 0.8, s),
    );
    out.push_str(&sweep(
        scale,
        &format!("Fig. {fig}b: skewed TPC-C ({set})"),
        protos,
        |c, _| tpcc_spec(4, c, 0.8),
    ));
    out
}

// ---------------------------------------------------------------------
// Fig. 8 / Fig. 10: dynamic workloads (throughput over time)
// ---------------------------------------------------------------------

/// Figs. 8 (standard protocols) and 10 (batch protocols, `tag` marks the
/// titles): a hotspot whose interval (a) or position (b) shifts every
/// period, one protocol set.
fn dynamic(scale: Scale, fig: u32, tag: &str, protos: &[ProtoKind]) -> String {
    let period = scale.period_us;
    let secs = period / 1_000_000;
    let panel = |title: String, schedule: Schedule| {
        let grid = Grid::run(protos.len(), 1, 1, |r, _, _| {
            Job::new(
                protos[r].label(),
                protos[r],
                base_sim(4),
                ycsb_sched_spec(4, schedule.clone(), 77),
                period * 4,
            )
        });
        timeline(&title, 10, 7, &grid)
    };
    let mut out = panel(
        format!("Fig. {fig}a: varying hotspot interval{tag} (period {secs}s)"),
        Schedule::interval_shift(period, 3, 9, 0.5),
    );
    out.push_str(&panel(
        format!("Fig. {fig}b: varying hotspot position A-D{tag} (period {secs}s)"),
        Schedule::position_shift(period, 0.8, 16),
    ));
    out
}

// ---------------------------------------------------------------------
// Fig. 11: scalability
// ---------------------------------------------------------------------

/// Fig. 11: throughput vs node count (100% cross, uniform).
fn fig11(scale: Scale) -> String {
    let sizes = [4usize, 6, 8, 10];
    let cols: Vec<String> = sizes.iter().map(|n| format!("{n} nodes")).collect();
    let mut out = String::new();
    for (title, protos) in [
        (
            "Fig. 11a: scalability (standard)",
            ProtoKind::standard_set(),
        ),
        ("Fig. 11b: scalability (batch)", ProtoKind::batch_set()),
    ] {
        let grid = Grid::run(protos.len(), sizes.len(), 1, |r, c, _| {
            Job::new(
                format!("{}/{}", protos[r].label(), sizes[c]),
                protos[r],
                base_sim(sizes[c]),
                ycsb_spec(sizes[c] as u32, 1.0, 0.0, 42),
                scale.steady_us,
            )
        });
        let rows = labels(&protos);
        out.push_str(&matrix(title, &rows, &cols, &grid));
        // scalability factor: T(10)/T(4)
        for (r, name) in rows.iter().enumerate() {
            let f = grid.at(r, sizes.len() - 1, 0).throughput_tps
                / grid.at(r, 0, 0).throughput_tps.max(1.0);
            let _ = writeln!(out, "   {name:<10} speedup 4→10 nodes: {f:.2}x");
        }
    }
    out
}

// ---------------------------------------------------------------------
// Fig. 12: migration/remastering analysis (adaptation timeline)
// ---------------------------------------------------------------------

/// Fig. 12: Lion's adaptation timeline — throughput and network bytes per
/// transaction around a predicted workload switch.
fn fig12(scale: Scale) -> String {
    let period = scale.period_us * 2;
    let phase = |offset| lion_workloads::PhaseCfg {
        duration_us: period,
        cross_ratio: 0.8,
        skew_factor: 0.0,
        offset,
    };
    let job = Job::new(
        "Lion",
        ProtoKind::LionStd,
        base_sim(4),
        ycsb_sched_spec(4, Schedule::Cycle(vec![phase(0), phase(9)]), 78),
        period * 2,
    );
    let r = run_job(&job);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Fig. 12: adaptation analysis (workload switch at t={}s)",
        period / 1_000_000
    );
    let _ = writeln!(out, "{:<6} {:>12} {:>14}", "t(s)", "ktxn/s", "bytes/txn");
    for (s, (tput, bpt)) in r
        .throughput_series
        .iter()
        .zip(&r.bytes_per_txn_series)
        .enumerate()
    {
        let _ = writeln!(out, "{:<6} {:>12.1} {:>14.0}", s, tput / 1000.0, bpt);
    }
    let _ = writeln!(
        out,
        "total remasters: {}  replica adds: {}",
        r.remasters, r.replica_adds
    );
    out
}

// ---------------------------------------------------------------------
// Fig. 13: prediction + batch-optimization analysis
// ---------------------------------------------------------------------

/// Fig. 13a: adaptation with and without the predictor.
fn fig13a(scale: Scale) -> String {
    let period = scale.period_us;
    let arms = [
        ("Baseline", ProtoKind::LionR),
        ("With Predictor", ProtoKind::LionRW),
    ];
    let grid = Grid::run(arms.len(), 1, 1, |r, _, _| {
        Job::new(
            arms[r].0,
            arms[r].1,
            base_sim(4),
            ycsb_sched_spec(4, Schedule::interval_shift(period, 3, 9, 1.0), 79),
            period * 6,
        )
    });
    let mut out = timeline("Fig. 13a: impact of pre-replication", 16, 6, &grid);
    let _ = writeln!(
        out,
        "total commits: baseline {} vs with-predictor {}",
        grid.at(0, 0, 0).commits,
        grid.at(1, 0, 0).commits
    );
    out
}

/// Fig. 13b: throughput vs remastering duration, non-batch vs batch.
fn fig13b(scale: Scale) -> String {
    let delays = [500u64, 1_500, 2_000, 3_000, 3_500];
    let protos = [ProtoKind::LionStd, ProtoKind::LionFull];
    let grid = Grid::run(protos.len(), delays.len(), 1, |r, c, _| {
        Job::new(
            format!("{}/{}", protos[r].label(), delays[c]),
            protos[r],
            base_sim(4).with_remaster_delay(delays[c]),
            ycsb_spec(4, 0.8, 0.5, 80),
            scale.steady_us,
        )
    });
    let cols: Vec<String> = delays.iter().map(|d| format!("{d}us")).collect();
    let title = "Fig. 13b: impact of remastering duration";
    matrix(title, &["Non-batch", "Batch"], &cols, &grid)
}

// ---------------------------------------------------------------------
// Fig. 14: latency + phase breakdown
// ---------------------------------------------------------------------

/// Fig. 14: latency percentiles (a) and normalized phase breakdown (b) for
/// the batch protocols.
fn fig14(scale: Scale) -> String {
    let protos = ProtoKind::batch_set();
    let grid = Grid::run(protos.len(), 1, 1, |r, _, _| {
        Job::new(
            protos[r].label(),
            protos[r],
            base_sim(4),
            ycsb_spec(4, 0.5, 0.0, 81),
            scale.steady_us,
        )
    });
    let mut out = String::new();
    let _ = writeln!(out, "== Fig. 14a: latency percentiles (us)");
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>8} {:>8} {:>10}",
        "protocol", "p10", "p50", "p95", "p50/floor"
    );
    for r in grid.iter() {
        // p50 as a multiple of the network latency floor (the cheapest
        // possible cross-node commit round trip) — a topology-independent
        // view of protocol overhead.
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>8} {:>8} {:>9.1}x",
            r.protocol, r.latency_p[0], r.latency_p[1], r.latency_p[2], r.p50_floor_x
        );
    }
    let _ = writeln!(out, "\n== Fig. 14b: normalized runtime breakdown");
    for r in grid.iter() {
        let _ = writeln!(out, "{}", r.phase_row());
    }
    out
}

// ---------------------------------------------------------------------
// Fig. F1: throughput under node failure (fault-injection subsystem)
// ---------------------------------------------------------------------

/// Fig. F1: goodput under a node crash + recovery, Lion vs the baselines.
///
/// A deterministic [`lion_engine::FaultPlan`] crashes N1 one third into the
/// run and restarts it at two thirds. Lion's adaptively provisioned
/// secondaries double as warm standbys, so its partitions fail over by
/// promotion (priced like remastering); systems are compared on goodput
/// dip/ramp, per-partition recovery latency, and total unavailability.
fn fig_f1(scale: Scale) -> String {
    let (horizon, crash_at, recover_at) = fault_window(scale);
    let faults = FaultPlan::single_failure(crash_at, NodeId(1), recover_at);
    let protos = [
        ProtoKind::LionStd,
        ProtoKind::TwoPc,
        ProtoKind::Star,
        ProtoKind::Calvin,
        ProtoKind::Hermes,
    ];
    let grid = Grid::run(protos.len(), 1, 1, |r, _, _| {
        Job::new(
            protos[r].label(),
            protos[r],
            base_sim(4),
            ycsb_spec(4, 0.5, 0.0, 90),
            horizon,
        )
        .with_faults(faults.clone())
    });

    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Fig. F1: throughput under node failure (crash N1 at t={}s, recover at t={}s)",
        crash_at / 1_000_000,
        recover_at / 1_000_000
    );
    out.push_str(&timeline("Fig. F1a: goodput timeline", 10, 7, &grid));
    let _ = writeln!(out, "\n== Fig. F1b: recovery analysis");
    for r in grid.iter() {
        let _ = writeln!(out, "{}", r.failover_row());
    }
    let _ = writeln!(
        out,
        "\n== Fig. F1c: goodput ramp (time to 80% of pre-crash goodput)"
    );
    for r in grid.iter() {
        let ramp = r
            .recovery_ramp_us(crash_at, crash_at, 0.8)
            .map(|us| format!("{:.1} ms", us as f64 / 1000.0))
            .unwrap_or_else(|| "never".into());
        let _ = writeln!(out, "{:<10} {}", r.protocol, ramp);
    }
    out
}

// ---------------------------------------------------------------------
// Fig. F2: the locality-vs-availability frontier (failure domains)
// ---------------------------------------------------------------------

/// Fig. F2: LocalityFirst vs RackSafe placement under a single-zone loss.
///
/// A 4-node cluster is split into two racks (Z0 = {N0,N1}, Z1 = {N2,N3})
/// with a cross-zone latency surcharge; a deterministic
/// [`lion_engine::FaultPlan`] kills rack Z1 one third into the run and
/// restores it at two thirds. Each protocol runs twice — locality-first
/// placement (the paper's Algorithm 1) and rack-safe anti-affinity
/// (`min_zones = 2`) — and the matrix reports what rack-safety costs in
/// throughput against what it buys in availability: under LocalityFirst,
/// partitions whose replicas were rack-local stall for the whole outage
/// (`stalled > 0`); under RackSafe every partition keeps a live replica and
/// fails over (`stalled = 0`).
fn fig_f2(scale: Scale) -> String {
    use lion_common::{PlacementPolicy, ZoneId};
    let (horizon, crash_at, heal_at) = fault_window(scale);
    let faults = FaultPlan::zone_failure(crash_at, ZoneId(1), heal_at);
    let policies = [
        ("LocalityFirst", PlacementPolicy::LocalityFirst),
        ("RackSafe(2)", PlacementPolicy::RackSafe { min_zones: 2 }),
    ];
    // Two arms per (protocol, policy): a fault-free steady-state run that
    // isolates the pure locality cost of rack-safe placement (cross-zone
    // prepare replication), and the zone-outage run that shows what that
    // cost buys.
    let grid = Grid::run(FAULT_SET.len(), policies.len(), 2, |r, c, arm| {
        let (proto, (pname, policy)) = (FAULT_SET[r], policies[c]);
        let mut sim = base_sim(4).with_zones(2).with_placement(policy);
        sim.net.cross_zone_extra_us = 60; // aggregation-layer hop
        let workload = ycsb_spec(4, 0.5, 0.0, 91);
        if arm == STEADY {
            let label = format!("{}/{}/steady", proto.label(), pname);
            Job::new(label, proto, sim, workload, scale.steady_us)
        } else {
            let label = format!("{}/{}/outage", proto.label(), pname);
            Job::new(label, proto, sim, workload, horizon).with_faults(faults.clone())
        }
    });

    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Fig. F2: failure domains — rack Z1 = {{N2,N3}} lost at t={}s, restored at t={}s",
        crash_at / 1_000_000,
        heal_at / 1_000_000
    );
    let _ = writeln!(
        out,
        "{:<10} {:<14} {:>9} {:>8} {:>9} {:>8} {:>10} {:>12}",
        "protocol", "placement", "steady", "cost", "outage", "stalled", "failovers", "unavail(ms)"
    );
    let _ = writeln!(
        out,
        "{:<10} {:<14} {:>9} {:>8} {:>9}",
        "", "", "(ktxn/s)", "", "(ktxn/s)"
    );
    for (r, proto) in FAULT_SET.iter().enumerate() {
        for (c, (pname, _)) in policies.iter().enumerate() {
            let (steady, outage) = (grid.at(r, c, STEADY), grid.at(r, c, FAULTED));
            // Locality cost of this policy in failure-free steady state,
            // relative to LocalityFirst (0% for the LocalityFirst row).
            let lf_steady = grid.at(r, 0, STEADY);
            let cost = (steady.throughput_tps / lf_steady.throughput_tps.max(1.0) - 1.0) * 100.0;
            let _ = writeln!(
                out,
                "{:<10} {:<14} {:>9.1} {:>+7.1}% {:>9.1} {:>8} {:>10} {:>12.1}",
                proto.label(),
                pname,
                steady.throughput_tps / 1000.0,
                cost,
                outage.throughput_tps / 1000.0,
                outage.stalled_partitions,
                outage.failovers,
                outage.unavailability_us as f64 / 1000.0,
            );
        }
    }
    let _ = writeln!(
        out,
        "\n(`cost` = steady-state throughput of this placement vs LocalityFirst: what\n\
         anti-affinity spends on cross-rack replication. `stalled` = partitions whose\n\
         every replica sat in the dead rack — they blocked until the heal. RackSafe\n\
         keeps stalled at 0: the availability its locality cost buys.)"
    );
    out
}

// ---------------------------------------------------------------------
// Fig. E: epoch group commit — ack latency vs epoch length
// ---------------------------------------------------------------------

/// Fig. E: client-visible ack latency vs epoch-commit length, steady state
/// and under the figf1 crash script.
///
/// Column `0us` is ack-at-commit (the legacy, optimistic ack): lowest
/// latency, but the crash arm shows a non-zero `acked_then_lost` — commits
/// reported to clients whose log entries died with the primary's epoch
/// buffer. Every epoch-commit column trades p50 ack latency (epoch
/// residency + replication transit) for `acked_then_lost = 0`: an ack only
/// escapes behind its epoch's replication, and a crash retries the parked,
/// never-acked transactions instead.
fn fig_e(scale: Scale) -> String {
    const EPOCHS_US: [u64; 5] = [0, 1_000, 5_000, 10_000, 20_000];
    let (horizon, crash_at, recover_at) = fault_window(scale);
    let faults = FaultPlan::single_failure(crash_at, NodeId(1), recover_at);
    // Two arms per (protocol, epoch length).
    let grid = Grid::run(FAULT_SET.len(), EPOCHS_US.len(), 2, |r, c, arm| {
        let (proto, e) = (FAULT_SET[r], EPOCHS_US[c]);
        let (sim, workload) = (base_sim(4), ycsb_spec(4, 0.5, 0.0, 92));
        let job = if arm == STEADY {
            let label = format!("{}/{}us/steady", proto.label(), e);
            Job::new(label, proto, sim, workload, scale.steady_us)
        } else {
            let label = format!("{}/{}us/crash", proto.label(), e);
            Job::new(label, proto, sim, workload, horizon).with_faults(faults.clone())
        };
        job.with_epoch_commit(e)
    });

    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Fig. E: epoch group commit — ack latency vs epoch length (0us = ack at commit)"
    );
    let cols: Vec<String> = EPOCHS_US.iter().map(|e| format!("{e}us")).collect();
    let rows = labels(&FAULT_SET);
    let heading = "-- Fig. Ea: steady-state ack latency p50 (us)";
    out.push_str(&table(heading, "", &rows, &cols, |r, c| {
        grid.at(r, c, STEADY).ack_latency_p[0].to_string()
    }));
    let heading = "-- Fig. Eb: steady-state throughput (k txn/s)";
    out.push_str(&table(heading, "", &rows, &cols, |r, c| {
        kilo(grid.at(r, c, STEADY).throughput_tps)
    }));
    let _ = writeln!(
        out,
        "-- Fig. Ec: crash arm (N1 down at t={}s, back at t={}s) — the durability hole",
        crash_at / 1_000_000,
        recover_at / 1_000_000
    );
    for r in 0..rows.len() {
        for (c, col) in cols.iter().enumerate() {
            let _ = writeln!(out, "{col:>8}  {}", grid.at(r, c, FAULTED).ack_row());
        }
    }
    let _ = writeln!(
        out,
        "\n(`acked_then_lost` > 0 only ever appears in the 0us ack-at-commit rows: acks\n\
         that escaped before replication and died with the crashed primary. Under epoch\n\
         commit the same crashes abort the open epochs — `retried_acks` — and the\n\
         counter stays 0: no acked commit is ever lost.)"
    );
    out
}

// ---------------------------------------------------------------------
// Fig. SB: honest split-brain — availability vs divergent-work cost
// ---------------------------------------------------------------------

/// Fig. SB: what quorum fencing costs and buys under an honest network
/// partition, Lion vs 2PC/Star/Calvin.
///
/// A 4-node cluster with `rf = 3` (round-robin: partition `p_i`'s replica
/// set is `{N_i, N_{i+1}, N_{i+2}}`) loses `{N2, N3}` to a network cut one
/// third into the run and heals at two thirds. Three arms per protocol:
///
/// * **crash-approx** — the legacy path: the majority side treats the
///   isolated nodes as crashed; every transaction they were serving is
///   aborted, their goodput is zero for the window.
/// * **quorum-fence** — honest split-brain with epoch group commit: both
///   sides stay live, but a commit whose writes touch a partition served
///   from the non-quorum side parks its ack behind the quorum fence; the
///   heal aborts those divergent epochs and the clients resubmit, each
///   paying its request round trip. `acked_then_lost` stays 0.
/// * **optimistic** — honest split-brain with ack-at-commit: the minority
///   side acks immediately, and the heal audit counts every ack whose
///   timeline lost (`acked_then_lost > 0`).
fn fig_sb(scale: Scale) -> String {
    const EPOCH_US: u64 = 5_000;
    // (arm, honest split-brain, epoch length)
    const ARMS: [(&str, bool, u64); 3] = [
        ("crash-approx", false, EPOCH_US),
        ("quorum-fence", true, EPOCH_US),
        ("optimistic", true, 0),
    ];
    let (horizon, cut_at, heal_at) = fault_window(scale);
    let cut = vec![NodeId(2), NodeId(3)];
    let mut sim = base_sim(4);
    sim.replication_factor = 3;
    sim.max_replicas = 4;
    let grid = Grid::run(FAULT_SET.len(), 1, ARMS.len(), |r, _, a| {
        let (arm, split, epoch_us) = ARMS[a];
        let mut plan = FaultPlan::new()
            .partition_at(cut_at, cut.clone())
            .heal_at(heal_at);
        if split {
            plan = plan.with_split_brain();
        }
        Job::new(
            format!("{}/{arm}", FAULT_SET[r].label()),
            FAULT_SET[r],
            sim.clone(),
            ycsb_spec(4, 0.5, 0.0, 93),
            horizon,
        )
        .with_faults(plan)
        .with_epoch_commit(epoch_us)
    });

    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Fig. SB: honest split-brain — {{N2,N3}} cut off at t={}s, healed at t={}s (rf=3)",
        cut_at / 1_000_000,
        heal_at / 1_000_000
    );
    let _ = writeln!(
        out,
        "{:<10} {:<13} {:>9} {:>9} {:>7} {:>8} {:>9} {:>9} {:>11}",
        "protocol",
        "arm",
        "goodput",
        "minority",
        "fenced",
        "divergent",
        "retried",
        "lost",
        "unavail(ms)"
    );
    let _ = writeln!(
        out,
        "{:<10} {:<13} {:>9} {:>9} {:>7} {:>8} {:>9} {:>9}",
        "", "", "(ktxn/s)", "commits", "acks", "epochs", "acks", "acks"
    );
    for (ri, proto) in FAULT_SET.iter().enumerate() {
        for (ai, (arm, ..)) in ARMS.iter().enumerate() {
            let r = grid.at(ri, 0, ai);
            let _ = writeln!(
                out,
                "{:<10} {:<13} {:>9.1} {:>9} {:>7} {:>8} {:>9} {:>9} {:>11.1}",
                proto.label(),
                arm,
                r.throughput_tps / 1000.0,
                r.minority_commits,
                r.fenced_acks,
                r.divergent_epochs_aborted,
                r.epoch_retried_acks,
                r.acked_then_lost,
                r.unavailability_us as f64 / 1000.0,
            );
        }
    }
    let _ = writeln!(
        out,
        "\n(`minority commits` = work the non-quorum side kept serving through the cut —\n\
         zero under crash-approx, which kills that side outright. `fenced acks` parked\n\
         behind the quorum fence and `divergent epochs` were aborted at heal; their\n\
         clients resubmitted (`retried acks`), so `lost` stays 0 for quorum-fence. The\n\
         optimistic arm releases minority acks at commit and pays for it at heal with\n\
         `lost` > 0 — acks whose timeline did not survive.)"
    );
    out
}

// ---------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------

/// An experiment renders its tables at the given scale.
pub type Experiment = fn(Scale) -> String;

/// Every experiment by CLI name, in the order `all` runs them.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table1", |_| table1()),
    ("table2", |_| table2()),
    ("fig6", fig6),
    ("fig7", |s| {
        skewed_sweeps(s, 7, "standard", &ProtoKind::standard_set())
    }),
    ("fig8", |s| dynamic(s, 8, "", &ProtoKind::standard_set())),
    ("fig9", |s| {
        skewed_sweeps(s, 9, "batch", &ProtoKind::batch_set())
    }),
    ("fig10", |s| {
        dynamic(s, 10, ", batch", &ProtoKind::batch_set())
    }),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13a", fig13a),
    ("fig13b", fig13b),
    ("fig14", fig14),
    ("figf1", fig_f1),
    ("figf2", fig_f2),
    ("fige", fig_e),
    ("figsb", fig_sb),
];

/// Runs the experiment named `which` — or, for `all`, every registry entry
/// in order, a blank line after each. `None` for an unknown name.
pub fn run(which: &str, scale: Scale) -> Option<String> {
    select(EXPERIMENTS, which, scale)
}

/// [`run`] over an explicit registry (the tests substitute instant stubs
/// for the minutes-long figures).
fn select(registry: &[(&str, Experiment)], which: &str, scale: Scale) -> Option<String> {
    if which == "all" {
        return Some(registry.iter().map(|(_, f)| f(scale) + "\n").collect());
    }
    let (_, f) = registry.iter().find(|(name, _)| *name == which)?;
    Some(f(scale))
}

/// The `lion-bench` usage line, printed from the registry.
pub fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    format!(
        "usage: lion-bench [{}|all|obsgate] [--full] [--export=runs.jsonl]",
        names.join("|")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render() {
        let t1 = table1();
        assert!(t1.contains("Lion") && t1.contains("adaptive replication"));
        let t2 = table2();
        assert!(t2.contains("Lion(RW)"));
        assert!(t2.contains("Schism"));
    }

    #[test]
    fn grid_hands_back_the_report_of_the_cell_that_generated_it() {
        // 24 jobs on the pool complete in host-scheduling order; each
        // carries its coordinates in the label, so a lookup that returns
        // another cell's report is caught by name.
        let grid = Grid::run(3, 4, 2, |r, c, a| {
            // Uneven horizons, so completion order differs from generation
            // order even on one worker pair.
            let seed = (r * 100 + c * 10 + a) as u64;
            crate::harness::tiny_job(format!("{r}/{c}/{a}"), seed, 20_000 * (1 + seed % 5))
        });
        for r in 0..3 {
            for c in 0..4 {
                for a in 0..2 {
                    assert_eq!(grid.at(r, c, a).protocol, format!("{r}/{c}/{a}"));
                }
            }
        }
        let order: Vec<&str> = grid.iter().map(|r| r.protocol.as_str()).collect();
        assert_eq!(order.len(), 24);
        assert_eq!((order[0], order[1], order[23]), ("0/0/0", "0/0/1", "2/3/1"));
    }

    #[test]
    fn registry_is_the_one_list_of_experiments() {
        let usage = usage();
        for (i, (name, _)) in EXPERIMENTS.iter().enumerate() {
            assert!(usage.contains(&format!("{name}|")), "{name} not in usage");
            let first = EXPERIMENTS.iter().position(|(n, _)| n == name);
            assert_eq!(first, Some(i), "{name} registered twice");
        }
        assert_eq!(run("perf", Scale::quick()), None);
        assert_eq!(run("table1", Scale::quick()), Some(table1()));

        // Dispatch and `all` over stubs: every entry runs for its own name,
        // and `all` is each entry exactly once, in registry order.
        let stubs: &[(&str, Experiment)] = &[
            ("x", |_| "X\n".into()),
            ("y", |s| format!("Y {}\n", s.steady_us)),
            ("z", |_| "Z\n".into()),
        ];
        let scale = Scale::quick();
        for (name, f) in stubs {
            assert_eq!(select(stubs, name, scale), Some(f(scale)));
        }
        let all = select(stubs, "all", scale).expect("all always dispatches");
        assert_eq!(all, "X\n\nY 2000000\n\nZ\n\n");
    }
}
