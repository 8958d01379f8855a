//! Adaptive rebalancing under a changing hotspot (the Fig. 8 scenario,
//! time-compressed): the workload's co-access pairing shifts every period;
//! watch Lion re-plan (early, when traffic leaves its plan), pre-replicate,
//! and recover while 2PC stays flat-low.
//!
//! ```text
//! cargo run --release --example adaptive_rebalancing [period_secs] [periods]
//! ```

use lion::core::Trigger;
use lion::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let period: u64 = args.first().and_then(|a| a.parse().ok()).unwrap_or(5);
    let periods: u64 = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(4);

    let sim = SimConfig {
        nodes: 4,
        partitions_per_node: 8,
        keys_per_partition: 4_000,
        value_size: 64,
        clients_per_node: 24,
        ..Default::default()
    };
    let engine_cfg = EngineConfig {
        sim,
        plan_interval_us: 500_000,
        ..Default::default()
    };
    let schedule = Schedule::interval_shift(period * SECOND, 3, 9, 1.0);
    let horizon = period * periods * SECOND;

    println!("hotspot shifts every {period}s; running {periods} periods\n");
    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    for lion_run in [true, false] {
        let wl = Box::new(YcsbWorkload::new(
            YcsbConfig::for_cluster(4, 8, 4_000)
                .with_schedule(schedule.clone())
                .with_seed(3),
        ));
        let mut eng = Engine::new(engine_cfg.clone(), wl);
        let report =
            if lion_run {
                let mut lion = Lion::standard();
                let r = eng.run(&mut lion, horizon);
                let rounds = &lion.rounds;
                println!(
                "Lion: plans={} early-rounds={} pre-replications={} remasters={} replica-adds={}",
                rounds.iter().filter(|r| r.actions > 0).count(),
                rounds.iter().filter(|r| r.trigger == Trigger::Early).count(),
                rounds.iter().filter(|r| r.pre_replicated).count(),
                eng.metrics.remasters,
                eng.metrics.replica_adds
            );
                r
            } else {
                eng.run(&mut lion::baselines::two_pc(), horizon)
            };
        if lion_run {
            // Per-node rollups from the dimensioned sink: rebalancing should
            // keep the commit share roughly even across nodes even as the
            // hotspot moves.
            println!("per-node rollups:");
            for n in &report.node_rollups {
                println!(
                    "  {}: {:>8} commits ({:>7.0} tps)  p50={} us",
                    n.label, n.commits, n.goodput_tps, n.p50_us
                );
            }
        }
        rows.push((report.protocol.clone(), report.throughput_series.clone()));
        println!("{}\n", report.summary_row());
    }

    println!("throughput timeline (k txn/s per second):");
    print!("{:<8}", "t(s)");
    let secs = rows.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    for s in 0..secs {
        print!("{s:>6}");
    }
    println!();
    for (name, series) in &rows {
        print!("{name:<8}");
        for s in 0..secs {
            print!("{:>6.0}", series.get(s).copied().unwrap_or(0.0) / 1000.0);
        }
        println!();
    }
}
