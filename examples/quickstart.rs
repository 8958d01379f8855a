//! Quickstart: run Lion and classic 2PC side by side on a YCSB workload and
//! compare throughput, latency, and how many transactions each executed as
//! single-node vs distributed.
//!
//! ```text
//! cargo run --release --example quickstart [cross_ratio] [skew] [seconds]
//! ```

use lion::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cross: f64 = args.first().and_then(|a| a.parse().ok()).unwrap_or(0.5);
    let skew: f64 = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(0.0);
    let secs: u64 = args.get(2).and_then(|a| a.parse().ok()).unwrap_or(4);
    let plan_ms: u64 = args.get(3).and_then(|a| a.parse().ok()).unwrap_or(500);

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
        plan_interval_us: plan_ms * 1_000,
        ..Default::default()
    };
    let workload = || {
        Box::new(YcsbWorkload::new(
            YcsbConfig::for_cluster(4, 8, 4_000)
                .with_mix(cross, skew)
                .with_seed(7),
        ))
    };

    println!("YCSB: cross={cross} skew={skew} horizon={secs}s");
    for build in [true, false] {
        let mut eng = Engine::new(engine_cfg.clone(), workload());
        let report = if build {
            let mut lion = Lion::standard();
            let r = eng.run(&mut lion, secs * SECOND);
            let rounds = &lion.rounds;
            println!(
                "  [Lion diagnostics] plans={} refused={} wv={:.3} pre_repl={} remasters={} conflicts={} adds={}",
                rounds.iter().filter(|r| r.actions > 0).count(),
                rounds.iter().map(|r| r.refused).sum::<usize>(),
                rounds.iter().rev().find_map(|r| r.wv).unwrap_or(0.0),
                rounds.iter().filter(|r| r.pre_replicated).count(),
                eng.metrics.remasters,
                eng.metrics.remaster_conflicts,
                eng.metrics.replica_adds
            );
            let rs: Vec<f64> = eng.metrics.remaster_series.buckets().to_vec();
            println!("  remasters/s: {rs:?}");
            let pl = &eng.cluster.placement;
            let prim: Vec<u16> = (0..pl.n_partitions())
                .map(|p| pl.primary_of(lion::common::PartitionId(p as u32)).0)
                .collect();
            println!("  primaries: {prim:?}");
            r
        } else {
            let mut twopc = lion::baselines::two_pc();
            eng.run(&mut twopc, secs * SECOND)
        };
        // summary_row's percentiles are commit-time latency; the ack row is
        // what a client observes (they only differ under epoch group commit).
        println!("  {}", report.summary_row());
        println!("  {}", report.ack_row());
    }
}
