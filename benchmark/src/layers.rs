//! The traced pass: one untraced reference run, one run with the decorators
//! and the counting sink attached, then the layer replays — and the
//! per-layer metrics computed from the three.

use crate::measure::{normalised_us, quantile, run_once, us_per_txn, violations, Finished};
use crate::metrics::{MetricSet, PER_LAYER};
use crate::replay;
use crate::spec::Scenario;
use crate::trace::{Callback, Tracer, CLASS_WINDOW_US};
use crate::Outcome;
use lion::prelude::*;

/// Windowed single-node share a phase change must climb back above.
const ADAPTED_SHARE: f64 = 0.9;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Mean virtual ms from each phase boundary until a 100 ms window's
/// single-node share is back above [`ADAPTED_SHARE`] (the rest of the phase
/// when it never is), and the lowest windowed share of the run.
fn adaptation(scn: &Scenario, windows: &[(u32, u32)]) -> (f64, f64) {
    let share = |w: &(u32, u32)| ratio(w.0 as f64, w.1 as f64);
    let min_share = windows
        .iter()
        .filter(|w| w.1 > 0)
        .map(share)
        .fold(1.0f64, f64::min);
    let boundaries = scn.phase_boundaries();
    let mut lag_us = 0u64;
    for (i, &b) in boundaries.iter().enumerate() {
        let phase_end = boundaries.get(i + 1).copied().unwrap_or(scn.horizon());
        let first = (b / CLASS_WINDOW_US) as usize;
        let last = ((phase_end / CLASS_WINDOW_US) as usize).min(windows.len());
        let adapted = (first..last).find(|&w| share(&windows[w]) >= ADAPTED_SHARE);
        lag_us += adapted.map_or(phase_end - b, |w| (w as u64 + 1) * CLASS_WINDOW_US - b);
    }
    (
        ratio(lag_us as f64 / 1e3, boundaries.len() as f64),
        min_share,
    )
}

/// Runs the traced pass and writes the sampled spans to `trace_path`.
pub fn traced_pass(scn: &Scenario, trace_path: &std::path::Path) -> Outcome {
    let reference = run_once(scn, None);
    let mut bad = violations(scn, &reference);
    let ref_digest = reference.report.digest();
    let ref_us_per_txn = us_per_txn(&reference.slices);
    let ref_wall_ns = reference.wall_s * 1e9;
    let ref_commits = reference.report.commits;
    let host_us = normalised_us(&reference.slices) / ref_commits as f64;
    drop(reference.eng);

    let mut tracer = Tracer::new();
    let run = run_once(scn, Some(&mut tracer));
    bad.extend(violations(scn, &run));
    let digest = run.report.digest();
    if digest != ref_digest {
        bad.push(format!(
            "{}: traced digest {digest:#018x} != untraced {ref_digest:#018x} (observers must not steer)",
            scn.spec.name
        ));
    }

    let (nows, gen_calls, gen_busy_ns, run_fingerprint) = {
        let mut g = tracer.gen.lock().expect("single-threaded");
        (
            std::mem::take(&mut g.nows),
            g.calls,
            g.busy_ns,
            g.fingerprint,
        )
    };
    let (events_emitted, recorded, sink_commits, class_windows) = {
        let mut s = tracer.sink.borrow_mut();
        (
            s.events,
            std::mem::take(&mut s.recorded),
            s.commits,
            std::mem::take(&mut s.class_windows),
        )
    };
    if sink_commits != run.report.commits {
        bad.push(format!(
            "{}: sink saw {sink_commits} commits, report {}",
            scn.spec.name, run.report.commits
        ));
    }

    let replays = replay::stream_replays(scn, &nows, run.report.abort_rate);
    if (replays.stream.txns, replays.stream.fingerprint) != (gen_calls, run_fingerprint) {
        bad.push(format!(
            "{}: replays did not consume the request stream the run saw",
            scn.spec.name
        ));
    }
    let fel_ns_per_op = replay::fel_replay(scn, &tracer.proto.pops);
    let emit_ns_per_event = replay::emit_replay(recorded);

    if let Err(e) = tracer.write_jsonl(trace_path) {
        bad.push(format!(
            "{}: cannot write {}: {e}",
            scn.spec.name,
            trace_path.display()
        ));
    }

    let mut m = MetricSet::new(PER_LAYER);
    let r = &run.report;
    let commits = r.commits as f64;
    let events = r.events as f64;
    let run_ns = run.wall_s * 1e9;
    let proto = &tracer.proto;
    let per_call = |cb: Callback| {
        ratio(
            proto.busy_ns[cb as usize] as f64,
            proto.calls[cb as usize] as f64,
        )
    };

    m.set("engine.events", events);
    m.set("engine.events_per_commit", ratio(events, commits));
    m.set(
        "engine.host_ns_per_event",
        ratio(host_us * 1e3 * commits, events),
    );
    let loop_self_ns = run_ns - proto.total_busy_ns() as f64 - gen_busy_ns as f64;
    m.set("engine.loop_self_ns_per_event", ratio(loop_self_ns, events));
    m.set("engine.loop_self_share", ratio(loop_self_ns, run_ns));
    m.set("engine.retries_per_commit", ratio(r.aborts as f64, commits));
    m.set("engine.sim_commit_p50_us", r.latency_p[1] as f64);
    m.set("engine.sim_commit_p99_us", r.latency_p[3] as f64);
    m.set("engine.p50_floor_x", r.p50_floor_x);
    for (phase, frac) in Phase::ALL.iter().zip(r.phase_fractions) {
        m.set(&format!("engine.phase_frac.{}", phase.label()), frac);
    }

    for (cb, name) in [
        (Callback::Submit, "submit"),
        (Callback::Wake, "wake"),
        (Callback::Batch, "batch"),
        (Callback::TickPlanner, "tick_planner"),
        (Callback::TickMonitor, "tick_monitor"),
        (Callback::Fault, "fault"),
    ] {
        m.set(
            &format!("protocol.{name}_calls"),
            proto.calls[cb as usize] as f64,
        );
    }
    m.set(
        "protocol.submit_busy_ns_per_call",
        per_call(Callback::Submit),
    );
    m.set("protocol.wake_busy_ns_per_call", per_call(Callback::Wake));
    m.set(
        "protocol.batch_busy_ns_per_txn",
        ratio(
            proto.busy_ns[Callback::Batch as usize] as f64,
            proto.batch_txns as f64,
        ),
    );
    m.set(
        "protocol.tick_planner_busy_ms_per_call",
        per_call(Callback::TickPlanner) / 1e6,
    );
    m.set(
        "protocol.busy_share",
        ratio(proto.total_busy_ns() as f64, run_ns),
    );

    let s = &replays.stream;
    m.set("workloads.gen_calls", gen_calls as f64);
    m.set(
        "workloads.gen_busy_ns_per_call",
        ratio(gen_busy_ns as f64, gen_calls as f64),
    );
    m.set("workloads.gen_share", ratio(gen_busy_ns as f64, run_ns));
    m.set("workloads.ops_per_txn", ratio(s.ops as f64, s.txns as f64));
    m.set("workloads.write_frac", ratio(s.writes as f64, s.ops as f64));
    m.set(
        "workloads.parts_per_txn",
        ratio(s.parts as f64, s.txns as f64),
    );

    m.set("obs.events_emitted", events_emitted as f64);
    m.set(
        "obs.events_per_commit",
        ratio(events_emitted as f64, commits),
    );
    m.set("obs.emit_ns_per_event", emit_ns_per_event);
    m.set(
        "obs.share_est",
        ratio(emit_ns_per_event * events_emitted as f64, ref_wall_ns),
    );
    m.set("sim.fel_ns_per_op", fel_ns_per_op);
    m.set(
        "sim.fel_share_est",
        ratio(fel_ns_per_op * events, ref_wall_ns),
    );
    m.set(
        "sim.fel_observed_frac",
        ratio(proto.pops_seen() as f64, events),
    );

    m.set("storage.occ_read_ns_per_op", replays.storage.read_ns_per_op);
    m.set(
        "storage.lock_install_ns_per_write",
        replays.storage.lock_install_ns_per_write,
    );
    m.set(
        "storage.validate_ns_per_read",
        replays.storage.validate_ns_per_read,
    );
    m.set(
        "storage.log_append_ns_per_write",
        replays.storage.log_append_ns_per_write,
    );
    let (rows_end, bytes_end, replicas_end) = end_state(&run);
    m.set("storage.rows_end", rows_end as f64);
    m.set("storage.bytes_end_mb", bytes_end as f64 / (1 << 20) as f64);

    let em = &run.eng.metrics;
    m.set("cluster.commits_single_node", em.single_node as f64);
    m.set("cluster.commits_remastered", em.remastered as f64);
    m.set("cluster.commits_distributed", em.distributed as f64);
    m.set(
        "cluster.message_bytes_per_commit",
        ratio(em.msg_bytes as f64, commits),
    );
    m.set(
        "cluster.replication_bytes_per_commit",
        ratio(em.replication_bytes as f64, commits),
    );
    m.set("cluster.migration_bytes_total", em.migration_bytes as f64);
    m.set("cluster.remasters", em.remasters as f64);
    m.set("cluster.remaster_conflicts", em.remaster_conflicts as f64);
    m.set("cluster.replica_adds", em.replica_adds as f64);
    m.set("cluster.replica_evictions", em.replica_evictions as f64);
    m.set("cluster.migrations", em.migrations as f64);
    m.set("cluster.replicas_per_partition_end", replicas_end);

    m.set(
        "planner.heatgraph_build_ns_per_txn",
        replays.planner.heatgraph_build_ns_per_txn,
    );
    m.set(
        "planner.generate_clumps_us",
        replays.planner.generate_clumps_us,
    );
    m.set("planner.rearrange_us", replays.planner.rearrange_us);
    m.set("planner.clumps_per_round", replays.planner.clumps_per_round);
    m.set(
        "planner.plan_actions_per_round",
        replays.planner.plan_actions_per_round,
    );
    m.set(
        "predictor.observe_ns_per_txn",
        replays.predictor.observe_ns_per_txn,
    );
    m.set(
        "predictor.predict_us_per_call",
        replays.predictor.predict_us_per_call,
    );
    m.set("predictor.lstm_fit_ms", replays.predictor.lstm_fit_ms);
    m.set("predictor.forecast_mse", replays.predictor.forecast_mse);
    let (adapt_lag_ms, min_share) = adaptation(scn, &class_windows);
    m.set("core.adapt_lag_ms", adapt_lag_ms);
    m.set("core.min_window_single_node_frac", min_share);

    m.set("durability.epochs_sealed", r.epochs_sealed as f64);
    m.set("durability.epochs_aborted", r.epochs_aborted as f64);
    m.set("durability.epoch_retried_acks", r.epoch_retried_acks as f64);
    m.set(
        "durability.ack_minus_commit_p50_us",
        r.ack_latency_p[0] as f64 - r.latency_p[1] as f64,
    );
    m.set(
        "durability.park_seal_ns_per_ack",
        replay::durability_replay(scn),
    );

    m.set("faults.failovers", r.failovers as f64);
    m.set("faults.replayed_entries", r.replayed_entries as f64);
    m.set("faults.fault_aborts", r.fault_aborts as f64);
    m.set(
        "faults.mean_recovery_latency_us",
        r.mean_recovery_latency_us,
    );
    m.set("faults.unavail_ms", r.unavailability_us as f64 / 1e3);
    let ramp_us = scn.crash().map_or(0, |(down, _)| {
        r.recovery_ramp_us(down, down, ADAPTED_SHARE)
            .unwrap_or(scn.horizon() - down)
    });
    m.set("faults.recovery_ramp_ms", ramp_us as f64 / 1e3);
    m.set(
        "faults.plan_failover_ns_per_plan",
        replay::failover_replay(scn),
    );

    let traced_us = normalised_us(&run.slices) / commits;
    m.set("trace.overhead_frac", ratio(traced_us, host_us) - 1.0);
    m.set("trace.spans_sampled", tracer.spans_sampled() as f64);
    m.set("host.us_per_commit", host_us);
    let slice_median = quantile(&ref_us_per_txn, 0.5);
    m.set("host.us_per_txn_slice_median", slice_median);
    m.set(
        "host.raw_us_per_commit_run",
        ratio(ref_wall_ns / 1e3, ref_commits as f64),
    );
    let iqr = quantile(&ref_us_per_txn, 0.75) - quantile(&ref_us_per_txn, 0.25);
    m.set("host.slice_spread_frac", ratio(iqr, slice_median));
    m.set("host.slices", ref_us_per_txn.len() as f64);

    Outcome {
        digest,
        attempted: r.commits,
        failed: r.acked_then_lost,
        metrics: m,
        violations: bad,
    }
}

/// Rows and payload bytes on the primaries, and mean replicas per partition,
/// at the end of the run.
fn end_state(run: &Finished) -> (usize, u64, f64) {
    let cluster = &run.eng.cluster;
    let (mut rows, mut bytes, mut replicas) = (0usize, 0u64, 0usize);
    for p in 0..cluster.n_partitions() {
        let part = PartitionId(p as u32);
        if let Some(store) = cluster.store(cluster.placement.primary_of(part), part) {
            rows += store.table.len();
            bytes += store.table.bytes();
        }
        replicas += cluster.placement.replica_count(part);
    }
    (rows, bytes, replicas as f64 / cluster.n_partitions() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::by_name;

    #[test]
    fn adaptation_lag_is_measured_from_each_boundary() {
        let scn = Scenario {
            spec: by_name("ycsb_shift_lion_batch").unwrap(),
            seed: 1,
            scale_div: 1,
        };
        // 60 windows of 100 ms; after each 1.5 s boundary the share dips for
        // three windows (300 ms), and once more to 0.5 inside the dips.
        let mut windows = vec![(95u32, 100u32); 60];
        for b in [15usize, 30, 45] {
            for w in &mut windows[b..b + 3] {
                *w = (50, 100);
            }
        }
        let (lag_ms, min_share) = adaptation(&scn, &windows);
        assert_eq!(
            lag_ms, 400.0,
            "three dipped windows, adapted at the end of the fourth"
        );
        assert_eq!(min_share, 0.5);
        let still = Scenario {
            spec: by_name("ycsb_lion").unwrap(),
            seed: 1,
            scale_div: 1,
        };
        assert_eq!(adaptation(&still, &windows).0, 0.0, "no boundaries, no lag");
    }

    /// The satellite's core promise on a tiny config: decorators and sinks
    /// are pure observers (same digest), the per-layer set is complete, the
    /// shares account for the run, and the replays saw the run's stream
    /// (else `violations` would say so).
    #[test]
    fn decorated_run_matches_undecorated_run() {
        for spec in crate::spec::WORKLOADS {
            let scn = Scenario {
                spec,
                seed: 5,
                scale_div: 25,
            };
            let dir = crate::out_dir().join(format!("test-{}", std::process::id()));
            let path = dir.join(format!("trace-{}.jsonl", spec.name));
            let pass = traced_pass(&scn, &path);
            assert_eq!(pass.violations, Vec::<String>::new());
            assert_eq!(pass.digest, run_once(&scn, None).report.digest());
            let m = &pass.metrics;
            lion::obs::json::parse(&m.to_json()).expect("complete, valid JSON");
            let shares = m.get("engine.loop_self_share")
                + m.get("protocol.busy_share")
                + m.get("workloads.gen_share");
            assert!(
                (shares - 1.0).abs() < 1e-9,
                "{}: shares sum to {shares}",
                spec.name
            );
            let spans = std::fs::read_to_string(&path).expect("trace written");
            assert_eq!(spans.lines().count() as f64, m.get("trace.spans_sampled"));
            assert!(spans
                .lines()
                .next()
                .unwrap()
                .contains("\"name\":\"engine.run\""));
            for line in spans.lines() {
                lion::obs::json::parse(line).expect("each span is one JSON object");
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
