//! `lion-bench obsgate`: CI gate on observability overhead.
//!
//! The metrics pipeline sits on the engine's hot path — every commit, abort
//! and byte transfer emits a [`MetricEvent`](lion_engine::MetricEvent). This
//! gate runs one fixed YCSB job under [`ObsMode::Null`](lion_engine::ObsMode)
//! (events constructed and discarded at the hub) and `ObsMode::Full` (run
//! metrics + dimensioned rollups), takes the best of several repeats of
//! each (best-of-N discards scheduler noise), and fails if full
//! observability costs more than the tolerance in events-per-wall-second.
//!
//! Tolerance defaults to 3% and can be widened on noisy shared runners via
//! the `OBS_GATE_TOLERANCE` env var (e.g. `OBS_GATE_TOLERANCE=0.10`).

use crate::harness::{base_sim, run_job_with_obs, ycsb_spec, Job, ProtoKind};
use lion_engine::ObsMode;
use std::time::Instant;

/// Default headroom for the Full pipeline vs the Null baseline.
const DEFAULT_TOLERANCE: f64 = 0.03;

/// Repeats per mode; only the fastest counts.
const REPEATS: usize = 5;

fn gate_job() -> Job {
    // Mid-size, contended enough to exercise every event variant that
    // matters for throughput: commits, aborts, replication, messages.
    let sim = base_sim(4);
    Job::new(
        "obsgate",
        ProtoKind::LionStd,
        sim,
        ycsb_spec(4, 0.2, 0.6, 42),
        1_000_000,
    )
}

fn best_rate(job: &Job, mode: ObsMode) -> (f64, u64) {
    let mut best = 0.0f64;
    let mut events = 0u64;
    for _ in 0..REPEATS {
        let start = Instant::now();
        let report = run_job_with_obs(job, mode);
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        let rate = report.events as f64 / secs;
        if rate > best {
            best = rate;
        }
        events = report.events;
    }
    (best, events)
}

/// Runs the gate. Returns `Err` with a human-readable message on failure so
/// `main` can print it and exit non-zero.
pub fn run() -> Result<(), String> {
    let tolerance = std::env::var("OBS_GATE_TOLERANCE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(DEFAULT_TOLERANCE);
    let job = gate_job();

    println!(
        "obsgate: {REPEATS}x per mode, tolerance {:.1}%",
        tolerance * 100.0
    );
    let (null_rate, null_events) = best_rate(&job, ObsMode::Null);
    let (full_rate, full_events) = best_rate(&job, ObsMode::Full);

    // The simulation itself is deterministic and the sink must not steer it:
    // both modes replay the identical event schedule.
    if null_events != full_events {
        return Err(format!(
            "obsgate: event-count divergence — Null processed {null_events} \
             events, Full processed {full_events}; the sink is influencing \
             the simulation"
        ));
    }

    let overhead = (null_rate - full_rate) / null_rate.max(1e-9);
    println!(
        "obsgate: Null {:>12.0} ev/s | Full {:>12.0} ev/s | overhead {:>6.2}%",
        null_rate,
        full_rate,
        overhead * 100.0
    );
    if overhead > tolerance {
        return Err(format!(
            "obsgate: full observability costs {:.2}% (> {:.1}% tolerance); \
             check for allocation or locking on the MetricSink hot path",
            overhead * 100.0,
            tolerance * 100.0
        ));
    }
    println!("obsgate: OK");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_and_full_replay_the_same_schedule() {
        // Cheap version of the gate's divergence check: a short run under
        // each mode processes the same number of events.
        let mut job = gate_job();
        job.horizon = 150_000;
        let null = run_job_with_obs(&job, ObsMode::Null);
        let full = run_job_with_obs(&job, ObsMode::Full);
        assert_eq!(null.events, full.events);
        // Null mode drops every metric on the floor...
        assert_eq!(null.commits, 0);
        // ...while Full records them.
        assert!(full.commits > 0);
    }
}
