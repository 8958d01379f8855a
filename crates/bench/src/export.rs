//! `--export`: collects every [`RunReport`] the harness produces as JSONL.
//!
//! [`crate::harness::run_job`] records each finished report here; after the
//! requested experiments complete, `lion-bench` writes one JSON object per
//! line (see `RunReport::to_json`) to the requested path. Worker threads
//! finish in host-scheduling order, so lines are sorted before writing —
//! the file is deterministic for a fixed experiment selection even though
//! the sweep executor is parallel.

use lion_engine::RunReport;
use std::sync::Mutex;

static COLLECTED: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Records one finished run. Called by the harness for every job; the cost
/// is one JSON serialization, negligible next to the run itself.
pub fn record(report: &RunReport) {
    let line = report.to_json();
    COLLECTED.lock().expect("export collector").push(line);
}

/// Drains everything recorded so far as a deterministic JSONL document
/// (lines sorted, trailing newline). Empty string when nothing ran.
pub fn drain_jsonl() -> String {
    let mut lines = std::mem::take(&mut *COLLECTED.lock().expect("export collector"));
    if lines.is_empty() {
        return String::new();
    }
    lines.sort_unstable();
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_job, tiny_job};

    #[test]
    fn harness_runs_are_collected_and_drain_as_jsonl() {
        drop(drain_jsonl()); // isolate from any earlier test's leftovers
        let report = run_job(&tiny_job("export-smoke", 3, 100_000));
        let doc = drain_jsonl();
        let lines: Vec<&str> = doc.lines().filter(|l| l.contains("export-smoke")).collect();
        assert_eq!(lines.len(), 1, "one line per run");
        let parsed = lion_obs::json::parse(lines[0]).expect("valid JSON line");
        assert_eq!(
            parsed.get("commits").unwrap().as_num(),
            Some(report.commits as f64)
        );
        assert!(parsed.get("node_rollups").unwrap().as_arr().is_some());
        // Drained means drained.
        assert!(!drain_jsonl().contains("export-smoke"));
    }
}
