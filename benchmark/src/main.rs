//! The benchmark of record for the Lion reproduction (see `README.md`).
//!
//! ```text
//! lion-benchmark --workload W --seed N --seconds S --trace 0|1   # one workload, one pass
//! lion-benchmark [--seed N] [--seconds S] [--smoke]              # every workload, both passes
//! ```
//!
//! The last line of standard output is one JSON object. The exit code is 0
//! only when every output check passed.

mod layers;
mod measure;
mod metrics;
mod replay;
mod spec;
mod trace;

use measure::{normalised_us, quantile, untraced_pass, Timed};
use metrics::{MetricSet, END_TO_END};
use spec::{Scenario, Spec, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

/// Where the traced pass writes its spans (`benchmark/out/`).
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

struct Args {
    workload: Option<Spec>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: 20.0,
        trace: None,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(spec::by_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One pass over one workload, in the shape the driver reads.
pub struct Outcome {
    /// The runs' report digest.
    pub digest: u64,
    /// Transactions committed, over all the pass's runs. Closed-loop clients
    /// retry an aborted transaction until it commits, so every attempted one
    /// is a commit.
    pub attempted: u64,
    /// Client-visible failures over the same runs: acked-then-lost writes.
    pub failed: u64,
    /// The pass's metrics.
    pub metrics: MetricSet,
    /// Output checks that failed (empty = correct).
    pub violations: Vec<String>,
}

impl Outcome {
    fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.violations.is_empty(),
            self.attempted,
            self.failed,
            self.metrics.to_json()
        )
    }
}

fn end_to_end(scn: &Scenario, args: &Args) -> Outcome {
    // `--smoke`: one repeat; otherwise at least two, so that digest equality
    // across repeats is always checked.
    let pass = if args.smoke {
        untraced_pass(scn, 0.0, 1)
    } else {
        untraced_pass(scn, args.seconds, 2)
    };
    let r = &pass.report;
    let mut m = MetricSet::new(END_TO_END);
    m.set(
        "host_us_per_commit",
        normalised_us(&pass.slices) / pass.commits as f64,
    );
    let setups_us: Vec<f64> = pass.setups.iter().map(Timed::normalised_us).collect();
    m.set("setup_s", quantile(&setups_us, 0.5) / 1e6);
    m.set("peak_rss_mb", pass.peak_rss_mb);
    m.set("sim_tps", r.throughput_tps);
    m.set("sim_ack_p50_us", pass.ack_p50_us);
    m.set("sim_ack_p99_us", pass.ack_p99_us);
    m.set(
        "sim_single_node_frac",
        r.class_fractions[0] + r.class_fractions[1],
    );
    m.set("sim_commit_frac", 1.0 - r.abort_rate);
    m.set("sim_bytes_per_commit", r.bytes_per_txn);
    let partition_us = scn.sim().n_partitions() as f64 * scn.horizon() as f64;
    m.set(
        "sim_avail_frac",
        1.0 - r.unavailability_us as f64 / partition_us,
    );
    eprintln!(
        "{}: {} repeats, {:.1} s in Engine::run, whole-run us/commit min {:.3} median {:.3}",
        scn.spec.name,
        pass.walls_s.len(),
        pass.walls_s.iter().sum::<f64>(),
        pass.walls_s.iter().cloned().fold(f64::INFINITY, f64::min) * 1e6 / r.commits as f64,
        quantile(&pass.walls_s, 0.5) * 1e6 / r.commits as f64,
    );
    Outcome {
        digest: r.digest(),
        attempted: pass.commits,
        failed: pass.acked_then_lost,
        metrics: m,
        violations: pass.violations,
    }
}

fn per_layer(scn: &Scenario) -> Outcome {
    layers::traced_pass(
        scn,
        &out_dir().join(format!("trace-{}.jsonl", scn.spec.name)),
    )
}

fn report(scn: &Scenario, outcome: &Outcome) {
    // Printed so a later change's reviewer sees whether simulated behaviour moved.
    println!(
        "digest {} seed={} {:#018x}",
        scn.spec.name, scn.seed, outcome.digest
    );
    for v in &outcome.violations {
        eprintln!("VIOLATION {v}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lion-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let scale_div = if args.smoke { 10 } else { 1 };
    let scenario = |spec: Spec| Scenario {
        spec,
        seed: args.seed,
        scale_div,
    };

    if let Some(spec) = args.workload {
        let scn = scenario(spec);
        let outcome = if args.trace == Some(true) {
            per_layer(&scn)
        } else {
            end_to_end(&scn, &args)
        };
        report(&scn, &outcome);
        println!("{}", outcome.to_json());
        return ExitCode::from(!outcome.violations.is_empty() as u8);
    }

    // Every workload, both passes: one child process per pass, which is how
    // the per-workload command is run on its own and what keeps one
    // workload's memory out of the next one's `peak_rss_mb`.
    let mut correct = true;
    let mut rows = Vec::new();
    for spec in WORKLOADS {
        let mut fields = Vec::new();
        for (key, traced) in [("end_to_end", "0"), ("per_layer", "1")] {
            if args.trace.is_some_and(|only| only != (traced == "1")) {
                continue;
            }
            let pass = match run_child(spec, &args, traced) {
                Ok(pass) => pass,
                Err(e) => {
                    eprintln!("lion-benchmark: {} --trace {traced}: {e}", spec.name);
                    return ExitCode::from(2);
                }
            };
            correct &= pass.correct;
            let digest = format!("\"digest\": \"{}\"", pass.digest);
            if fields.is_empty() {
                fields.push(digest);
            } else if fields[0] != digest {
                eprintln!("VIOLATION {}: the two passes' digests differ", spec.name);
                correct = false;
            }
            fields.push(format!("\"{key}\": {}", pass.json));
        }
        rows.push(format!("\"{}\": {{{}}}", spec.name, fields.join(", ")));
    }
    println!(
        "{{\"correct\": {correct}, \"seed\": {}, \"smoke\": {}, \"workloads\": {{{}}}}}",
        args.seed,
        args.smoke,
        rows.join(", ")
    );
    ExitCode::from(!correct as u8)
}

/// What a child process running one pass printed.
struct ChildPass {
    correct: bool,
    digest: String,
    json: String,
}

/// Runs one pass of one workload in a child process and waits for it. Its
/// standard error passes through; its `digest` line is echoed.
fn run_child(spec: Spec, args: &Args, traced: &str) -> Result<ChildPass, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", spec.name, "--trace", traced])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .stderr(std::process::Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let json = lines.next().ok_or("no output")?.to_string();
    let digest_line = lines.next().ok_or("no digest line")?;
    println!("{digest_line}");
    let digest = digest_line
        .rsplit(' ')
        .next()
        .unwrap_or_default()
        .to_string();
    Ok(ChildPass {
        correct: out.status.success(),
        digest,
        json,
    })
}
