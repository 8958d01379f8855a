//! `lion-bench`: regenerates the paper's tables and figures.
//!
//! ```text
//! lion-bench [EXPERIMENT|all] [--full] [--export=runs.jsonl]
//! lion-bench obsgate
//! ```
//!
//! `EXPERIMENT` is a name from [`figures::EXPERIMENTS`] (the usage line
//! prints them; each function's doc comment in `figures.rs` says what it
//! measures and why its arms are what they are). No name, or `all`, runs
//! the whole registry in order. An unknown name or flag exits 2 with the
//! usage line.
//!
//! `--full` lengthens the runs (5 s steady-state, 15 s hotspot periods);
//! the default quick scale finishes the whole suite in a few minutes.
//!
//! `--export=PATH` writes every run the selected experiments performed as
//! JSON Lines — one `RunReport::to_json` object per line — so plots and
//! regression tooling can consume the numbers without scraping the tables.
//!
//! `obsgate` is the observability-overhead gate: the same job under
//! `ObsMode::Null` and `ObsMode::Full`, failing CI if the full metrics
//! pipeline costs more than 3% in events/sec (`OBS_GATE_TOLERANCE`
//! overrides).

use lion_bench::figures;
use lion_bench::Scale;

fn usage_exit(problem: String) -> ! {
    eprintln!("{problem}");
    eprintln!("{}", figures::usage());
    std::process::exit(2);
}

fn main() {
    let mut scale = Scale::quick();
    let mut export_path = None;
    let mut which = None;
    for arg in std::env::args().skip(1) {
        if arg == "--full" {
            scale = Scale::full();
        } else if let Some(path) = arg.strip_prefix("--export=") {
            export_path.get_or_insert(path.to_string());
        } else if arg.starts_with("--") {
            usage_exit(format!("unknown flag `{arg}`"));
        } else {
            which.get_or_insert(arg);
        }
    }
    let which = which.unwrap_or_else(|| "all".into());

    if which == "obsgate" {
        match lion_bench::obsgate::run() {
            Ok(()) => std::process::exit(0),
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(1);
            }
        }
    }

    let Some(out) = figures::run(&which, scale) else {
        usage_exit(format!("unknown experiment `{which}`"));
    };
    println!("{out}");

    if let Some(path) = export_path {
        let doc = lion_bench::export::drain_jsonl();
        let runs = doc.lines().count();
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("failed to write export to {path}: {e}");
            std::process::exit(1);
        }
        println!("exported {runs} runs to {path}");
    }
}
