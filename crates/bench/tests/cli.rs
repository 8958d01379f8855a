//! The `lion-bench` command line rejects what it does not understand: a
//! mistyped flag or a retired subcommand exits 2 with the usage line
//! instead of silently running something else.

use std::process::Command;

fn lion_bench(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lion-bench"))
        .args(args)
        .output()
        .expect("lion-bench runs");
    assert!(out.stdout.is_empty(), "nothing ran for {args:?}");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn unknown_flags_and_experiments_exit_2_with_usage() {
    let usage = lion_bench::figures::usage();
    for (args, problem) in [
        (&["table1", "--quick"][..], "unknown flag `--quick`"),
        (&["--ful"][..], "unknown flag `--ful`"),
        (&["perf"][..], "unknown experiment `perf`"),
    ] {
        let (code, stderr) = lion_bench(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(stderr.contains(problem), "{args:?}: {stderr}");
        assert!(stderr.contains(&usage), "{args:?}: {stderr}");
    }
}
