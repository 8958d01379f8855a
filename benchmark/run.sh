#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it:
#
#   benchmark/run.sh [--seed S] [--seconds N] [--smoke]           every workload, both passes
#   benchmark/run.sh --workload W --seed S --seconds N --trace T  one workload, one pass
#
# The last line of standard output is one JSON object; the exit code is 0 only
# when every output check passed. Build output goes to $CARGO_TARGET_DIR, or
# benchmark/target when that is unset.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
