#!/usr/bin/env bash
# A/B on the benchmark of record: this working tree (the change) against
# <parent-ref>, one workload, alternating pairs.
#
#   scripts/ab.sh <parent-ref> <workload> [pairs=10] [seed=7]
#
# Extracts <parent-ref> into a temporary directory (`git archive`: nothing is
# registered in .git), builds each side's benchmark crate into its own
# CARGO_TARGET_DIR there, then runs
#   benchmark/run.sh --workload W --seed S --seconds 20 --trace 0
# once per side per pair, the parent first in odd pairs and the change first
# in even ones. Prints, for each host metric, both sides' runs, median and
# quartiles and the pairs the change won (ties count for neither), and exits
# non-zero when a run fails its own output checks or when a digest or any
# `sim_*` value differs between the sides. It reads the benchmark's own
# output; it is not a second instrument. The temporary directory honours
# $TMPDIR and is removed on exit.
set -euo pipefail
if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    echo "usage: scripts/ab.sh <parent-ref> <workload> [pairs=10] [seed=7]" >&2
    exit 2
fi
ref="$1" workload="$2" pairs="${3:-10}" seed="${4:-7}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$root" archive "$ref" | tar -x -C "$tmp/parent"

# run <side> <pair>: one pass of <side>, its standard output kept whole (the
# digest line and, last, the JSON object).
run() {
    local tree="$root"
    [ "$1" = parent ] && tree="$tmp/parent"
    CARGO_TARGET_DIR="$tmp/target-$1" "$tree/benchmark/run.sh" \
        --workload "$workload" --seed "$seed" --seconds 20 --trace 0 >"$tmp/$1.$2.out" || {
        echo "A/B FAILED: the $1 side failed to build or failed its output checks (pair $2)" >&2
        exit 1
    }
}

for side in parent change; do
    tree="$root"
    [ "$side" = parent ] && tree="$tmp/parent"
    CARGO_TARGET_DIR="$tmp/target-$side" cargo build --release --offline --quiet \
        --manifest-path "$tree/benchmark/Cargo.toml"
done
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        run "$side" "$i"
    done
    echo "pair $i/$pairs done ($order)" >&2
done

python3 - "$tmp" "$pairs" "$ref" "$workload" "$seed" <<'PY'
import json, sys

tmp, pairs, ref, workload, seed = sys.argv[1], int(sys.argv[2]), *sys.argv[3:6]


def load(side, i):
    lines = open(f"{tmp}/{side}.{i}.out").read().splitlines()
    digests = [l for l in lines if l.startswith("digest ")]
    return digests, json.loads(lines[-1])["metrics"]


def quartiles(xs):
    xs = sorted(xs)

    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


runs = {side: [load(side, i) for i in range(1, pairs + 1)] for side in ("parent", "change")}
bad = []
for i, ((pd, pm), (cd, cm)) in enumerate(zip(runs["parent"], runs["change"]), 1):
    if pd != cd:
        bad.append(f"pair {i}: digest differs, parent {pd} vs change {cd}")
    for name in pm:
        if name.startswith("sim_") and pm[name]["value"] != cm[name]["value"]:
            bad.append(f"pair {i}: {name} differs, parent {pm[name]['value']} vs change {cm[name]['value']}")

print(f"{workload} seed={seed}: parent {ref} vs change (working tree), {pairs} alternating pairs")
print(*runs["parent"][0][0], sep="\n")
for name in ("host_us_per_commit", "setup_s", "peak_rss_mb"):
    unit = runs["parent"][0][1][name]["unit"]
    print(f"\n{name} ({unit}, lower is better)")
    values = {side: [m[name]["value"] for _, m in runs[side]] for side in runs}
    for side, xs in values.items():
        q1, med, q3 = quartiles(xs)
        print(f"  {side:6} runs    " + " ".join(f"{x:.4g}" for x in xs))
        print(f"  {side:6} median  {med:.4g}   quartiles {q1:.4g} .. {q3:.4g}   (distance {q3 - q1:.3g})")
    won = sum(c < p for p, c in zip(values["parent"], values["change"]))
    lost = sum(c > p for p, c in zip(values["parent"], values["change"]))
    pmed, cmed = quartiles(values["parent"])[1], quartiles(values["change"])[1]
    print(f"  change won {won}/{pairs} pairs, lost {lost}; medians {pmed:.4g} -> {cmed:.4g} ({(cmed - pmed) / pmed:+.1%})")
for line in bad:
    print("A/B FAILED:", line)
if not bad:
    print("\nevery digest and every sim_* value is equal between the sides")
sys.exit(1 if bad else 0)
PY
