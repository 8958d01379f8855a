#!/usr/bin/env bash
# A/B on the benchmark of record: this working tree (the change) against
# <parent-ref>, one workload, alternating pairs, one or more seeds.
#
#   scripts/ab.sh <parent-ref> <workload> [pairs=10] [seeds=7]
#
# <seeds> is one seed or a comma-separated list (`7,11,13`). Extracts
# <parent-ref> into a temporary directory (`git archive`: nothing is
# registered in .git), builds each side's benchmark crate into its own
# CARGO_TARGET_DIR there, then for every seed runs
#   benchmark/run.sh --workload W --seed S --seconds 20 --trace 0
# once per side per pair, the parent first in odd pairs and the change first
# in even ones. Prints, per seed, for each host metric both sides' runs,
# median and quartiles and the pairs the change won (ties count for
# neither); then every `sim_*` metric, parent -> change with the relative
# change, one line per seed. Exits non-zero when a run fails its own output
# checks or when a digest or any `sim_*` value differs between the sides: the
# "unchanged" check on a control workload, and the expected answer on a
# workload where a simulated gain is claimed. It reads the benchmark's own
# output; it is not a second instrument. The temporary directory honours
# $TMPDIR and is removed on exit.
set -euo pipefail
if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    echo "usage: scripts/ab.sh <parent-ref> <workload> [pairs=10] [seeds=7]" >&2
    exit 2
fi
ref="$1" workload="$2" pairs="${3:-10}" seeds="${4:-7}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$root" archive "$ref" | tar -x -C "$tmp/parent"

# run <side> <seed> <pair>: one pass of <side>, its standard output kept whole
# (the digest line and, last, the JSON object).
run() {
    local tree="$root"
    [ "$1" = parent ] && tree="$tmp/parent"
    CARGO_TARGET_DIR="$tmp/target-$1" "$tree/benchmark/run.sh" \
        --workload "$workload" --seed "$2" --seconds 20 --trace 0 >"$tmp/$1.$2.$3.out" || {
        echo "A/B FAILED: the $1 side failed to build or failed its output checks (seed $2, pair $3)" >&2
        exit 1
    }
}

for side in parent change; do
    tree="$root"
    [ "$side" = parent ] && tree="$tmp/parent"
    CARGO_TARGET_DIR="$tmp/target-$side" cargo build --release --offline --quiet \
        --manifest-path "$tree/benchmark/Cargo.toml"
done
for seed in ${seeds//,/ }; do
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            run "$side" "$seed" "$i"
        done
        echo "seed $seed: pair $i/$pairs done ($order)" >&2
    done
done

python3 - "$tmp" "$pairs" "$ref" "$workload" "$seeds" "$root/BENCHMARK.json" <<'PY'
import json, sys

tmp, pairs, ref, workload, seeds, bench = sys.argv[1], int(sys.argv[2]), *sys.argv[3:7]
seeds = seeds.split(",")
better = {m["name"]: m["better"] for m in json.load(open(bench))["end_to_end"]}


def load(side, seed, i):
    lines = open(f"{tmp}/{side}.{seed}.{i}.out").read().splitlines()
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


runs = {
    seed: {side: [load(side, seed, i) for i in range(1, pairs + 1)] for side in ("parent", "change")}
    for seed in seeds
}
bad = []
for seed, sides in runs.items():
    differs = {}
    for (pd, pm), (cd, cm) in zip(sides["parent"], sides["change"]):
        if pd != cd:
            differs["digest"] = differs.get("digest", 0) + 1
        for name in pm:
            if name.startswith("sim_") and pm[name]["value"] != cm[name]["value"]:
                differs[name] = differs.get(name, 0) + 1
    if differs:
        counts = ", ".join(f"{name} in {n}/{pairs} pairs" for name, n in differs.items())
        bad.append(f"seed {seed}: the sides differ: {counts}")

print(f"{workload} seeds {','.join(seeds)}: parent {ref} vs change (working tree), {pairs} alternating pairs per seed")
for seed, sides in runs.items():
    print(f"\n== seed {seed}")
    for side in sides:
        print(f"  {side:6} " + " ".join(sides[side][0][0]))
    for name in ("host_us_per_commit", "setup_s", "peak_rss_mb"):
        unit = sides["parent"][0][1][name]["unit"]
        print(f"\n{name} ({unit}, lower is better)")
        values = {side: [m[name]["value"] for _, m in sides[side]] for side in sides}
        for side, xs in values.items():
            q1, med, q3 = quartiles(xs)
            print(f"  {side:6} runs    " + " ".join(f"{x:.4g}" for x in xs))
            print(f"  {side:6} median  {med:.4g}   quartiles {q1:.4g} .. {q3:.4g}   (distance {q3 - q1:.3g})")
        won = sum(c < p for p, c in zip(values["parent"], values["change"]))
        lost = sum(c > p for p, c in zip(values["parent"], values["change"]))
        pmed, cmed = quartiles(values["parent"])[1], quartiles(values["change"])[1]
        print(f"  change won {won}/{pairs} pairs, lost {lost}; medians {pmed:.4g} -> {cmed:.4g} ({(cmed - pmed) / pmed:+.1%})")

print("\n== simulated outcomes, parent -> change (first pair of each seed)")
first = runs[seeds[0]]["parent"][0][1]
for name in (n for n in first if n.startswith("sim_")):
    print(f"\n{name} ({first[name]['unit']}, {better.get(name, '?')} is better)")
    for seed, sides in runs.items():
        p, c = sides["parent"][0][1][name]["value"], sides["change"][0][1][name]["value"]
        rel = f"{(c - p) / p:+.1%}" if p else "n/a"
        print(f"  seed {seed:>4}  {p:.6g} -> {c:.6g}  ({rel})")

print()
for line in bad:
    print("A/B FAILED:", line)
if not bad:
    print("every digest and every sim_* value is equal between the sides")
sys.exit(1 if bad else 0)
PY
