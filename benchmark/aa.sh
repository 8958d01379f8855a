#!/usr/bin/env bash
# A/A check: runs the whole benchmark twice on one seed and once on a second
# seed, and fails when
#   - any run fails its own output checks,
#   - an end-to-end metric differs between the two same-seed runs by more than
#     its bound in BENCHMARK.json (host metrics under --smoke are printed but
#     not held to their bounds: a 0.5 s run is too short to time),
#   - a simulated metric, a count or a digest differs at all between them, or
#   - the second seed reproduces the first seed's digests (the seed is unused).
#
#   benchmark/aa.sh [run.sh arguments other than --seed, e.g. --smoke]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out"
run() {
    "$here/run.sh" --seed "$1" "${@:3}" | tail -n 1 >"$2" || {
        echo "A/A FAILED: the run into $2 failed to build or failed its output checks" >&2
        exit 1
    }
}
run 7 "$out/aa-a.json" "$@"
run 7 "$out/aa-b.json" "$@"
run 11 "$out/aa-c.json" "$@"
python3 - "$here/../BENCHMARK.json" "$out/aa-a.json" "$out/aa-b.json" "$out/aa-c.json" "$*" <<'PY'
import json, sys

manifest, a, b, c = (json.load(open(p)) for p in sys.argv[1:5])
smoke = "--smoke" in sys.argv[5].split()
bad = []
exact_units = {"count", "B", "x", "mse"}
for w in manifest["workloads"]:
    wa, wb, wc = (run["workloads"][w["name"]] for run in (a, b, c))
    if wa["digest"] != wb["digest"]:
        bad.append(f"{w['name']}: digest {wa['digest']} vs {wb['digest']} on one seed")
    if wa["digest"] == wc["digest"]:
        bad.append(f"{w['name']}: digest does not depend on the seed")
    for m in manifest["end_to_end"]:
        x, y = (r["end_to_end"]["metrics"][m["name"]]["value"] for r in (wa, wb))
        if m["name"].startswith("sim_"):
            if x != y:
                bad.append(f"{w['name']} {m['name']}: simulated metric moved, {x} vs {y}")
            continue
        worse = (y - x) / x if m["better"] == "lower" else (x - y) / x
        print(f"{w['name']:24} {m['name']:20} {x:12.5f} {y:12.5f} {worse:+8.2%} (bound {m['bound']:.0%})")
        if abs(worse) > m["bound"] and not smoke:
            bad.append(f"{w['name']} {m['name']}: {x} vs {y} differ by {abs(worse):.1%} > {m['bound']:.0%}")
    for m in manifest["per_layer"]:
        x, y = (r["per_layer"]["metrics"][m["name"]]["value"] for r in (wa, wb))
        simulated = m["unit"] in exact_units or ".sim_" in m["name"] or m["name"].startswith(("cluster.", "core."))
        # Slices are cut by host time, so even their count is a host number.
        simulated = simulated and not m["name"].startswith("host.")
        if simulated and x != y:
            bad.append(f"{w['name']} {m['name']}: deterministic layer metric moved, {x} vs {y}")
for line in bad:
    print("A/A FAILED:", line)
sys.exit(1 if bad else 0)
PY
