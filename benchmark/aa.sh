#!/usr/bin/env bash
# A/A check: build once, run the full set of workloads twice on that build
# (the two sets interleaved run by run), print both columns per workload x
# end-to-end metric with the bound, and exit non-zero when the benchmark
# disagrees with itself:
#   * the second set's median is worse than the first's by more than the bound,
#   * (AA_RUNS >= 4) the spread of a set, the distance between its quartiles as
#     a share of its median, exceeds the bound (not checked for setup_s),
#   * a simulated-clock figure differs at all between the sets: the `sim_s`
#     block of every untraced run's record, and with AA_TRACE=1 every
#     per-layer metric whose unit is sim_s or sim_frac,
#   * any run fails its correctness checks.
# Every run of a set uses another seed (1..AA_RUNS); both sets use the same.
#
# Every workload prints every end-to-end metric, because the acceptance
# contract compares each workload x metric pair. Five of the twenty-four
# pairs repeat another pair or a constant (DERIVED below); they are printed,
# marked, and not judged.
#
#   benchmark/aa.sh                 three runs per workload and set (~9 min)
#   AA_RUNS=10 benchmark/aa.sh      what the acceptance driver does (~30 min)
#   AA_TRACE=1 benchmark/aa.sh      also one traced run per workload and set
#
# Run from anywhere; needs python3 for the arithmetic.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --manifest-path benchmark/Cargo.toml
BIN="$CARGO_TARGET_DIR/release/benchmark"

exec python3 - "$BIN" "${AA_RUNS:-3}" "${AA_TRACE:-0}" <<'PY'
import json, statistics, subprocess, sys, time

binary, runs, traced = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
manifest = json.load(open("BENCHMARK.json"))
seconds = str(manifest["run_seconds"])
breaches = []

# Pairs that carry no information of their own.
BATCH = ["cube3d_cold", "plate2d_cold", "plate2d_par2", "elastic_ladder"]
DERIVED = {(w, "ops_per_s"): "~ 1/op_p50_ms: ops run back to back" for w in BATCH}
DERIVED["server_open", "ops_per_s"] = "the offered rate: an open loop"

EXACT_UNITS = ("sim_s", "sim_frac")

def run(workload, seed, trace):
    t = time.time()
    p = subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                        "--seconds", seconds, "--trace", trace],
                       stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    if p.returncode != 0 or not result["correct"] or result["failed"]:
        breaches.append(f"{workload} seed {seed} trace {trace}: checks failed")
    flag = " noisy" if record["noisy"] else ""
    print(f"  {workload} seed {seed} trace {trace}: {time.time() - t:.1f} s{flag}", file=sys.stderr)
    return {k: v["value"] for k, v in result["metrics"].items()}, record["sim_s"]

def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

# The two sets are run as pairs, A then B for odd seeds and B then A for even
# ones, so a slow quarter of an hour of the host falls on both alike.
sets = [{w["name"]: {"runs": []} for w in manifest["workloads"]} for _ in "AB"]
for w in manifest["workloads"]:
    for seed in range(1, runs + 1):
        for one in (sets if seed % 2 else sets[::-1]):
            one[w["name"]]["runs"].append(run(w["name"], seed, "0"))
    if traced:
        for one in sets:
            one[w["name"]]["traced"] = run(w["name"], 1, "1")[0]

print(f"{'workload':15} {'metric':12} {'median A':>12} {'median B':>12} {'B vs A':>8} "
      f"{'spread A':>9} {'spread B':>9} {'bound':>6}")
for w in manifest["workloads"]:
    for m in manifest["end_to_end"]:
        a, b = ([r[0][m["name"]] for r in s[w["name"]]["runs"]] for s in sets)
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb / ma - 1) if m["better"] == "lower" else (1 - mb / ma)
        spreads = [spread(v) if runs >= 4 else float("nan") for v in (a, b)]
        shown = [f"{s:9.1%}" if runs >= 4 else f"{'-':>9}" for s in spreads]
        marks = []
        if worse > m["bound"]:
            marks.append("median")
        if m["name"] != "setup_s" and any(s > m["bound"] for s in spreads):
            marks.append("spread")
        derived = DERIVED.get((w["name"], m["name"]))
        if derived:
            marks = [f"({derived})"]
        elif marks:
            breaches.append(f"{w['name']} {m['name']}: {' and '.join(marks)} beyond the bound")
        print(f"{w['name']:15} {m['name']:12} {ma:12.5g} {mb:12.5g} {worse:+8.1%} "
              f"{shown[0]} {shown[1]} {m['bound']:6.0%} {' '.join(marks)}")

# The simulated clock repeats exactly or something is wrong.
print("\nsimulated clock, set A (set B must read the same):")
for w in manifest["workloads"]:
    a, b = ([r[1] for r in s[w["name"]]["runs"]] for s in sets)
    for name, value in a[0].items():
        print(f"{w['name']:15} {name:22} {value!r}")
    if a != b:
        breaches.append(f"{w['name']}: sim_s differs between the sets: {a} vs {b}")
    if traced:
        ta, tb = (s[w["name"]]["traced"] for s in sets)
        for m in manifest["per_layer"]:
            if m["unit"] in EXACT_UNITS and ta[m["name"]] != tb[m["name"]]:
                breaches.append(f"{w['name']} {m['name']}: {ta[m['name']]!r} vs {tb[m['name']]!r}")
        exact = sum(m["unit"] in EXACT_UNITS for m in manifest["per_layer"])
        print(f"{w['name']:15} traced: {exact} sim_s/sim_frac metrics compared")

for b in breaches:
    print("BREACH", b)
sys.exit(1 if breaches else 0)
PY
