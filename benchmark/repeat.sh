#!/usr/bin/env bash
# Repeatability check: two interleaved sets (A B A B ...) of k runs of the
# same build on every workload, run i of both sets on seed base+i.
#
#   benchmark/repeat.sh <k> [seed-base] > benchmark/REPEATABILITY.md
#
# Prints, per workload and end-to-end metric, each set's median and
# quartiles, each set's spread (interquartile range over median) and how
# much worse set B's median is than set A's. Exits non-zero when a gap,
# or a spread other than setup_s's, exceeds the metric's bound in
# BENCHMARK.json - the two checks the benchmark driver makes.
set -euo pipefail

k="${1:?usage: benchmark/repeat.sh <k> [seed-base]}"
base="${2:-100}"
cd "$(dirname "$0")/.."

seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/hb-benchmark"

runs="$(mktemp -d benchmark/out/repeat.XXXXXX)"
trap 'rm -rf "$runs"' EXIT
for w in $workloads; do
  for i in $(seq 1 "$k"); do
    for set in A B; do
      echo "run: $w set $set seed $((base + i))" >&2
      "$bin" --workload "$w" --seed $((base + i)) --seconds "$seconds" --trace 0 \
        2>/dev/null | tail -n 1 >> "$runs/$w.$set"
    done
  done
done

python3 - "$runs" "$k" "$base" <<'EOF'
import json, statistics, sys

runs, k, base = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
bench = json.load(open("BENCHMARK.json"))
failures = []

def load(workload, which):
    rows = [json.loads(line) for line in open(f"{runs}/{workload}.{which}")]
    bad = [r for r in rows if not r["correct"] or r["failed"]]
    if bad or len(rows) != k:
        failures.append(f"{workload} set {which}: {len(bad)} incorrect runs, {len(rows)} of {k} results")
    return rows

def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med

print("# Repeatability")
print()
print(f"`benchmark/repeat.sh {k} {base}`: two interleaved sets of {k} runs of one build,")
print(f"seeds {base + 1}..{base + k}, {bench['run_seconds']} s measured per run. Spread is the interquartile")
print("range over the median within a set; gap is how much worse set B's median is")
print("than set A's (negative: better). Both must stay within the bound; `setup_s`")
print("is held to the gap only.")
for w in bench["workloads"]:
    name = w["name"]
    a, b = load(name, "A"), load(name, "B")
    print()
    print(f"## {name}")
    print()
    print("| metric | unit | A median [q1, q3] | B median [q1, q3] | spread A | spread B | gap | bound | |")
    print("|---|---|---|---|---|---|---|---|---|")
    for m in bench["end_to_end"]:
        key = m["name"]
        sa = summary([r["metrics"][key]["value"] for r in a])
        sb = summary([r["metrics"][key]["value"] for r in b])
        gap = (sb[0] - sa[0]) / sa[0]
        if m["better"] == "higher":
            gap = -gap
        spread = 0.0 if key == "setup_s" else max(sa[3], sb[3])
        ok = gap <= m["bound"] and spread <= m["bound"]
        if not ok:
            failures.append(f"{name} {key}: spread {max(sa[3], sb[3]):.3f}, gap {gap:+.3f}, bound {m['bound']}")
        cell = lambda s: f"{s[0]:.5g} [{s[1]:.5g}, {s[2]:.5g}]"
        print(f"| `{key}` | {m['unit']} | {cell(sa)} | {cell(sb)} | {sa[3]:.1%} | {sb[3]:.1%} "
              f"| {gap:+.1%} | {m['bound']:.0%} | {'ok' if ok else 'FAIL'} |")
print()
print("Result:", "FAIL" if failures else "pass")
for f in failures:
    print(f"- {f}")
sys.exit(1 if failures else 0)
EOF
