#!/usr/bin/env bash
# A/A check: does the benchmark agree with itself? Runs the same checkout
# the way a driver would — two interleaved sets of N runs per workload,
# run i of either set with seed i — and prints, per end-to-end metric and
# workload, each set's median and spread (interquartile range over median,
# across the set's seeds), how much worse the second median is than the
# first, and PASS or FAIL against the bound in BENCHMARK.json. setup_s is
# held to the median rule only. Then makes two traced fixed-work runs per
# workload and requires every count-marked per-layer metric to be
# bit-equal between them.
#
#   bash bench/aa.sh [N=10] [workload ...]      # results kept in bench/out/aa/
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
n="${1:-10}"
shift || true
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	mapfile -t workloads < <(python3 -c 'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
out=bench/out/aa
mkdir -p "$out"
rm -f "$out"/*.jsonl

for w in "${workloads[@]}"; do
	for seed in $(seq 1 "$n"); do
		for set in A B; do
			echo "aa: $w seed $seed set $set" >&2
			bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 2>>"$out/stderr.log" | tail -n 1 >>"$out/$w.$set.jsonl" || true
		done
	done
	for rep in 1 2; do
		echo "aa: $w fixed-work traced run $rep" >&2
		bash bench/run.sh --workload "$w" --seed 1 --blocks 4 --trace 1 2>>"$out/stderr.log" | tail -n 1 >>"$out/$w.counts.jsonl" || true
	done
done

python3 - "$out" "${workloads[@]}" <<'EOF'
import json, re, statistics, sys

out, workloads = sys.argv[1], sys.argv[2:]
contract = json.load(open("BENCHMARK.json"))
counts = set(re.findall(r'name: "([^"]+)"[^\n]*count: true', open("bench/metrics.go").read()))
ok = True

def load(path):
    return [json.loads(line) for line in open(path)]

def spread(vals):
    if len(vals) < 2:
        return 0.0
    q = statistics.quantiles(vals, n=4)
    return (q[2] - q[0]) / statistics.median(vals)

print(f'{"workload":12} {"metric":18} {"median A":>12} {"median B":>12} {"B worse":>8} {"spread A":>9} {"spread B":>9} {"bound":>6}')
for w in workloads:
    a, b = load(f"{out}/{w}.A.jsonl"), load(f"{out}/{w}.B.jsonl")
    for r in a + b:
        if not r["correct"] or r["failed"]:
            ok = False
            print(f"{w}: a run failed its output check: {r['failed']} of {r['attempted']} frames")
    for m in contract["end_to_end"]:
        va = [r["metrics"][m["name"]]["value"] for r in a]
        vb = [r["metrics"][m["name"]]["value"] for r in b]
        ma, mb = statistics.median(va), statistics.median(vb)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(va), spread(vb)
        good = abs(worse) <= m["bound"] and (m["name"] == "setup_s" or max(sa, sb) <= m["bound"])
        ok = ok and good
        print(f'{w:12} {m["name"]:18} {ma:12.6g} {mb:12.6g} {worse:+8.1%} {sa:9.1%} {sb:9.1%} {m["bound"]:6.2f} {"PASS" if good else "FAIL"}')
    c = load(f"{out}/{w}.counts.jsonl")
    differ = [n for n in sorted(counts) if len({r["metrics"][n]["value"] for r in c}) != 1]
    for name in differ:
        print(f"{w}: count {name} differs between runs of the same work: {[r['metrics'][name]['value'] for r in c]}")
    print(f"{w}: {len(counts) - len(differ)} of {len(counts)} count metrics bit-equal across {len(c)} fixed-work runs")
    ok = ok and not differ
sys.exit(0 if ok else 1)
EOF
