#!/usr/bin/env bash
# Run-to-run agreement check for servescope_bench.
#
#   benchmark/repeat.sh N [workload ...]
#
# For each workload (default: every workload in BENCHMARK.json) runs two
# sets of N untraced runs, seeds 1..N in each set, alternating which set
# runs first. Prints each end-to-end metric's median, quartiles and
# quartile spread (Q3 - Q1, as a share of the median) per set, and flags a
# metric when the two set medians differ by more than its bound, or when
# a set's spread exceeds the bound (setup_s spread is not flagged). Exits 1
# on a flag, a failed run, or a non-zero failed count.
set -euo pipefail

n=${1:?usage: benchmark/repeat.sh N [workload ...]}
shift
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out=build-bench/repeat
rm -rf "$out"
mkdir -p "$out"

read -r run_seconds workloads < <(python3 -c '
import json
b = json.load(open("BENCHMARK.json"))
print(b["run_seconds"], " ".join(w["name"] for w in b["workloads"]))')
if [ "$#" -gt 0 ]; then workloads="$*"; fi

status=0
for w in $workloads; do
  for i in $(seq 1 "$n"); do
    if [ $((i % 2)) -eq 1 ]; then order="A B"; else order="B A"; fi
    for set in $order; do
      if ! python3 benchmark/run.py --workload "$w" --seed "$i" --seconds "$run_seconds" \
          --trace 0 >"$out/$w.$set.$i.log" 2>"$out/$w.$set.$i.err"; then
        echo "run failed: $w set $set seed $i (see $out/$w.$set.$i.err)"
        status=1
      fi
      tail -n 1 "$out/$w.$set.$i.log" >>"$out/$w.$set.jsonl"
    done
  done
done

python3 - "$out" $workloads <<'EOF' || status=1
import json, statistics, sys

out, workloads = sys.argv[1], sys.argv[2:]
bench = json.load(open("BENCHMARK.json"))
metrics = {m["name"]: m for m in bench["end_to_end"]}
flagged = False
for w in workloads:
    sets = {}
    for s in ("A", "B"):
        runs = []
        for line in open(f"{out}/{w}.{s}.jsonl"):
            try:
                runs.append(json.loads(line))
            except json.JSONDecodeError:
                flagged = True
        sets[s] = runs
    failed = sum(r["failed"] for rs in sets.values() for r in rs)
    attempted = sum(r["attempted"] for rs in sets.values() for r in rs)
    print(f"\n{w}: {len(sets['A'])}+{len(sets['B'])} runs, "
          f"failed {failed} of {attempted} operations")
    if failed:
        flagged = True
    print(f"  {'metric':<14} {'set':<3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name, m in metrics.items():
        med = {}
        for s, runs in sets.items():
            vals = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if len(vals) < 2:
                print(f"  {name:<14} {s:<3} missing")
                flagged = True
                continue
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2
            med[s] = q2
            flag = spread > m["bound"] and name != "setup_s"
            flagged |= flag
            print(f"  {name:<14} {s:<3} {q2:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{100 * spread:>7.2f}%{'  SPREAD > BOUND' if flag else ''}")
        if len(med) == 2:
            diff = abs(med["B"] - med["A"]) / med["A"]
            flag = diff > m["bound"]
            flagged |= flag
            print(f"  {name:<14} A/B medians differ {100 * diff:.2f}% "
                  f"(bound {100 * m['bound']:.0f}%){'  FLAG' if flag else ''}")
sys.exit(1 if flagged else 0)
EOF
exit "$status"
