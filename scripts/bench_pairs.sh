#!/usr/bin/env bash
# Compare two checkouts on one benchmark workload in alternating pairs.
#
# Usage: scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED PAIRS
#
# PARENT_DIR and CHANGE_DIR are source checkouts (for example a clone or
# `git archive` of the parent commit, and this one).  Each pair runs
# `perfbench/run.py --workload WORKLOAD --seed SEED --trace 0` once in each
# checkout, for the `run_seconds` that CHANGE_DIR/BENCHMARK.json sets; odd
# pairs run the parent first, even pairs the change.  For each end-to-end
# metric of BENCHMARK.json it then prints the median and quartiles of each
# side, the change of the medians, the parent's interquartile range, the
# pairs the change won (a tie counts for neither side) and a verdict, with
# the metric's `bound` from BENCHMARK.json, checked in this order:
#   gain          the change wins at least 9/10 of the pairs and its median
#                 is better than the parent's by more than the parent's IQR;
#   worse         the change's median is worse than the parent's by more
#                 than `bound` (a fraction of the parent's median);
#   unresolved    the parent's IQR exceeds `bound` times its median, and not
#                 every change run beats every parent run;
#   within bound  anything else.
# Exits non-zero if a run fails or reports `"correct": false` or a failed run.
set -euo pipefail

if [ $# -ne 5 ]; then
  echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD SEED PAIRS" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
seed=$4
pairs=$5

seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$change/BENCHMARK.json")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

run() {  # run SIDE DIR: append the result line of one batch run to $tmp/SIDE
  (cd "$2" && python3 perfbench/run.py --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 | tail -n 1) >> "$tmp/$1"
}

for p in $(seq 1 "$pairs"); do
  if [ $((p % 2)) -eq 1 ]; then
    run parent "$parent"; run change "$change"
  else
    run change "$change"; run parent "$parent"
  fi
  echo "pair $p/$pairs done" >&2
done

python3 - "$change/BENCHMARK.json" "$tmp/parent" "$tmp/change" "$workload" "$seed" <<'EOF'
import json
import statistics
import sys

bench, parent_file, change_file, workload, seed = sys.argv[1:]
metrics = json.load(open(bench))["end_to_end"]
sides = {}
for side, path in (("parent", parent_file), ("change", change_file)):
    sides[side] = [json.loads(line) for line in open(path)]
bad = [(side, i + 1) for side, runs in sides.items() for i, r in enumerate(runs)
       if not (r["correct"] is True and r["failed"] == 0)]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return statistics.median(values), q1, q3


def verdict(pv, cv, wins, bound, lower):
    """The change's verdict on one metric (see the header of this script)."""
    (pm, p1, p3), (cm, _, _) = spread(pv), spread(cv)
    gap = (pm - cm) if lower else (cm - pm)  # positive when the change is better
    if wins >= 0.9 * len(pv) and gap > p3 - p1:
        return "gain"
    if -gap > bound * abs(pm):
        return "worse"
    beats_all = max(cv) < min(pv) if lower else min(cv) > max(pv)
    if p3 - p1 > bound * abs(pm) and not beats_all:
        return "unresolved"
    return "within bound"


n = len(sides["parent"])
print(f"{workload} seed {seed}, {n} pairs")
print("| metric | parent median [q1, q3] | change median [q1, q3] | change | parent IQR | wins "
      "| verdict |")
print("|---|---|---|---|---|---|---|")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    pv = [r["metrics"][name]["value"] for r in sides["parent"]]
    cv = [r["metrics"][name]["value"] for r in sides["change"]]
    (pm, p1, p3), (cm, c1, c3) = spread(pv), spread(cv)
    wins = sum((c < p) if lower else (c > p) for p, c in zip(pv, cv))
    rel = (cm - pm) / pm if pm else float("nan")
    print(f"| {name} | {pm:.4g} [{p1:.4g}, {p3:.4g}] | {cm:.4g} [{c1:.4g}, {c3:.4g}] "
          f"| {rel:+.3f} | {p3 - p1:.4g} | {wins}/{n} | {verdict(pv, cv, wins, m['bound'], lower)} |")
if bad:
    print(f"runs not correct or with failed runs: {bad}", file=sys.stderr)
    sys.exit(1)
EOF
