#!/usr/bin/env bash
# Check that full-size benchmark batches match the golden fingerprints.
#
# Usage: scripts/check_goldens.sh
#
# Runs one 1 s batch of each workload (crowd, table, horizon) at seeds 0
# and 28 through `perfbench/run.py --trace 0` and reads the JSON result on
# its last line.  A batch passes when it reports `"correct": true` and
# `"failed": 0`.  Exits non-zero on the first batch that does not.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

for w in crowd table horizon; do
  for s in 0 28; do
    last=$(python3 perfbench/run.py --workload "$w" --seed "$s" --seconds 1 --trace 0 | tail -n 1)
    echo "$w seed $s: $last"
    python3 -c 'import json, sys; r = json.loads(sys.argv[1]); sys.exit(not (r["correct"] is True and r["failed"] == 0))' "$last" \
      || { echo "$w seed $s: batch is not correct or has failed runs" >&2; exit 1; }
  done
done
