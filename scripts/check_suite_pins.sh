#!/usr/bin/env bash
# Check that threshold-suite reproduces its pinned SHA-256 digests.
#
# Usage: scripts/check_suite_pins.sh
#
# At one and at two workers it runs
# `python3 -m selfishsim.cli threshold-suite --jobs N` into a temporary
# directory and compares results.csv, thresholds.json and the digest of the
# plotdata/ curves (sha256sum of the bytewise-sorted per-file sums) with the
# pins below.  Exits non-zero on the first mismatch.
set -euo pipefail

RESULTS=62c8f12f7cf65b7f596865cfddbc0fbdfb9ce0619caa155b5a7c0be5cf8b31e4
THRESHOLDS=763118d57720105b3ecd3dcb472a26a9edd4c34d505a2e03c9221f759bf0b54e
PLOTDATA=a0d4f7d1411fe6c45545f3501cd1bf93156c400673155ac76c8af97ebfe9e932

root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for jobs in 1 2; do
  out="$tmp/jobs$jobs"
  PYTHONPATH="$root/src" python3 -m selfishsim.cli threshold-suite --jobs "$jobs" --out "$out"
  (cd "$out" && printf '%s  results.csv\n%s  thresholds.json\n' "$RESULTS" "$THRESHOLDS" | sha256sum -c -)
  plots=$(cd "$out" && LC_ALL=C sha256sum plotdata/*.csv | sha256sum | cut -d" " -f1)
  echo "--jobs $jobs plotdata digest: $plots"
  test "$plots" = "$PLOTDATA" || { echo "plotdata digest differs from $PLOTDATA" >&2; exit 1; }
done
