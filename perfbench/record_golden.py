"""Rewrite perfbench/golden.json from the program in this checkout.

    python3 perfbench/record_golden.py [WORKLOAD ...]

Runs one untraced batch of every workload per stored seed and keeps its
fingerprint: per-run seed and rewards repr at the default seed (so a
mismatch names the run), a digest of them at the other seeds, and the
SHA-256 of table's results.csv and thresholds.json.  Only rerun this when
a change is meant to alter the program's outputs or the workload sizes;
naming workloads re-records only those and keeps the other entries.
"""

from __future__ import annotations

import json
import sys

import run

FULL_SEEDS = range(32)


def main(argv) -> int:
    run._import_program()
    import workloads

    names = argv or list(workloads.WORKLOADS)
    golden = json.loads(run.GOLDEN.read_text()) if argv and run.GOLDEN.is_file() else {}
    for size, seeds in (("full", FULL_SEEDS), ("tiny", (run.DEFAULT_SEED,))):
        for name in names:
            cls = workloads.WORKLOADS[name]
            for seed in sorted({*seeds, run.DEFAULT_SEED}):
                wl = cls(seed, size, run.OUT_ROOT)
                wl.start(False)
                try:
                    entry = run.fingerprint(wl.batch(None))
                finally:
                    wl.close()
                if seed != run.DEFAULT_SEED:
                    del entry["runs"]
                golden.setdefault(size, {}).setdefault(name, {})[str(seed)] = entry
                print(f"{size} {name} seed {seed}: {entry['runs_sha256'][:16]}", flush=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
