"""Run every workload untraced and traced at the default seed; save the results.

    python3 perfbench/snapshot.py perfbench/BENCH_<n>.json

Each entry keeps the report line (host block, batch and run counts,
checks) and the result line of one ``run.py`` invocation, measured for
``run_seconds`` from BENCHMARK.json.  Committing one such file per
performance change keeps the trajectory on one machine in the tree.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import DEFAULT_SEED, HERE, ROOT


def main(argv) -> int:
    if len(argv) != 1:
        sys.exit("usage: snapshot.py OUTPUT.json")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {}
    for wl in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl["name"],
                 "--seed", str(DEFAULT_SEED), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(trace)],
                capture_output=True, text=True, check=True, cwd=ROOT,
            )
            lines = proc.stdout.strip().splitlines()
            detail = next(ln for ln in lines if ln.startswith("detail "))
            out.setdefault(wl["name"], {})[f"trace{trace}"] = {
                "report": json.loads(detail[len("detail "):]),
                "result": json.loads(lines[-1]),
            }
            print(f"{wl['name']} trace {trace}: done", flush=True)
    (ROOT / argv[0]).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
