"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs untraced and traced for about a second.  The test
checks that every name is well formed, that each run reports exactly
the metrics BENCHMARK.json declares, and that nothing fails at the
default seed (whose tiny-size golden fingerprints are stored).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(HERE), str(ROOT / "src")]
import run  # noqa: E402
import tracing  # noqa: E402


def test_declarations_match_the_benchmark():
    declared = {
        "end_to_end": [(m["name"], m["unit"]) for m in SPEC["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in SPEC["per_layer"]],
    }
    assert declared["end_to_end"] == list(run.END_TO_END)
    assert declared["per_layer"] == list(run.PER_LAYER)
    names = [w["name"] for w in SPEC["workloads"]]
    names += [n for pairs in declared.values() for n, _ in pairs]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(run.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(next(ln for ln in lines if ln.startswith("detail "))[len("detail "):])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    key = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[key]]
    assert all(NAME.fullmatch(n) for n in result["metrics"])
    assert report["golden"] == "per-run"
    assert result["failed"] == 0 and report["failed_frac"] == 0.0, report["problems"]
    assert result["correct"] and result["attempted"] > 0
    assert report["wrappers_in_untraced_batches"] == []
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        parts = sum(m[k] for k in tracing.SELF_TIME_METRICS) + m["unattributed_s"]
        assert parts == pytest.approx(m["trace.wall_s"], abs=1e-9)
