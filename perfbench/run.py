"""selfishsim benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload table|horizon|crowd --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` there and nowhere else.  After set-up, whole batches of the
workload run back to back until ``--seconds`` have passed.  ``--trace 0``
reports the end-to-end metrics from untraced batches; ``--trace 1``
alternates untraced and traced batches and reports per-layer metrics.
Every batch's outputs are checked: revenues sum to 1, each run ends on
its budget or target, reruns are identical, and at seeds with stored
golden fingerprints the outputs match them bit for bit.  The report goes
to stdout by name and unit; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
GOLDEN = HERE / "golden.json"

DEFAULT_SEED = 28  # threshold-suite's default master seed
SETUP_TRIALS = 5
SUM_TOL = 1e-9
# Each protocol with the attacker counts the workloads use.
COMBOS = (
    *(f"nakamoto.k{k}" for k in (1, 2, 3, 5, 7)),
    *(f"strongchain.k{k}" for k in (1, 2, 3, 5, 7)),
    *(f"fruitchain.k{k}" for k in (1, 3, 5, 7)),
)
PROTOCOLS = ("nakamoto", "strongchain", "fruitchain")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("rounds_per_s", "1/s"),
    ("run_s.p50", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("rng.lanes_s", "s"),
    ("rng.uniforms", "count"),
    ("rng.useful_frac", "frac"),
    ("engine.run_s", "s"),
    ("engine.loop_s", "s"),
    ("engine.ns_per_round", "ns"),
    *((f"engine.peak_rss_mb.{p}", "MB") for p in PROTOCOLS),
    ("strategy.cascade_s", "s"),
    ("strategy.cascade_calls", "count"),
    ("strategy.cascade_noop_frac", "frac"),
    ("strategy.adopts", "count"),
    ("strategy.matches", "count"),
    ("strategy.overrides", "count"),
    *((f"{p}.tally_s", "s") for p in PROTOCOLS),
    ("config.digest_s", "s"),
    ("config.digest_calls", "count"),
    ("experiments.sweep_s", "s"),
    ("experiments.estimate_s", "s"),
    ("experiments.estimate_calls", "count"),
    ("io.write_s", "s"),
    ("io.bytes", "bytes"),
    ("cli.pool_start_s", "s"),
    ("cli.worker_busy_s", "s"),
    ("cli.worker_idle_s", "s"),
    ("cli.pool_efficiency", "frac"),
    ("trace.wall_s", "s"),
    ("trace_overhead_frac", "frac"),
    ("unattributed_s", "s"),
    *((f"engine.loop_s.{c}", "s") for c in COMBOS),
    *((f"strategy.cascade_s.{c}", "s") for c in COMBOS),
    *((f"strategy.cascade_calls.{c}", "count") for c in COMBOS),
    *((f"rng.lanes_s.{c}", "s") for c in COMBOS),
)


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path, or stop."""
    if not (SRC / "selfishsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'selfishsim'}")
    sys.path.insert(0, str(SRC))
    import selfishsim

    if Path(selfishsim.__file__).resolve().parent != (SRC / "selfishsim").resolve():
        sys.exit(f"perfbench: imported selfishsim from {selfishsim.__file__}, not {SRC}")


def _loadavg() -> list:
    with open("/proc/loadavg") as fh:
        return [float(x) for x in fh.read().split()[:3]]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cold_import() -> None:
    """Interpreter start plus ``import selfishsim`` in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import selfishsim"], env=env, check=True, cwd=ROOT)


def _runs_digest(pairs: list) -> str:
    return hashlib.sha256(json.dumps(pairs).encode("utf-8")).hexdigest()


def fingerprint(batch) -> dict:
    """Golden entry for one batch: per-run seed and rewards repr, file hashes."""
    pairs = [[r.run_seed, r.fingerprint] for r in batch.records]
    entry = {"runs_sha256": _runs_digest(pairs), "runs": pairs}
    if batch.files:
        entry["files"] = dict(batch.files)
    return entry


def check_batch(batch, golden, first, traced: bool) -> list:
    """Indices of failed runs, with one message each, in (index, msg) pairs."""
    bad = []
    for i, r in enumerate(batch.records):
        total = sum(r.revenues)
        if abs(total - 1.0) > SUM_TOL:
            bad.append((i, f"{r.label}: revenues sum to {total!r}"))
        elif r.target is None and r.rounds != r.budget:
            bad.append((i, f"{r.label}: {r.rounds} rounds, budget {r.budget}"))
        elif r.target is not None and r.chain_blocks < r.target:
            bad.append((i, f"{r.label}: chain {r.chain_blocks} below target {r.target}"))
    entry = fingerprint(batch)
    whole = []  # mismatches that implicate every run of the batch
    if first is not None and entry["runs_sha256"] != first["runs_sha256"]:
        whole.append("outputs differ from this run's first batch")
    if first is not None and entry.get("files") != first.get("files"):
        whole.append("output files differ from this run's first batch")
    if golden is not None:
        if "runs" in golden:
            want = golden["runs"]
            if len(want) != len(entry["runs"]):
                whole.append(f"{len(entry['runs'])} runs, golden has {len(want)}")
            else:
                for i, (got, exp) in enumerate(zip(entry["runs"], want)):
                    if got != exp:
                        bad.append((i, f"{batch.records[i].label}: {got} != golden {exp}"))
        elif entry["runs_sha256"] != golden["runs_sha256"]:
            whole.append("run fingerprints differ from golden")
        for name, sha in golden.get("files", {}).items():
            if entry.get("files", {}).get(name) != sha:
                whole.append(f"{name} differs from golden")
    if batch.wrapped and not traced:
        whole.append(f"wrappers present in an untraced batch: {sorted(set(batch.wrapped))}")
    bad += [(i, msg) for msg in whole for i in range(len(batch.records))]
    return bad


def load_golden(size: str, workload: str, seed: int):
    if not GOLDEN.is_file():
        return None
    data = json.loads(GOLDEN.read_text())
    return data.get(size, {}).get(workload, {}).get(str(seed))


def _percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(untraced: list, setup: list) -> dict:
    run_s = [t for b in untraced for t in b.run_s]
    child_kb = max(b.child_rss_kb for b in untraced)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(b.wall_s for b in untraced),
        "rounds_per_s": statistics.median(b.rounds / b.wall_s for b in untraced),
        "run_s.p50": statistics.median(run_s),
        "peak_rss_mb": (self_kb + child_kb) / 1024.0,
    }


def per_layer(traced: list, untraced: list, pool_start: list, workers: int) -> dict:
    import tracing
    from selfishsim.rng import LANES_PER_ROUND

    totals = tracing.LayerTotals()
    for b in traced:
        for spans, share in b.spans:
            totals.add_spans(spans, share)
    n = len(traced)
    t = {k: v / n for k, v in totals.t.items()}
    c = {k: v / n for k, v in totals.c.items()}
    wall = statistics.fmean(b.wall_s for b in traced)
    busy = statistics.fmean(b.busy_s for b in traced)
    pooled = busy > 0
    m = {
        "rng.lanes_s": t.get("rng.lanes_s", 0.0),
        "rng.uniforms": c.get("uniforms", 0),
        "rng.useful_frac": LANES_PER_ROUND * c["rounds"] / c["uniforms"],
        "engine.run_s": t.get("engine.run_s", 0.0),
        "engine.loop_s": t.get("engine.loop_s", 0.0),
        "engine.ns_per_round": 1e9 * totals.run_s_raw / (c["rounds"] * n),
        "strategy.cascade_s": t.get("strategy.cascade_s", 0.0),
        "strategy.cascade_calls": c.get("cascade_calls", 0),
        "strategy.cascade_noop_frac": c.get("cascade_noop", 0) / max(c.get("cascade_calls", 0), 1),
        "strategy.adopts": c.get("adopt", 0),
        "strategy.matches": c.get("match", 0),
        "strategy.overrides": c.get("override", 0),
        "config.digest_s": t.get("config.digest_s", 0.0),
        "config.digest_calls": c.get("digest_calls", 0),
        "experiments.sweep_s": t.get("experiments.sweep_s", 0.0),
        "experiments.estimate_s": t.get("experiments.estimate_s", 0.0),
        "experiments.estimate_calls": c.get("estimate_calls", 0),
        "io.write_s": t.get("io.write_s", 0.0),
        "io.bytes": statistics.fmean(b.io_bytes for b in traced),
        "cli.pool_start_s": statistics.median(pool_start) if pooled else 0.0,
        "cli.worker_busy_s": busy,
        "cli.worker_idle_s": workers * wall - busy if pooled else 0.0,
        "cli.pool_efficiency": busy / (workers * wall) if pooled else 0.0,
        "trace.wall_s": wall,
        "trace_overhead_frac": (
            statistics.median(b.wall_s for b in traced)
            / statistics.median(b.wall_s for b in untraced)
            - 1.0
        ),
    }
    for p in PROTOCOLS:
        m[f"engine.peak_rss_mb.{p}"] = totals.rss_kb.get(p, 0) / 1024.0
        m[f"{p}.tally_s"] = t.get(f"{p}.tally_s", 0.0)
    m["unattributed_s"] = wall - sum(m[k] for k in tracing.SELF_TIME_METRICS)
    for combo in COMBOS:
        m[f"engine.loop_s.{combo}"] = t.get(f"engine.loop_s.{combo}", 0.0)
        m[f"strategy.cascade_s.{combo}"] = t.get(f"strategy.cascade_s.{combo}", 0.0)
        m[f"strategy.cascade_calls.{combo}"] = c.get(f"strategy.cascade_calls.{combo}", 0)
        m[f"rng.lanes_s.{combo}"] = t.get(f"rng.lanes_s.{combo}", 0.0)
    return m


def _write_spans(path: Path, traced: list) -> None:
    """All spans of the traced batches, one list per process and batch."""
    out = [
        {"batch": i, "share": share, "spans": spans}
        for i, b in enumerate(traced)
        for spans, share in b.spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out) + "\n", encoding="utf-8")


def measure(args) -> dict:
    import numpy
    import tracing
    import workloads

    host = {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_before": _loadavg(),
    }
    cls = workloads.WORKLOADS[args.workload]
    traced_mode = bool(args.trace)

    setup, pool_start = [], []
    wl = None
    golden = load_golden(args.size, args.workload, args.seed)
    tracer = tracing.Tracer() if traced_mode else None
    batches = {False: [], True: []}
    attempted = failed = 0
    problems: list = []
    first = None
    try:
        for _ in range(SETUP_TRIALS):
            if wl is not None:
                wl.close()
                wl = None
            t0 = perf_counter()
            _cold_import()
            wl = cls(args.seed, args.size, OUT_ROOT)
            pool_start.append(wl.start(traced_mode))
            setup.append(perf_counter() - t0)

        deadline = perf_counter() + args.seconds
        while True:
            use_trace = traced_mode and len(batches[True]) < len(batches[False])
            undo = None
            if use_trace:
                tracer.reset()
                undo = tracing.install(tracer)
            try:
                b = wl.batch(tracer if use_trace else None)
            except Exception:
                attempted += wl.expected_runs
                failed += wl.expected_runs
                problems.append(traceback.format_exc())
                break
            finally:
                if undo is not None:
                    undo()
            if use_trace:
                b.spans.append((tracer.spans, 1.0))
            else:
                b.wrapped += tracing.wrapped_attributes()  # this process
            bad = check_batch(b, golden, first, use_trace)
            if first is None:
                first = fingerprint(b)
            attempted += len(b.records)
            failed += len({i for i, _ in bad})
            problems += sorted({msg for _, msg in bad})[:5]
            batches[use_trace].append(b)
            enough = batches[False] and (batches[True] or not traced_mode)
            if enough and perf_counter() >= deadline:
                break
    finally:
        if wl is not None:
            wl.close()
    host["loadavg_after"] = _loadavg()

    untraced, traced = batches[False], batches[True]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "host": host,
        "batches": {"untraced": len(untraced), "traced": len(traced)},
        "runs_per_batch": wl.expected_runs,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / max(attempted, 1),
        "golden": "per-run" if golden and "runs" in golden else ("digest" if golden else "none"),
        "wrappers_in_untraced_batches": sorted({w for b in untraced for w in b.wrapped}),
        "untraced_processes_checked": sum(b.processes for b in untraced),
        "problems": problems[:20],
    }
    if not untraced or (traced_mode and not traced):
        return {"report": report, "metrics": None}
    run_s = [t for b in untraced for t in b.run_s]
    report["run_s.n"] = len(run_s)
    if len(untraced[0].run_s) >= 100:
        report["run_s.p90"] = _percentile(run_s, 90)
    if traced_mode:
        metrics = per_layer(traced, untraced, pool_start, workloads.WORKERS)
        _write_spans(OUT_ROOT / args.workload / "spans.json", traced)
        names = PER_LAYER
    else:
        metrics = end_to_end(untraced, setup)
        names = END_TO_END
    return {
        "report": report,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }


def _print_report(out: dict) -> None:
    rep = out["report"]
    host = rep["host"]
    print(f"workload {rep['workload']}  seed {rep['seed']}  size {rep['size']}")
    print(
        f"host: nproc={host['nproc']} cpu={host['cpu_model']!r} python={host['python']} "
        f"numpy={host['numpy']} load {host['loadavg_before']} -> {host['loadavg_after']}"
    )
    print(
        f"batches: {rep['batches']['untraced']} untraced, {rep['batches']['traced']} traced; "
        f"{rep['runs_per_batch']} runs per batch; golden check: {rep['golden']}"
    )
    print(
        f"failed_frac {rep['failed_frac']} ({rep['failed']} of {rep['attempted']} runs); "
        f"wrappers in untraced batches: {rep['wrappers_in_untraced_batches'] or 'none'} "
        f"({rep['untraced_processes_checked']} process checks)"
    )
    for msg in rep["problems"]:
        print(f"problem: {msg}")
    if "run_s.n" in rep:
        tail = f", run_s.p90 {rep['run_s.p90']:.6f} s" if "run_s.p90" in rep else ""
        print(f"run_s samples: {rep['run_s.n']}{tail}")
    if out["metrics"]:
        for name, m in out["metrics"].items():
            print(f"  {name:<36s} {m['value']:>16.6f} {m['unit']}")
        if "unattributed_s" in out["metrics"]:
            import tracing

            parts = sum(out["metrics"][k]["value"] for k in tracing.SELF_TIME_METRICS)
            print(
                f"self times {parts:.6f} s + unattributed "
                f"{out['metrics']['unattributed_s']['value']:.6f} s = traced wall "
                f"{out['metrics']['trace.wall_s']['value']:.6f} s"
            )
    print("detail " + json.dumps(rep, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("table", "horizon", "crowd"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every run, for the smoke test")
    args = parser.parse_args(argv)
    _import_program()

    out = measure(args)
    _print_report(out)
    rep = out["report"]
    correct = rep["failed"] == 0 and not rep["wrappers_in_untraced_batches"]
    print(json.dumps({
        "correct": correct and out["metrics"] is not None,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": out["metrics"] or {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
