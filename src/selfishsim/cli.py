"""Command-line front end.

Three verbs: ``simulate`` runs one configured scenario and prints the
per-miner outcome, ``sweep`` estimates a profitability threshold over a
configured power grid, and ``threshold-suite`` reruns the built-in
threshold table and checks every cell against its expected band.
Failures print one JSON object to stderr; exit status is 0 on success,
2 for config problems, 1 otherwise.

Outputs land under ``--out`` as results.csv, thresholds.json, plotdata/
(one revenue curve per threshold estimate, so ``simulate`` writes none)
and manifest.json.  ``--jobs`` fans independent sweep tasks out over
worker processes, at most one per task and per CPU; outputs do not
depend on the worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from .config import ConfigError, SimulationConfig
from .engine import run_simulation
from .experiments import SweepConfig, estimate_threshold, run_sweep, threshold_search
from .io import describe_digest, parse_config, rows_from_result, write_results
from .suite import MASTER_SEED, cell_passes, table_cells


def _fail(kind: str, message) -> None:
    print(json.dumps({"error": kind, "message": str(message)}), file=sys.stderr)


def _fmt(x: float) -> str:
    return f"{x:.5f}"


def _workers(jobs: int, tasks: int) -> int:
    """Worker processes for ``tasks`` independent tasks.

    A pool starts all its workers at once, so ``jobs`` is clamped to the
    task and CPU counts; below 1 it is a config error.
    """
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    return min(jobs, tasks, os.cpu_count() or 1)


def _map(fn, tasks: list, jobs: int) -> list:
    """``fn`` over ``tasks`` in order, in-process or on a worker pool."""
    workers = _workers(jobs, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


# -- simulate ----------------------------------------------------------------


def _cmd_simulate(args) -> int:
    cfg = parse_config(args.config)
    if not isinstance(cfg, SimulationConfig):
        raise ConfigError(f"{args.config}: 'simulate' needs a 'miners' config, not a sweep")
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    result = run_simulation(cfg)
    print(
        f"protocol={cfg.protocol.value} gamma={cfg.gamma} rounds={result.rounds} "
        f"seed={cfg.master_seed} chain_blocks={result.chain_blocks}"
    )
    print("miner  kind     power    revenue")
    for m in cfg.miners:
        print(
            f"{m.id:<6d} {m.kind.value:<8s} {_fmt(m.power)}  {_fmt(result.revenues[m.id])}"
        )
    if args.out:
        write_results(
            rows_from_result(result),
            {},
            args.out,
            master_seed=cfg.master_seed,
            digest=describe_digest(cfg),
        )
    return 0


# -- sweep -------------------------------------------------------------------


def _sweep_task(cfg: SweepConfig) -> tuple:
    """A sweep's revenue points and the result rows of its runs."""
    rows: list = []
    points = run_sweep(cfg, on_result=lambda r: rows.extend(rows_from_result(r)))
    return points, rows


def _cmd_sweep(args) -> int:
    cfg = parse_config(args.config)
    if not isinstance(cfg, SweepConfig):
        raise ConfigError(f"{args.config}: 'sweep' needs a 'sweep' config, not a miners list")
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)

    rows: list = []

    def sweep(c: SweepConfig) -> list:
        # Grid points draw their runs from per-point seed streams, so they
        # can run anywhere in any order; assembly follows grid order.
        tasks = [replace(c, alpha_grid=(alpha,)) for alpha in c.alpha_grid]
        done = _map(_sweep_task, tasks, args.jobs)
        rows.extend(row for _, task_rows in done for row in task_rows)
        return [point for points, _ in done for point in points]

    est = threshold_search(cfg, sweep)

    print("alpha    mean_revenue  attacker_gap")
    for p in est.points:
        print(f"{p.alpha:<8.4f} {_fmt(p.mean_revenue)}       {_fmt(p.attacker_gap)}")
    if est.threshold is None:
        print("threshold: none (no grid point reaches fair share)")
    else:
        lo, hi = est.ci95
        print(
            f"threshold: {est.threshold:.4f} "
            f"(bracket {est.bracket[0]:.4f}..{est.bracket[1]:.4f}, "
            f"ci95 {lo:.4f}..{hi:.4f}, "
            f"{'confirmed' if est.crossing_confirmed else 'unconfirmed'})"
        )
    if args.out:
        write_results(
            rows,
            {cfg.key(): est},
            args.out,
            master_seed=cfg.master_seed,
            digest=describe_digest(cfg),
        )
    return 0


# -- threshold-suite ---------------------------------------------------------


def _cell_task(cell) -> tuple:
    points, rows = _sweep_task(cell.sweep)
    return estimate_threshold(points), rows


def _cmd_suite(args) -> int:
    cells = table_cells(master_seed=args.seed)
    outcomes = _map(_cell_task, cells, args.jobs)

    all_rows: list = []
    thresholds = {}
    failures = []
    print("cell                     threshold  band          verdict")
    for cell, (est, rows) in zip(cells, outcomes):
        all_rows.extend(rows)
        thresholds[cell.key()] = est
        ok = cell_passes(cell, est)
        if not ok:
            failures.append(cell.name)
        shown = "none" if est.threshold is None else f"{est.threshold:.4f}"
        band = f"{cell.band[0]:.2f}..{cell.band[1]:.2f}"
        print(f"{cell.name:<24s} {shown:<10s} {band:<13s} {'ok' if ok else 'OUT OF BAND'}")
    print(f"suite: {len(cells) - len(failures)}/{len(cells)} cells in band")

    if args.out:
        write_results(
            all_rows,
            thresholds,
            args.out,
            master_seed=args.seed,
            digest=describe_digest([c.sweep for c in cells]),
        )
    if failures:
        _fail("band-mismatch", f"cells out of band: {', '.join(failures)}")
        return 1
    return 0


# -- entry point ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfishsim",
        description="Monte-Carlo selfish-mining simulator and threshold estimator.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_sim = sub.add_parser("simulate", help="run one configured scenario")
    p_sim.add_argument("--config", required=True, help="JSON config with a 'miners' list")
    p_sim.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_sim.add_argument("--out", default=None, help="directory for result files")
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="estimate a threshold over a power grid")
    p_sweep.add_argument("--config", required=True, help="JSON config with a 'sweep' block")
    p_sweep.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_sweep.add_argument("--out", default=None, help="directory for result files")
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_suite = sub.add_parser(
        "threshold-suite", help="rerun the built-in threshold table and check bands"
    )
    p_suite.add_argument("--seed", type=int, default=MASTER_SEED, help="master seed")
    p_suite.add_argument("--out", default=None, help="directory for result files")
    p_suite.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_suite.set_defaults(func=_cmd_suite)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        _fail("config", e)
        return 2
    except OSError as e:
        _fail("io", e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
