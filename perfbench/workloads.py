"""The three benchmark workloads and how one batch of each executes.

Each workload is a closed batch: its inputs are built from the workload
seed alone, the program receives only those configs, and the next batch
starts once the previous one has finished.  At most two worker processes
run at once.

* ``table``: the 17-cell threshold table with rounds and repeats cut,
  fanned out over a 2-worker pool exactly as ``threshold-suite --jobs 2``
  does (``cli._cell_task`` through ``pool.map``), results written with
  ``io.write_results``.  The only workload using the pool, threshold
  estimation and output writing.
* ``horizon``: four long single-attacker runs, each in its own spawned
  child so its peak memory is its own; the last one ends on a target
  height, which makes ``RoundLanes`` regrow.  Lanes, the round loop and
  chain memory dominate.
* ``crowd``: 123 medium runs in this process, 5 and 7 symmetric
  attackers on every protocol over the table grids, plus the 40%-rival
  scenario.  Cascades and multi-branch ties dominate; no pool.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import resource
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from multiprocessing import resource_tracker
from pathlib import Path
from time import perf_counter

import tracing
from selfishsim import cli, engine, io, suite
from selfishsim.config import EndCondition, ProtocolName, symmetric_attacker_config

WORKERS = 2

SIZES = {
    "full": {
        "table": {"rounds": 8_000, "repeats": 2},
        # Nakamoto runs get half these budgets (see _budget).
        "horizon": {"rounds": 400_000, "target_height": 20_000},
        "crowd": {"rounds": 12_000, "runs_per_point": 3},
    },
    # For the smoke test: every code path, a fraction of a second each.
    "tiny": {
        "table": {"rounds": 300, "repeats": 2},
        "horizon": {"rounds": 4_000, "target_height": 200},
        "crowd": {"rounds": 300, "runs_per_point": 1},
    },
}


@dataclass
class RunRecord:
    """What a batch keeps of one run for the correctness checks."""

    label: str
    run_seed: int
    fingerprint: str  # repr of the rewards (revenues where only rows exist)
    revenues: list
    rounds: int
    budget: int | None
    target: int | None
    chain_blocks: int | None


@dataclass
class Batch:
    """One timed pass over a workload's inputs."""

    wall_s: float
    records: list
    run_s: list  # one time per run (per-run cell average on table)
    child_rss_kb: int = 0  # peak RSS of worker/child processes, summed where concurrent
    spans: list = field(default_factory=list)  # (span list, share) pairs
    wrapped: list = field(default_factory=list)  # wrappers seen in the processes involved
    processes: int = 1
    files: dict = field(default_factory=dict)  # output file name -> sha256
    io_bytes: int = 0
    busy_s: float = 0.0  # worker-seconds spent in tasks (table)

    @property
    def rounds(self) -> int:
        return sum(r.rounds for r in self.records)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _record(label: str, config, result) -> RunRecord:
    end = config.end_condition
    return RunRecord(
        label=label,
        run_seed=result.run_seed,
        fingerprint=repr(result.rewards),
        revenues=list(result.revenues),
        rounds=result.rounds,
        budget=end.round_budget,
        target=end.target_height,
        chain_blocks=result.chain_blocks,
    )


def _warm_up() -> None:
    """One tiny run per protocol so lazy imports and first calls are paid."""
    for proto in ProtocolName:
        engine.run_simulation(symmetric_attacker_config(proto, 2, 0.2, rounds=500))


class _Workload:
    name = ""

    def __init__(self, seed: int, size: str, out_root: Path):
        self.seed = seed
        self.sizes = SIZES[size][self.name]
        self.out_dir = out_root / self.name

    def start(self, traced: bool) -> float:
        """Prepare to run batches; returns pool start time (0 without a pool)."""
        return 0.0

    def close(self) -> None:
        pass


# -- table -------------------------------------------------------------------

_WORKER_TRACER = None


def _init_traced_worker() -> None:
    global _WORKER_TRACER
    _WORKER_TRACER = tracing.Tracer()
    tracing.install(_WORKER_TRACER)


def _worker_ready(_):
    return os.getpid()


def table_task(cell):
    """Pool task: ``cli._cell_task`` plus what the benchmark observes of it."""
    tracer = _WORKER_TRACER
    if tracer is not None:
        tracer.reset()
        span = tracer.open("cell")
    t0 = perf_counter()
    est, rows = cli._cell_task(cell)
    t1 = perf_counter()
    spans = None
    if tracer is not None:
        tracer.close(span)
        spans = tracer.spans
    info = (os.getpid(), t1 - t0, _maxrss_kb(), tracing.wrapped_attributes(), spans)
    return est, rows, info


def table_cells(seed: int, rounds: int, repeats: int) -> list:
    return [
        replace(c, sweep=replace(c.sweep, rounds=rounds, repeats=repeats))
        for c in suite.table_cells(master_seed=seed)
    ]


def _rows_to_records(cell, rows) -> list:
    """Group a cell's result rows (miner-id order per run) into runs."""
    runs = []
    for row in rows:
        if row.miner_id == 0:
            runs.append([])
        runs[-1].append(row)
    budget = cell.sweep.rounds
    return [
        RunRecord(
            label=f"{cell.name} a={run[0].alpha_per_attacker} r={run[0].run_index}",
            run_seed=run[0].seed,
            fingerprint=repr([r.revenue for r in run]),
            revenues=[r.revenue for r in run],
            rounds=run[0].rounds,
            budget=budget,
            target=None,
            chain_blocks=None,
        )
        for run in runs
    ]


class Table(_Workload):
    name = "table"

    def __init__(self, seed, size, out_root):
        super().__init__(seed, size, out_root)
        self.cells = table_cells(seed, self.sizes["rounds"], self.sizes["repeats"])
        # Same manifest digest threshold-suite computes.
        self.digest = hashlib.sha256(
            repr([c.sweep for c in self.cells]).encode("utf-8")
        ).hexdigest()[:16]
        self.pools = {}
        self.expected_runs = sum(len(c.sweep.alpha_grid) * c.sweep.repeats for c in self.cells)

    def start(self, traced: bool) -> float:
        _warm_up()  # forked workers inherit the warmed interpreter
        self.pools[False], pool_start = self._start_pool(None)
        if traced:
            self.pools[True], pool_start = self._start_pool(_init_traced_worker)
        return pool_start

    @staticmethod
    def _start_pool(initializer):
        t0 = perf_counter()
        pool = ProcessPoolExecutor(max_workers=WORKERS, initializer=initializer)
        list(pool.map(_worker_ready, range(WORKERS)))
        return pool, perf_counter() - t0

    def close(self) -> None:
        for pool in self.pools.values():
            pool.shutdown(wait=True)
        self.pools = {}

    def batch(self, tracer) -> Batch:
        pool = self.pools[tracer is not None]
        t0 = perf_counter()
        outcomes = list(pool.map(table_task, self.cells))
        all_rows: list = []
        thresholds = {}
        for cell, (est, rows, _info) in zip(self.cells, outcomes):
            all_rows.extend(rows)
            thresholds[cell.key()] = est
        io.write_results(
            all_rows, thresholds, self.out_dir, master_seed=self.seed, digest=self.digest
        )
        wall = perf_counter() - t0

        records, run_s, spans, wrapped = [], [], [], []
        rss_by_pid: dict = {}
        busy = 0.0
        for cell, (_est, rows, info) in zip(self.cells, outcomes):
            pid, task_s, rss_kb, task_wrapped, task_spans = info
            cell_records = _rows_to_records(cell, rows)
            records.extend(cell_records)
            run_s.append(task_s / len(cell_records))
            busy += task_s
            rss_by_pid[pid] = max(rss_by_pid.get(pid, 0), rss_kb)
            wrapped.extend(task_wrapped)
            if task_spans is not None:
                spans.append((task_spans, 1.0 / WORKERS))
        files = {
            name: hashlib.sha256((self.out_dir / name).read_bytes()).hexdigest()
            for name in ("results.csv", "thresholds.json")
        }
        io_bytes = sum(p.stat().st_size for p in self.out_dir.rglob("*") if p.is_file())
        return Batch(
            wall_s=wall,
            records=records,
            run_s=run_s,
            child_rss_kb=sum(rss_by_pid.values()),
            spans=spans,
            wrapped=wrapped,
            processes=1 + len(rss_by_pid),
            files=files,
            io_bytes=io_bytes,
            busy_s=busy,
        )


# -- horizon -----------------------------------------------------------------


def _budget(protocol: ProtocolName, rounds: int) -> int:
    """Round budget giving runs of every protocol about the same duration.

    A nakamoto round costs about twice a strongchain or fruitchain round.
    With equal run times the median run time sits inside one cluster of
    similar runs instead of in the gap between two, where it would jump
    from seed to seed.
    """
    return rounds // 2 if protocol is ProtocolName.NAKAMOTO else rounds


def horizon_configs(seed: int, rounds: int, target_height: int) -> list:
    fruit = symmetric_attacker_config(
        ProtocolName.FRUITCHAIN, 1, 0.38, gamma=0.0, rounds=rounds, master_seed=seed
    )
    return [
        symmetric_attacker_config(
            ProtocolName.NAKAMOTO, 1, 0.25, gamma=0.5,
            rounds=_budget(ProtocolName.NAKAMOTO, rounds), master_seed=seed,
        ),
        symmetric_attacker_config(
            ProtocolName.STRONGCHAIN, 1, 0.45, gamma=0.0, rounds=rounds, master_seed=seed
        ),
        fruit,
        replace(fruit, end_condition=EndCondition(target_height=target_height)),
    ]


def horizon_child(config, traced: bool, conn) -> None:
    """Spawned child: one run, reported back over ``conn``."""
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    t0 = perf_counter()
    if tracer is not None:
        result = tracer.run(engine.run_simulation, config)
    else:
        result = engine.run_simulation(config)
    run_s = perf_counter() - t0
    label = f"{config.protocol.value} end={config.end_condition}"
    conn.send(
        (
            _record(label, config, result),
            run_s,
            _maxrss_kb(),
            tracing.wrapped_attributes(),
            tracer.spans if tracer is not None else None,
        )
    )
    conn.close()


class Horizon(_Workload):
    name = "horizon"

    def __init__(self, seed, size, out_root):
        super().__init__(seed, size, out_root)
        self.configs = horizon_configs(
            seed, self.sizes["rounds"], self.sizes["target_height"]
        )
        self.expected_runs = len(self.configs)
        self.ctx = multiprocessing.get_context("spawn")

    def _child(self, config, traced: bool):
        recv, send = self.ctx.Pipe(duplex=False)
        proc = self.ctx.Process(target=horizon_child, args=(config, traced, send))
        proc.start()
        send.close()
        try:
            out = recv.recv()
        finally:
            recv.close()
            proc.join()
        if proc.exitcode != 0:
            raise RuntimeError(f"horizon child exited with {proc.exitcode}")
        return out

    def close(self) -> None:
        # Spawning a child starts multiprocessing's resource tracker, which
        # would outlive the benchmark: stop it and reap it (a later spawn
        # starts it again).
        resource_tracker._resource_tracker._stop()

    def batch(self, tracer) -> Batch:
        traced = tracer is not None
        t0 = perf_counter()
        outs = [self._child(cfg, traced) for cfg in self.configs]
        wall = perf_counter() - t0
        spans = [(s, 1.0) for *_rest, s in outs if s is not None]
        return Batch(
            wall_s=wall,
            records=[o[0] for o in outs],
            run_s=[o[1] for o in outs],
            child_rss_kb=max(o[2] for o in outs),  # children run one at a time
            spans=spans,
            wrapped=[w for o in outs for w in o[3]],
            processes=1 + len(outs),
        )


# -- crowd -------------------------------------------------------------------


def crowd_jobs(seed: int, rounds: int, runs_per_point: int) -> list:
    """(config, run index) pairs: k=5/7 table grids plus the 40%-rival sweep."""
    sweeps = [
        c.sweep
        for c in suite.table_cells(master_seed=seed)
        if c.sweep.symmetric_attackers in (5, 7)
    ]
    sweeps.append(suite.rival_suppression_sweep(master_seed=seed))
    jobs = []
    for sweep in sweeps:
        sweep = replace(sweep, rounds=_budget(sweep.protocol, rounds))
        for alpha in sweep.alpha_grid:
            cfg = sweep.point_config(alpha)
            jobs.extend((cfg, r) for r in range(runs_per_point))
    return jobs


class Crowd(_Workload):
    name = "crowd"

    def __init__(self, seed, size, out_root):
        super().__init__(seed, size, out_root)
        self.jobs = crowd_jobs(seed, self.sizes["rounds"], self.sizes["runs_per_point"])
        self.expected_runs = len(self.jobs)

    def start(self, traced: bool) -> float:
        _warm_up()
        return 0.0

    def batch(self, tracer) -> Batch:
        results, run_s = [], []
        run = engine.run_simulation
        t0 = perf_counter()
        for cfg, r in self.jobs:
            t = perf_counter()
            if tracer is not None:
                res = tracer.run(run, cfg, r)
            else:
                res = run(cfg, r)
            run_s.append(perf_counter() - t)
            results.append(res)
        wall = perf_counter() - t0
        records = [
            _record(f"{cfg.protocol.value} k={len(cfg.selfish_ids)} "
                    f"a={cfg.miners[0].power!r} r={r}", cfg, res)
            for (cfg, r), res in zip(self.jobs, results)
        ]
        return Batch(wall_s=wall, records=records, run_s=run_s)


WORKLOADS = {w.name: w for w in (Table, Horizon, Crowd)}
