"""Benchmark-side tracing of selfishsim's layers.

Tracing wraps the module attributes the program calls through, so the
program itself is never edited and an untraced run executes exactly the
code a user runs.  ``install`` swaps the wrappers in and returns a
function that puts the originals back; ``wrapped_attributes`` lists any
wrapper still in place, which is how an untraced run proves it ran clean.

Spans are (name, start, end, parent, attrs) records kept in memory per
process.  Runs, table cells, threshold estimates and result writes get a
span each.  Calls that happen hundreds of thousands of times per batch
(``cascade_release``) or once per run (lanes, digest, tally) are not spans:
their time and counts accumulate on the enclosing run span, which keeps
the tracing cost near the measured work.
"""

from __future__ import annotations

import resource
from time import perf_counter

from selfishsim import cli, engine, experiments, fruitchain, io, nakamoto, rng, strongchain
from selfishsim.strategy import Action

_MARK = "_perfbench_wrapper"

# (module, attribute) pairs the traced run replaces.  The table workload
# reaches estimate_threshold through cli's own binding, so that is the
# attribute wrapped for the experiments layer.
TARGETS = (
    (engine, "RoundLanes"),
    (engine, "cascade_release"),
    (engine, "config_digest"),
    (nakamoto, "tally_rewards"),
    (strongchain, "tally_rewards"),
    (fruitchain, "tally_rewards"),
    (experiments, "run_simulation"),
    (cli, "estimate_threshold"),
    (io, "write_results"),
)

_TALLY_MODULES = (nakamoto, strongchain, fruitchain)


def wrapped_attributes() -> list:
    """Names of traced attributes that currently hold a wrapper."""
    return [
        f"{mod.__name__}.{name}"
        for mod, name in TARGETS
        if getattr(getattr(mod, name), _MARK, False)
    ]


def new_run_attrs(config) -> dict:
    """Per-run accumulators stored on a run span."""
    return {"protocol": config.protocol.value, "k": len(config.selfish_ids), **_counters()}


def _counters() -> dict:
    return {
        "rounds": 0,
        "lanes_s": 0.0,
        "uniforms": 0,
        "cascade_s": 0.0,
        "cascade_calls": 0,
        "cascade_noop": 0,
        "adopt": 0,
        "match": 0,
        "override": 0,
        "tally_s": 0.0,
        "digest_s": 0.0,
        "digest_calls": 0,
        "maxrss_kb": 0,
    }


class Tracer:
    """Span recorder for one process."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._run = None  # attrs of the open run span
        # Calls outside any run (none are expected) accumulate here.
        self._stray = _counters()

    def reset(self) -> None:
        self.spans = []
        self._stack = []
        self._run = None

    def open(self, name: str, attrs=None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), 0.0, parent, attrs or {}])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def run(self, fn, config, *args, **kwargs):
        """Call ``fn(config, ...)`` (a run_simulation) under a run span."""
        attrs = new_run_attrs(config)
        outer = self._run
        self._run = attrs
        idx = self.open("run", attrs)
        try:
            result = fn(config, *args, **kwargs)
        finally:
            self.close(idx)
            self._run = outer
        attrs["rounds"] = result.rounds
        return result

    def acc(self) -> dict:
        return self._run if self._run is not None else self._stray


def _mark(fn):
    setattr(fn, _MARK, True)
    return fn


def install(tracer: Tracer):
    """Swap every target for a recording wrapper; returns the undo function."""
    saved = [(mod, name, getattr(mod, name)) for mod, name in TARGETS]
    orig = {(mod, name): fn for mod, name, fn in saved}
    lanes_per_round = rng.LANES_PER_ROUND

    round_lanes = orig[(engine, "RoundLanes")]

    def lanes_wrapper(run_seed, rounds):
        t = perf_counter()
        lanes = round_lanes(run_seed, rounds)
        a = tracer.acc()
        a["lanes_s"] += perf_counter() - t
        a["uniforms"] += rounds * lanes_per_round
        return lanes

    cascade = orig[(engine, "cascade_release")]
    adopt, match, override = Action.ADOPT, Action.MATCH, Action.OVERRIDE

    def cascade_wrapper(attackers, chain):
        t = perf_counter()
        acts = cascade(attackers, chain)
        dt = perf_counter() - t
        a = tracer.acc()
        a["cascade_s"] += dt
        a["cascade_calls"] += 1
        if not acts:
            a["cascade_noop"] += 1
        else:
            for _att, act in acts:
                if act is adopt:
                    a["adopt"] += 1
                elif act is override:
                    a["override"] += 1
                elif act is match:
                    a["match"] += 1
        return acts

    digest = orig[(engine, "config_digest")]

    def digest_wrapper(config):
        t = perf_counter()
        d = digest(config)
        a = tracer.acc()
        a["digest_s"] += perf_counter() - t
        a["digest_calls"] += 1
        return d

    def tally_wrapper_for(mod):
        tally = orig[(mod, "tally_rewards")]

        def tally_wrapper(*args):
            t = perf_counter()
            rewards = tally(*args)
            dt = perf_counter() - t
            a = tracer.acc()
            a["tally_s"] += dt
            # Lanes and the whole chain are still alive here, so the
            # high-water mark covers the run's peak.
            a["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            return rewards

        return tally_wrapper

    run_simulation = orig[(experiments, "run_simulation")]

    def run_wrapper(config, *args, **kwargs):
        return tracer.run(run_simulation, config, *args, **kwargs)

    def span_wrapper(name, fn):
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return wrapper

    wrappers = {
        (engine, "RoundLanes"): lanes_wrapper,
        (engine, "cascade_release"): cascade_wrapper,
        (engine, "config_digest"): digest_wrapper,
        (experiments, "run_simulation"): run_wrapper,
        (cli, "estimate_threshold"): span_wrapper("estimate", orig[(cli, "estimate_threshold")]),
        (io, "write_results"): span_wrapper("write", orig[(io, "write_results")]),
    }
    for mod in _TALLY_MODULES:
        wrappers[(mod, "tally_rewards")] = tally_wrapper_for(mod)
    for (mod, name), fn in wrappers.items():
        setattr(mod, name, _mark(fn))

    def undo() -> None:
        for mod, name, fn in saved:
            setattr(mod, name, fn)

    return undo


# -- accounting ----------------------------------------------------------------

# Layer self times that together with ``unattributed_s`` make up a traced
# batch's wall time.
SELF_TIME_METRICS = (
    "rng.lanes_s",
    "engine.loop_s",
    "strategy.cascade_s",
    "nakamoto.tally_s",
    "strongchain.tally_s",
    "fruitchain.tally_s",
    "config.digest_s",
    "experiments.sweep_s",
    "experiments.estimate_s",
    "io.write_s",
)


class LayerTotals:
    """Sums of per-layer figures over the spans of traced batches.

    Times recorded in pool workers are divided by the number of workers
    running at once (``share``), so every self time is a share of the
    batch's wall time; counts are plain sums.
    """

    def __init__(self):
        self.t: dict = {}
        self.c: dict = {}
        self.rss_kb: dict = {}
        self.run_s_raw = 0.0  # undivided, for time per round

    def add_t(self, key: str, value: float) -> None:
        self.t[key] = self.t.get(key, 0.0) + value

    def add_c(self, key: str, value: int) -> None:
        self.c[key] = self.c.get(key, 0) + value

    def add_spans(self, spans: list, share: float = 1.0) -> None:
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _attrs in spans:
            if parent is not None:
                child_s[parent] += end - start
        for i, (name, start, end, _parent, a) in enumerate(spans):
            dur = end - start
            if name == "run":
                inner = a["lanes_s"] + a["cascade_s"] + a["tally_s"] + a["digest_s"]
                loop = dur - inner - child_s[i]
                key = f"{a['protocol']}.k{a['k']}"
                self.run_s_raw += dur
                self.add_t("engine.run_s", dur * share)
                self.add_t("engine.loop_s", loop * share)
                self.add_t("rng.lanes_s", a["lanes_s"] * share)
                self.add_t("strategy.cascade_s", a["cascade_s"] * share)
                self.add_t(f"{a['protocol']}.tally_s", a["tally_s"] * share)
                self.add_t("config.digest_s", a["digest_s"] * share)
                self.add_t(f"engine.loop_s.{key}", loop * share)
                self.add_t(f"strategy.cascade_s.{key}", a["cascade_s"] * share)
                self.add_t(f"rng.lanes_s.{key}", a["lanes_s"] * share)
                self.add_c(f"strategy.cascade_calls.{key}", a["cascade_calls"])
                for k in ("uniforms", "cascade_calls", "cascade_noop", "adopt", "match",
                          "override", "digest_calls"):
                    self.add_c(k, a[k])
                self.add_c("rounds", a["rounds"])
                proto = a["protocol"]
                self.rss_kb[proto] = max(self.rss_kb.get(proto, 0), a["maxrss_kb"])
            elif name == "cell":
                self.add_t("experiments.sweep_s", (dur - child_s[i]) * share)
            elif name == "estimate":
                self.add_t("experiments.estimate_s", (dur - child_s[i]) * share)
                self.add_c("estimate_calls", 1)
            elif name == "write":
                self.add_t("io.write_s", (dur - child_s[i]) * share)
