"""Power-grid sweeps and profitability-threshold estimation.

A sweep runs the same attacker scenario over an ascending grid of
attacker-1 powers, repeating each point several times.  The threshold is
the smallest power whose mean relative revenue reaches the fair share,
linearly interpolated when two adjacent grid points straddle the line,
with a percentile-bootstrap confidence interval over the bracketing
points' run-level revenues.

Run seeds are derived from the per-point config digest, so a grid point
gets identical runs no matter where in the grid it sits or which other
points are swept alongside it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .config import (
    ConfigError,
    ProtocolName,
    SimulationConfig,
    _as_tuple,
    _check_count,
    _check_protocol,
    is_number,
    rival_attacker_config,
    symmetric_attacker_config,
)
from .engine import run_simulation


@dataclass(frozen=True)
class SweepConfig:
    """Grid description for one attacker-power sweep.

    Exactly one of ``symmetric_attackers`` (every attacker gets the grid
    power) or ``fixed_rivals`` (attacker 1 walks the grid against fixed
    rival powers) must be set.  A ``gamma``, ``rounds`` or ``protocol_params``
    of None resolves to the grid points' default.
    """

    protocol: ProtocolName
    alpha_grid: Tuple[float, ...]
    symmetric_attackers: Optional[int] = None
    fixed_rivals: Optional[Tuple[float, ...]] = None
    gamma: Optional[float] = None
    repeats: int = 5
    rounds: Optional[int] = None
    master_seed: int = 0
    protocol_params: Optional[object] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "protocol", _check_protocol(self.protocol))
        grid = _as_tuple("alpha_grid", self.alpha_grid)
        rivals = None if self.fixed_rivals is None else _as_tuple("fixed_rivals", self.fixed_rivals)
        for name, values in (("alpha_grid", grid), ("fixed_rivals", rivals)):
            if values is not None and not all(map(is_number, values)):
                raise ConfigError(f"{name} must hold numbers, got {getattr(self, name)!r}")
        grid = tuple(float(a) for a in grid)
        object.__setattr__(self, "alpha_grid", grid)
        if len(grid) < 1:
            raise ConfigError("alpha_grid must not be empty")
        if any(not 0.0 < a <= 0.5 for a in grid):
            raise ConfigError("alpha_grid values must lie in (0, 0.5]")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("alpha_grid must be strictly ascending")
        if (self.symmetric_attackers is None) == (self.fixed_rivals is None):
            raise ConfigError(
                "exactly one of symmetric_attackers and fixed_rivals is required"
            )
        if rivals is not None:
            rivals = tuple(float(p) for p in rivals)
            object.__setattr__(self, "fixed_rivals", rivals)
            if not rivals:
                raise ConfigError("fixed_rivals must not be empty")
        _check_count("repeats", self.repeats)
        # The largest grid power leaves the least honest power, so its
        # config meets every power, gamma, params and rounds rule that
        # any grid point must; it also resolves the gamma, run length and
        # protocol params they all share, so equal sweeps have equal reprs.
        top = self.point_config(grid[-1])
        object.__setattr__(self, "gamma", top.gamma)
        object.__setattr__(self, "rounds", top.end_condition.round_budget)
        object.__setattr__(self, "protocol_params", top.protocol_params)

    def key(self) -> tuple:
        """Series key for thresholds.json: protocol, gamma, attacker count, rivals."""
        if self.symmetric_attackers is not None:
            return (self.protocol.value, self.gamma, self.symmetric_attackers)
        return (self.protocol.value, self.gamma, 1 + len(self.fixed_rivals), self.fixed_rivals)

    def point_config(self, alpha: float) -> SimulationConfig:
        """The simulation config for one grid power."""
        knobs = dict(
            gamma=self.gamma,
            rounds=self.rounds,
            master_seed=self.master_seed,
            protocol_params=self.protocol_params,
        )
        if self.symmetric_attackers is not None:
            return symmetric_attacker_config(self.protocol, self.symmetric_attackers, alpha, **knobs)
        return rival_attacker_config(self.protocol, alpha, self.fixed_rivals, **knobs)


@dataclass(frozen=True)
class RevenuePoint:
    """Attacker-1 revenue at one grid power."""

    alpha: float
    run_revenues: Tuple[float, ...]
    attacker_gap: float = 0.0  # max pairwise gap between attacker means

    @property
    def mean_revenue(self) -> float:
        return sum(self.run_revenues) / len(self.run_revenues)


@dataclass(frozen=True)
class ThresholdEstimate:
    """First fair-share crossing of a revenue curve, or None if absent.

    ``points`` is the curve the estimate was computed from, in ascending
    power order.
    """

    threshold: Optional[float]
    bracket: Optional[Tuple[float, float]] = None
    ci95: Optional[Tuple[float, float]] = None
    crossing_confirmed: bool = False
    points: Tuple[RevenuePoint, ...] = ()


def run_sweep(cfg: SweepConfig, on_result=None) -> list:
    """Revenue points for every grid power, in grid order.

    The per-attacker symmetry gap is recorded rather than enforced: in
    near-critical regimes a withheld branch can win a whole run, so
    attacker means legitimately diverge far beyond any fixed tolerance.
    ``on_result`` sees every SimulationResult as it completes, in
    deterministic (grid, run) order.
    """
    points = []
    for alpha in cfg.alpha_grid:
        sim_cfg = cfg.point_config(alpha)
        selfish = sim_cfg.selfish_ids
        per_run = []
        sums = [0.0] * len(selfish)
        for r in range(cfg.repeats):
            result = run_simulation(sim_cfg, r)
            if on_result is not None:
                on_result(result)
            per_run.append(result.revenues[selfish[0]])
            for j, mid in enumerate(selfish):
                sums[j] += result.revenues[mid]
        means = [s / cfg.repeats for s in sums]
        gap = max(means) - min(means) if len(means) > 1 else 0.0
        points.append(RevenuePoint(alpha=alpha, run_revenues=tuple(per_run), attacker_gap=gap))
    return points


def _interp_crossing(alpha_lo, mean_lo, alpha_hi, mean_hi):
    """Root of the linear excess (mean - alpha) through the bracket, clamped.

    Means may be scalars or arrays of resampled means.  A lane that a
    clamp decides may divide by zero; its quotient is discarded.
    """
    d_lo = np.asarray(mean_lo, dtype=float) - alpha_lo
    d_hi = np.asarray(mean_hi, dtype=float) - alpha_hi
    with np.errstate(divide="ignore", invalid="ignore"):
        inside = alpha_lo + (alpha_hi - alpha_lo) * (-d_lo) / (d_hi - d_lo)
    return np.where(d_lo >= 0.0, alpha_lo, np.where(d_hi < 0.0, alpha_hi, inside))


BOOTSTRAP_RESAMPLES = 10_000
BOOTSTRAP_SEED = 0


def estimate_threshold(points: Sequence[RevenuePoint]) -> ThresholdEstimate:
    """Smallest grid power whose mean revenue reaches the fair share.

    An interior crossing is interpolated linearly between the bracketing
    grid points; a grid that starts at or above the fair share reports
    its first point.  The confidence interval is a percentile bootstrap
    of the crossing, resampling run-level revenues at the bracket
    ``BOOTSTRAP_RESAMPLES`` times from a generator seeded with
    ``BOOTSTRAP_SEED``; each bracket point resamples its own run count.
    """
    if len(points) < 2:
        raise ValueError("need at least 2 grid points")
    alphas = [p.alpha for p in points]
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("revenue points must be in strictly ascending alpha order")

    i = next((i for i, p in enumerate(points) if p.mean_revenue - p.alpha >= 0.0), None)
    if i is None:
        return ThresholdEstimate(threshold=None, points=tuple(points))
    lo, hi = points[max(i - 1, 0)], points[i]

    threshold = float(_interp_crossing(lo.alpha, lo.mean_revenue, hi.alpha, hi.mean_revenue))

    rng = np.random.default_rng(BOOTSTRAP_SEED)

    def resampled_means(point):
        runs = np.asarray(point.run_revenues)
        n = len(runs)
        return runs[rng.integers(0, n, size=(BOOTSTRAP_RESAMPLES, n))].mean(axis=1)

    lo_means = resampled_means(lo)  # first: the pinned suite outputs depend on draw order
    hi_means = resampled_means(hi)
    crossings = _interp_crossing(lo.alpha, lo_means, hi.alpha, hi_means)
    ci_lo, ci_hi = np.percentile(crossings, (2.5, 97.5))
    eps = 1e-9  # percentile interpolation dust must not fail an exact hit
    confirmed = bool(ci_lo - eps <= threshold <= ci_hi + eps)
    return ThresholdEstimate(
        threshold=threshold,
        bracket=(lo.alpha, hi.alpha),
        ci95=(float(ci_lo), float(ci_hi)),
        crossing_confirmed=confirmed,
        points=tuple(points),
    )


def threshold_search(cfg: SweepConfig, sweep=run_sweep) -> ThresholdEstimate:
    """Sweep the grid, then sharpen an interior bracket with its midpoint.

    The refinement reruns the estimator over the grid plus the bracket
    midpoint, halving the quantization of the reported threshold; the
    returned estimate's ``points`` include the midpoint.  ``sweep`` maps
    a SweepConfig to its revenue points in grid order; it runs both the
    grid and the one-point midpoint config.
    """
    if len(cfg.alpha_grid) < 2:
        raise ConfigError("a threshold search needs at least 2 alpha_grid points")
    estimate = estimate_threshold(sweep(cfg))
    if estimate.threshold is None:
        return estimate
    b_lo, b_hi = estimate.bracket
    mid = round((b_lo + b_hi) / 2.0, 6)
    if not b_lo < mid < b_hi:
        return estimate
    merged = [*estimate.points, *sweep(replace(cfg, alpha_grid=(mid,)))]
    return estimate_threshold(sorted(merged, key=lambda p: p.alpha))
