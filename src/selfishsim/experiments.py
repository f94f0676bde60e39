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
    rival_attacker_config,
    symmetric_attacker_config,
)
from .engine import run_simulation


@dataclass(frozen=True)
class SweepConfig:
    """Grid description for one attacker-power sweep.

    Exactly one of ``symmetric_attackers`` (every attacker gets the grid
    power) or ``fixed_rivals`` (attacker 1 walks the grid against fixed
    rival powers) must be set.
    """

    protocol: ProtocolName
    alpha_grid: Tuple[float, ...]
    symmetric_attackers: Optional[int] = None
    fixed_rivals: Optional[Tuple[float, ...]] = None
    gamma: float = 0.5
    repeats: int = 5
    rounds: int = 100_000
    master_seed: int = 0
    protocol_params: Optional[object] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "protocol", ProtocolName(self.protocol))
        grid = tuple(float(a) for a in self.alpha_grid)
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
        if self.symmetric_attackers is not None:
            k = self.symmetric_attackers
            if k < 1:
                raise ConfigError("symmetric_attackers must be >= 1")
            if k * grid[-1] >= 1.0:
                raise ConfigError(
                    f"grid point {grid[-1]} with {k} attackers leaves no honest power"
                )
        else:
            rivals = tuple(float(p) for p in self.fixed_rivals)
            object.__setattr__(self, "fixed_rivals", rivals)
            if any(not 0.0 < p < 1.0 for p in rivals):
                raise ConfigError("rival powers must lie in (0, 1)")
            if grid[-1] + sum(rivals) >= 1.0:
                raise ConfigError(
                    f"grid point {grid[-1]} plus rivals leaves no honest power"
                )
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")

    def key(self) -> tuple:
        """Series key for thresholds.json: protocol, gamma, attacker count, rivals."""
        if self.symmetric_attackers is not None:
            return (self.protocol.value, self.gamma, self.symmetric_attackers)
        return (self.protocol.value, self.gamma, 1 + len(self.fixed_rivals), self.fixed_rivals)

    def point_config(self, alpha: float) -> SimulationConfig:
        """The simulation config for one grid power."""
        if self.symmetric_attackers is not None:
            return symmetric_attacker_config(
                self.protocol,
                self.symmetric_attackers,
                alpha,
                gamma=self.gamma,
                rounds=self.rounds,
                master_seed=self.master_seed,
                protocol_params=self.protocol_params,
            )
        return rival_attacker_config(
            self.protocol,
            alpha,
            self.fixed_rivals,
            gamma=self.gamma,
            rounds=self.rounds,
            master_seed=self.master_seed,
            protocol_params=self.protocol_params,
        )


@dataclass(frozen=True)
class RevenuePoint:
    """Attacker-1 revenue at one grid power."""

    alpha: float
    run_revenues: Tuple[float, ...]
    mean_revenue: float
    attacker_gap: float = 0.0  # max pairwise gap between attacker means

    def __post_init__(self) -> None:
        mean = sum(self.run_revenues) / len(self.run_revenues)
        if abs(mean - self.mean_revenue) > 1e-12:
            raise ValueError("mean_revenue must equal the mean of run_revenues")


@dataclass(frozen=True)
class ThresholdEstimate:
    """First fair-share crossing of a revenue curve, or None if absent."""

    threshold: Optional[float]
    bracket: Optional[Tuple[float, float]] = None
    ci95: Optional[Tuple[float, float]] = None
    crossing_confirmed: bool = False


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
        mean = sum(per_run) / cfg.repeats
        points.append(
            RevenuePoint(
                alpha=alpha,
                run_revenues=tuple(per_run),
                mean_revenue=mean,
                attacker_gap=gap,
            )
        )
    return points


def _interp_crossing(alpha_lo, mean_lo, alpha_hi, mean_hi) -> float:
    """Root of the linear excess (mean - alpha) through the bracket, clamped."""
    d_lo = mean_lo - alpha_lo
    d_hi = mean_hi - alpha_hi
    if d_lo >= 0.0:
        return alpha_lo
    if d_hi < 0.0:
        return alpha_hi
    return alpha_lo + (alpha_hi - alpha_lo) * (-d_lo) / (d_hi - d_lo)


def estimate_threshold(
    points: Sequence[RevenuePoint],
    resamples: int = 10_000,
    seed: int = 0,
) -> ThresholdEstimate:
    """Smallest grid power whose mean revenue reaches the fair share.

    An interior crossing is interpolated linearly between the bracketing
    grid points; a grid that starts at or above the fair share reports
    its first point.  The confidence interval is a percentile bootstrap
    of the crossing, resampling run-level revenues at the bracket.
    """
    if len(points) < 2:
        raise ValueError("need at least 2 grid points")
    alphas = [p.alpha for p in points]
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("revenue points must be in strictly ascending alpha order")

    excess = [p.mean_revenue - p.alpha for p in points]
    if excess[0] >= 0.0:
        lo = hi = points[0]
    else:
        lo = hi = None
        for a, b in zip(points, points[1:]):
            if b.mean_revenue - b.alpha >= 0.0:
                lo, hi = a, b
                break
        if lo is None:
            return ThresholdEstimate(threshold=None)

    threshold = _interp_crossing(lo.alpha, lo.mean_revenue, hi.alpha, hi.mean_revenue)

    rng = np.random.default_rng(seed)
    lo_runs = np.asarray(lo.run_revenues)
    hi_runs = np.asarray(hi.run_revenues)
    n = lo_runs.shape[0]
    lo_means = lo_runs[rng.integers(0, n, size=(resamples, n))].mean(axis=1)
    hi_means = hi_runs[rng.integers(0, n, size=(resamples, n))].mean(axis=1)
    crossings = np.empty(resamples)
    for i in range(resamples):
        crossings[i] = _interp_crossing(lo.alpha, lo_means[i], hi.alpha, hi_means[i])
    ci_lo, ci_hi = np.percentile(crossings, (2.5, 97.5))
    eps = 1e-9  # percentile interpolation dust must not fail an exact hit
    confirmed = bool(ci_lo - eps <= threshold <= ci_hi + eps)
    return ThresholdEstimate(
        threshold=float(threshold),
        bracket=(lo.alpha, hi.alpha),
        ci95=(float(ci_lo), float(ci_hi)),
        crossing_confirmed=confirmed,
    )


def bootstrap_ci(
    samples: Sequence[float],
    level: float = 0.95,
    resamples: int = 10_000,
    seed: int = 0,
) -> Tuple[float, float]:
    """Percentile bootstrap interval for the mean of the samples."""
    data = np.asarray(list(samples), dtype=float)
    if data.shape[0] < 2:
        raise ValueError("bootstrap_ci needs at least 2 samples")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, data.shape[0], size=(resamples, data.shape[0]))
    means = data[idx].mean(axis=1)
    tail = 100.0 * (1.0 - level) / 2.0
    lo, hi = np.percentile(means, (tail, 100.0 - tail))
    return float(lo), float(hi)


def threshold_search(cfg: SweepConfig, sweep=run_sweep) -> Tuple[list, ThresholdEstimate]:
    """Sweep the grid, then sharpen an interior bracket with its midpoint.

    The refinement reruns the estimator over the grid plus the bracket
    midpoint, halving the quantization of the reported threshold.
    ``sweep`` maps a SweepConfig to its revenue points in grid order; it
    runs both the grid and the one-point midpoint config.
    """
    points = sweep(cfg)
    estimate = estimate_threshold(points)
    if estimate.threshold is None:
        return points, estimate
    b_lo, b_hi = estimate.bracket
    mid = round((b_lo + b_hi) / 2.0, 6)
    if not b_lo < mid < b_hi:
        return points, estimate
    merged = sorted(points + sweep(replace(cfg, alpha_grid=(mid,))), key=lambda p: p.alpha)
    return merged, estimate_threshold(merged)
