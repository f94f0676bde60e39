"""Canned reproduction suite: the headline threshold table and checks.

One place defines the grids, seeds and expected bands that both the
``threshold-suite`` CLI verb and the acceptance tests run, so the two
can never drift apart.  Thresholds are percentage points of total
power; each cell's grid brackets its expected band with one-point
steps.  The estimator is the plain grid crossing, with no midpoint
refinement, because the bands and the pinned suite outputs were set on
that crossing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple

from .config import (
    MinerKind,
    MinerSpec,
    ProtocolName,
    SimulationConfig,
)
from .experiments import SweepConfig, ThresholdEstimate

MASTER_SEED = 28

_N = ProtocolName.NAKAMOTO
_S = ProtocolName.STRONGCHAIN
_F = ProtocolName.FRUITCHAIN


def power_grid(lo: float, hi: float, step: float = 0.01) -> Tuple[float, ...]:
    """Inclusive ascending grid, rounded to avoid float-accumulation drift."""
    pts = []
    x = lo
    while x <= hi + 1e-9:
        pts.append(round(x, 4))
        x += step
    return tuple(pts)


@dataclass(frozen=True)
class ThresholdCell:
    """One table cell: a sweep plus the band its threshold must land in."""

    name: str
    sweep: SweepConfig
    band: Tuple[float, float]  # inclusive, in power fractions

    def key(self) -> tuple:
        """Series key for thresholds.json."""
        return self.sweep.key()


def _cell(name, proto, k, gamma, grid, band, master_seed) -> ThresholdCell:
    return ThresholdCell(
        name=name,
        sweep=SweepConfig(
            protocol=proto,
            alpha_grid=grid,
            symmetric_attackers=k,
            gamma=gamma,
            master_seed=master_seed,
        ),
        band=band,
    )


def table_cells(master_seed: int = MASTER_SEED) -> list:
    """The headline profitability-threshold table, one cell per entry.

    Single-attacker cells pin the tie-break rate that defines them;
    multi-attacker cells all use the symmetric 0.5 rate.  Attacker
    counts of 5 and 7 cap their grids where combined power would reach
    the whole network.
    """
    return [
        _cell("nakamoto-k1-g0.0", _N, 1, 0.0, power_grid(0.31, 0.35), (0.32, 0.34), master_seed),
        _cell("nakamoto-k1-g0.5", _N, 1, 0.5, power_grid(0.23, 0.27), (0.24, 0.26), master_seed),
        _cell("nakamoto-k1-g1.0", _N, 1, 1.0, power_grid(0.01, 0.03), (0.01, 0.01), master_seed),
        _cell("nakamoto-k2-g0.5", _N, 2, 0.5, power_grid(0.19, 0.23), (0.20, 0.22), master_seed),
        _cell("nakamoto-k3-g0.5", _N, 3, 0.5, power_grid(0.17, 0.21), (0.18, 0.20), master_seed),
        _cell("nakamoto-k5-g0.5", _N, 5, 0.5, power_grid(0.12, 0.17), (0.13, 0.16), master_seed),
        _cell("nakamoto-k7-g0.5", _N, 7, 0.5, power_grid(0.09, 0.14), (0.10, 0.13), master_seed),
        _cell("strongchain-k1-g0.0", _S, 1, 0.0, power_grid(0.43, 0.49), (0.44, 0.48), master_seed),
        _cell("strongchain-k2-g0.0", _S, 2, 0.0, power_grid(0.29, 0.35), (0.30, 0.34), master_seed),
        _cell("strongchain-k3-g0.0", _S, 3, 0.0, power_grid(0.21, 0.27), (0.22, 0.26), master_seed),
        _cell("strongchain-k5-g0.0", _S, 5, 0.0, power_grid(0.14, 0.19), (0.15, 0.19), master_seed),
        _cell("strongchain-k7-g0.0", _S, 7, 0.0, power_grid(0.10, 0.14), (0.11, 0.15), master_seed),
        _cell("fruitchain-k1-g0.0", _F, 1, 0.0, power_grid(0.35, 0.41), (0.36, 0.40), master_seed),
        _cell("fruitchain-k1-g1.0", _F, 1, 1.0, power_grid(0.35, 0.41), (0.36, 0.40), master_seed),
        _cell("fruitchain-k3-g0.5", _F, 3, 0.5, power_grid(0.21, 0.27), (0.23, 0.27), master_seed),
        _cell("fruitchain-k5-g0.5", _F, 5, 0.5, power_grid(0.14, 0.19), (0.15, 0.19), master_seed),
        _cell("fruitchain-k7-g0.5", _F, 7, 0.5, power_grid(0.10, 0.14), (0.11, 0.15), master_seed),
    ]

# Fruitchain's single-attacker threshold must not move with the tie-break
# rate by more than one point; these two cells carry the comparison.
FRUIT_GAMMA_PAIR = ("fruitchain-k1-g0.0", "fruitchain-k1-g1.0")
FRUIT_GAMMA_GAP_MAX = 0.01


def cell_passes(cell: ThresholdCell, est: ThresholdEstimate) -> bool:
    lo, hi = cell.band
    return (
        est.threshold is not None
        and est.crossing_confirmed
        and lo - 1e-9 <= est.threshold <= hi + 1e-9
    )


def rival_suppression_sweep(master_seed: int = MASTER_SEED) -> SweepConfig:
    """Attacker 1 against a fixed 40% withholding rival, one-block protocol.

    Every grid power must stay below fair share: the larger rival's
    overriding erases the smaller attacker's profit for all powers below
    the rival's own.
    """
    return SweepConfig(
        protocol=_N,
        alpha_grid=power_grid(0.05, 0.35, 0.05),
        fixed_rivals=(0.40,),
        gamma=0.5,
        master_seed=master_seed,
    )


RIVAL_LEVELS = (0.0, 0.1, 0.2, 0.3, 0.4)


def rival_threshold_sweep(rival: float, master_seed: int = MASTER_SEED) -> SweepConfig:
    """Fruit-protocol attacker-1 threshold sweep against one fixed rival.

    Rival power 0 degenerates to the single-attacker sweep.  Grids are
    two-point coarse except the solo cell, which reuses the table grid.
    """
    if rival == 0.0:
        return SweepConfig(
            protocol=_F,
            alpha_grid=power_grid(0.34, 0.42, 0.01),
            symmetric_attackers=1,
            gamma=0.5,
            master_seed=master_seed,
        )
    hi = min(0.42, round(1.0 - rival - 0.02, 2))
    return SweepConfig(
        protocol=_F,
        alpha_grid=power_grid(0.04, hi, 0.02),
        fixed_rivals=(rival,),
        gamma=0.5,
        master_seed=master_seed,
    )


ORACLE_ALPHAS = (0.10, 0.15, 0.20, 0.25)
ORACLE_GAMMAS = (0.0, 0.5, 1.0)
ORACLE_TOLERANCE = 0.005


def fairness_configs(master_seed: int = MASTER_SEED) -> list:
    """All-honest mixes with haphazard power splits, five per protocol.

    Returns (config, powers) pairs; each run's revenues must track the
    powers to within one percentage point on average.
    """
    out = []
    for proto in (_N, _S, _F):
        for s in range(5):
            r = random.Random(1000 + s)
            n = r.randint(2, 6)
            raw = [r.random() + 0.05 for _ in range(n)]
            tot = sum(raw)
            powers = [x / tot for x in raw]
            powers[-1] = 1.0 - sum(powers[:-1])
            miners = tuple(MinerSpec(i, powers[i], MinerKind.HONEST) for i in range(n))
            cfg = SimulationConfig(
                protocol=proto,
                miners=miners,
                gamma=0.5,
                master_seed=master_seed + s,
            )
            out.append((cfg, powers))
    return out


FAIRNESS_TOLERANCE = 0.01
