"""Sweeps, threshold interpolation, bootstrap intervals."""

import dataclasses

import numpy as np
import pytest

from selfishsim.config import ConfigError, ProtocolName
from selfishsim.experiments import (
    RevenuePoint,
    SweepConfig,
    bootstrap_ci,
    estimate_threshold,
    run_sweep,
    threshold_search,
)


def _pt(alpha, mean, spread=0.0):
    revs = (mean - spread, mean + spread, mean)
    return RevenuePoint(alpha=alpha, run_revenues=revs, mean_revenue=mean)


def test_revenue_point_checks_its_mean():
    with pytest.raises(ValueError):
        RevenuePoint(alpha=0.2, run_revenues=(0.1, 0.3), mean_revenue=0.5)


def test_interior_crossing_interpolates():
    est = estimate_threshold([_pt(0.24, 0.23), _pt(0.26, 0.27)])
    assert est.threshold == pytest.approx(0.25)
    assert est.bracket == (0.24, 0.26)
    assert est.crossing_confirmed
    # degenerate spread pins the interval onto the crossing itself
    assert est.ci95[0] == pytest.approx(0.25)
    assert est.ci95[1] == pytest.approx(0.25)


def test_first_point_already_profitable():
    est = estimate_threshold([_pt(0.1, 0.15), _pt(0.2, 0.3)])
    assert est.threshold == 0.1
    assert est.bracket == (0.1, 0.1)


def test_no_crossing_reports_none():
    est = estimate_threshold([_pt(0.1, 0.05), _pt(0.2, 0.12)])
    assert est.threshold is None
    assert est.bracket is None
    assert not est.crossing_confirmed


def test_estimator_input_validation():
    with pytest.raises(ValueError):
        estimate_threshold([_pt(0.1, 0.1)])
    with pytest.raises(ValueError):
        estimate_threshold([_pt(0.2, 0.1), _pt(0.1, 0.2)])


def test_bootstrap_ci_zero_variance_collapses():
    lo, hi = bootstrap_ci([0.4] * 10)
    assert lo == hi == pytest.approx(0.4)


def test_bootstrap_ci_deterministic_per_seed():
    data = [0.1, 0.4, 0.2, 0.9, 0.5]
    assert bootstrap_ci(data, seed=3) == bootstrap_ci(data, seed=3)
    assert bootstrap_ci(data, seed=3) != bootstrap_ci(data, seed=4)


def test_bootstrap_ci_validation():
    with pytest.raises(ValueError):
        bootstrap_ci([1.0])
    with pytest.raises(ValueError):
        bootstrap_ci([1.0, 2.0], level=1.0)


def test_bootstrap_coverage_near_nominal():
    """Percentile-bootstrap coverage of a known mean stays near 95%.

    500 trials of n=30 normal samples; the percentile method undercovers
    a little at this n, so the accepted band is wide but still rules out
    a broken interval.
    """
    rng = np.random.default_rng(0)
    hits = 0
    trials = 500
    for t in range(trials):
        sample = rng.normal(0.5, 0.1, size=30)
        lo, hi = bootstrap_ci(sample, resamples=1000, seed=t)
        hits += lo <= 0.5 <= hi
    assert 0.90 <= hits / trials <= 0.99


def _tiny_sweep(grid=(0.2, 0.3), repeats=3, rounds=500):
    return SweepConfig(
        protocol=ProtocolName.NAKAMOTO,
        alpha_grid=grid,
        symmetric_attackers=1,
        repeats=repeats,
        rounds=rounds,
        master_seed=1,
    )


def test_points_do_not_depend_on_grid_shape():
    whole = run_sweep(_tiny_sweep())
    solo = run_sweep(dataclasses.replace(_tiny_sweep(), alpha_grid=(0.3,)))
    assert whole[1].run_revenues == solo[0].run_revenues


def test_on_result_sees_runs_in_grid_order():
    seen = []
    run_sweep(_tiny_sweep(), on_result=lambda r: seen.append((r.config.miners[0].power, r.run_index)))
    assert seen == [(0.2, 0), (0.2, 1), (0.2, 2), (0.3, 0), (0.3, 1), (0.3, 2)]


def test_threshold_search_refines_with_bracket_midpoint():
    points, est = threshold_search(_tiny_sweep())
    assert 0.25 in [p.alpha for p in points]
    assert est.bracket[0] >= 0.2 and est.bracket[1] <= 0.3
    coarse_points = run_sweep(_tiny_sweep())
    assert [p.alpha for p in coarse_points] == [0.2, 0.3]
    assert estimate_threshold(coarse_points).bracket == (0.2, 0.3)
    assert [p for p in points if p.alpha != 0.25] == coarse_points


def test_threshold_search_runs_grid_and_midpoint_through_sweep():
    seen = []

    def sweep(cfg):
        seen.append(cfg)
        return run_sweep(cfg)

    points, est = threshold_search(_tiny_sweep(), sweep)
    assert seen == [_tiny_sweep(), dataclasses.replace(_tiny_sweep(), alpha_grid=(0.25,))]
    assert (points, est) == threshold_search(_tiny_sweep())


def test_sweep_config_validation():
    with pytest.raises(ConfigError):
        _tiny_sweep(grid=())
    with pytest.raises(ConfigError):
        _tiny_sweep(grid=(0.3, 0.2))
    with pytest.raises(ConfigError):
        SweepConfig(
            protocol=ProtocolName.NAKAMOTO,
            alpha_grid=(0.5,),
            symmetric_attackers=2,
            master_seed=1,
        )
    with pytest.raises(ConfigError):
        SweepConfig(
            protocol=ProtocolName.NAKAMOTO,
            alpha_grid=(0.2,),
            symmetric_attackers=1,
            fixed_rivals=(0.3,),
            master_seed=1,
        )
    with pytest.raises(ConfigError):
        SweepConfig(protocol=ProtocolName.NAKAMOTO, alpha_grid=(0.2,), master_seed=1)
    with pytest.raises(ConfigError):
        dataclasses.replace(_tiny_sweep(), repeats=0)
    with pytest.raises(ConfigError):
        SweepConfig(
            protocol=ProtocolName.NAKAMOTO,
            alpha_grid=(0.4,),
            fixed_rivals=(0.7,),
            master_seed=1,
        )


def test_rival_sweep_tracks_attacker_one():
    cfg = SweepConfig(
        protocol=ProtocolName.NAKAMOTO,
        alpha_grid=(0.1, 0.2),
        fixed_rivals=(0.3,),
        repeats=2,
        rounds=500,
        master_seed=1,
    )
    points = run_sweep(cfg)
    assert len(points) == 2
    sim = cfg.point_config(0.1)
    assert [m.power for m in sim.miners] == pytest.approx([0.1, 0.3, 0.6])
    assert sim.selfish_ids == (0, 1)
