"""Sweeps, threshold interpolation and its bootstrap interval."""

import dataclasses
import warnings

import numpy as np
import pytest

from selfishsim.config import ConfigError, ProtocolName, StrongchainParams
from selfishsim.experiments import (
    RevenuePoint,
    SweepConfig,
    _interp_crossing,
    estimate_threshold,
    run_sweep,
    threshold_search,
)


def _pt(alpha, mean):
    return RevenuePoint(alpha=alpha, run_revenues=(mean,) * 3)


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


def _scalar_crossing(alpha_lo, mean_lo, alpha_hi, mean_hi):
    d_lo, d_hi = mean_lo - alpha_lo, mean_hi - alpha_hi
    if d_lo >= 0.0:
        return alpha_lo
    if d_hi < 0.0:
        return alpha_hi
    return alpha_lo + (alpha_hi - alpha_lo) * (-d_lo) / (d_hi - d_lo)


def test_crossing_lanes_match_scalar_rule():
    # Resampled lanes must equal the one-at-a-time clamp-and-interpolate
    # rule bit for bit, including lanes where a clamp hides a 0/0.
    rng = np.random.default_rng(3)
    for _ in range(50):
        alpha_lo = float(rng.uniform(0.05, 0.45))
        alpha_hi = alpha_lo + float(rng.choice([0.0, 0.01, 0.02]))
        lo = rng.choice(alpha_lo + rng.normal(0.0, 0.01, 8), 300)
        hi = rng.choice(alpha_hi + rng.normal(0.0, 0.01, 8), 300)
        hi[:20] = lo[:20] - alpha_lo + alpha_hi  # equal excess: zero divisor
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lanes = _interp_crossing(alpha_lo, lo, alpha_hi, hi)
        expected = [_scalar_crossing(alpha_lo, a, alpha_hi, b) for a, b in zip(lo, hi)]
        assert lanes.tolist() == expected


@pytest.mark.parametrize("lo_n,hi_n", [(3, 5), (5, 3)])
def test_bracket_points_resample_their_own_run_counts(lo_n, hi_n):
    # The first three runs of each point are equal, so only the longer
    # point's later runs can give the interval any width.
    lo = RevenuePoint(alpha=0.24, run_revenues=(0.20,) * 3 + (0.23,) * (lo_n - 3))
    hi = RevenuePoint(alpha=0.26, run_revenues=(0.30,) * 3 + (0.27,) * (hi_n - 3))
    est = estimate_threshold([lo, hi])
    assert est.threshold == _scalar_crossing(0.24, lo.mean_revenue, 0.26, hi.mean_revenue)
    assert est.ci95[0] < est.threshold < est.ci95[1]
    assert est.crossing_confirmed


def test_estimator_input_validation():
    with pytest.raises(ValueError):
        estimate_threshold([_pt(0.1, 0.1)])
    with pytest.raises(ValueError):
        estimate_threshold([_pt(0.2, 0.1), _pt(0.1, 0.2)])


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
    est = threshold_search(_tiny_sweep())
    points = list(est.points)
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

    est = threshold_search(_tiny_sweep(), sweep)
    assert seen == [_tiny_sweep(), dataclasses.replace(_tiny_sweep(), alpha_grid=(0.25,))]
    assert est == threshold_search(_tiny_sweep())


@pytest.mark.parametrize(
    "means,threshold", [((0.05, 0.12), None), ((0.15, 0.3), 0.1)], ids=["none-fair", "first-fair"]
)
def test_threshold_search_keeps_a_grid_estimate_with_no_interior_bracket(means, threshold):
    # No grid point reaches fair share, or the first one already does:
    # there is no bracket to halve, so no midpoint is run.
    grid_points = [_pt(0.1, means[0]), _pt(0.2, means[1])]
    calls = []

    def sweep(cfg):
        calls.append(cfg)
        return grid_points

    cfg = _tiny_sweep(grid=(0.1, 0.2))
    est = threshold_search(cfg, sweep)
    assert calls == [cfg]
    assert est == estimate_threshold(grid_points)
    assert est.threshold == threshold


def test_threshold_search_refuses_a_one_point_grid_before_sweeping():
    calls = []

    def sweep(cfg):
        calls.append(cfg)
        return run_sweep(cfg)

    with pytest.raises(ConfigError, match="at least 2"):
        threshold_search(_tiny_sweep(grid=(0.3,)), sweep)
    assert calls == []


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
    with pytest.raises(ConfigError, match="gamma"):
        dataclasses.replace(_tiny_sweep(), gamma=3.0)
    with pytest.raises(ConfigError, match="no protocol parameters"):
        dataclasses.replace(_tiny_sweep(), protocol_params=StrongchainParams())


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
