"""Acceptance gate: every headline claim checked at its stated tolerance.

Each criterion prints one summary line (collected into the terminal
summary) and asserts its tolerance.  Thresholds are quoted in percent
of total power.  Everything runs under the pinned suite seed so the
whole gate is reproducible bit for bit.
"""

import json

import pytest

from conftest import record_acceptance, tie_branch_shares
from markov_oracle import closed_form_revenue, stationary_revenue
import selfishsim.cli as cli
from selfishsim.config import ProtocolName, symmetric_attacker_config
from selfishsim.engine import run_simulation
from selfishsim.experiments import estimate_threshold, run_sweep
from selfishsim.suite import (
    FRUIT_GAMMA_GAP_MAX,
    FRUIT_GAMMA_PAIR,
    MASTER_SEED,
    RIVAL_LEVELS,
    cell_passes,
    evaluate_cell,
    fairness_configs,
    rival_suppression_sweep,
    rival_threshold_sweep,
    table_cells,
)

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="module")
def table():
    """Threshold estimates for every table cell, computed once."""
    return {cell.name: (cell, evaluate_cell(cell)) for cell in table_cells()}


def _pct(x):
    return "none" if x is None else f"{100 * x:.2f}"


def _check_cells(table, names):
    parts = []
    ok = True
    for name in names:
        cell, est = table[name]
        good = cell_passes(cell, est)
        ok &= good
        parts.append(
            f"{name}={_pct(est.threshold)} in [{100 * cell.band[0]:g},{100 * cell.band[1]:g}]"
            + ("" if good else " <-out-of-band")
        )
    return ok, "; ".join(parts)


def test_c1_single_attacker_thresholds(table):
    ok, detail = _check_cells(
        table, ["nakamoto-k1-g0.0", "nakamoto-k1-g0.5", "nakamoto-k1-g1.0"]
    )
    line = f"C1 nakamoto single-attacker thresholds: {detail} -> {'PASS' if ok else 'FAIL'}"
    record_acceptance(line)
    print(line)
    assert ok, line


def test_c2_multi_attacker_thresholds(table):
    ok, detail = _check_cells(
        table,
        ["nakamoto-k2-g0.5", "nakamoto-k3-g0.5", "nakamoto-k5-g0.5", "nakamoto-k7-g0.5"],
    )
    line = f"C2 nakamoto multi-attacker thresholds: {detail} -> {'PASS' if ok else 'FAIL'}"
    record_acceptance(line)
    print(line)
    assert ok, line


def test_c3_weak_header_thresholds(table):
    ok, detail = _check_cells(
        table,
        [
            "strongchain-k1-g0.0",
            "strongchain-k2-g0.0",
            "strongchain-k3-g0.0",
            "strongchain-k5-g0.0",
            "strongchain-k7-g0.0",
        ],
    )
    line = f"C3 strongchain thresholds: {detail} -> {'PASS' if ok else 'FAIL'}"
    record_acceptance(line)
    print(line)
    assert ok, line


def test_c4_fruit_thresholds_and_gamma_insensitivity(table):
    ok, detail = _check_cells(
        table,
        [
            "fruitchain-k1-g0.0",
            "fruitchain-k1-g1.0",
            "fruitchain-k3-g0.5",
            "fruitchain-k5-g0.5",
            "fruitchain-k7-g0.5",
        ],
    )
    a = table[FRUIT_GAMMA_PAIR[0]][1].threshold
    b = table[FRUIT_GAMMA_PAIR[1]][1].threshold
    gap_ok = a is not None and b is not None and abs(a - b) <= FRUIT_GAMMA_GAP_MAX + 1e-9
    ok &= gap_ok
    gap = "n/a" if (a is None or b is None) else f"{100 * abs(a - b):.2f}"
    line = (
        f"C4 fruitchain thresholds: {detail}; gamma gap {gap} <= 1.00"
        f" -> {'PASS' if ok else 'FAIL'}"
    )
    record_acceptance(line)
    print(line)
    assert ok, line


def test_c5a_dominant_rival_suppresses_profit():
    points = run_sweep(rival_suppression_sweep())
    worst = max(p.mean_revenue - p.alpha for p in points)
    ok = worst < 0.0
    line = (
        f"C5a nakamoto vs 40% rival: worst revenue excess {worst:+.4f} < 0"
        f" -> {'PASS' if ok else 'FAIL'}"
    )
    record_acceptance(line)
    print(line)
    assert ok, line


def c5b_verdict(master_seed=MASTER_SEED):
    """Sweep every rival level and judge the fruit-protocol rival effect.

    The threshold does not fall monotonically: it bottoms out near a 20%
    rival and turns up again, and above the solo threshold the rival's
    branch outgrows the public chain for whole runs.  So the checks are
    (a) every rival below the solo threshold lowers attacker 1's
    threshold, its 95% interval clear of the solo one; (b) the fall is
    strict over the first three levels; (c) every rival above the solo
    threshold keeps attacker 1 below fair share wherever the honest
    miners at least match the rival.  Returns (ok, verdict line).
    """
    levels = []
    for rival in RIVAL_LEVELS:
        points = run_sweep(rival_threshold_sweep(rival, master_seed))
        levels.append((rival, points, estimate_threshold(points)))
    solo = levels[0][2]
    rivals = levels[1:]
    if solo.threshold is None:
        return False, "C5b fruitchain solo threshold not found -> FAIL"
    below = [est for rival, _, est in rivals if rival < solo.threshold]
    above = [(rival, points) for rival, points, _ in rivals if rival > solo.threshold]

    highest = max((est.ci95[1] if est.ci95 else float("inf") for est in below), default=None)
    lowered = highest is not None and highest < solo.ci95[0]

    first = [est.threshold for _, _, est in levels[:3]]
    falls = None not in first and first[0] > first[1] > first[2]

    excesses = [
        p.mean_revenue - p.alpha
        for rival, points in above
        for p in points
        if 1.0 - rival - p.alpha >= rival - 1e-9  # 1 - 0.4 - 0.2 falls just short of 0.4
    ]
    worst = max(excesses, default=None)
    suppressed = worst is not None and worst < 0.0

    ok = lowered and falls and suppressed
    shown = ", ".join(_pct(est.threshold) for _, _, est in levels)
    line = (
        f"C5b fruitchain attacker-1 threshold vs rival power "
        f"{'/'.join(f'{int(100 * r)}%' for r, _, _ in levels)}: {shown};"
        f" (a) rivals below solo lower it, ci95 high {_pct(highest)}"
        f" < solo ci95 low {_pct(solo.ci95[0])}: {'yes' if lowered else 'NO'};"
        f" (b) {' > '.join(_pct(t) for t in first)}: {'yes' if falls else 'NO'};"
        f" (c) rivals above solo, worst excess where honest >= rival"
        f" {'none' if worst is None else f'{worst:+.4f}'} < 0: {'yes' if suppressed else 'NO'}"
        f" -> {'PASS' if ok else 'FAIL'}"
    )
    return ok, line


def test_c5b_fruit_threshold_falls_as_rival_grows():
    ok, line = c5b_verdict()
    record_acceptance(line)
    print(line)
    assert ok, line


def test_c6_engine_matches_markov_oracle():
    # the oracle itself is cross-checked against the published algebra
    for a in (0.1, 0.25, 0.4):
        for g in (0.0, 0.5, 1.0):
            assert stationary_revenue(a, g) == pytest.approx(
                closed_form_revenue(a, g), abs=1e-9
            )
    worst = 0.0
    for alpha in (0.10, 0.15, 0.20, 0.25):
        for gamma in (0.0, 0.5, 1.0):
            cfg = symmetric_attacker_config(
                ProtocolName.NAKAMOTO, 1, alpha, gamma=gamma, master_seed=MASTER_SEED
            )
            mean = sum(
                run_simulation(cfg, run_index=i).revenues[0] for i in range(5)
            ) / 5
            worst = max(worst, abs(mean - stationary_revenue(alpha, gamma)))
    ok = worst <= 0.005
    line = (
        f"C6 single-attacker engine vs stationary oracle (12 points):"
        f" worst |diff| {worst:.5f} <= 0.00500 -> {'PASS' if ok else 'FAIL'}"
    )
    record_acceptance(line)
    print(line)
    assert ok, line


def test_c7_honest_only_fairness():
    worst = 0.0
    per_proto = {}
    for cfg, powers in fairness_configs():
        res = run_simulation(cfg)
        gap = sum(abs(res.revenues[i] - powers[i]) for i in range(len(powers))) / len(powers)
        key = cfg.protocol.value
        per_proto.setdefault(key, []).append(gap)
        worst = max(worst, gap)
    means = {k: sum(v) / len(v) for k, v in per_proto.items()}
    ok = all(m <= 0.01 for m in means.values()) and worst <= 0.01
    detail = ", ".join(f"{k}={v:.5f}" for k, v in sorted(means.items()))
    line = (
        f"C7 honest-only fairness (mean |revenue - power|): {detail},"
        f" worst run {worst:.5f} <= 0.01000 -> {'PASS' if ok else 'FAIL'}"
    )
    record_acceptance(line)
    print(line)
    assert ok, line


def test_c8_structural_invariants():
    problems = []

    # reward conservation across protocols and attacker mixes
    for proto, k, alpha in (
        (ProtocolName.NAKAMOTO, 1, 0.3),
        (ProtocolName.STRONGCHAIN, 2, 0.2),
        (ProtocolName.FRUITCHAIN, 3, 0.15),
    ):
        cfg = symmetric_attacker_config(
            proto, k, alpha, gamma=0.5, rounds=20_000, master_seed=MASTER_SEED
        )
        res = run_simulation(cfg)
        if abs(sum(res.revenues) - 1.0) > 1e-9:
            problems.append(f"{proto.value} revenues sum {sum(res.revenues)}")
        if abs(sum(res.rewards) - res.total_reward) > 1e-6:
            problems.append(f"{proto.value} reward total mismatch")
        if any(r < 0 for r in res.rewards):
            problems.append(f"{proto.value} negative reward")

    # the engine's honest tie-branch choice follows gamma for a lone
    # attacker against the honest main line and splits evenly otherwise
    for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
        shares = tie_branch_shares(gamma, 1)
        if abs(shares[1] - gamma) > 0.01:
            problems.append(f"lone-attacker tie at gamma {gamma}: {shares}")
    for n_alts in (2, 3, 4):
        shares = tie_branch_shares(0.5, n_alts)
        if any(abs(x - 1.0 / (1 + n_alts)) > 0.01 for x in shares):
            problems.append(f"{n_alts}-branch tie: {shares}")

    # cascade settling under heavy multi-attacker pressure terminates
    cfg = symmetric_attacker_config(
        ProtocolName.FRUITCHAIN, 5, 0.19, gamma=0.5, rounds=20_000, master_seed=MASTER_SEED
    )
    res = run_simulation(cfg)
    if abs(sum(res.revenues) - 1.0) > 1e-9:
        problems.append("cascade run conservation broken")

    ok = not problems
    line = (
        "C8 invariants (conservation, tie-branch choice, cascade settling)"
        f" -> {'PASS' if ok else 'FAIL: ' + '; '.join(problems)}"
    )
    record_acceptance(line)
    print(line)
    assert ok, line


def test_c9_cli_rerun_is_byte_identical(tmp_path):
    payload = {
        "protocol": "nakamoto",
        "sweep": {"alpha_grid": [0.22, 0.24, 0.26], "attackers": 1},
        "rounds": 20_000,
        "repeats": 3,
        "seed": MASTER_SEED,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload), encoding="utf-8")
    rc_a = cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "a")])
    rc_b = cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "b")])
    same = {
        name: (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("results.csv", "thresholds.json", "plotdata/nakamoto_g0.5_k1.csv")
    }
    ok = rc_a == 0 and rc_b == 0 and all(same.values())
    line = (
        "C9 determinism: rerunning the sweep verb reproduces results.csv,"
        f" thresholds.json and plot data byte for byte -> {'PASS' if ok else 'FAIL'}"
    )
    record_acceptance(line)
    print(line)
    assert ok, line
