"""Engine behavior: leader election, determinism, conservation, anchors."""

import dataclasses

import pytest

from conftest import quick_config
from selfishsim import engine
from selfishsim.config import (
    EndCondition,
    MinerKind,
    MinerSpec,
    ProtocolName,
    SimulationConfig,
)
from selfishsim.engine import _Run, run_simulation
from selfishsim.rng import stream_uniforms

THREE_MINERS = (
    MinerSpec(0, 0.2, MinerKind.HONEST),
    MinerSpec(1, 0.3, MinerKind.HONEST),
    MinerSpec(2, 0.5, MinerKind.HONEST),
)


LEADER_ROUNDS = 20_000


def _leader_run():
    """Leaders of an honest three-miner run, paired with their lane-0 draws."""
    cfg = SimulationConfig(
        protocol=ProtocolName.NAKAMOTO,
        miners=THREE_MINERS,
        gamma=0.5,
        end_condition=EndCondition(round_budget=LEADER_ROUNDS),
        master_seed=99,
    )
    res = run_simulation(cfg, collect_records=True)
    # The leader lane is lane 0 of every three draws.
    lane0 = stream_uniforms(res.run_seed, 3 * LEADER_ROUNDS)[0::3].tolist()
    assert len(res.records) == LEADER_ROUNDS
    return [(rec.leader, u) for rec, u in zip(res.records, lane0)]


def test_select_leader_interval_boundaries():
    # Miner i owns the half-open interval [sum of powers below i, plus its
    # own power) of the leader lane.
    bounds = [(0.0, 0.2), (0.2, 0.5), (0.5, 1.0)]
    for leader, u in _leader_run():
        lo, hi = bounds[leader]
        assert lo <= u < hi


def test_select_leader_frequencies_track_power():
    counts = [0, 0, 0]
    for leader, _ in _leader_run():
        counts[leader] += 1
    for m, c in zip(THREE_MINERS, counts):
        assert c / LEADER_ROUNDS == pytest.approx(m.power, abs=0.01)


def test_runs_are_deterministic():
    cfg = quick_config("nakamoto", rounds=5000, seed=11)
    a = run_simulation(cfg)
    b = run_simulation(cfg)
    assert a.revenues == b.revenues
    assert a.rewards == b.rewards
    assert a.run_seed == b.run_seed


def test_run_indices_give_independent_streams():
    cfg = quick_config("nakamoto", rounds=5000, seed=11)
    a = run_simulation(cfg, run_index=0)
    b = run_simulation(cfg, run_index=1)
    assert a.run_seed != b.run_seed
    assert a.revenues != b.revenues


@pytest.mark.parametrize("protocol", ["nakamoto", "strongchain", "fruitchain"])
def test_conservation(protocol):
    cfg = quick_config(protocol, alpha=0.25, rounds=20_000, seed=3, attackers=2)
    res = run_simulation(cfg)
    assert sum(res.revenues) == pytest.approx(1.0, abs=1e-9)
    assert sum(res.rewards) == pytest.approx(res.total_reward, abs=1e-9)
    assert all(r >= 0.0 for r in res.rewards)


def test_nakamoto_total_reward_is_chain_length():
    res = run_simulation(quick_config("nakamoto", rounds=10_000, seed=2))
    assert res.total_reward == res.chain_blocks


def test_honest_only_revenue_tracks_power():
    cfg = SimulationConfig(
        protocol=ProtocolName.NAKAMOTO,
        miners=THREE_MINERS,
        gamma=0.5,
        end_condition=EndCondition(round_budget=50_000),
        master_seed=6,
    )
    res = run_simulation(cfg)
    for m in THREE_MINERS:
        assert res.revenues[m.id] == pytest.approx(m.power, abs=0.01)


@pytest.mark.parametrize(
    "protocol,kinds",
    [
        ("nakamoto", {"block"}),
        ("strongchain", {"weak", "strong"}),
        ("fruitchain", {"fruit", "block"}),
    ],
)
def test_round_records(protocol, kinds):
    cfg = quick_config(protocol, rounds=300, seed=4)
    res = run_simulation(cfg, collect_records=True)
    assert len(res.records) == res.rounds == 300
    assert {rec.kind for rec in res.records} <= kinds
    assert [rec.index for rec in res.records] == list(range(300))
    for rec in res.records:
        for aid, action in rec.actions:
            assert aid == 0
    # records are opt-in
    assert run_simulation(cfg).records is None


def test_fruitchain_target_height_stops_at_exact_height():
    cfg = quick_config("fruitchain", seed=5)
    cfg = dataclasses.replace(cfg, end_condition=EndCondition(target_height=300))
    res = run_simulation(cfg)
    assert res.chain_blocks == 300


def test_negative_run_index_rejected():
    with pytest.raises(ValueError):
        run_simulation(quick_config("nakamoto", rounds=100), run_index=-1)


# Frozen outcomes of specific seeds; any engine change that moves these
# is a behavior change, not noise.
@pytest.mark.parametrize(
    "protocol,gamma,seed,expected",
    [
        ("nakamoto", 0.5, 7, 0.3252454275639887),
        ("strongchain", 0.0, 7, 0.14698850873568423),
        ("fruitchain", 0.5, 28, 0.2513199155783852),
    ],
)
def test_regression_anchor(protocol, gamma, seed, expected):
    cfg = quick_config(protocol, alpha=0.3, gamma=gamma, rounds=100_000, seed=seed)
    res = run_simulation(cfg)
    assert res.revenues[0] == expected


def test_multi_attacker_run_completes_under_pressure():
    # five attackers just below the runaway boundary exercise ties,
    # overrides and the end-of-run settlement together
    cfg = quick_config("fruitchain", alpha=0.18, rounds=20_000, seed=28, attackers=5)
    res = run_simulation(cfg)
    assert sum(res.revenues) == pytest.approx(1.0, abs=1e-9)
    assert res.chain_blocks > 0


# -- lanes drawn in chunks -------------------------------------------------

SMALL_CHUNK = 97  # odd, so chunk starts drift against every round pattern


def _outcome(res):
    return res.rounds, res.chain_blocks, res.rewards, res.revenues


@pytest.mark.parametrize("attackers", [1, 3])
@pytest.mark.parametrize("protocol", ["nakamoto", "strongchain", "fruitchain"])
def test_small_chunks_give_the_same_run(monkeypatch, protocol, attackers):
    alpha = 0.3 if attackers == 1 else 0.15
    cfg = quick_config(protocol, alpha=alpha, gamma=0.5, rounds=4000, seed=28, attackers=attackers)
    want = run_simulation(cfg)
    monkeypatch.setattr(engine, "CHUNK", SMALL_CHUNK)
    assert _outcome(run_simulation(cfg)) == _outcome(want)


def test_small_chunks_give_the_same_target_height_run(monkeypatch):
    cfg = quick_config("fruitchain", alpha=0.3, seed=5)
    cfg = dataclasses.replace(cfg, end_condition=EndCondition(target_height=300))
    want = run_simulation(cfg)
    monkeypatch.setattr(engine, "CHUNK", SMALL_CHUNK)
    got = run_simulation(cfg)
    assert got.rounds > SMALL_CHUNK
    assert _outcome(got) == _outcome(want)


def test_small_chunks_give_the_same_records(monkeypatch):
    cfg = quick_config("nakamoto", alpha=0.15, gamma=0.5, rounds=4000, seed=28, attackers=3)
    want = run_simulation(cfg, collect_records=True)
    # Rounds (completed so far) at which an honest leader read the tie lane.
    tie_reads = []
    choose = _Run._choose_tie_branch

    def recording_choose(self, u):
        tie_reads.append(len(self.records))
        return choose(self, u)

    monkeypatch.setattr(_Run, "_choose_tie_branch", recording_choose)
    monkeypatch.setattr(engine, "CHUNK", SMALL_CHUNK)
    got = run_simulation(cfg, collect_records=True)
    assert any(i % SMALL_CHUNK == 0 for i in tie_reads)  # a tie spans a chunk start
    assert _outcome(got) == _outcome(want)
    assert got.records == want.records


class _StopRun(Exception):
    pass


def _record_lane_requests(monkeypatch, stop=False):
    """Replace the engine's lane source with one that logs each request."""
    requests = []
    draw = engine.RoundLanes

    def recorder(seed, rounds):
        requests.append(rounds)
        if stop:
            raise _StopRun
        return draw(seed, rounds)

    monkeypatch.setattr(engine, "RoundLanes", recorder)
    return requests


def test_huge_budget_draws_one_chunk_at_a_time(monkeypatch):
    requests = _record_lane_requests(monkeypatch, stop=True)
    with pytest.raises(_StopRun):
        run_simulation(quick_config("nakamoto", rounds=10**12))
    assert requests == [engine.CHUNK]


def test_budget_is_drawn_in_whole_chunks_and_a_remainder(monkeypatch):
    requests = _record_lane_requests(monkeypatch)
    res = run_simulation(quick_config("nakamoto", rounds=2 * engine.CHUNK + 5))
    assert requests == [engine.CHUNK, engine.CHUNK, 5]
    assert res.rounds == 2 * engine.CHUNK + 5


def test_target_height_draws_less_than_one_spare_chunk(monkeypatch):
    requests = _record_lane_requests(monkeypatch)
    cfg = quick_config("fruitchain", alpha=0.38, gamma=0.0, seed=3)
    cfg = dataclasses.replace(cfg, end_condition=EndCondition(target_height=9000))
    res = run_simulation(cfg)
    assert res.rounds > engine.CHUNK
    assert sum(requests) < res.rounds + engine.CHUNK
