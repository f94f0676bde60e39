"""Engine behavior: leader election, determinism, conservation, anchors."""

import dataclasses
import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

from conftest import quick_config
from selfishsim import engine
from selfishsim.config import (
    EndCondition,
    MinerKind,
    MinerSpec,
    ProtocolName,
    SimulationConfig,
    rival_attacker_config,
)
from selfishsim.engine import Block, _Run, run_simulation
from selfishsim.rng import stream_uniforms
from selfishsim.strategy import ADOPT, OVERRIDE, cascade_release

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
# is a behavior change, not noise.  The three-attacker runs reach attacker
# main-line blocks, tie-branch extensions and promotions, matches and
# overrides.
ANCHORS = [
    ("nakamoto", 0.5, 7, 1, 0.3252454275639887),
    ("strongchain", 0.0, 7, 1, 0.14698850873568423),
    ("fruitchain", 0.5, 28, 1, 0.2513199155783852),
    ("nakamoto", 0.5, 28, 3, 0.13529729312871133),
    ("strongchain", 0.5, 28, 3, 0.07978096981883723),
    ("fruitchain", 0.5, 28, 3, 0.10215143495220828),
]


@pytest.mark.parametrize(
    "protocol,gamma,seed,attackers,expected",
    ANCHORS,
    ids=[f"{p}-{g}-{s}-{e}" if k == 1 else f"{p}-{g}-{s}-k{k}-{e}" for p, g, s, k, e in ANCHORS],
)
def test_regression_anchor(protocol, gamma, seed, attackers, expected):
    alpha = 0.3 if attackers == 1 else 0.15
    cfg = quick_config(protocol, alpha=alpha, gamma=gamma, rounds=100_000, seed=seed, attackers=attackers)
    res = run_simulation(cfg)
    assert res.revenues[0] == expected


# SHA-256 of every round record of the three-attacker anchors above and of
# a fruitchain attacker against a 30% rival, all 100k rounds at seed 28.
RECORD_PINS = {
    "nakamoto": "5d5e0a7cec01b9ee755dbc6567c92721560878e0b9b1c8609e4ea9de456632a3",
    "strongchain": "8e1bf2ab988e523d0ec7e97744440bdfa10a9283fbf568d5302c58f3f05bd881",
    "fruitchain": "9a68c029e59e8fa9aeba5e465c9a07a8568503b4e802f90fd8633ff6f21f2a3b",
    "fruitchain-rival": "58d9b5c885fa930afdf3fd7ee6128599984823398e90c82184362afe54258752",
}


def _record_digest(records):
    h = hashlib.sha256()
    for r in records:
        h.update(repr((r.index, r.leader, r.kind, tuple((i, a.value) for i, a in r.actions))).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def pinned_runs():
    """Record digest and tie paths taken of each pinned run, by name."""
    paths = set()
    extend_alt, mine_private = _Run._extend_alt, _Run._mine_private
    mine_main, do_match = _Run._mine_main, _Run.do_match

    def honest_on_branch(self, att, miner, heavy):
        paths.add(("honest", heavy))
        return extend_alt(self, att, miner, heavy)

    def private(self, att, heavy):
        if att.in_match:
            paths.add(("owner", heavy))
        return mine_private(self, att, heavy)

    def main(self, miner, heavy, att=None):
        if att is not None:
            paths.add("main owner")
        return mine_main(self, miner, heavy, att)

    def match(self, att):
        if self.tie is not None:
            paths.add("match into tie")
        do_match(self, att)

    configs = {p: quick_config(p, alpha=0.15, gamma=0.5, rounds=100_000, seed=28, attackers=3)
               for p in ("nakamoto", "strongchain", "fruitchain")}
    configs["fruitchain-rival"] = rival_attacker_config(
        ProtocolName.FRUITCHAIN, 0.2, (0.3,), gamma=0.5, rounds=100_000, master_seed=28
    )
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        for name, wrapper in [("_extend_alt", honest_on_branch), ("_mine_private", private),
                              ("_mine_main", main), ("do_match", match)]:
            mp.setattr(_Run, name, wrapper)
        for name, cfg in configs.items():
            paths.clear()
            records = run_simulation(cfg, collect_records=True).records
            out[name] = (_record_digest(records), set(paths))
    return out


@pytest.mark.parametrize("name", sorted(RECORD_PINS))
def test_round_records_are_pinned(pinned_runs, name):
    assert pinned_runs[name][0] == RECORD_PINS[name]


def test_pinned_runs_reach_every_tie_path(pinned_runs):
    every = {("honest", False), ("honest", True), ("owner", False), ("owner", True),
             "main owner", "match into tie"}
    header = pinned_runs["nakamoto"][1] | pinned_runs["strongchain"][1]
    fruit = pinned_runs["fruitchain"][1] | pinned_runs["fruitchain-rival"][1]
    assert header == every
    assert fruit == every


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


# -- settled blocks folded at chunk starts ---------------------------------


def _folding_run(monkeypatch, cfg):
    """Small-chunk run next to the single-chunk one; logs every fold."""
    want = run_simulation(cfg)
    folds = []
    fold = _Run._fold

    def logging_fold(self):
        live = {(a.id, a.anchor_index, a.anchor_bid) for a in self.attackers if not a.floating}
        folds.append((self.tie is not None, live))
        fold(self)

    monkeypatch.setattr(_Run, "_fold", logging_fold)
    monkeypatch.setattr(engine, "CHUNK", SMALL_CHUNK)
    run = _Run(cfg, 0, collect_records=False)
    got = run.run()
    assert run.base > 0
    assert _outcome(got) == _outcome(want)
    return folds


# gamma 0.5 is test_small_chunks_give_the_same_run, whose runs fold too.
@pytest.mark.parametrize("gamma", [0.0, 1.0])
@pytest.mark.parametrize("attackers", [1, 3])
@pytest.mark.parametrize("protocol", ["nakamoto", "strongchain", "fruitchain"])
def test_folding_keeps_the_run(monkeypatch, protocol, attackers, gamma):
    alpha = 0.3 if attackers == 1 else 0.15
    cfg = quick_config(protocol, alpha=alpha, gamma=gamma, rounds=4000, seed=28, attackers=attackers)
    _folding_run(monkeypatch, cfg)


def test_folding_keeps_a_target_height_run(monkeypatch):
    cfg = quick_config("fruitchain", alpha=0.38, gamma=0.0, seed=5)
    cfg = dataclasses.replace(cfg, end_condition=EndCondition(target_height=1500))
    _folding_run(monkeypatch, cfg)


@pytest.mark.parametrize(
    "protocol,alpha,gamma",
    [("nakamoto", 0.15, 0.5), ("strongchain", 0.15, 0.5), ("fruitchain", 0.2, 0.0)],
)
def test_folding_keeps_a_run_with_a_tie_open_at_a_fold(monkeypatch, protocol, alpha, gamma):
    cfg = quick_config(protocol, alpha=alpha, gamma=gamma, rounds=4000, seed=28, attackers=3)
    folds = _folding_run(monkeypatch, cfg)
    assert any(tie_open for tie_open, _ in folds)


@pytest.mark.parametrize(
    "protocol,gamma", [("nakamoto", 0.5), ("strongchain", 1.0), ("fruitchain", 0.5)]
)
def test_folding_keeps_an_anchor_held_across_folds(monkeypatch, protocol, gamma):
    cfg = quick_config(protocol, alpha=0.45, gamma=gamma, rounds=4000, seed=28)
    folds = _folding_run(monkeypatch, cfg)
    held = [live for _, live in folds]
    assert any(held[i] & held[i + 1] & held[i + 2] for i in range(len(held) - 2))


@pytest.mark.parametrize("protocol", ["nakamoto", "fruitchain"])
def test_fold_stops_at_the_lowest_live_anchor(protocol):
    # A bare public chain of 60 honest blocks over genesis.
    run = _Run(quick_config(protocol, alpha=0.1, attackers=3), 0, collect_records=False)
    run.chain = [Block(0, -1, 0)] + [Block(h, 3, h) for h in range(1, 61)]
    run.public_units = 60
    run.attackers[1].anchor_index, run.attackers[1].anchor_bid = 40, 40
    run.attackers[2].anchor_index, run.attackers[2].anchor_bid = 30, 30
    run._fold()
    window = run.window if protocol == "fruitchain" else 1
    assert run.base == 30 - (window - 1)
    assert run.chain[0].bid == run.base
    assert run.folded == [0.0, 0.0, 0.0, float(run.base)]
    assert run.public_units_from(run.attackers[1]) is not None
    assert run.public_units_from(run.attackers[2]) is not None
    run.attackers[2].reset()
    run._fold()
    assert run.base == 40 - (window - 1)
    assert run._result(0, 0).rewards == [0.0, 0.0, 0.0, 60.0]


def test_an_orphaned_anchor_has_no_public_strength_and_adopts():
    # Five honest blocks; attacker 0 holds 5 blocks from height 1 (public 4,
    # so it overrides), attacker 1 holds 6 from height 3 (public 2, so it
    # waits).  Attacker 0 is weaker, so it releases first and cuts at height
    # 2, below attacker 1's anchor.
    run = _Run(quick_config("nakamoto", alpha=0.1, attackers=2), 0, collect_records=False)
    run.chain = [Block(0, -1, 0)] + [Block(h, 2, h) for h in range(1, 6)]
    run.public_units = 5
    for att, (anchor, n) in zip(run.attackers, [(1, 5), (3, 6)]):
        att.anchor_index, att.anchor_bid = anchor, anchor
        att.blocks = [Block(10 * (att.id + 1) + j, att.id, anchor + 1 + j, ()) for j in range(n)]
        att.units = n
    first, rival = run.attackers
    assert run.public_units_from(first) == 4
    assert run.public_units_from(rival) == 2
    assert cascade_release([first], run) == [(0, OVERRIDE)]
    assert run.chain[3 - run.base].bid != rival.anchor_bid
    assert run.public_units_from(rival) is None
    assert cascade_release(run.attackers, run) == [(1, ADOPT)]
    assert rival.floating and rival.units == 0
    assert [b.bid for b in run.chain] == [0, 1] + list(range(10, 15))


def _settling_run():
    """A nakamoto run ending with four withheld branches over five honest blocks.

    Attacker (anchor height, branch blocks), public strength from the anchor:
    - 0: (1, 6), public 4: ahead, the strongest branch;
    - 1: (3, 3), public 2: ahead, the weakest branch;
    - 2: (4, 5), public 1: ahead, but attacker 1's release orphans its anchor;
    - 3: (0, 7), public 5: ahead now, level once attacker 0 has published.
    Branch blocks of attacker ``a`` have bids ``10 * (a + 1) + j``.
    """
    run = _Run(quick_config("nakamoto", alpha=0.1, attackers=4), 0, collect_records=False)
    run.chain = [Block(0, -1, 0)] + [Block(h, 4, h) for h in range(1, 6)]
    run.public_units = 5
    for att, (anchor, n) in zip(run.attackers, [(1, 6), (3, 3), (4, 5), (0, 7)]):
        att.anchor_index, att.anchor_bid = anchor, anchor
        att.blocks = [Block(10 * (att.id + 1) + j, att.id, anchor + 1 + j, ()) for j in range(n)]
        att.units = n
    published = []

    def recording_override(att):
        published.append(att.id)
        _Run.do_override(run, att)

    run.do_override = recording_override
    run._settle_final()
    return run, published


def test_settlement_publishes_the_weaker_branch_first():
    # The stronger branch then overrides it from a lower anchor.
    run, published = _settling_run()
    assert published == [1, 0]
    assert [b.bid for b in run.chain] == [0, 1] + list(range(10, 16))
    assert run.public_units == 7
    assert run._result(0, 0).rewards == [6.0, 0.0, 0.0, 0.0, 1.0]


def test_settlement_keeps_a_level_branch_and_drops_an_orphaned_anchor():
    # Attacker 3 ends level and holding blocks, so its branch stays
    # withheld.  Attacker 2's branch is strictly stronger than the public
    # chain when settlement starts, yet it is dropped because attacker 1's
    # release orphans its anchor: the `FOUND:` line in CHANGES.md on
    # `engine._Run._settle_final` and direction 3 of ROADMAP.md name this
    # as the dead-anchor defect to fix.
    run, published = _settling_run()
    assert 2 not in published and 3 not in published
    assert {b.bid for b in run.chain}.isdisjoint(range(30, 47))
    assert run.attackers[3].units == run.public_units_from(run.attackers[3])


@pytest.mark.parametrize("protocol", ["nakamoto", "strongchain", "fruitchain"])
def test_folding_bounds_the_live_chain(monkeypatch, protocol):
    monkeypatch.setattr(engine, "CHUNK", SMALL_CHUNK)
    run = _Run(quick_config(protocol, alpha=0.3, rounds=20_000, seed=28), 0, collect_records=False)
    run.run()
    window = run.window if protocol == "fruitchain" else 0
    assert run.base > 0
    assert len(run.chain) <= 3 * SMALL_CHUNK + window


_PEAK_GROWTH_MB = """
import resource, sys
from selfishsim import engine
from selfishsim.config import ProtocolName, symmetric_attacker_config
from selfishsim.engine import run_simulation

def peak_mb(rounds):
    cfg = symmetric_attacker_config(ProtocolName(sys.argv[1]), 1, 0.25, gamma=0.5, rounds=rounds)
    run_simulation(cfg)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

one_chunk = peak_mb(engine.CHUNK)
print(peak_mb(1_000_000) - one_chunk)
"""


@pytest.mark.parametrize("protocol", ["nakamoto", "fruitchain"])
def test_million_round_run_keeps_memory_bounded(protocol):
    # A fresh interpreter, so the peak RSS is this run's alone.
    src = str(pathlib.Path(engine.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _PEAK_GROWTH_MB, protocol],
        env=env, capture_output=True, text=True, check=True,
    )
    assert float(out.stdout) < 20.0
