"""Engine behavior: leader election, determinism, conservation, anchors."""

import collections
import dataclasses
import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

from conftest import quick_config
from selfishsim import engine, fruitchain, strongchain
from selfishsim.config import (
    ConfigError,
    EndCondition,
    FruitchainParams,
    MinerKind,
    MinerSpec,
    ProtocolName,
    SimulationConfig,
    rival_attacker_config,
)
from selfishsim.engine import BID, CUM, EMB, _Run, run_simulation
from selfishsim.rng import stream_uniforms
from selfishsim.strategy import ADOPT, MATCH, cascade_release

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


@pytest.mark.parametrize("run_index", [-1, 2**64])
def test_negative_run_index_rejected(run_index):
    with pytest.raises(ValueError):
        run_simulation(quick_config("nakamoto", rounds=100), run_index=run_index)


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
    mine_main, do_match, mine_fruits = _Run._mine_main, _Run.do_match, _Run._mine_fruits

    def honest_on_branch(self, att, miner, heavy):
        paths.add(("honest", heavy))
        return extend_alt(self, att, miner, heavy)

    def private(self, att, heavy):
        if self.tie is not None and att in self.tie.alts:
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

    def fruits(self, leaders, lane_tie, first, lo, hi):
        # The fruit path credits its fruits in stretches: a new honest entry
        # pointing at a released branch's tip is an honest fruit on that
        # branch, and a new entry in a racing owner's pool is the owner's.
        tie = self.tie
        if tie is None:
            return mine_fruits(self, leaders, lane_tie, first, lo, hi)
        pools = [self.pending_fruits] + [a.pending_fruits for a in tie.alts]
        before = [len(p) for p in pools]
        mine_fruits(self, leaders, lane_tie, first, lo, hi)
        tips = [a.blocks[-1][BID] for a in tie.alts]
        if any(f[1] in tips for f in self.pending_fruits[before[0]:]):
            paths.add(("honest", False))
        for a, tip, pool, n in zip(tie.alts, tips, pools[1:], before[1:]):
            if any(f[1] == tip for f in pool[n:]):
                paths.add(("owner", False))

    configs = {p: quick_config(p, alpha=0.15, gamma=0.5, rounds=100_000, seed=28, attackers=3)
               for p in ("nakamoto", "strongchain", "fruitchain")}
    configs["fruitchain-rival"] = rival_attacker_config(
        ProtocolName.FRUITCHAIN, 0.2, (0.3,), gamma=0.5, rounds=100_000, master_seed=28
    )
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        for name, wrapper in [("_extend_alt", honest_on_branch), ("_mine_private", private),
                              ("_mine_main", main), ("do_match", match), ("_mine_fruits", fruits)]:
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


@pytest.mark.parametrize("protocol", ["nakamoto", "strongchain", "fruitchain"])
@pytest.mark.parametrize("attackers", [1, 3])
def test_cascade_runs_only_while_an_attacker_withholds(monkeypatch, protocol, attackers):
    # Also counts every binding perfbench/tracing.py replaces to time a layer:
    # a run that called a private copy would read zero there.
    cfg = quick_config(protocol, alpha=0.2, rounds=3000, seed=28, attackers=attackers)
    plain = run_simulation(cfg, collect_records=True)
    mid_run = []
    anchor_bid = {}  # attacker id -> the bid of the block it last anchored on
    orphaned = []

    def anchoring(self, att, heavy):
        if att.anchor_index < 0:
            anchor_bid[att.id] = self.chain[-1][BID]
        return mine_private(self, att, heavy)

    def withholding_only(held, chain):
        if chain.quantum_units != float("inf"):  # settlement calls whoever withholds
            assert held
            mid_run.append(chain)
        # No cascade starts in a tie.  The held list is the engine's own and
        # holds exactly the anchored attackers.  An anchor is marked exactly
        # when the chain no longer holds its block; a live one keeps that
        # block's strength, and a branch counts exactly the strength it
        # holds, pending weak headers included.
        assert chain.tie is None
        assert held is chain.held
        assert sorted(a.id for a in held) == [a.id for a in chain.attackers if a.anchor_index >= 0]
        for a in held:
            i = a.anchor_index - chain.base
            if 0 <= i < len(chain.chain) and chain.chain[i][BID] == anchor_bid[a.id]:
                assert a.anchor_cum == chain.chain[i][CUM]
                top = a.blocks[-1][CUM] if a.blocks else a.anchor_cum
                assert a.units == top - a.anchor_cum + a.pending_count
            else:
                assert a.anchor_cum is None
                orphaned.append(a.id)
        return cascade_release(held, chain)

    mine_private = _Run._mine_private
    monkeypatch.setattr(_Run, "_mine_private", anchoring)
    monkeypatch.setattr(engine, "cascade_release", withholding_only)
    calls = collections.Counter()
    counted = [(engine, "RoundLanes"), (engine, "config_digest"),
               (fruitchain if protocol == "fruitchain" else strongchain, "tally_rewards")]
    for mod, name in counted:
        def counting(*args, _fn=getattr(mod, name), _key=(mod, name), **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, name, counting)
    wrapped = run_simulation(cfg, collect_records=True)
    assert mid_run
    if (protocol, attackers) == ("nakamoto", 3):
        # Won ties orphan anchors before their round's cascade starts.
        assert orphaned
    assert all(calls[target] for target in counted)
    assert _record_digest(wrapped.records) == _record_digest(plain.records)
    assert wrapped.rewards == plain.rewards


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
        # Every override is followed by a cascade in its round, so no
        # orphaned anchor is left at a fold.
        assert all(a.anchor_cum is not None for a in self.held)
        live = {(a.id, a.anchor_index, self.chain[a.anchor_index - self.base][BID])
                for a in self.held}
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


def _anchor(run, att, height):
    """Anchor a hand-built attacker at ``height`` the way ``_Run._mine_private`` does."""
    att.anchor_index = height
    att.anchor_cum = run.chain[height - run.base][CUM]
    run.held.append(att)


@pytest.mark.parametrize("protocol", ["nakamoto", "fruitchain"])
def test_fold_stops_at_the_lowest_live_anchor(protocol):
    # A bare public chain of 60 honest blocks over genesis.
    run = _Run(quick_config(protocol, alpha=0.1, attackers=3), 0, collect_records=False)
    run.chain = [(0, -1, 0, None)] + [(h, 3, h, None) for h in range(1, 61)]
    _anchor(run, run.attackers[1], 40)
    _anchor(run, run.attackers[2], 30)
    run._fold()
    window = run.window if protocol == "fruitchain" else 1
    assert run.base == 30 - (window - 1)
    assert run.chain[0][BID] == run.base
    assert run.folded == [0.0, 0.0, 0.0, float(run.base)]
    assert run.chain[40 - run.base][BID] == 40 and run.chain[30 - run.base][BID] == 30
    run.do_adopt(run.attackers[2])
    run._fold()
    assert run.base == 40 - (window - 1)
    assert run._result(0, 0).rewards == [0.0, 0.0, 0.0, 60.0]


def test_an_orphaned_anchor_has_no_public_strength_and_adopts():
    # Five honest blocks and three branches: attacker 0 holds 4 blocks from
    # height 2 (public 3, so it would override), attacker 1 holds 3 from
    # height 3 (public 2, so it overrides) and attacker 2 holds 7 from
    # height 4 (public 1, so it waits).  Attacker 1's release cuts at height
    # 3: it keeps attacker 0's anchor and orphans attacker 2's.
    run = _Run(quick_config("nakamoto", alpha=0.1, attackers=3), 0, collect_records=False)
    run.chain = [(0, -1, 0, None)] + [(h, 3, h, None) for h in range(1, 6)]
    for att, (anchor, n) in zip(run.attackers, [(2, 4), (3, 3), (4, 7)]):
        _anchor(run, att, anchor)
        att.blocks = [(10 * (att.id + 1) + j, att.id, anchor + 1 + j, ()) for j in range(n)]
        att.units = n
    low, mid, high = run.attackers
    assert [run.public_units() - a.anchor_cum for a in run.attackers] == [3, 2, 1]
    run.do_override(mid)
    assert [b[BID] for b in run.chain] == [0, 1, 2, 3, 20, 21, 22]
    assert high.anchor_cum is None
    assert low.anchor_cum == 2
    assert sorted(a.id for a in run.held) == [0, 2]
    # The next pass scans by withheld strength: attacker 0, now level,
    # matches, then the stronger attacker 2 adopts for its orphaned anchor.
    assert cascade_release(run.held, run) == [(0, MATCH), (2, ADOPT)]
    assert high.anchor_index < 0 and high.units == 0
    assert run.held == [low]
    assert [b[BID] for b in run.chain] == [0, 1, 2, 3, 20, 21, 22]


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
    run.chain = [(0, -1, 0, None)] + [(h, 4, h, None) for h in range(1, 6)]
    for att, (anchor, n) in zip(run.attackers, [(1, 6), (3, 3), (4, 5), (0, 7)]):
        _anchor(run, att, anchor)
        att.blocks = [(10 * (att.id + 1) + j, att.id, anchor + 1 + j, ()) for j in range(n)]
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
    assert [b[BID] for b in run.chain] == [0, 1] + list(range(10, 16))
    assert run.public_units() - run.attackers[3].anchor_cum == 7
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
    assert {b[BID] for b in run.chain}.isdisjoint(range(30, 47))
    assert run.attackers[3].units == run.public_units() - run.attackers[3].anchor_cum
    assert run.held == [run.attackers[3]]


def _released_fruit_branch():
    """A fruitchain tie between an honest main line and attacker 0's released branch.

    Main-line blocks 1-5 (bid = height) are honest; block 4 embeds the
    attacker's fruit (0, 2, 2) and block 5 the honest fruit (1, 4, 4).
    The attacker's branch from height 3 has blocks 40 and 41, embedding its
    fruits (0, 3, 3) and (0, 40, 4), and is level with the main line.  The
    public pool holds (1, 3, 3); an honest miner then mines two fruit
    rounds, whose tie lanes put the fruit (1, 41, 5) on the released branch
    (a draw below gamma 0.5) and (1, 5, 5) on the main-line tip.  Every
    fruit-pool entry here counts one fruit.
    """
    run = _Run(quick_config("fruitchain", alpha=0.1), 0, collect_records=False)
    r = run.fruit_ratio
    run.chain = [(0, -1, 0, None), (1, 1, r, []), (2, 1, 2 * r, []), (3, 1, 3 * r, []),
                 (4, 1, 4 * r + 1, [(0, 2, 2, 1)]), (5, 1, 5 * r + 2, [(1, 4, 4, 1)])]
    att = run.attackers[0]
    _anchor(run, att, 3)
    att.blocks = [(40, 0, 4 * r + 1, [(0, 3, 3, 1)]), (41, 0, 5 * r + 2, [(0, 40, 4, 1)])]
    att.units = 2 * r + 2
    run.next_bid = 50
    run.pending_fruits = [(1, 3, 3, 1)]
    run.do_match(att)
    run._mine_fruits([1, 1], [0.0, 0.99], 0, 0, 2)
    assert sorted(run.pending_fruits) == [(1, 3, 3, 1), (1, 5, 5, 1), (1, 41, 5, 1)]
    return run, att


def test_an_honest_block_on_a_released_fruit_branch_wins_with_its_fruits():
    run, att = _released_fruit_branch()
    assert run._extend_alt(att, 1, heavy=True) == run.fruit_ratio + 2
    assert run.tie is None
    assert [b[BID] for b in run.chain] == [0, 1, 2, 3, 40, 41, 50]
    # The fruit mined on the branch and the one at the anchor are embedded.
    assert sorted(run.chain[-1][EMB]) == [(1, 3, 3, 1), (1, 41, 5, 1)]
    # The replaced blocks' fruit below the anchor stays public; fruits
    # pointing at the replaced blocks 4 and 5 leave.
    assert run.pending_fruits == [(0, 2, 2, 1)]


def test_the_owners_block_publishes_the_honest_fruits_on_its_branch():
    run, att = _released_fruit_branch()
    assert run._mine_private(att, heavy=True) == run.fruit_ratio
    run.do_override(att)
    assert [b[BID] for b in run.chain] == [0, 1, 2, 3, 40, 41, 50]
    assert sorted(run.pending_fruits) == [(0, 2, 2, 1), (1, 3, 3, 1), (1, 41, 5, 1)]
    run._mine_main(1, heavy=True)
    assert sorted(run.chain[-1][EMB]) == [(0, 2, 2, 1), (1, 3, 3, 1), (1, 41, 5, 1)]


def test_a_losing_fruit_branch_takes_its_honest_fruits_with_it():
    run, att = _released_fruit_branch()
    run._mine_main(1, heavy=True)  # the main line gains, which closes the tie
    run.tie = None
    assert cascade_release(run.held, run) == [(0, ADOPT)]
    # The attacker keeps its fruit embedded in its dropped block 40 whose
    # pointer is canonical; the one pointing at its block 40 dies.
    assert att.pending_fruits == [(0, 3, 3, 1)]
    run._mine_main(1, heavy=True)
    assert [b[BID] for b in run.chain] == [0, 1, 2, 3, 4, 5, 50, 51]
    assert sorted(run.chain[-2][EMB]) == [(1, 3, 3, 1), (1, 5, 5, 1)]
    assert all((1, 41, 5, 1) not in b[EMB] for b in run.chain[1:])


def test_rewards_that_overflow_float_arithmetic_are_a_config_error():
    # Each reward is finite, but their sums are not.
    params = FruitchainParams(block_reward=1e308, fruit_reward=1e308)
    cfg = quick_config("fruitchain", rounds=1000, protocol_params=params)
    with pytest.raises(ConfigError, match=r"block_reward=1e\+308, fruit_reward=1e\+308"):
        run_simulation(cfg)


@pytest.mark.parametrize("protocol", ["nakamoto", "strongchain", "fruitchain"])
def test_folding_bounds_the_live_chain(monkeypatch, protocol):
    monkeypatch.setattr(engine, "CHUNK", SMALL_CHUNK)
    run = _Run(quick_config(protocol, alpha=0.3, rounds=20_000, seed=28), 0, collect_records=False)
    run.run()
    window = run.window if protocol == "fruitchain" else 0
    assert run.base > 0
    assert len(run.chain) <= 3 * SMALL_CHUNK + window


# Linux carries a parent's peak RSS over fork and exec into the child's
# ru_maxrss, so a child of this test process reads the peak from
# /proc/self/status, whose VmHWM covers only the child's own image.
_RSS_GROWTH_MB = """
import sys
from selfishsim.config import ProtocolName, symmetric_attacker_config
from selfishsim.engine import run_simulation

def status_mb(key):
    with open("/proc/self/status") as f:
        line = next(line for line in f if line.startswith(key + ":"))
    return int(line.split()[1]) / 1024

imported = status_mb("VmRSS")
protocol, attackers, alpha, gamma = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), float(sys.argv[4])
cfg = symmetric_attacker_config(ProtocolName(protocol), attackers, alpha, gamma=gamma, rounds=1_000_000)
run_simulation(cfg)
print(status_mb("VmHWM") - imported)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux /proc")
@pytest.mark.parametrize("run,bound_mb", [
    pytest.param(("nakamoto", 1, 0.25, 0.5), 5.0, id="nakamoto"),
    pytest.param(("fruitchain", 1, 0.25, 0.5), 5.0, id="fruitchain"),
    # Three attackers below the race onset: no branch stays ahead for long.
    pytest.param(("strongchain", 3, 0.23, 0.0), 5.0, id="strongchain-k3"),
    # A race: its chain grows with the run.  Counted fruit-pool entries
    # hold it near 58 MB; one tuple per fruit took 111 MB.
    pytest.param(("fruitchain", 5, 0.19, 0.0), 75.0, id="fruitchain-k5-race"),
])
def test_million_round_run_adds_little_over_the_imports(run, bound_mb):
    # A run holds one chunk of lanes and live blocks, so a million rounds
    # add little to what the imports already hold.  A race, where one
    # withheld branch stays ahead for the whole run, keeps its contested
    # chain; see the README.
    src = str(pathlib.Path(engine.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _RSS_GROWTH_MB, *map(str, run)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert float(out.stdout) <= bound_mb
