"""Per-protocol rules: artifact sampling, freshness, reward arithmetic."""

import pytest

from conftest import quick_config
from selfishsim import engine
from selfishsim.config import FruitchainParams, StrongchainParams
from selfishsim.engine import EMB, _Run, run_simulation
from selfishsim.rng import stream_uniforms

HEAVY_KIND = {"strongchain": "strong", "fruitchain": "block"}


def _tally(protocol, blocks, tip=(), attackers=1, params=None):
    """The engine's own rewards for ``blocks`` and ``tip``, from zero totals."""
    cfg = quick_config(protocol, attackers=attackers, protocol_params=params)
    return _Run(cfg, 0, collect_records=False)._tally(blocks, tip)


def test_nakamoto_one_reward_per_block():
    blocks = [(1, 0, 1, None), (2, 1, 2, None), (3, 0, 3, None)]
    assert _tally("nakamoto", blocks) == [2.0, 1.0]


def _heavy_draws(protocol):
    """(record says heavy, lane-1 uniform) per round of a 50k-round run."""
    rounds = 50_000
    res = run_simulation(quick_config(protocol, rounds=rounds, seed=3), collect_records=True)
    lane1 = stream_uniforms(res.run_seed, 3 * rounds)[1::3].tolist()
    return [(rec.kind == HEAVY_KIND[protocol], u) for rec, u in zip(res.records, lane1)]


def test_strong_draw_boundary():
    # ratio 10: a round mines a strong block iff its kind uniform < 1/11
    assert all(heavy == (u < 1.0 / 11.0) for heavy, u in _heavy_draws("strongchain"))


def test_block_draw_boundary():
    # fruit_ratio 10: a round mines a block iff its kind uniform < 1/11
    assert all(heavy == (u < 1.0 / 11.0) for heavy, u in _heavy_draws("fruitchain"))


@pytest.mark.parametrize("protocol", ["strongchain", "fruitchain"])
def test_heavy_artifact_frequency(protocol):
    draws = _heavy_draws(protocol)
    freq = sum(heavy for heavy, _ in draws) / len(draws)
    assert freq == pytest.approx(1.0 / 11.0, abs=0.004)


def test_strongchain_reward_arithmetic():
    # two strong blocks; weak headers pay 1/ratio whether embedded or
    # still pending at the tip
    params = StrongchainParams(ratio=10)
    blocks = [(1, 0, 10, [1, 1]), (2, 1, 22, [0])]
    rewards = _tally("strongchain", blocks, [0, 1], params=params)
    assert rewards == pytest.approx([1.2, 1.3])
    assert sum(rewards) == pytest.approx(2 + 5 * 0.1)


def _mine_block_over_fruit(chain_height, pointer_height):
    """Honest block mined at ``chain_height`` over one pending fruit."""
    run = _Run(quick_config("fruitchain"), 0, collect_records=False)
    run.chain = [(h, h - 1, 10 * h, None) for h in range(chain_height)]
    run.pending_fruits = [(1, pointer_height, pointer_height, 1)]
    run._mine_main(0, True)
    assert run.pending_fruits == []
    return run.chain[-1][EMB]


def test_fruit_freshness_boundary():
    window = FruitchainParams().freshness_window
    h = 3
    assert _mine_block_over_fruit(h + window, h) == [(1, h, h, 1)]
    assert _mine_block_over_fruit(h + window + 1, h) == []


def test_fruitchain_reward_arithmetic():
    params = FruitchainParams()
    blocks = [
        (1, 0, 10, None),
        (2, 1, 21, [(0, 1, 1, 1)]),
    ]
    rewards = _tally("fruitchain", blocks, attackers=2, params=params)
    assert rewards == pytest.approx([1.1, 1.0, 0.0])


def test_a_counted_fruit_entry_pays_one_addition_per_fruit():
    # Ten additions of 0.1 sum to 0.9999999999999999; the product 10 * 0.1
    # would pay 1.0 and move the rewards of a run whose fruits were mined
    # one round at a time.
    params = FruitchainParams(block_reward=0.0, fruit_reward=0.1)
    rewards = _tally("fruitchain", [(1, 0, 20, [(1, 0, 0, 10)])], params=params)
    assert rewards[1] == 0.9999999999999999


def test_orphaned_fruit_pays_nothing():
    # a fruit that never makes it into a canonical block simply does not
    # appear in any emb list, so its miner gets nothing for it
    params = FruitchainParams()
    blocks = [(1, 0, 10, [])]
    assert _tally("fruitchain", blocks, params=params) == [1.0, 0.0]


def test_fruit_quantum_covers_block_plus_flush():
    for fruit_ratio, quantum in ((10, 20), (4, 8)):
        cfg = quick_config("fruitchain", protocol_params=FruitchainParams(fruit_ratio=fruit_ratio))
        assert _Run(cfg, 0, collect_records=False).quantum_units == quantum


def test_reward_split_presets():
    # one block embedding fruit_ratio fruits carries a full interval's reward
    fruit_heavy = FruitchainParams(10, 10, 1.0, 1.0)
    for params, block_share in ((FruitchainParams(), 0.5), (fruit_heavy, 1 / 11)):
        fruits = [(1, 0, 0, params.fruit_ratio)]
        rewards = _tally("fruitchain", [(1, 0, 20, fruits)], params=params)
        assert rewards[0] / sum(rewards) == pytest.approx(block_share)


@pytest.mark.parametrize("protocol", ["nakamoto", "strongchain", "fruitchain"])
def test_tally_continues_from_a_prefix_total(monkeypatch, protocol):
    # Folding settled blocks relies on this: each miner's sum gets its terms
    # in chain order whether the chain is tallied at once or in two parts.
    monkeypatch.setattr(engine, "CHUNK", 1 << 16)  # the run fits in one chunk
    run = _Run(quick_config(protocol, alpha=0.15, rounds=20_000, seed=28, attackers=3), 0, False)
    run.run()
    assert run.base == 0  # one chunk: nothing folded, the whole chain is live
    blocks = run.chain[1:]
    zero = run.folded

    def tally(part, start=zero, tip=()):
        run.folded = start
        return run._tally(part, tip)

    whole = tally(blocks, tip=run.pending_wh)
    for k in (1, len(blocks) // 3, len(blocks) - 1):
        assert repr(tally(blocks[k:], tally(blocks[:k]), run.pending_wh)) == repr(whole)
