"""Per-protocol rules: artifact sampling, freshness, reward arithmetic."""

import pytest

from conftest import quick_config
from selfishsim import fruitchain, nakamoto, strongchain
from selfishsim.config import (
    FruitchainParams,
    ProtocolName,
    StrongchainParams,
    balanced_fruit_params,
    fruit_heavy_params,
)
from selfishsim.engine import Block, _Run, run_simulation
from selfishsim.rng import stream_uniforms

HEAVY_KIND = {"strongchain": "strong", "fruitchain": "block"}


def test_nakamoto_one_reward_per_block():
    blocks = [Block(1, 0, 1), Block(2, 1, 2), Block(3, 0, 3)]
    assert nakamoto.tally_rewards(blocks, 2) == [2.0, 1.0]
    assert nakamoto.QUANTUM_UNITS == 1


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
    blocks = [Block(1, 0, 10, emb=[1, 1]), Block(2, 1, 22, emb=[0])]
    rewards = strongchain.tally_rewards(blocks, [0, 1], params, 2)
    assert rewards == pytest.approx([1.2, 1.3])
    assert sum(rewards) == pytest.approx(2 + 5 * 0.1)


def _mine_block_over_fruit(chain_height, pointer_height):
    """Honest block mined at ``chain_height`` over one pending fruit."""
    run = _Run(quick_config("fruitchain"), 0, collect_records=False)
    run.chain = [Block(h, h - 1, 10 * h) for h in range(chain_height)]
    run.pending_fruits = [(1, pointer_height, pointer_height)]
    run._mine_main(0, True, ProtocolName.FRUITCHAIN)
    assert run.pending_fruits == []
    return run.chain[-1].emb


def test_fruit_freshness_boundary():
    window = balanced_fruit_params().freshness_window
    h = 3
    assert _mine_block_over_fruit(h + window, h) == [(1, h, h)]
    assert _mine_block_over_fruit(h + window + 1, h) == []


def test_fruitchain_reward_arithmetic():
    params = balanced_fruit_params()
    blocks = [
        Block(1, 0, 10, emb=None),
        Block(2, 1, 21, emb=[(0, 1, 1)]),
    ]
    rewards = fruitchain.tally_rewards(blocks, params, 3)
    assert rewards == pytest.approx([1.1, 1.0, 0.0])


def test_orphaned_fruit_pays_nothing():
    # a fruit that never makes it into a canonical block simply does not
    # appear in any emb list, so its miner gets nothing for it
    params = balanced_fruit_params()
    blocks = [Block(1, 0, 10, emb=[])]
    assert fruitchain.tally_rewards(blocks, params, 2) == [1.0, 0.0]


def test_fruit_quantum_covers_block_plus_flush():
    assert fruitchain.quantum_units(FruitchainParams(fruit_ratio=10)) == 20
    assert fruitchain.quantum_units(FruitchainParams(fruit_ratio=4)) == 8


def test_reward_split_presets():
    # one block embedding fruit_ratio fruits carries a full interval's reward
    for params, block_share in ((balanced_fruit_params(), 0.5), (fruit_heavy_params(), 1 / 11)):
        fruits = [(1, 0, 0)] * params.fruit_ratio
        rewards = fruitchain.tally_rewards([Block(1, 0, 20, emb=fruits)], params, 2)
        assert rewards[0] / sum(rewards) == pytest.approx(block_share)
