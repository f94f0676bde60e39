"""Fruit/block protocol rules.

Every round yields a block with probability 1/(fruit_ratio+1), otherwise a
fruit.  Branch strength counts a block as ``fruit_ratio`` units plus one
unit per fruit it embeds; a fruit adds nothing until embedded, so strength
moves in block-sized jumps and exact ties between branches are rare.  A
fruit hangs from the block that was its miner's tip and may be embedded by
a block at height distance at most ``freshness_window`` from that pointer;
beyond that it is permanently stale.  A block pays ``block_reward`` and
each fruit it embeds pays ``fruit_reward`` to the fruit's miner.
"""

from __future__ import annotations

from .config import FruitchainParams


def tally_rewards(blocks, params: FruitchainParams, start) -> list:
    """``start`` plus the rewards of ``blocks``; only embedded fruits pay.

    Embedded entries are (miner, pointer bid, pointer height, count) so a
    reorg can tell which fruits stay re-embeddable.  An entry pays
    ``fruit_reward`` once per fruit, ``count`` additions: one product
    ``count * fruit_reward`` would round differently.  Each term after a
    block's reward is the same constant, so the order of the entries in a
    block moves no miner's sum.
    """
    block_reward, fruit_reward = params.block_reward, params.fruit_reward
    rewards = list(start)
    for _, miner, _, emb in blocks:
        rewards[miner] += block_reward
        if emb:
            for m, _, _, count in emb:
                while count:
                    rewards[m] += fruit_reward
                    count -= 1
    return rewards
