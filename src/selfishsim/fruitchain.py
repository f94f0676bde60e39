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


def quantum_units(params: FruitchainParams) -> int:
    """Strength step of one public block carrying a typical fruit load.

    Fruits join branch strength only when embedded, so a public block
    lands with its flushed pendings in one jump: fruit_ratio units for
    the block plus on average fruit_ratio embedded fruits.  The override
    window has to cover that whole jump, unlike strongchain where
    pending headers count immediately and a strong block advances by
    exactly its own weight.
    """
    return 2 * params.fruit_ratio


def tally_rewards(blocks, params: FruitchainParams, n_miners: int) -> list:
    """Rewards over the canonical chain; only embedded fruits pay.

    Embedded entries are (miner, pointer bid, pointer height) so a reorg
    can tell which fruits stay re-embeddable.
    """
    rewards = [0.0] * n_miners
    for b in blocks:
        rewards[b.miner] += params.block_reward
        if b.emb:
            for f in b.emb:
                rewards[f[0]] += params.fruit_reward
    return rewards
