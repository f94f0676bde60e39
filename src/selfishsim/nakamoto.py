"""Longest-chain block protocol: one artifact kind, one reward per block.

The engine mines Nakamoto as the weak/strong-header chain with ratio 1 and
every artifact strong: each block weighs one unit, and one unit is also the
override quantum.  Only the reward rule lives here.
"""

from __future__ import annotations


def tally_rewards(blocks, n_miners: int, start=None) -> list:
    """Absolute rewards from the canonical block sequence: one per block.

    ``start`` holds the totals of the blocks before ``blocks``.
    """
    rewards = [0.0] * n_miners if start is None else list(start)
    for b in blocks:
        rewards[b.miner] += 1.0
    return rewards
