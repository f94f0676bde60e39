"""Longest-chain block protocol: one artifact kind, one reward per block."""

from __future__ import annotations

QUANTUM_UNITS = 1


def tally_rewards(blocks, n_miners: int, start=None) -> list:
    """Absolute rewards from the canonical block sequence: one per block.

    ``start`` holds the totals of the blocks before ``blocks``.
    """
    rewards = [0.0] * n_miners if start is None else list(start)
    for b in blocks:
        rewards[b.miner] += 1.0
    return rewards
