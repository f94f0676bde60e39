"""Weak/strong header protocol rules.

Every round yields a strong block with probability 1/(ratio+1), otherwise a
weak header.  Chain strength counts both: internally one weak header is one
unit and a strong block is ``ratio`` units, which keeps every comparison in
exact integers.  A strong block embeds the unembedded weak headers sitting
on its parent tip; embedded (and, at the end of a run, still pending) weak
headers pay 1/ratio each, strong blocks pay 1.
"""

from __future__ import annotations

from .config import StrongchainParams


def tally_rewards(blocks, tip_pending, params: StrongchainParams, n_miners: int) -> list:
    """Rewards over the canonical chain plus the pending headers at its tip."""
    per_weak = 1.0 / params.ratio
    rewards = [0.0] * n_miners
    for b in blocks:
        rewards[b.miner] += 1.0
        for m in b.emb:
            rewards[m] += per_weak
    for m in tip_pending:
        rewards[m] += per_weak
    return rewards
