"""Longest-chain block protocol: one artifact kind, one reward per block.

The engine mines Nakamoto as the weak/strong-header chain with ratio 1 and
every artifact strong: each block weighs one unit, and one unit is also the
override quantum.  Its blocks embed nothing and its tip never holds a weak
header, so the header chain's reward rule pays exactly one per block.
"""

from __future__ import annotations

from .strongchain import tally_rewards
