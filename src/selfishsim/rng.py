"""Deterministic random streams for simulation runs.

Every stochastic choice in a run is read from a counter-based stream so that
a run is a pure function of its seed.  The generator is SplitMix64: output
``t`` of a stream with seed ``s`` is ``mix64(s + (t + 1) * GOLDEN)`` where
``mix64`` is the finalizer below and GOLDEN is the 64-bit golden-ratio
constant.  Any implementation of these two lines reproduces the streams
bit for bit.

Draws are laid out in fixed lanes, three per round:

* lane 0: leader election uniform
* lane 1: artifact kind uniform (unread by protocols with one artifact kind)
* lane 2: tie branch-choice uniform (read only when an honest leader mines
  during an active tie)

Round ``i`` owns stream offsets ``3*i .. 3*i+2``.  Lanes are allocated
unconditionally so that the mapping from round index to stream position
never depends on simulation state.

Because the generator is a counter, any stretch of rounds can be drawn on
its own: output ``t`` of seed ``lane_seed(s, r)`` is output ``3*r + t`` of
seed ``s``.  A run that draws its lanes chunk by chunk therefore reads
exactly the draws of one whole-run stream.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

LANES_PER_ROUND = 3
LANE_LEADER = 0
LANE_KIND = 1
LANE_TIE = 2


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a fixed-point-free 64-bit bijection."""
    x &= _MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK
    x ^= x >> 31
    return x


def derive_run_seed(master_seed: int, run_index: int, config_digest: int) -> int:
    """Mix (master seed, run index, config digest) into one 64-bit run seed.

    The composition is three rounds of the finalizer with XOR injection:
    ``mix64(mix64(mix64(master ^ GOLDEN) ^ run_index) ^ digest)``.  Each
    stage is a bijection, so distinct run indices under the same master
    seed and digest can never collide.
    """
    if not 0 <= run_index <= _MASK:
        raise ValueError(f"run_index must be in [0, 2**64), got {run_index}")
    s = mix64((master_seed & _MASK) ^ _GOLDEN)
    s = mix64(s ^ run_index)
    return mix64(s ^ (config_digest & _MASK))


def stream_uniforms(seed: int, count: int) -> np.ndarray:
    """First ``count`` uniforms of the stream for ``seed``, in [0, 1).

    Vectorised evaluation of the documented generator; equivalent to
    ``[mix64(seed + (t+1)*GOLDEN) / 2**64 for t in range(count)]`` with the
    53-bit mantissa convention ``(word >> 11) * 2**-53``.
    """
    t = np.arange(1, count + 1, dtype=np.uint64)
    x = np.uint64(seed & _MASK) + t * np.uint64(_GOLDEN)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return (x >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def lane_seed(seed: int, first_round: int) -> int:
    """Seed whose lanes start at round ``first_round`` of ``seed``'s lanes."""
    return (seed + LANES_PER_ROUND * first_round * _GOLDEN) & _MASK


class RoundLanes:
    """Uniforms of ``rounds`` consecutive rounds, one numpy view per lane.

    ``RoundLanes(lane_seed(s, r), n)`` holds rounds ``r .. r+n-1`` of the
    run with seed ``s``, so a run draws its lanes one chunk at a time.
    """

    def __init__(self, run_seed: int, rounds: int):
        flat = stream_uniforms(run_seed, rounds * LANES_PER_ROUND)
        self.leader = flat[LANE_LEADER::LANES_PER_ROUND]
        self.kind = flat[LANE_KIND::LANES_PER_ROUND]
        self.tie = flat[LANE_TIE::LANES_PER_ROUND]
