"""Generator contract: closed form, reference vector, lanes, seed mixing."""

import pytest

from selfishsim.rng import (
    LANE_KIND,
    LANE_LEADER,
    LANE_TIE,
    LANES_PER_ROUND,
    RoundLanes,
    derive_run_seed,
    lane_seed,
    mix64,
    stream_uniforms,
)

GOLDEN = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1

# First three outputs of the reference splitmix generator for seed 0.
REFERENCE_WORDS = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_stream_matches_reference_vector():
    want = [(w >> 11) * 2.0**-53 for w in REFERENCE_WORDS]
    assert stream_uniforms(0, 3).tolist() == want


def test_stream_matches_scalar_definition():
    # The documented closed form, evaluated with plain ints.
    seed = 123456789
    want = [
        (mix64((seed + (t + 1) * GOLDEN) & MASK) >> 11) * 2.0**-53 for t in range(100)
    ]
    assert stream_uniforms(seed, 100).tolist() == want


def test_uniforms_live_in_unit_interval():
    u = stream_uniforms(42, 10_000)
    assert float(u.min()) >= 0.0
    assert float(u.max()) < 1.0


def test_mix64_is_injective_on_sample():
    xs = [0, 1, 2, 3, GOLDEN, MASK, 0xDEADBEEF]
    assert len({mix64(x) for x in xs}) == len(xs)


def test_derive_run_seed_composition():
    s = mix64(7 ^ GOLDEN)
    s = mix64(s ^ 3)
    assert derive_run_seed(7, 3, 99) == mix64(s ^ 99)


def test_derive_run_seed_distinct_across_runs():
    assert len({derive_run_seed(1, i, 5) for i in range(1000)}) == 1000


def test_derive_run_seed_rejects_negative_index():
    with pytest.raises(ValueError):
        derive_run_seed(1, -1, 5)


def test_lane_layout_is_strided():
    lanes = RoundLanes(9, 50)
    flat = stream_uniforms(9, 50 * LANES_PER_ROUND)
    assert lanes.leader.tolist() == flat[LANE_LEADER::LANES_PER_ROUND].tolist()
    assert lanes.kind.tolist() == flat[LANE_KIND::LANES_PER_ROUND].tolist()
    assert lanes.tie.tolist() == flat[LANE_TIE::LANES_PER_ROUND].tolist()


@pytest.mark.parametrize("seed", [0, 123456789, MASK])
def test_lane_seed_continues_the_stream(seed):
    # r is large enough that seed + 3 * r * GOLDEN wraps past 2**64.
    r, n = 1000, 40
    assert seed + 3 * r * GOLDEN > MASK
    assert 0 <= lane_seed(seed, r) <= MASK
    assert stream_uniforms(lane_seed(seed, r), 3 * n).tolist() == (
        stream_uniforms(seed, 3 * (r + n))[3 * r:].tolist()
    )
