"""Action rule, the engine's tie-branch choice, and cascade settling on a scripted chain."""

import random

import pytest

from conftest import tie_branch_shares
from selfishsim.strategy import (
    HONEST_BRANCH,
    Action,
    AttackerState,
    cascade_release,
    decide_action,
)


@pytest.mark.parametrize(
    "private,public,artifacts,expected",
    [
        (3, 2, True, Action.OVERRIDE),
        (0, 1, False, Action.ADOPT),
        (2, 2, True, Action.MATCH),
        (2, 2, False, Action.WAIT),
        (5, 2, True, Action.WAIT),
        (0, 0, False, Action.WAIT),
        (1, 0, True, Action.OVERRIDE),
    ],
)
def test_decide_action_examples(private, public, artifacts, expected):
    assert decide_action(private, public, artifacts) is expected


def test_decide_action_quantum_widens_override_window():
    assert decide_action(12, 2, True, quantum=10) is Action.OVERRIDE
    assert decide_action(13, 2, True, quantum=10) is Action.WAIT


def test_decide_action_validation():
    with pytest.raises(ValueError):
        decide_action(-1, 0, False)
    with pytest.raises(ValueError):
        decide_action(1, 1, True, quantum=0)


# Honest leaders pick a tied branch with the tie lane's uniform.  A lone
# attacker against the honest main line gets the fraction gamma of those
# picks; any other tie splits them evenly over all branches.


def test_match_weights_full_tiebreak_hands_race_to_attacker():
    assert tie_branch_shares(1.0, 1) == [0.0, 1.0]


def test_match_weights_zero_tiebreak():
    assert tie_branch_shares(0.0, 1) == [1.0, 0.0]


def test_match_weights_half_tiebreak():
    assert tie_branch_shares(0.5, 1) == pytest.approx([0.5, 0.5], abs=0.01)


def test_match_weights_multiway_split():
    # two released branches against the main line: thirds, whatever gamma
    for gamma in (0.0, 1.0):
        assert tie_branch_shares(gamma, 2) == pytest.approx([1 / 3] * 3, abs=0.01)


def test_match_weights_normalise_over_random_draws():
    r = random.Random(0)
    for _ in range(20):
        n_alts = r.randint(1, 3)
        gamma = r.random()
        attacker_main = r.random() < 0.5
        main_owner = n_alts if attacker_main else HONEST_BRANCH
        shares = tie_branch_shares(gamma, n_alts, main_owner=main_owner, draws=5000, seed=r.randrange(2**32))
        if n_alts == 1 and not attacker_main:
            expected = [1.0 - gamma, gamma]
        else:
            expected = [1.0 / (1 + n_alts)] * (1 + n_alts)
        assert shares == pytest.approx(expected, abs=0.025)
        assert sum(shares) == pytest.approx(1.0, abs=1e-12)


class ScriptedChain:
    """Minimal chain view that lets the cascade play out a fixed story.

    ``public`` maps attacker id to the public strength past its anchor,
    which ``public_units_from`` reports, or None for an attacker in
    ``dead`` (its anchor orphaned); an override zeroes the owner's gap and
    adds the published units to every other anchored attacker's gap, like
    a real reorg would.
    """

    quantum_units = 1

    def __init__(self, public, dead=()):
        self.public = dict(public)
        self.dead = set(dead)
        self.log = []

    def public_units_from(self, att):
        return None if att.id in self.dead else self.public[att.id]

    def do_adopt(self, att):
        self.log.append((att.id, Action.ADOPT))
        att.blocks = []
        att.units = 0
        att.anchor_index = -1
        att.in_match = False

    def do_override(self, att):
        self.log.append((att.id, Action.OVERRIDE))
        for other in self.public:
            if other != att.id:
                self.public[other] += att.units
        att.blocks = []
        att.units = 0
        att.anchor_index = -1

    def do_match(self, att):
        self.log.append((att.id, Action.MATCH))
        att.in_match = True


def _attacker(aid, units, blocks=True):
    att = AttackerState(aid)
    att.anchor_index = 0
    att.anchor_bid = 1
    att.units = units
    att.blocks = ["x"] * (units if blocks else 0)
    return att


def test_cascade_chained_overrides_weakest_first():
    a = _attacker(0, 1)
    b = _attacker(1, 2)
    chain = ScriptedChain({0: 0, 1: 0})
    actions = cascade_release([a, b], chain)
    # a overrides first (fewer withheld units), pushing the public past its
    # own strength is b's cue to override in turn.
    assert actions == [(0, Action.OVERRIDE), (1, Action.OVERRIDE)]
    assert a.floating and b.floating


def test_cascade_breaks_equal_strength_by_id():
    # Listed against id order: a key without the id would release b first.
    b = _attacker(1, 1)
    a = _attacker(0, 1)
    chain = ScriptedChain({0: 0, 1: 0})
    actions = cascade_release([b, a], chain)
    # a overrides by its one unit, which leaves b level and holding a block.
    assert actions == [(0, Action.OVERRIDE), (1, Action.MATCH)]


def test_cascade_adopts_on_dead_anchor_and_weak_branch():
    dead = _attacker(0, 3)
    behind = _attacker(1, 1)
    chain = ScriptedChain({0: 0, 1: 2}, dead={0})
    actions = cascade_release([dead, behind], chain)
    assert (0, Action.ADOPT) in actions
    assert (1, Action.ADOPT) in actions


def test_cascade_match_fires_once():
    att = _attacker(0, 2)
    chain = ScriptedChain({0: 2})
    actions = cascade_release([att], chain)
    assert actions == [(0, Action.MATCH)]
    assert att.in_match
    # a second settling pass with the match standing does nothing new
    assert cascade_release([att], chain) == []


def test_cascade_leaves_a_level_attacker_without_blocks_unmatched():
    # Bare weak headers cannot form a competing chain.
    att = _attacker(0, 2, blocks=False)
    chain = ScriptedChain({0: 2})
    assert cascade_release([att], chain) == []
    assert not att.in_match
    assert chain.log == []


def test_cascade_runaway_guard():
    class BrokenChain(ScriptedChain):
        def do_override(self, att):
            self.log.append((att.id, Action.OVERRIDE))  # consumes nothing

    att = _attacker(0, 1)
    with pytest.raises(RuntimeError):
        cascade_release([att], BrokenChain({0: 0}))


class UnreadableChain:
    """Chain view whose every method raises: a cascade may not consult it."""

    def __getattr__(self, name):
        raise AssertionError(f"cascade read chain.{name}")


def test_floating_attackers_are_left_alone():
    att = AttackerState(0)  # floating: no anchor yet
    att.units = 5
    assert cascade_release([att], UnreadableChain()) == []
    assert att.floating and att.units == 5
