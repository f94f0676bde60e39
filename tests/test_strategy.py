"""Action rule, the engine's tie-branch choice, and cascade settling on a scripted chain."""

import random

import pytest

from conftest import tie_branch_shares
from selfishsim import strategy
from selfishsim.strategy import (
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
        shares = tie_branch_shares(gamma, n_alts, attacker_main, draws=5000, seed=r.randrange(2**32))
        if n_alts == 1 and not attacker_main:
            expected = [1.0 - gamma, gamma]
        else:
            expected = [1.0 / (1 + n_alts)] * (1 + n_alts)
        assert shares == pytest.approx(expected, abs=0.025)
        assert sum(shares) == pytest.approx(1.0, abs=1e-12)


PUBLIC = 10  # a scripted chain's public strength before any override


class ScriptedChain:
    """Minimal chain view that lets the cascade play out a fixed story.

    ``held`` is the list the cascade scans, ``public`` the strength that
    ``public_units()`` reports; an attacker's gap is ``public`` less its
    ``anchor_cum``.  Attackers in ``dead`` have their anchors orphaned
    (``anchor_cum`` None).  An adopt or an override floats its attacker and
    drops it from ``held``; an override makes the published branch the
    public chain, ``anchor_cum + units`` strong, like a real reorg would.
    """

    quantum_units = 1

    def __init__(self, held, public=PUBLIC, dead=()):
        self.held = held
        self.public = public
        for att in dead:
            att.anchor_cum = None
        self.log = []

    def public_units(self):
        return self.public

    def do_adopt(self, att):
        self.log.append((att.id, Action.ADOPT))
        self.held.remove(att)
        att.reset()

    def do_override(self, att):
        self.log.append((att.id, Action.OVERRIDE))
        self.public = att.anchor_cum + att.units
        self.held.remove(att)
        att.reset()

    def do_match(self, att):
        self.log.append((att.id, Action.MATCH))


def _attacker(aid, units, gap, blocks=True):
    """A withholding attacker ``units`` strong whose anchor is ``gap`` below ``PUBLIC``."""
    att = AttackerState(aid)
    att.anchor_index = 0
    att.anchor_cum = PUBLIC - gap
    att.units = units
    att.blocks = ["x"] * (units if blocks else 0)
    return att


def test_cascade_chained_overrides_weakest_first():
    a = _attacker(0, 1, gap=0)
    b = _attacker(1, 2, gap=0)
    held = [a, b]
    actions = cascade_release(held, ScriptedChain(held))
    # a overrides first (fewer withheld units), pushing the public past its
    # own strength is b's cue to override in turn.
    assert actions == [(0, Action.OVERRIDE), (1, Action.OVERRIDE)]
    assert held == []
    assert a.anchor_index < 0 and b.anchor_index < 0


def test_cascade_breaks_equal_strength_by_id():
    # Listed against id order: a key without the id would release b first.
    b = _attacker(1, 1, gap=0)
    a = _attacker(0, 1, gap=0)
    held = [b, a]
    actions = cascade_release(held, ScriptedChain(held))
    # a overrides by its one unit, which leaves b level and holding a block.
    assert actions == [(0, Action.OVERRIDE), (1, Action.MATCH)]
    assert held == [b]


class CountingChain(ScriptedChain):
    """Scripted chain that counts the cascade's passes (public-strength reads)."""

    def __init__(self, held, public=PUBLIC, dead=()):
        super().__init__(held, public, dead)
        self.passes = 0

    def public_units(self):
        self.passes += 1
        return super().public_units()


def test_cascade_scan_continues_past_a_match(monkeypatch):
    # A match moves no public strength and no anchor, so one pass decides
    # all three level attackers; a restart after each match would evaluate
    # 1 + 2 + 3 times, plus a final pass of 3.
    evaluations = []

    def counting(*args):
        evaluations.append(args)
        return decide_action(*args)

    monkeypatch.setattr(strategy, "decide_action", counting)
    held = [_attacker(i, 2, gap=2) for i in range(3)]
    chain = CountingChain(held)
    actions = cascade_release(held, chain)
    assert actions == [(0, Action.MATCH), (1, Action.MATCH), (2, Action.MATCH)]
    assert len(evaluations) == 3
    assert chain.passes == 1


def test_cascade_override_after_a_match_restarts_the_scan():
    # The level attacker matches; its rival, one unit ahead, overrides and
    # leaves the matched branch behind the new public chain, so it adopts.
    level = _attacker(0, 2, gap=2)
    rival = _attacker(1, 3, gap=2)
    held = [level, rival]
    chain = CountingChain(held)
    actions = cascade_release(held, chain)
    assert actions == [(0, Action.MATCH), (1, Action.OVERRIDE), (0, Action.ADOPT)]
    assert chain.passes == 2
    assert held == []
    assert level.anchor_index < 0 and rival.anchor_index < 0


def test_cascade_adopts_on_dead_anchor_and_weak_branch():
    # The dead anchor's branch would override were its anchor live.
    dead = _attacker(0, 3, gap=2)
    behind = _attacker(1, 1, gap=2)
    held = [dead, behind]
    actions = cascade_release(held, ScriptedChain(held, dead=[dead]))
    assert actions == [(1, Action.ADOPT), (0, Action.ADOPT)]
    assert held == []


def test_cascade_leaves_a_level_attacker_without_blocks_unmatched():
    # Bare weak headers cannot form a competing chain.
    att = _attacker(0, 2, gap=2, blocks=False)
    held = [att]
    chain = ScriptedChain(held)
    assert cascade_release(held, chain) == []
    assert chain.log == []
    assert held == [att]


def test_cascade_runaway_guard():
    class BrokenChain(ScriptedChain):
        def do_override(self, att):
            self.log.append((att.id, Action.OVERRIDE))  # consumes nothing

    held = [_attacker(0, 1, gap=0)]
    with pytest.raises(RuntimeError):
        cascade_release(held, BrokenChain(held))


class UnreadableChain:
    """Chain view whose every method raises: a cascade may not consult it."""

    def __getattr__(self, name):
        raise AssertionError(f"cascade read chain.{name}")


def test_floating_attackers_are_left_alone():
    # Floating attackers are not in the held list; with none held the
    # cascade returns without reading the chain.
    assert cascade_release([], UnreadableChain()) == []
