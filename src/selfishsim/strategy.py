"""Withholding strategy: action rule and cascading releases.

The strategy reacts to public-chain strength changes.  Between reactions an
attacker's private branch is never weaker than the public chain (it would
have adopted), so the only decision points are public advances, where the
four classic moves apply: adopt when beaten, match when level, override
when barely ahead, wait when comfortably ahead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter

HONEST_BRANCH = "honest"


class Action(str, Enum):
    ADOPT = "adopt"
    MATCH = "match"
    OVERRIDE = "override"
    WAIT = "wait"


# Bound once: the hot path reads a module global several times faster than an enum-class lookup.
ADOPT, MATCH, OVERRIDE, WAIT = Action.ADOPT, Action.MATCH, Action.OVERRIDE, Action.WAIT

_SCAN_ORDER = attrgetter("units", "id")


@dataclass
class AttackerState:
    """Mutable per-attacker bookkeeping used by the engine.

    ``anchor_index`` / ``anchor_bid`` locate the public block the private
    branch extends; index -1 means no commitment yet (the attacker floats
    with the public tip).  ``units`` is the withheld strength in protocol
    units.  ``pending_count`` holds unembedded private weak headers,
    ``pending_fruits`` unembedded private fruits as (miner, pointer id,
    pointer height), the public pool's format.  ``in_match`` marks a branch
    released into an open tie: the attacker keeps mining it and publishes
    it on its first strength gain, and its pending weak headers stay with it
    until the tie ends.  ``reset`` empties the branch after an adopt, a
    release or a won tie.
    """

    id: int
    anchor_index: int = -1
    anchor_bid: int = -1
    blocks: list = field(default_factory=list)
    units: int = 0
    pending_count: int = 0
    pending_fruits: list = field(default_factory=list)
    in_match: bool = False

    @property
    def floating(self) -> bool:
        return self.anchor_index < 0

    def reset(self) -> None:
        """Drop the withheld branch and float again; pending fruits stay."""
        self.blocks = []
        self.units = 0
        self.pending_count = 0
        self.in_match = False
        self.anchor_index = -1
        self.anchor_bid = -1


def decide_action(
    private_strength: float,
    public_strength: float,
    has_private_artifacts: bool,
    quantum: float = 1.0,
) -> Action:
    """Pick the attacker's move after a public-chain strength change.

    ``quantum`` is one full block of strength in the protocol's metric (the
    weak-header protocol counts a strong block as ``ratio`` weak units).
    Override applies only when the private lead is positive yet within one
    quantum; a larger lead keeps the branch hidden.  Match needs exact
    strength equality and something withheld to publish.
    """
    if private_strength < 0 or public_strength < 0:
        raise ValueError("strengths must be non-negative")
    if quantum <= 0:
        raise ValueError("quantum must be positive")
    if public_strength > private_strength:
        return ADOPT
    if public_strength == private_strength:
        return MATCH if has_private_artifacts else WAIT
    if private_strength - public_strength <= quantum:
        return OVERRIDE
    return WAIT


def cascade_release(attackers, chain) -> list:
    """Run reactions to a public advance until the public state settles.

    Attackers are scanned in ascending withheld-strength order (id breaks
    ties) so that a weaker release happens first and a stronger rival can
    override it, as in chained-override races.  Adopts only mutate attacker
    state; an override or match changes the public chain and restarts the
    scan.  An attacker whose anchor a release orphaned adopts, however
    strong its branch.  When no attacker withholds, the call returns at once
    without reading ``chain``.  ``chain`` supplies the protocol view:
    ``public_units_from(att)``, the public strength past the attacker's
    anchor or None once that anchor is orphaned, the override quantum and
    the three state mutations.  The engine settles a run with one more call
    whose quantum is unbounded, so every branch ahead of the public chain
    from a live anchor is published.  Returns the executed actions as
    (attacker id, Action) pairs.

    The loop is bounded: every public change consumes withheld strength or
    a one-shot match, so more than ``2 * len(attackers) + 2`` restarts mark
    an internal error.
    """
    actions = []
    restarts = 0
    limit = 2 * len(attackers) + 2
    while True:
        held = [a for a in attackers if a.anchor_index >= 0]
        if not held:
            return actions
        if len(held) > 1:
            held.sort(key=_SCAN_ORDER)
        changed = False
        for att in held:
            public_units = chain.public_units_from(att)
            if public_units is None:
                verdict = ADOPT
            else:
                # Bare weak headers cannot form a competing chain: only a
                # withheld block gives a level attacker something to match with.
                verdict = decide_action(att.units, public_units, bool(att.blocks), chain.quantum_units)
            if verdict is ADOPT:
                chain.do_adopt(att)
                actions.append((att.id, ADOPT))
            elif verdict is OVERRIDE:
                chain.do_override(att)
                actions.append((att.id, OVERRIDE))
                changed = True
                break
            elif verdict is MATCH:
                if att.in_match:
                    continue
                chain.do_match(att)
                actions.append((att.id, MATCH))
                changed = True
                break
        if not changed:
            return actions
        restarts += 1
        if restarts > limit:
            raise RuntimeError("cascade failed to settle; withheld-strength invariant broken")
