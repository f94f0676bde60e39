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
from typing import Optional

class Action(str, Enum):
    ADOPT = "adopt"
    MATCH = "match"
    OVERRIDE = "override"
    WAIT = "wait"


# Bound once: the hot path reads a module global several times faster than an enum-class lookup.
ADOPT, MATCH, OVERRIDE, WAIT = Action.ADOPT, Action.MATCH, Action.OVERRIDE, Action.WAIT

_SCAN_ORDER = attrgetter("units", "id")


@dataclass(eq=False)  # ids are unique: identity is equality, and `in tie.alts` stays cheap
class AttackerState:
    """Mutable per-attacker bookkeeping used by the engine.

    ``anchor_index`` is the height of the public block the private branch
    extends, -1 while the attacker floats with the public tip; ``anchor_cum``
    is that block's ``cum``, None once a release orphans it.  ``units`` is
    the withheld strength past the anchor, in protocol units.
    ``pending_count`` holds unembedded private weak headers,
    ``pending_fruits`` unembedded private fruits as (miner, pointer id,
    pointer height, count) entries, the public pool's format.  A branch that
    loses a tie (``engine.Tie``) is withheld again with everything it held,
    weak headers included.  ``reset`` empties the branch after an adopt, a
    release or a won tie.
    """

    id: int
    anchor_index: int = -1
    anchor_cum: Optional[int] = None
    blocks: list = field(default_factory=list)
    units: int = 0
    pending_count: int = 0
    pending_fruits: list = field(default_factory=list)

    def reset(self) -> None:
        """Drop the withheld branch and float again; pending fruits stay."""
        self.blocks = []
        self.units = 0
        self.pending_count = 0
        self.anchor_index = -1
        self.anchor_cum = None


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


def cascade_release(held: list, chain) -> list:
    """Run reactions to a public advance until the public state settles.

    ``held`` is the engine's list of withholding attackers, in any order;
    ``chain.do_adopt`` and ``chain.do_override`` drop theirs from it in
    place.  Each pass scans it in ascending withheld-strength order (id
    breaks ties) so that a weaker release happens first and a stronger rival
    can override it, as in chained-override races.  Adopts only mutate
    attacker state.  A match moves no public strength and no anchor, so the
    scan continues past it; only an override changes the public chain, and
    it restarts the scan.  An attacker marked orphaned (``anchor_cum`` None)
    adopts at its place in the scan, however strong its branch.  No cascade
    starts with a tie open, so none reads tie state: the engine calls it
    after a public advance, which closes any tie, and settlement closes the
    tie first.  With ``held`` empty it returns without reading ``chain``.
    ``chain`` supplies ``public_units()``, the public strength read once per
    pass; ``quantum_units``, the override bound (unbounded at settlement, so
    every branch ahead from a live anchor is published); and the mutations
    ``do_adopt``, ``do_override`` and ``do_match``.  Returns the executed
    actions as (attacker id, Action) pairs.

    The loop is bounded: an override floats its attacker and nothing
    anchors during a cascade, so more than ``2 * len(held) + 2`` restarts
    (``held`` counted at entry) mark an internal error.
    """
    actions = []
    restarts = 0
    limit = 2 * len(held) + 2
    while held:
        public = chain.public_units()
        quantum = chain.quantum_units
        for att in sorted(held, key=_SCAN_ORDER):
            anchor_cum = att.anchor_cum
            if anchor_cum is None:
                verdict = ADOPT
            else:
                # Bare weak headers cannot form a competing chain: only a
                # withheld block gives a level attacker something to match with.
                verdict = decide_action(att.units, public - anchor_cum, bool(att.blocks), quantum)
            if verdict is ADOPT:
                chain.do_adopt(att)
                actions.append((att.id, ADOPT))
            elif verdict is OVERRIDE:
                chain.do_override(att)
                actions.append((att.id, OVERRIDE))
                break
            elif verdict is MATCH:
                chain.do_match(att)
                actions.append((att.id, MATCH))
        else:
            return actions
        restarts += 1
        if restarts > limit:
            raise RuntimeError("cascade failed to settle; withheld-strength invariant broken")
    return actions
