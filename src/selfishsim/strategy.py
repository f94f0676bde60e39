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

HONEST_BRANCH = "honest"


class Action(str, Enum):
    ADOPT = "adopt"
    MATCH = "match"
    OVERRIDE = "override"
    WAIT = "wait"


@dataclass
class AttackerState:
    """Mutable per-attacker bookkeeping used by the engine.

    ``anchor_index`` / ``anchor_bid`` locate the public block the private
    branch extends; index -1 means no commitment yet (the attacker floats
    with the public tip).  ``units`` is the withheld strength in protocol
    units.  ``pending_count`` holds unembedded private weak headers,
    ``pending_fruits`` unembedded private fruits as (pointer id, pointer
    height) pairs.  ``reset`` empties the branch after an adopt, a release
    or a won tie.
    """

    id: int
    power: float
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
        return Action.ADOPT
    if public_strength == private_strength:
        return Action.MATCH if has_private_artifacts else Action.WAIT
    if private_strength - public_strength <= quantum:
        return Action.OVERRIDE
    return Action.WAIT


def cascade_release(attackers, chain) -> list:
    """Run reactions to a public advance until the public state settles.

    Attackers are scanned in ascending withheld-strength order (id breaks
    ties) so that a weaker release happens first and a stronger rival can
    override it, as in chained-override races.  Adopts only mutate attacker
    state; an override or match changes the public chain and restarts the
    scan.  ``chain`` supplies the protocol view: anchor liveness, strength
    deltas, and the three state mutations.  Returns the executed actions as
    (attacker id, Action) pairs.

    The loop is bounded: every public change consumes withheld strength or
    a one-shot match, so more than ``2 * len(attackers) + 2`` restarts mark
    an internal error.
    """
    actions = []
    restarts = 0
    limit = 2 * len(attackers) + 2
    while True:
        changed = False
        order = sorted((a for a in attackers if not a.floating), key=lambda a: (a.units, a.id))
        for att in order:
            if not chain.anchor_alive(att):
                chain.do_adopt(att)
                actions.append((att.id, Action.ADOPT))
                continue
            public_units = chain.public_units_from(att)
            verdict = decide_action(att.units, public_units, att.units > 0, chain.quantum_units)
            if verdict is Action.ADOPT:
                chain.do_adopt(att)
                actions.append((att.id, Action.ADOPT))
            elif verdict is Action.OVERRIDE:
                chain.do_override(att)
                actions.append((att.id, Action.OVERRIDE))
                changed = True
                break
            elif verdict is Action.MATCH:
                if att.in_match or not chain.can_match(att):
                    continue
                chain.do_match(att)
                actions.append((att.id, Action.MATCH))
                changed = True
                break
        if not changed:
            return actions
        restarts += 1
        if restarts > limit:
            raise RuntimeError("cascade failed to settle; withheld-strength invariant broken")
