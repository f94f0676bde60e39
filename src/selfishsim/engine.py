"""Round-driven mining simulation with withholding attackers.

Each round elects one leader proportionally to power and mines exactly one
artifact.  Honest leaders extend the public chain; selfish leaders extend
their own withheld branch and react to public progress with the strategy
module's adopt/match/override/wait rule, including chained releases where
one attacker's published branch is immediately overridden by a stronger
rival's.

Chain strength is tracked in integer protocol units (one per block; the
weak-header protocol counts a weak header as one unit and a strong block
as ``ratio`` units) so all comparisons are exact.  The canonical chain is a
block list mutated only near its tip; a released branch replaces the
suffix above the releaser's fork anchor.  During a tie the equal-strength
released branches are kept alongside the main line until one side gains
strictly greater strength.

Determinism: a run is a pure function of (config, master seed, run index).
All draws come from the documented counter-based stream in rng.py, three
lanes per round: leader, artifact kind, tie branch choice.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

from . import fruitchain, nakamoto, strongchain
from .config import (
    FruitchainParams,
    MinerKind,
    ProtocolName,
    SimulationConfig,
    StrongchainParams,
    config_digest,
)
from .rng import RoundLanes, derive_run_seed
from .strategy import HONEST_BRANCH, Action, AttackerState, cascade_release


class Block:
    """One canonical-chain entry.

    ``cum`` is the cumulative strength in units through this block, counting
    artifacts embedded in it; ``emb`` lists embedded weak headers as miner
    ids, embedded fruits as (miner, pointer bid, pointer height) so a reorg
    can tell which of them stay mineable (None where the protocol embeds
    nothing).
    """

    __slots__ = ("bid", "miner", "cum", "emb")

    def __init__(self, bid: int, miner: int, cum: int, emb=None):
        self.bid = bid
        self.miner = miner
        self.cum = cum
        self.emb = emb

    def __repr__(self):  # debugging aid only
        return f"Block(bid={self.bid}, miner={self.miner}, cum={self.cum})"


@dataclass
class AltBranch:
    """A released branch competing with the main line during a tie."""

    owner: int
    anchor_index: int
    anchor_bid: int
    blocks: list
    pend_wh: list
    pend_fruits: list = field(default_factory=list)
    units_abs: int = 0


@dataclass
class Tie:
    """Equal-strength race: main line versus released alternatives.

    ``main_owner`` tags who the contested main-line suffix belongs to
    (HONEST_BRANCH or an attacker id); it decides whether the propagation
    factor gamma or an even split steers honest leaders' branch choice.
    """

    level: int
    main_owner: object
    alts: list


@dataclass
class RoundRecord:
    index: int
    leader: int
    kind: str
    actions: tuple


@dataclass
class SimulationResult:
    config: SimulationConfig
    run_index: int
    run_seed: int
    rounds: int
    rewards: list
    revenues: list
    total_reward: float
    chain_blocks: int
    records: Optional[list] = None

    def revenue_of(self, miner_id: int) -> float:
        return self.revenues[miner_id]


class _Run:
    """Mutable state for one simulation run; also the chain view for cascades."""

    def __init__(self, config: SimulationConfig, run_index: int, collect_records: bool):
        self.config = config
        self.run_index = run_index
        self.collect = collect_records
        self.records = [] if collect_records else None

        self.proto = config.protocol
        self.gamma = config.gamma
        n = len(config.miners)
        self.n_miners = n
        self.selfish = [m.kind is MinerKind.SELFISH for m in config.miners]

        cum = []
        acc = 0.0
        for m in config.miners:
            acc += m.power
            cum.append(acc)
        cum[-1] = 1.0  # lane 0 stays below 1.0, so bisect_right never passes the last miner
        self.cum_powers = cum

        if self.proto is ProtocolName.STRONGCHAIN:
            params: StrongchainParams = config.protocol_params
            self.ratio = params.ratio
            self.quantum_units = params.ratio
            self.p_heavy = 1.0 / (params.ratio + 1)
        elif self.proto is ProtocolName.FRUITCHAIN:
            fparams: FruitchainParams = config.protocol_params
            self.fruit_ratio = fparams.fruit_ratio
            self.window = fparams.freshness_window
            self.quantum_units = fruitchain.quantum_units(fparams)
            self.p_heavy = 1.0 / (fparams.fruit_ratio + 1)
        else:
            self.quantum_units = nakamoto.QUANTUM_UNITS
            self.p_heavy = 1.0

        self.chain = [Block(0, -1, 0)]  # genesis sentinel
        self.next_bid = 1
        self.public_units = 0
        self.pending_wh = []      # miner ids of unembedded weak headers at the tip
        self.pending_fruits = []  # (miner, pointer bid, pointer height), published
        self.tie: Optional[Tie] = None
        self.attackers = [
            AttackerState(m.id, m.power) for m in config.miners if m.kind is MinerKind.SELFISH
        ]
        self.att_by_id = {a.id: a for a in self.attackers}

    # -- chain view used by strategy.cascade_release ---------------------

    def anchor_alive(self, att: AttackerState) -> bool:
        i = att.anchor_index
        if i < 0:
            return True
        return i < len(self.chain) and self.chain[i].bid == att.anchor_bid

    def public_units_from(self, att: AttackerState) -> int:
        return self.public_units - self.chain[att.anchor_index].cum

    def can_match(self, att: AttackerState) -> bool:
        # Publishing bare weak headers cannot form a competing chain.
        return bool(att.blocks)

    def do_adopt(self, att: AttackerState) -> None:
        dropped = att.blocks
        att.reset()
        if self.proto is ProtocolName.FRUITCHAIN and (att.pending_fruits or dropped):
            # Own fruits from the abandoned branch stay mineable while the
            # block they point at is canonical; withheld blocks die.
            chain = self.chain
            top = len(chain)
            for b in dropped:
                if b.emb:
                    att.pending_fruits.extend((pb, ph) for (_m, pb, ph) in b.emb)
            att.pending_fruits = [
                (pb, ph) for (pb, ph) in att.pending_fruits if ph < top and chain[ph].bid == pb
            ]

    def do_override(self, att: AttackerState) -> None:
        """Replace the public suffix above the attacker's anchor with its branch."""
        if self.tie is not None:
            self._end_tie()
        anchor = att.anchor_index
        if self.pending_fruits:
            self.pending_fruits = [f for f in self.pending_fruits if f[2] <= anchor]
        dead = self.chain[anchor + 1:] if self.proto is ProtocolName.FRUITCHAIN else None
        del self.chain[anchor + 1:]
        self.chain.extend(att.blocks)
        if dead:
            self._reclaim_embedded(dead)
        self.pending_wh = [att.id] * att.pending_count
        self.public_units = self.chain[-1].cum + att.pending_count
        att.reset()

    def do_match(self, att: AttackerState) -> None:
        """Publish the branch next to the equal-strength main line."""
        alt = AltBranch(
            owner=att.id,
            anchor_index=att.anchor_index,
            anchor_bid=att.anchor_bid,
            blocks=att.blocks,
            pend_wh=[att.id] * att.pending_count,
            units_abs=self.public_units,
        )
        att.pending_count = 0
        att.in_match = True
        if self.tie is None:
            tip = self.chain[-1]
            above_anchor = len(self.chain) - 1 > att.anchor_index
            if above_anchor and self.selfish[tip.miner]:
                owner = tip.miner
            else:
                owner = HONEST_BRANCH
            self.tie = Tie(level=self.public_units, main_owner=owner, alts=[alt])
        else:
            self.tie.alts.append(alt)

    def _reclaim_embedded(self, dead_blocks: list) -> None:
        """Return reorg-orphaned fruits with a still-canonical pointer.

        A replaced block dies but the fruits it embedded were published and
        stay mineable as long as the block they point at is canonical; they
        go back to the public pending pool.  Fruits pointing into the
        replaced suffix die with it.
        """
        chain = self.chain
        top = len(chain)
        pend = self.pending_fruits
        for b in dead_blocks:
            if b.emb:
                pend.extend(f for f in b.emb if f[2] < top and chain[f[2]].bid == f[1])

    # -- tie helpers ------------------------------------------------------

    def _end_tie(self) -> None:
        """Close the tie and clear its released branches' match flags."""
        for alt in self.tie.alts:
            self.att_by_id[alt.owner].in_match = False
        self.tie = None

    def _promote(self, alt: AltBranch) -> None:
        """An alternative branch wins: it becomes the main-line suffix."""
        anchor = alt.anchor_index
        kept = [f for f in self.pending_fruits if f[2] <= anchor]
        dead = self.chain[anchor + 1:] if self.proto is ProtocolName.FRUITCHAIN else None
        del self.chain[anchor + 1:]
        self.chain.extend(alt.blocks)
        self.pending_wh = list(alt.pend_wh)
        self.pending_fruits = kept + alt.pend_fruits
        if dead:
            self._reclaim_embedded(dead)
        self.public_units = alt.units_abs
        self._end_tie()
        self.att_by_id[alt.owner].reset()

    def _choose_tie_branch(self, u: float) -> Optional[AltBranch]:
        """Honest leader's parent pick during a tie; None means the main line.

        One attacker branch against the honest main line follows gamma;
        otherwise honest power splits evenly over all branches (main line
        first, released branches in match order).
        """
        tie = self.tie
        if tie.main_owner == HONEST_BRANCH and len(tie.alts) == 1:
            return tie.alts[0] if u < self.gamma else None
        n = 1 + len(tie.alts)
        idx = min(int(u * n), n - 1)
        return None if idx == 0 else tie.alts[idx - 1]

    # -- mining -----------------------------------------------------------

    def _mine_main(self, miner: int, heavy: bool, proto: ProtocolName) -> int:
        """Honest artifact on the main line; returns the strength advance."""
        chain = self.chain
        if proto is ProtocolName.NAKAMOTO:
            chain.append(Block(self.next_bid, miner, chain[-1].cum + 1))
            self.next_bid += 1
            self.public_units += 1
            return 1
        if proto is ProtocolName.STRONGCHAIN:
            if heavy:
                emb = self.pending_wh
                self.pending_wh = []
                cum = chain[-1].cum + self.ratio + len(emb)
                chain.append(Block(self.next_bid, miner, cum, emb))
                self.next_bid += 1
                self.public_units = cum
                return self.ratio
            self.pending_wh.append(miner)
            self.public_units += 1
            return 1
        # fruitchain
        if heavy:
            height = len(chain)
            window = self.window
            emb = [f for f in self.pending_fruits if height - f[2] <= window]
            self.pending_fruits = []
            advance = self.fruit_ratio + len(emb)
            chain.append(Block(self.next_bid, miner, chain[-1].cum + advance, emb))
            self.next_bid += 1
            self.public_units += advance
            return advance
        tip_index = len(chain) - 1
        self.pending_fruits.append((miner, chain[tip_index].bid, tip_index))
        return 0

    def _embed_own_fruits(self, att: AttackerState, anchor_index: int, blocks: list, new_height: int) -> list:
        """Fresh private fruits pointing into the branch being extended.

        Every fresh fruit is embedded, every other pending entry is either
        stale or points at an orphaned block, so the pending list empties.
        """
        chain = self.chain
        window = self.window
        emb = []
        for (pb, ph) in att.pending_fruits:
            if new_height - ph > window:
                continue
            if ph <= anchor_index:
                on_branch = ph < len(chain) and chain[ph].bid == pb
            else:
                j = ph - anchor_index - 1
                on_branch = j < len(blocks) and blocks[j].bid == pb
            if on_branch:
                emb.append((att.id, pb, ph))
        att.pending_fruits = []
        return emb

    def _mine_private(self, att: AttackerState, heavy: bool, proto: ProtocolName) -> None:
        chain = self.chain
        if proto is ProtocolName.FRUITCHAIN and not heavy:
            if att.blocks:
                tip = att.blocks[-1]
                self_height = att.anchor_index + len(att.blocks)
                att.pending_fruits.append((tip.bid, self_height))
            else:
                tip_index = len(chain) - 1
                att.pending_fruits.append((chain[tip_index].bid, tip_index))
            return
        if att.anchor_index < 0:
            att.anchor_index = len(chain) - 1
            att.anchor_bid = chain[-1].bid
        if proto is ProtocolName.STRONGCHAIN:
            if not heavy:
                att.pending_count += 1
                att.units += 1
                return
            parent_cum = att.blocks[-1].cum if att.blocks else chain[att.anchor_index].cum
            emb = [att.id] * att.pending_count
            cum = parent_cum + self.ratio + att.pending_count
            att.blocks.append(Block(self.next_bid, att.id, cum, emb))
            self.next_bid += 1
            att.pending_count = 0
            att.units += self.ratio
            return
        parent_cum = att.blocks[-1].cum if att.blocks else chain[att.anchor_index].cum
        if proto is ProtocolName.FRUITCHAIN:
            new_height = att.anchor_index + len(att.blocks) + 1
            emb = self._embed_own_fruits(att, att.anchor_index, att.blocks, new_height)
            advance = self.fruit_ratio + len(emb)
        else:
            emb = None
            advance = 1
        att.blocks.append(Block(self.next_bid, att.id, parent_cum + advance, emb))
        self.next_bid += 1
        att.units += advance

    def _extend_alt(self, alt: AltBranch, miner: int, heavy: bool, proto: ProtocolName, own: bool) -> int:
        """Artifact on a released tie branch; promotes it if strength grows."""
        if proto is ProtocolName.FRUITCHAIN and not heavy:
            att = self.att_by_id[alt.owner] if own else None
            tip = alt.blocks[-1]
            height = alt.anchor_index + len(alt.blocks)
            if own:
                att.pending_fruits.append((tip.bid, height))
            else:
                alt.pend_fruits.append((miner, tip.bid, height))
            return 0
        if proto is ProtocolName.STRONGCHAIN and not heavy:
            alt.pend_wh.append(miner)
            alt.units_abs += 1
            self._promote(alt)
            return 1
        # a full block on the branch
        new_height = alt.anchor_index + len(alt.blocks) + 1
        parent_cum = alt.blocks[-1].cum
        if proto is ProtocolName.STRONGCHAIN:
            emb = alt.pend_wh
            alt.pend_wh = []
            cum = parent_cum + self.ratio + len(emb)
            alt.blocks.append(Block(self.next_bid, miner, cum, emb))
            self.next_bid += 1
            # pending headers were already counted in units_abs when released
            alt.units_abs += self.ratio
            self._promote(alt)
            return self.ratio
        if proto is ProtocolName.FRUITCHAIN:
            if own:
                att = self.att_by_id[alt.owner]
                emb = self._embed_own_fruits(att, alt.anchor_index, alt.blocks, new_height)
            else:
                window = self.window
                anchor = alt.anchor_index
                emb = []
                left = []
                for f in self.pending_fruits:
                    if f[2] <= anchor and new_height - f[2] <= window:
                        emb.append(f)
                    else:
                        left.append(f)
                self.pending_fruits = left
                emb.extend(f for f in alt.pend_fruits if new_height - f[2] <= window)
                alt.pend_fruits = []
            advance = self.fruit_ratio + len(emb)
        else:
            emb = None
            advance = 1
        alt.blocks.append(Block(self.next_bid, miner, parent_cum + advance, emb))
        self.next_bid += 1
        alt.units_abs += advance
        self._promote(alt)
        return advance

    def _mine_main_as_attacker(self, att: AttackerState, heavy: bool, proto: ProtocolName) -> int:
        """Tie round where the attacker owning the main line extends it publicly.

        Mirrors its release rules: it never embeds honest weak headers (any
        pending ones die under its block) and embeds only its own fruits.
        """
        chain = self.chain
        if proto is ProtocolName.FRUITCHAIN and not heavy:
            tip_index = len(chain) - 1
            att.pending_fruits.append((chain[tip_index].bid, tip_index))
            return 0
        if proto is ProtocolName.STRONGCHAIN:
            if not heavy:
                self.pending_wh.append(att.id)
                self.public_units += 1
                return 1
            emb = [m for m in self.pending_wh if m == att.id]
            self.pending_wh = []
            cum = chain[-1].cum + self.ratio + len(emb)
            chain.append(Block(self.next_bid, att.id, cum, emb))
            self.next_bid += 1
            advance = cum - self.public_units
            self.public_units = cum
            return advance
        if proto is ProtocolName.FRUITCHAIN:
            emb = self._embed_own_fruits(att, len(chain) - 1, [], len(chain))
            advance = self.fruit_ratio + len(emb)
        else:
            emb = None
            advance = 1
        chain.append(Block(self.next_bid, att.id, chain[-1].cum + advance, emb))
        self.next_bid += 1
        self.public_units += advance
        return advance

    def _settle_tie_after_main_change(self) -> None:
        """Re-evaluate a tie once the main line's strength moved."""
        tie = self.tie
        if tie is None:
            return
        if self.public_units > tie.level:
            self._end_tie()
        elif self.public_units < tie.level:
            self._promote(tie.alts[0])

    # -- end of run -------------------------------------------------------

    def _settle_final(self) -> None:
        """Strictly stronger withheld branches are published at the end.

        Weakest releases first so a stronger rival can still override the
        result; exact ties stand with the public chain.
        """
        while True:
            cands = [
                a
                for a in self.attackers
                if not a.floating and self.anchor_alive(a) and a.units > self.public_units_from(a)
            ]
            if not cands:
                return
            cands.sort(key=lambda a: (a.units, a.id))
            self.do_override(cands[0])

    def _max_height(self) -> int:
        h = len(self.chain) - 1
        for a in self.attackers:
            if not a.floating:
                ah = a.anchor_index + len(a.blocks)
                if ah > h:
                    h = ah
        return h

    # -- main loop ---------------------------------------------------------

    def run(self) -> SimulationResult:
        config = self.config
        digest = config_digest(config)
        run_seed = derive_run_seed(config.master_seed, self.run_index, digest)
        budget = config.end_condition.round_budget
        target = config.end_condition.target_height
        if budget is not None:
            lanes = RoundLanes(run_seed, budget)
            limit = budget
        else:
            lanes = RoundLanes(run_seed, 4096)
            limit = None
        lane_leader = lanes.leader
        lane_kind = lanes.kind
        lane_tie = lanes.tie

        proto = self.proto
        is_nakamoto = proto is ProtocolName.NAKAMOTO
        p_heavy = self.p_heavy
        cum_powers = self.cum_powers
        selfish = self.selfish
        att_by_id = self.att_by_id
        attackers = self.attackers
        collect = self.collect

        i = 0
        while True:
            if limit is not None:
                if i >= limit:
                    break
            else:
                if self._max_height() >= target:
                    break
                if i >= len(lane_leader):
                    grown = RoundLanes(run_seed, 2 * (i + 1))
                    lanes = grown
                    lane_leader = lanes.leader
                    lane_kind = lanes.kind
                    lane_tie = lanes.tie

            leader = bisect_right(cum_powers, lane_leader[i])
            heavy = True if is_nakamoto else lane_kind[i] < p_heavy
            actions = [] if collect else None

            if selfish[leader]:
                att = att_by_id[leader]
                tie = self.tie
                if att.in_match:
                    alt = next(b for b in tie.alts if b.owner == leader)
                    advance = self._extend_alt(alt, leader, heavy, proto, own=True)
                    if advance:
                        if collect:
                            actions.append((leader, Action.OVERRIDE))
                        acts = cascade_release(attackers, self)
                        if collect:
                            actions.extend(acts)
                elif tie is not None and tie.main_owner == leader:
                    advance = self._mine_main_as_attacker(att, heavy, proto)
                    if advance:
                        self._settle_tie_after_main_change()
                        acts = cascade_release(attackers, self)
                        if collect:
                            actions.append((leader, Action.OVERRIDE))
                            actions.extend(acts)
                else:
                    self._mine_private(att, heavy, proto)
                    if collect:
                        actions.append((leader, Action.WAIT))
            else:
                tie = self.tie
                if tie is not None:
                    alt = self._choose_tie_branch(lane_tie[i])
                    if alt is None:
                        advance = self._mine_main(leader, heavy, proto)
                        if advance:
                            self._settle_tie_after_main_change()
                            acts = cascade_release(attackers, self)
                            if collect:
                                actions.extend(acts)
                    else:
                        advance = self._extend_alt(alt, leader, heavy, proto, own=False)
                        if advance:
                            acts = cascade_release(attackers, self)
                            if collect:
                                actions.extend(acts)
                else:
                    advance = self._mine_main(leader, heavy, proto)
                    if advance:
                        acts = cascade_release(attackers, self)
                        if collect:
                            actions.extend(acts)

            if collect:
                if is_nakamoto:
                    kind_name = "block"
                elif proto is ProtocolName.STRONGCHAIN:
                    kind_name = "strong" if heavy else "weak"
                else:
                    kind_name = "block" if heavy else "fruit"
                self.records.append(RoundRecord(i, leader, kind_name, tuple(actions)))
            i += 1

        self._settle_final()
        return self._result(run_seed, i)

    def _result(self, run_seed: int, rounds: int) -> SimulationResult:
        blocks = self.chain[1:]
        n = self.n_miners
        if self.proto is ProtocolName.NAKAMOTO:
            rewards = nakamoto.tally_rewards(blocks, n)
        elif self.proto is ProtocolName.STRONGCHAIN:
            rewards = strongchain.tally_rewards(blocks, self.pending_wh, self.config.protocol_params, n)
        else:
            rewards = fruitchain.tally_rewards(blocks, self.config.protocol_params, n)
        total = sum(rewards)
        if total > 0:
            revenues = [x / total for x in rewards]
        else:
            revenues = [0.0] * n
        return SimulationResult(
            config=self.config,
            run_index=self.run_index,
            run_seed=run_seed,
            rounds=rounds,
            rewards=rewards,
            revenues=revenues,
            total_reward=total,
            chain_blocks=len(blocks),
            records=self.records,
        )


def run_simulation(
    config: SimulationConfig,
    run_index: int = 0,
    collect_records: bool = False,
) -> SimulationResult:
    """Execute one run and attribute rewards on the final canonical chain.

    ``run_index`` picks the run's independent stream under the config's
    master seed.  At the end of the round budget (or once a chain reaches
    the target height) any withheld branch that is strictly stronger than
    the public chain is published before rewards are tallied; exact-strength
    ties stand with the public chain.
    """
    return _Run(config, run_index, collect_records).run()
