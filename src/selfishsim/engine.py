"""Round-driven mining simulation with withholding attackers.

Each round elects one leader proportionally to power and mines exactly one
artifact.  Honest leaders extend the public chain; selfish leaders extend
their own withheld branch and react to public progress with the strategy
module's adopt/match/override/wait rule, including chained releases where
one attacker's published branch is immediately overridden by a stronger
rival's.

Chain strength is tracked in integer units, so all comparisons are exact.
There are two mining paths.  On the header path a weak header counts one
unit the moment it exists and a strong block ``ratio`` units; Nakamoto runs
on it with ratio 1 and every artifact strong, so a block weighs one unit
and no weak header is ever mined.  On the fruit path a block counts
``fruit_ratio`` units plus one per fruit it embeds.  A released branch
replaces the suffix above the releaser's fork anchor.  During a tie the
matched attackers' own branches, released at the main line's strength, race
it until one side gains strictly greater strength: a matched attacker keeps
mining its branch and publishes it on its first gain, and an honest leader
that picks a released branch extends it.  At the end of a run the attackers
react once more through the same cascade, with no bound on the override
lead, so every branch strictly stronger than the public chain from a live
anchor is published.

Heights are absolute; the run holds only the live suffix of the canonical
chain, ``chain[h - base]`` being the block at height ``h``.  At each chunk
start, blocks below the lowest live anchor (a withheld or released branch's,
else the tip; fruitchain keeps ``freshness_window - 1`` more) are folded into
per-miner reward totals and dropped: anchors are only taken at the tip, so no
release can replace them, and a fruit pointing below ``base`` is stale for
every block to come.  Folding tallies in chain order, so each miner's float
sum gets its terms in the same order and rewards stay bit-identical.

Determinism: a run is a pure function of (config, master seed, run index).
All draws come from the documented counter-based stream in rng.py, three
lanes per round: leader, artifact kind, tie branch choice.  The run draws
them in chunks of ``CHUNK`` rounds and decodes each chunk's leaders and
artifact kinds in one vector step, so lane memory stays bounded however
long the run is, and the draws are those of one whole-run stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import fruitchain, strongchain
from .config import (
    FruitchainParams,
    MinerKind,
    ProtocolName,
    SimulationConfig,
    StrongchainParams,
    config_digest,
)
from .rng import RoundLanes, derive_run_seed, lane_seed
from .strategy import HONEST_BRANCH, OVERRIDE, WAIT, AttackerState, cascade_release

# Rounds of lanes drawn and decoded at a time, and the fold interval.  A
# 4,096-round chunk's lanes, decoded lists and live blocks take a few
# hundred kilobytes, small enough to stay in the CPU cache, so a run of any
# length adds under 1 MB to the interpreter; 65,536 rounds would add
# 12-18 MB and run slower.
CHUNK = 1 << 12

# Record name of a round's (light, heavy) artifact.
KIND_NAMES = {
    ProtocolName.NAKAMOTO: ("block", "block"),
    ProtocolName.STRONGCHAIN: ("weak", "strong"),
    ProtocolName.FRUITCHAIN: ("fruit", "block"),
}


class Block:
    """One canonical-chain entry.

    ``cum`` is the cumulative strength in units through this block, counting
    artifacts embedded in it; ``emb`` holds embedded weak headers as a tuple
    of miner ids, embedded fruits as a list of (miner, pointer bid, pointer
    height) so a reorg can tell which of them stay mineable.
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
class Tie:
    """Equal-strength race: main line versus released alternatives."""

    # Who the contested main-line suffix belongs to (HONEST_BRANCH or an
    # attacker id); it decides whether the propagation factor gamma or an
    # even split steers honest leaders' branch choice.
    main_owner: object
    alts: list  # the matched AttackerStates, whose branches race, in match order
    # Owner id -> honest fruits (miner, pointer bid, pointer height) that
    # point into that owner's released branch; they go public if it wins.
    fruits: dict = field(default_factory=dict)


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
    chain_blocks: int  # canonical blocks above genesis, folded ones included
    records: Optional[list] = None


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
        cum[-1] = 1.0  # lane 0 stays below 1.0, so searchsorted never passes the last miner
        self.cum_powers = cum

        self.fruit = self.proto is ProtocolName.FRUITCHAIN
        if self.fruit:
            fparams: FruitchainParams = config.protocol_params
            self.fruit_ratio = fparams.fruit_ratio
            self.window = fparams.freshness_window
            # Fruits join branch strength only when embedded, so a public
            # block lands with its flushed pendings in one jump: fruit_ratio
            # units for the block plus on average fruit_ratio embedded
            # fruits.  The override window covers that whole jump, unlike
            # the header path, where pending headers count at once and a
            # strong block advances by exactly its own weight.
            self.quantum_units = 2 * fparams.fruit_ratio
            self.p_heavy = 1.0 / (fparams.fruit_ratio + 1)
        elif self.proto is ProtocolName.STRONGCHAIN:
            params: StrongchainParams = config.protocol_params
            self.ratio = self.quantum_units = params.ratio
            self.p_heavy = 1.0 / (params.ratio + 1)
        else:
            # The header chain with ratio 1: the kind lane is below 1.0, so
            # every artifact is a strong block of one unit.
            self.ratio = self.quantum_units = 1
            self.p_heavy = 1.0

        self.chain = [Block(0, -1, 0)]  # genesis sentinel, then the block at height base
        self.base = 0
        self.folded = [0.0] * n  # rewards of the blocks at heights 1..base
        self.next_bid = 1
        self.public_units = 0
        self.pending_wh = []      # miner ids of unembedded weak headers at the tip
        self.pending_fruits = []  # (miner, pointer bid, pointer height), published
        self.tie: Optional[Tie] = None
        self.attackers = [AttackerState(i) for i in config.selfish_ids]
        self.att_by_id = {a.id: a for a in self.attackers}

    # -- chain view used by strategy.cascade_release ---------------------

    def _canonical(self, bid: int, height: int) -> bool:
        """True when block ``bid`` is the live canonical block at ``height``."""
        i = height - self.base
        return 0 <= i < len(self.chain) and self.chain[i].bid == bid

    def public_units_from(self, att: AttackerState) -> Optional[int]:
        """Public strength past the attacker's anchor; None once a release orphaned it."""
        i = att.anchor_index - self.base
        chain = self.chain
        if 0 <= i < len(chain):
            anchor = chain[i]
            if anchor.bid == att.anchor_bid:
                return self.public_units - anchor.cum
        return None

    def do_adopt(self, att: AttackerState) -> None:
        dropped = att.blocks
        att.reset()
        if self.fruit:
            self._reclaim_embedded(att.pending_fruits, dropped)

    def do_override(self, att: AttackerState) -> None:
        """Publish the attacker's branch: it replaces the main line above its anchor.

        Ends any tie, hands the branch's pending weak headers (and, for a
        released tie branch, the honest fruits pointing into it) to the
        public tip, returns reorg-orphaned fruits to the public pool, and
        floats the attacker again.
        """
        pend_wh = [att.id] * att.pending_count
        pend_fruits = []
        if self.tie is not None:
            pend_fruits = self.tie.fruits.get(att.id, [])
            self._end_tie()
        anchor = att.anchor_index
        chain = self.chain
        cut = anchor + 1 - self.base
        dead = chain[cut:] if self.fruit else None
        del chain[cut:]
        chain.extend(att.blocks)
        self.pending_wh = pend_wh
        self.pending_fruits = [f for f in self.pending_fruits if f[2] <= anchor] + pend_fruits
        if dead:
            self._reclaim_embedded(self.pending_fruits, dead)
        self.public_units = chain[-1].cum + len(pend_wh)
        att.reset()

    def do_match(self, att: AttackerState) -> None:
        """Release the branch next to the equal-strength main line."""
        att.in_match = True
        if self.tie is None:
            tip = self.chain[-1]
            above_anchor = self.base + len(self.chain) - 1 > att.anchor_index
            if above_anchor and self.selfish[tip.miner]:
                owner = tip.miner
            else:
                owner = HONEST_BRANCH
            self.tie = Tie(main_owner=owner, alts=[att])
        else:
            self.tie.alts.append(att)

    def _reclaim_embedded(self, pool: list, dead_blocks: list) -> None:
        """Return the fruits of dropped blocks that point at canonical blocks to ``pool``.

        A replaced public block or an abandoned withheld one dies, but the
        fruits it embedded stay mineable as long as the block they point at
        is canonical: a reorg returns them to the public pool, an adopt to
        the attacker's own.  Fruits pointing into the dropped blocks die
        with them.
        """
        canonical = self._canonical
        for b in dead_blocks:
            if b.emb:
                pool.extend(f for f in b.emb if canonical(f[1], f[2]))

    # -- tie helpers ------------------------------------------------------

    def _end_tie(self) -> None:
        """Close the tie; its released branches are withheld again.

        A branch's released weak headers stay behind with the closed tie,
        though its ``units`` still count them.
        """
        for att in self.tie.alts:
            att.in_match = False
            att.pending_count = 0
        self.tie = None

    def _choose_tie_branch(self, u: float) -> Optional[AttackerState]:
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

    def _settle_tie_after_main_change(self, advance: int) -> None:
        """Re-evaluate the open tie once a main-line artifact moved its strength by ``advance``."""
        if advance > 0:
            self._end_tie()
        else:
            # A main-line owner's strong block drops the other miners' weak
            # headers pending at the tip; more than ``ratio`` of them weaken
            # the main line, and the first released branch wins.
            self.do_override(self.tie.alts[0])

    # -- mining -----------------------------------------------------------

    def _mine_main(self, miner: int, heavy: bool, att: Optional[AttackerState] = None) -> int:
        """Artifact on the main line; returns the strength advance.

        ``att`` is the attacker that owns a tie's main line and mines on it.
        It keeps its release rules: it never embeds honest weak headers
        (they die under its block) and embeds only its own fruits, which
        stay private until then.
        """
        chain = self.chain
        tip = chain[-1]
        if self.fruit:
            holder = self if att is None else att  # whose fruit pool the block draws on
            if not heavy:
                holder.pending_fruits.append((miner, tip.bid, self.base + len(chain) - 1))
                return 0
            # The branch is the live chain above the folded blocks.
            emb = self._embeddable(holder.pending_fruits, self.base - 1, chain)[0]
            holder.pending_fruits = []
            cum = tip.cum + self.fruit_ratio + len(emb)
        elif heavy:
            pend = self.pending_wh
            emb = tuple(pend) if att is None else tuple(m for m in pend if m == miner)
            pend.clear()
            cum = tip.cum + self.ratio + len(emb)
        else:
            self.pending_wh.append(miner)
            self.public_units += 1
            return 1
        chain.append(Block(self.next_bid, miner, cum, emb))
        self.next_bid += 1
        advance = cum - self.public_units
        self.public_units = cum
        return advance

    def _embeddable(self, pool: list, anchor: int, blocks: list) -> tuple:
        """Split ``pool`` into the fruits the next block of a branch embeds and the rest.

        The branch is the canonical chain up to height ``anchor``, then
        ``blocks``.  A fruit is embedded when it is fresh at the new block's
        height and points at a block of the branch.  Returns (embedded,
        left), both in pool order; a block that empties its pool drops
        ``left``, whose entries are stale or point at orphaned blocks.
        """
        height = anchor + len(blocks) + 1  # of the new block
        window = self.window
        canonical = self._canonical
        emb = []
        left = []
        for f in pool:
            ph = f[2]
            if height - ph <= window and (
                canonical(f[1], ph) if ph <= anchor
                else ph < height and blocks[ph - anchor - 1].bid == f[1]
            ):
                emb.append(f)
            else:
                left.append(f)
        return emb, left

    def _mine_private(self, att: AttackerState, heavy: bool) -> int:
        """Artifact on the attacker's own branch; returns its strength gain."""
        chain = self.chain
        blocks = att.blocks
        if self.fruit and not heavy:
            if blocks:
                att.pending_fruits.append((att.id, blocks[-1].bid, att.anchor_index + len(blocks)))
            else:
                att.pending_fruits.append((att.id, chain[-1].bid, self.base + len(chain) - 1))
            return 0
        if att.anchor_index < 0:
            att.anchor_index = self.base + len(chain) - 1
            att.anchor_bid = chain[-1].bid
        if not heavy:
            att.pending_count += 1
            att.units += 1
            return 1
        anchor = att.anchor_index
        parent_cum = blocks[-1].cum if blocks else chain[anchor - self.base].cum
        if self.fruit:
            emb = self._embeddable(att.pending_fruits, anchor, blocks)[0]
            att.pending_fruits = []
            gain = self.fruit_ratio + len(emb)
            cum = parent_cum + gain
        else:
            # The embedded headers counted when they were mined.
            emb = (att.id,) * att.pending_count
            att.pending_count = 0
            gain = self.ratio
            cum = parent_cum + gain + len(emb)
        blocks.append(Block(self.next_bid, att.id, cum, emb))
        self.next_bid += 1
        att.units += gain
        return gain

    def _extend_alt(self, att: AttackerState, miner: int, heavy: bool) -> int:
        """Honest artifact on ``att``'s released tie branch; returns the strength advance.

        Any header-path artifact makes the branch the strongest chain, so it
        is published and the artifact mined on it as the main line.  On the
        fruit path a fruit waits in ``Tie.fruits`` until a block on the
        branch embeds it; the block wins the tie.
        """
        if not self.fruit:
            self.do_override(att)
            return self._mine_main(miner, heavy)
        anchor, blocks = att.anchor_index, att.blocks
        if not heavy:
            self.tie.fruits.setdefault(att.id, []).append((miner, blocks[-1].bid, anchor + len(blocks)))
            return 0
        # The public fruits left behind stay public; the release below drops
        # those that point into the replaced main-line suffix.
        emb, self.pending_fruits = self._embeddable(self.pending_fruits, anchor, blocks)
        emb += self._embeddable(self.tie.fruits.pop(att.id, ()), anchor, blocks)[0]
        gain = self.fruit_ratio + len(emb)
        blocks.append(Block(self.next_bid, miner, blocks[-1].cum + gain, emb))
        self.next_bid += 1
        self.do_override(att)
        return gain

    # -- end of run -------------------------------------------------------

    def _settle_final(self) -> None:
        """The attackers react once more, with no bound on the override lead.

        Every branch strictly stronger than the public chain from its live
        anchor is published, weakest first, so a stronger rival can still
        override the result; exact ties stand with the public chain.  An
        attacker whose anchor a release orphans adopts, as it does mid-run,
        however strong its branch.
        """
        self.quantum_units = float("inf")
        cascade_release(self.attackers, self)

    def _max_height(self) -> int:
        h = self.base + len(self.chain) - 1
        for a in self.attackers:
            if not a.floating:
                ah = a.anchor_index + len(a.blocks)
                if ah > h:
                    h = ah
        return h

    # -- settled blocks ----------------------------------------------------

    def _tally(self, blocks, tip_pending=()) -> list:
        """Rewards of ``blocks`` added, in chain order, to the folded totals."""
        if self.fruit:
            return fruitchain.tally_rewards(blocks, self.config.protocol_params, self.folded)
        return strongchain.tally_rewards(blocks, tip_pending, self.ratio, self.folded)

    def _fold(self) -> None:
        """Fold the blocks below the lowest live anchor into ``folded``; drop them."""
        safe = self.base + len(self.chain) - 1
        for a in self.attackers:
            if not a.floating and a.anchor_index < safe:
                safe = a.anchor_index
        if self.fruit:
            safe -= self.window - 1
        cut = safe - self.base
        if cut > 0:
            self.folded = self._tally(self.chain[1:cut + 1])
            del self.chain[:cut]
            self.base = safe

    # -- main loop ---------------------------------------------------------

    def run(self) -> SimulationResult:
        config = self.config
        digest = config_digest(config)
        run_seed = derive_run_seed(config.master_seed, self.run_index, digest)
        limit = config.end_condition.round_budget
        target = config.end_condition.target_height

        p_heavy = self.p_heavy
        cum_powers = self.cum_powers
        selfish = self.selfish
        att_by_id = self.att_by_id
        attackers = self.attackers
        collect = self.collect
        kind_names = KIND_NAMES[self.proto]

        i = 0
        while limit is None or i < limit:
            first = i
            if first:
                self._fold()
            n = CHUNK if limit is None else min(CHUNK, limit - first)
            lanes = RoundLanes(lane_seed(run_seed, first), n)
            leaders = np.searchsorted(cum_powers, lanes.leader, side="right").tolist()
            heavies = (lanes.kind < p_heavy).tolist()
            lane_tie = lanes.tie.tolist()
            for leader, heavy in zip(leaders, heavies):
                tie = self.tie
                own = None  # the leader's own move, as recorded
                if selfish[leader]:
                    att = att_by_id[leader]
                    if att.in_match:
                        advance = self._mine_private(att, heavy)
                        if advance:  # the first strength gain wins the tie
                            self.do_override(att)
                            own = OVERRIDE
                    elif tie is not None and tie.main_owner == leader:
                        advance = self._mine_main(leader, heavy, att)
                        own = OVERRIDE if advance else None
                    else:
                        self._mine_private(att, heavy)
                        advance = 0
                        own = WAIT
                else:
                    alt = None if tie is None else self._choose_tie_branch(lane_tie[i - first])
                    if alt is None:
                        advance = self._mine_main(leader, heavy)
                    else:
                        advance = self._extend_alt(alt, leader, heavy)

                acts = ()
                if advance:
                    if self.tie is not None:  # the main line moved; a branch's win closed the tie
                        self._settle_tie_after_main_change(advance)
                    acts = cascade_release(attackers, self)
                if collect:
                    moves = (() if own is None else ((leader, own),)) + tuple(acts)
                    self.records.append(RoundRecord(i, leader, kind_names[heavy], moves))
                i += 1
                # Only a block raises the highest chain: a fruit or weak
                # header adds no block, a branch anchors at the tip, and a
                # release publishes a branch whose height already counted.
                if heavy and target is not None and self._max_height() >= target:
                    limit = i  # the run ends here; no further chunk is drawn
                    break

        self._settle_final()
        return self._result(run_seed, i)

    def _result(self, run_seed: int, rounds: int) -> SimulationResult:
        rewards = self._tally(self.chain[1:], self.pending_wh)
        total = sum(rewards)
        if total > 0:
            revenues = [x / total for x in rewards]
        else:
            revenues = [0.0] * self.n_miners
        return SimulationResult(
            config=self.config,
            run_index=self.run_index,
            run_seed=run_seed,
            rounds=rounds,
            rewards=rewards,
            revenues=revenues,
            total_reward=total,
            chain_blocks=self.base + len(self.chain) - 1,
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
    the target height) the attackers react once more with no bound on the
    override lead: every withheld branch that is strictly stronger than the
    public chain from its live anchor is published, weakest first, before
    rewards are tallied; exact-strength ties stand with the public chain.
    """
    return _Run(config, run_index, collect_records).run()
