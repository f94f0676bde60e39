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

``_Run.held`` lists the attackers that withhold: one joins where it anchors
at the public tip (``_mine_private``), keeping its anchor block's ``cum``, and
leaves where it floats again (``do_adopt``, ``do_override``).  Only
``do_override`` replaces canonical blocks, those above the releaser's anchor,
so it marks the held attackers anchored higher up; the round's cascade adopts
them.

Heights are absolute; the run holds only the live suffix of the canonical
chain, ``chain[h - base]`` being the block at height ``h``.  At each chunk
start, blocks below the lowest live anchor (a withheld or released branch's,
else the tip; fruitchain keeps ``freshness_window - 1`` more) are folded into
per-miner reward totals and dropped: anchors are only taken at the tip, so no
release can replace them, and a fruit pointing below ``base`` is stale for
every block to come.  Folding tallies in chain order, so each miner's float
sum gets its terms in the same order and rewards stay bit-identical.

A block is a plain tuple ``(bid, miner, cum, emb)`` read through ``BID``,
``MINER``, ``CUM`` and ``EMB``: every nakamoto round builds one, and a tuple
costs a fraction of a class instance's ``__init__``.  ``cum`` is the
strength in units through the block, embedded artifacts included; ``emb``
holds embedded weak headers as a tuple of miner ids, embedded fruits as a
list of fruit-pool entries (miner, pointer bid, pointer height, count), so a
reorg can tell which stay mineable.  The fruits of an entry share their
miner and pointer, hence their freshness and liveness.

The round loop visits every round on the header path.  On the fruit path it
visits only block rounds: a fruit round opens and closes no tie, calls no
cascade, anchors no attacker and raises no height, so the fruits mined
between two blocks join the pools in one step, one counted entry per miner
and pointer.

Determinism: a run is a pure function of (config, master seed, run index).
All draws come from the documented counter-based stream in rng.py, three
lanes per round: leader, artifact kind, tie branch choice.  The run draws
them in chunks of ``CHUNK`` rounds and decodes each chunk's leaders and
artifact kinds in one vector step, so lane memory stays bounded however
long the run is, and the draws are those of one whole-run stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain as concat, repeat
from typing import Optional

import numpy as np

from . import fruitchain, strongchain
from .config import (
    ConfigError,
    FruitchainParams,
    ProtocolName,
    SimulationConfig,
    StrongchainParams,
    config_digest,
)
from .rng import RoundLanes, derive_run_seed, lane_seed
from .strategy import OVERRIDE, WAIT, AttackerState, cascade_release

# Rounds of lanes drawn and decoded at a time, and the fold interval.  A
# 4,096-round chunk's lanes, decoded lists and live blocks take a few
# hundred kilobytes, small enough to stay in the CPU cache, so a run of any
# length adds under 1 MB to the interpreter; 65,536 rounds would add
# 12-18 MB and run slower.
CHUNK = 1 << 12

# Indices of a block tuple (see the module docstring).
BID, MINER, CUM, EMB = range(4)

# Record name of a round's (light, heavy) artifact.
KIND_NAMES = {
    ProtocolName.NAKAMOTO: ("block", "block"),
    ProtocolName.STRONGCHAIN: ("weak", "strong"),
    ProtocolName.FRUITCHAIN: ("fruit", "block"),
}


class Tie:
    """Equal-strength race: main line versus released alternatives.

    ``_Run.tie`` is the only record of a tie; any public advance closes it.
    Honest fruits mined on a released branch wait in the public fruit pool:
    only a block on that branch can embed them, and they stay mineable only
    if the branch wins.
    """

    __slots__ = ("main_owner", "alts")

    def __init__(self, main_owner, alts: list):
        # The owner of the contested main-line suffix (its AttackerState, None for
        # the honest miners) decides whether gamma or an even split steers honest leaders.
        self.main_owner = main_owner
        self.alts = alts  # the matched AttackerStates, whose branches race, in match order


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

        cum = self.cum_powers = np.fromiter(accumulate(m.power for m in config.miners), float)
        cum[-1] = 1.0  # lane 0 stays below 1.0, so searchsorted never passes the last miner

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

        self.chain = [(0, -1, 0, None)]  # genesis sentinel, then the block at height base
        self.base = 0
        self.folded = [0.0] * n  # rewards of the blocks at heights 1..base
        self.next_bid = 1
        self.pending_wh = []      # miner ids of unembedded weak headers at the tip
        self.pending_fruits = []  # (miner, pointer bid, pointer height, count), published
        self.tie: Optional[Tie] = None
        self.attackers = [AttackerState(i) for i in config.selfish_ids]
        self.held = []  # the attackers with an anchor, in no particular order
        self.att_of = [None] * n  # miner id -> its AttackerState, None for an honest miner
        for a in self.attackers:
            self.att_of[a.id] = a

    # -- chain view used by strategy.cascade_release ---------------------

    def public_units(self) -> int:
        """Public strength: the tip's ``cum`` plus the weak headers pending on it."""
        return self.chain[-1][CUM] + len(self.pending_wh)

    def do_adopt(self, att: AttackerState) -> None:
        """Drop the attacker's branch; its fruit pool keeps what is still mineable."""
        dropped = att.blocks
        self.held.remove(att)
        att.reset()
        if self.fruit:
            att.pending_fruits = self._mineable(att.pending_fruits, dropped)

    def do_override(self, att: AttackerState) -> None:
        """Publish the attacker's branch: it replaces the main line above its anchor.

        Ends any tie, hands the branch's pending weak headers to the public
        tip, keeps in the public fruit pool what is still mineable on the
        new chain, floats the attacker again and marks as orphaned
        (``anchor_cum`` None) every held attacker anchored above its anchor.
        """
        pend_wh = [att.id] * att.pending_count
        self.tie = None
        anchor = att.anchor_index
        self.held.remove(att)
        for a in self.held:
            if a.anchor_index > anchor:
                a.anchor_cum = None
        chain = self.chain
        cut = anchor + 1 - self.base
        dead = chain[cut:] if self.fruit else None
        del chain[cut:]
        chain.extend(att.blocks)
        self.pending_wh = pend_wh
        if self.fruit:  # the header path's public fruit pool stays empty
            self.pending_fruits = self._mineable(self.pending_fruits, dead)
        att.reset()

    def do_match(self, att: AttackerState) -> None:
        """Release the branch next to the equal-strength main line."""
        if self.tie is None:
            chain = self.chain
            above_anchor = self.base + len(chain) - 1 > att.anchor_index
            self.tie = Tie(self.att_of[chain[-1][MINER]] if above_anchor else None, [att])
        else:
            self.tie.alts.append(att)

    def _mineable(self, pool: list, dead_blocks: list) -> list:
        """The fruits of ``pool``, then those embedded in ``dead_blocks``, still mineable.

        A fruit stays mineable while the block it points at is canonical.
        After a release (``dead_blocks`` the replaced main-line blocks) or an
        adopt (the abandoned branch), every other fruit points at a block
        that can never be canonical again, or below ``base``, where it is
        stale for every block to come.
        """
        chain, base, n = self.chain, self.base, len(self.chain)
        fruits = concat(pool, *[b[EMB] for b in dead_blocks])  # a fruit-path emb is a list
        return [f for f in fruits if 0 <= f[2] - base < n and chain[f[2] - base][BID] == f[1]]

    # -- tie helpers ------------------------------------------------------

    def _choose_tie_branch(self, u: float) -> Optional[AttackerState]:
        """Honest leader's parent pick during a tie; None means the main line.

        One attacker branch against the honest main line follows gamma;
        otherwise honest power splits evenly over all branches (main line
        first, released branches in match order).
        """
        tie = self.tie
        if tie.main_owner is None and len(tie.alts) == 1:
            return tie.alts[0] if u < self.gamma else None
        n = 1 + len(tie.alts)
        idx = min(int(u * n), n - 1)
        return None if idx == 0 else tie.alts[idx - 1]

    # -- mining -----------------------------------------------------------

    def _block_rounds(self, leaders, heavies, lane_tie, first: int):
        """The fruit path's steps: (index in the chunk, leader, True) per block round.

        Before each block round, and once the chunk is done, the fruit
        rounds since the last step are credited through ``_mine_fruits``; a
        run that ends at a block leaves the rounds after it unmined.
        """
        all_leaders = leaders.tolist()
        steps = np.flatnonzero(heavies)
        lo = 0
        for step in zip(steps.tolist(), leaders[steps].tolist(), repeat(True)):
            j = step[0]
            if j > lo:
                self._mine_fruits(all_leaders, lane_tie, first, lo, j)
            yield step
            lo = j + 1
        if lo < len(all_leaders):
            self._mine_fruits(all_leaders, lane_tie, first, lo, len(all_leaders))

    def _mine_fruits(self, leaders: list, lane_tie, first: int, lo: int, hi: int) -> None:
        """Credit the fruit rounds ``lo .. hi-1`` of the chunk that starts at round ``first``.

        A fruit round opens and closes no tie, calls no cascade, anchors no
        attacker and raises no height, so the fruits mined since the last
        block join the pools in one step, as one entry per miner and
        pointer: (miner, pointer bid, pointer height, count).  An honest
        fruit points at the public tip, or during a tie at the branch its
        own tie lane picks; an attacker's points at its branch tip, or at
        the public tip while it holds no block.
        """
        stretch = leaders[lo:hi]
        chain = self.chain
        tip_bid, tip_h = chain[-1][BID], self.base + len(chain) - 1
        tie = self.tie
        att_of = self.att_of
        pool = self.pending_fruits
        for m in set(stretch):
            att = att_of[m]
            if att is not None:
                blocks = att.blocks
                if blocks:
                    att.pending_fruits.append(
                        (m, blocks[-1][BID], att.anchor_index + len(blocks), stretch.count(m)))
                else:
                    att.pending_fruits.append((m, tip_bid, tip_h, stretch.count(m)))
            elif tie is None:
                pool.append((m, tip_bid, tip_h, stretch.count(m)))
        if tie is not None:
            counts = {}
            for j in range(lo, hi):
                m = leaders[j]
                if att_of[m] is None:
                    alt = self._choose_tie_branch(float(lane_tie[j]))
                    if alt is None:
                        key = (m, tip_bid, tip_h)
                    else:
                        key = (m, alt.blocks[-1][BID], alt.anchor_index + len(alt.blocks))
                    counts[key] = counts.get(key, 0) + 1
            pool.extend(key + (c,) for key, c in counts.items())
        if self.collect:
            kind = KIND_NAMES[self.proto][False]
            for j in range(lo, hi):
                m = leaders[j]
                att = att_of[m]
                # An attacker that neither races in nor owns a tie waits.
                waits = att is not None and (tie is None or att is not tie.main_owner
                                             and att not in tie.alts)
                self.records.append(RoundRecord(first + j, m, kind, ((m, WAIT),) if waits else ()))

    def _mine_main(self, miner: int, heavy: bool, att: Optional[AttackerState] = None) -> int:
        """Artifact on the main line; returns the strength advance.

        ``att`` is the attacker that owns a tie's main line and mines on it.
        It keeps its release rules: it never embeds honest weak headers
        (they die under its block) and embeds only its own fruits, which
        stay private until then.  A block advances the public strength by
        its weight less the pending weak headers it takes off the tip.  On
        the fruit path only blocks come here (see ``_mine_fruits``).
        """
        chain = self.chain
        tip = chain[-1]
        taken = 0  # pending weak headers the block takes off the tip
        if self.fruit:
            holder = self if att is None else att  # whose fruit pool the block draws on
            # The branch is the live chain above the folded blocks.
            emb, _, weight = self._embeddable(holder.pending_fruits, self.base - 1, chain)
            holder.pending_fruits = []
            cum = tip[CUM] + weight
        elif heavy:
            pend = self.pending_wh
            emb = ()
            if pend:
                emb = tuple(pend) if att is None else tuple(m for m in pend if m == miner)
                taken = len(pend)
                pend.clear()
            cum = tip[CUM] + self.ratio + len(emb)
        else:
            self.pending_wh.append(miner)
            return 1
        chain.append((self.next_bid, miner, cum, emb))
        self.next_bid += 1
        return cum - tip[CUM] - taken

    def _embeddable(self, pool: list, anchor: int, blocks: list) -> tuple:
        """Split ``pool`` into the entries the next block of a branch embeds and the rest.

        The branch is the canonical chain up to height ``anchor``, then
        ``blocks``.  A fruit is embedded when it is fresh at the new block's
        height and points at a block of the branch; the fruits of an entry
        share one pointer, so the entry is embedded or left whole.  Returns
        (embedded, left, weight): the two in pool order, and the new
        block's weight, ``fruit_ratio`` plus the fruits it embeds.  A block
        that empties its pool drops ``left``, whose entries are stale or
        point at orphaned blocks.
        """
        height = anchor + len(blocks) + 1  # of the new block
        window = self.window
        chain, base, n = self.chain, self.base, len(self.chain)
        emb = []
        left = []
        weight = self.fruit_ratio
        for f in pool:
            ph = f[2]
            if height - ph <= window and (
                0 <= ph - base < n and chain[ph - base][BID] == f[1] if ph <= anchor
                else ph < height and blocks[ph - anchor - 1][BID] == f[1]
            ):
                emb.append(f)
                weight += f[3]
            else:
                left.append(f)
        return emb, left, weight

    def _mine_private(self, att: AttackerState, heavy: bool) -> int:
        """Artifact on the attacker's own branch; returns its strength gain."""
        blocks = att.blocks
        if att.anchor_index < 0:
            att.anchor_index = self.base + len(self.chain) - 1
            att.anchor_cum = self.chain[-1][CUM]
            self.held.append(att)
        if not heavy:
            att.pending_count += 1
            att.units += 1
            return 1
        anchor = att.anchor_index
        parent_cum = blocks[-1][CUM] if blocks else att.anchor_cum
        if self.fruit:
            emb, _, gain = self._embeddable(att.pending_fruits, anchor, blocks)
            att.pending_fruits = []
            cum = parent_cum + gain
        else:
            # The embedded headers counted when they were mined.
            emb = (att.id,) * att.pending_count
            att.pending_count = 0
            gain = self.ratio
            cum = parent_cum + gain + len(emb)
        blocks.append((self.next_bid, att.id, cum, emb))
        self.next_bid += 1
        att.units += gain
        return gain

    def _extend_alt(self, att: AttackerState, miner: int, heavy: bool) -> int:
        """Honest artifact on ``att``'s released tie branch; returns the strength advance.

        Any header-path artifact makes the branch the strongest chain, so it
        is published and the artifact mined on it as the main line.  On the
        fruit path a block on the branch embeds from the public pool, where
        honest fruits pointing into the branch wait (``_mine_fruits``), and
        wins the tie.
        """
        if not self.fruit:
            self.do_override(att)
            return self._mine_main(miner, heavy)
        anchor, blocks = att.anchor_index, att.blocks
        # The fruits left behind stay public; the release below drops those
        # whose block it leaves off the canonical chain.
        emb, self.pending_fruits, gain = self._embeddable(self.pending_fruits, anchor, blocks)
        blocks.append((self.next_bid, miner, blocks[-1][CUM] + gain, emb))
        self.next_bid += 1
        self.do_override(att)
        return gain

    # -- end of run -------------------------------------------------------

    def _settle_final(self) -> None:
        """The attackers react once more, with no bound on the override lead.

        An open tie closes first: exact ties stand with the public chain.
        Every branch strictly stronger than the public chain from its live
        anchor is published, weakest first, so a stronger rival can still
        override the result.  An attacker in ``held`` whose anchor a release
        orphans (``do_override`` marks it) adopts, as it does mid-run,
        however strong its branch.
        """
        self.tie = None
        self.quantum_units = float("inf")
        cascade_release(self.held, self)

    def _max_height(self) -> int:
        h = self.base + len(self.chain) - 1
        for a in self.held:
            h = max(h, a.anchor_index + len(a.blocks))
        return h

    # -- settled blocks ----------------------------------------------------

    def _tally(self, blocks, tip_pending=()) -> list:
        """Rewards of ``blocks`` added, in chain order, to the folded totals."""
        if self.fruit:
            return fruitchain.tally_rewards(blocks, self.config.protocol_params, self.folded)
        return strongchain.tally_rewards(blocks, tip_pending, self.ratio, self.folded)

    def _fold(self) -> None:
        """Fold the blocks below the lowest live anchor into ``folded``; drop them."""
        safe = min([self.base + len(self.chain) - 1] + [a.anchor_index for a in self.held])
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
        att_of = self.att_of
        held = self.held
        collect = self.collect
        kind_names = KIND_NAMES[self.proto]

        i = 0
        while limit is None or i < limit:
            first = i
            if first:
                self._fold()
            n = CHUNK if limit is None else min(CHUNK, limit - first)
            lanes = RoundLanes(lane_seed(run_seed, first), n)
            leaders = np.searchsorted(cum_powers, lanes.leader, side="right")
            heavies = lanes.kind < p_heavy
            lane_tie = lanes.tie  # read only by an honest leader during a tie
            if self.fruit:
                rounds = self._block_rounds(leaders, heavies, lane_tie, first)
            else:
                rounds = zip(range(n), leaders.tolist(), heavies.tolist())
            for j, leader, heavy in rounds:
                tie = self.tie
                own = None  # the leader's own move, as recorded
                att = att_of[leader]
                if att is not None:
                    if tie is not None and att in tie.alts:
                        advance = self._mine_private(att, heavy)
                        if advance:  # the first strength gain wins the tie
                            self.do_override(att)
                            own = OVERRIDE
                    elif tie is not None and tie.main_owner is att:
                        advance = self._mine_main(leader, heavy, att)
                        own = OVERRIDE if advance else None
                    else:
                        self._mine_private(att, heavy)
                        advance = 0
                        own = WAIT
                else:
                    alt = None if tie is None else self._choose_tie_branch(float(lane_tie[j]))
                    if alt is None:
                        advance = self._mine_main(leader, heavy)
                    else:
                        advance = self._extend_alt(alt, leader, heavy)

                acts = ()
                if advance:
                    tie = self.tie  # open unless a branch's win closed it
                    if tie is not None:
                        if advance > 0:  # the main line moved ahead
                            self.tie = None
                        else:
                            # A main-line owner's strong block drops the other
                            # miners' weak headers pending at the tip; more than
                            # ``ratio`` of them weaken the main line, and the
                            # first released branch wins.
                            self.do_override(tie.alts[0])
                    if held:  # the cascade has nothing to do while all float
                        acts = cascade_release(held, self)
                if collect:
                    moves = (() if own is None else ((leader, own),)) + tuple(acts)
                    self.records.append(RoundRecord(first + j, leader, kind_names[heavy], moves))
                # Only a block raises the highest chain: a fruit or weak
                # header adds no block, a branch anchors at the tip, and a
                # release publishes a branch whose height already counted.
                if heavy and target is not None and self._max_height() >= target:
                    i = limit = first + j + 1  # the run ends here; no further chunk is drawn
                    break
            else:
                i = first + n

        self._settle_final()
        return self._result(run_seed, i)

    def _result(self, run_seed: int, rounds: int) -> SimulationResult:
        rewards = self._tally(self.chain[1:], self.pending_wh)
        total = sum(rewards)
        if not total < float("inf"):  # NaN too; only fruit rewards are configurable
            raise ConfigError(f"rewards overflow float arithmetic: {self.config.protocol_params}")
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
