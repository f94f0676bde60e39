"""Shared helpers plus the acceptance-summary section of the report."""

from selfishsim.config import ProtocolName, symmetric_attacker_config
from selfishsim.engine import Tie, _Run
from selfishsim.rng import stream_uniforms


def quick_config(protocol, alpha=0.3, gamma=0.5, rounds=2000, seed=1, attackers=1,
                 protocol_params=None):
    """Small symmetric-attacker config for fast structural tests."""
    return symmetric_attacker_config(
        ProtocolName(protocol),
        attackers,
        alpha,
        gamma=gamma,
        rounds=rounds,
        master_seed=seed,
        protocol_params=protocol_params,
    )


def reward_total_error(res):
    """Why ``res.total_reward`` is not what its chain pays, or None.

    Every chain block pays its block reward, and nakamoto pays nothing
    else.  Strongchain adds 1/ratio per paid weak header and fruitchain
    ``fruit_reward`` per embedded fruit; each of those came from a round
    that mined no chain block, so their count is a whole number n with
    0 <= n <= rounds - chain_blocks.
    """
    total, blocks, params = res.total_reward, res.chain_blocks, res.config.protocol_params
    protocol = res.config.protocol
    if protocol is ProtocolName.NAKAMOTO:
        return None if total == blocks else f"total {total} != {blocks} chain blocks"
    if protocol is ProtocolName.STRONGCHAIN:
        n = (total - blocks) * params.ratio
    else:
        n = (total - blocks * params.block_reward) / params.fruit_reward
    if abs(n - round(n)) > 1e-6 or not 0 <= round(n) <= res.rounds - blocks:
        return f"total {total} pays {n} units beyond {blocks} chain blocks in {res.rounds} rounds"
    return None


def tie_branch_shares(gamma, n_alts, attacker_main: bool = False, draws=20_000, seed=0):
    """Share of honest tie-round draws going to each tied branch.

    Sets up a tie between the main line, owned by attacker ``n_alts``
    when ``attacker_main`` and by the honest miners otherwise, and
    ``n_alts`` released branches owned by attackers 0.. in match order,
    then feeds tie-lane uniforms to the engine's own branch choice.
    Returns the shares, main line first.
    """
    cfg = quick_config("nakamoto", alpha=0.1, gamma=gamma, attackers=n_alts + 1)
    run = _Run(cfg, 0, collect_records=False)
    main_owner = run.attackers[n_alts] if attacker_main else None
    run.tie = Tie(main_owner=main_owner, alts=run.attackers[:n_alts])
    counts = [0] * (1 + n_alts)
    for u in stream_uniforms(seed, draws).tolist():
        alt = run._choose_tie_branch(u)
        counts[0 if alt is None else 1 + alt.id] += 1
    return [c / draws for c in counts]


ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    """Queue a one-line criterion verdict for the end-of-run summary."""
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
