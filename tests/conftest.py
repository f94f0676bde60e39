"""Shared helpers plus the acceptance-summary section of the report."""

from selfishsim.config import ProtocolName, symmetric_attacker_config
from selfishsim.engine import Tie, _Run
from selfishsim.rng import stream_uniforms
from selfishsim.strategy import HONEST_BRANCH


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


def tie_branch_shares(gamma, n_alts, main_owner=HONEST_BRANCH, draws=20_000, seed=0):
    """Share of honest tie-round draws going to each tied branch.

    Sets up a tie between the main line, owned by ``main_owner`` (the
    honest miners or attacker ``n_alts``), and ``n_alts`` released
    branches owned by attackers 0.. in match order, then feeds tie-lane
    uniforms to the engine's own branch choice.  Returns the shares, main
    line first.
    """
    cfg = quick_config("nakamoto", alpha=0.1, gamma=gamma, attackers=n_alts + 1)
    run = _Run(cfg, 0, collect_records=False)
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
