"""Simulation configuration: miners, protocol parameters, end conditions."""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Optional

POWER_SUM_TOL = 1e-9
MAX_MINERS = 1_000  # far above the paper's seven attackers; bounds the miner list


class ConfigError(ValueError):
    """Raised for invalid or inconsistent configuration input."""


def is_int(v) -> bool:
    """True for an int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_number(v) -> bool:
    """True for an int or float that is not a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_miner_count(n: int) -> None:
    if n > MAX_MINERS:
        raise ConfigError(f"at most {MAX_MINERS} miners are supported, got {n}")


def _check_count(name: str, v) -> None:
    if not is_int(v):
        raise ConfigError(f"{name} must be an integer, got {v!r}")
    if v < 1:
        raise ConfigError(f"{name} must be >= 1, got {v}")


def _as_tuple(name: str, values) -> tuple:
    """``values`` (a list, tuple, range, array or other iterable) as a tuple.

    Anything that is not iterable is a ConfigError naming ``name`` and the value.
    """
    try:
        return tuple(values)
    except TypeError:
        raise ConfigError(f"{name} must be a list or other iterable, got {values!r}") from None


def _check_powers(powers) -> None:
    for p in powers:  # before a builder does arithmetic on them
        if not is_number(p):
            raise ConfigError(f"attacker power must be a number, got {p!r}")


class MinerKind(str, Enum):
    HONEST = "honest"
    SELFISH = "selfish"


class ProtocolName(str, Enum):
    NAKAMOTO = "nakamoto"
    STRONGCHAIN = "strongchain"
    FRUITCHAIN = "fruitchain"


def _check_protocol(name) -> ProtocolName:
    """``name`` as a ProtocolName; an unknown name is a ConfigError listing the known ones."""
    try:
        return ProtocolName(name)
    except ValueError:
        raise ConfigError(f"unknown protocol {name!r}; known: {', '.join(ProtocolName)}") from None


@dataclass(frozen=True)
class MinerSpec:
    """One participant: contiguous id, relative power, behaviour kind."""

    id: int
    power: float
    kind: MinerKind


@dataclass(frozen=True)
class EndCondition:
    """Stop rule for a run.

    ``round_budget`` counts mined artifacts (every round produces exactly
    one).  ``target_height`` stops once any participant's chain reaches the
    given block height; only the fruit/block protocol supports it.
    """

    round_budget: Optional[int] = None
    target_height: Optional[int] = None

    def __post_init__(self):
        if (self.round_budget is None) == (self.target_height is None):
            raise ConfigError("end condition needs exactly one of round_budget, target_height")
        name = "round_budget" if self.round_budget is not None else "target_height"
        _check_count(name, getattr(self, name))


@dataclass(frozen=True)
class StrongchainParams:
    """Weak/strong header protocol knobs.

    ``ratio`` is the expected number of weak headers per strong block; a
    strong block pays 1 and an embedded weak header pays 1/ratio.  It
    must be an int (not a bool): the engine counts strength in exact
    integer units.
    """

    ratio: int = 10

    def __post_init__(self):
        _check_count("ratio", self.ratio)


@dataclass(frozen=True)
class FruitchainParams:
    """Fruit/block protocol knobs.

    ``fruit_ratio`` is the expected number of fruits per block,
    ``freshness_window`` the maximum height distance (inclusive) at which a
    fruit may still be embedded; both must be ints (not bools).
    ``block_reward`` and ``fruit_reward`` set the payout split and must be
    finite, non-negative int or float numbers, not both 0; the defaults
    give blocks half the steady-state reward.
    """

    fruit_ratio: int = 10
    freshness_window: int = 10
    block_reward: float = 1.0
    fruit_reward: float = 0.1

    def __post_init__(self):
        _check_count("fruit_ratio", self.fruit_ratio)
        _check_count("freshness_window", self.freshness_window)
        for name in ("block_reward", "fruit_reward"):
            v = getattr(self, name)
            if not is_number(v):
                raise ConfigError(f"{name} must be a number, got {v!r}")
        if self.block_reward < 0 or self.fruit_reward < 0:
            raise ConfigError("rewards must be non-negative")
        for name in ("block_reward", "fruit_reward"):
            v = getattr(self, name)
            if not v <= sys.float_info.max:  # NaN, inf and an int beyond the float range fail
                raise ConfigError(f"{name} must be finite, got {v!r}")
        if self.block_reward == self.fruit_reward == 0:
            raise ConfigError("block_reward and fruit_reward must not both be 0")


# The parameter class of each protocol that takes parameters; its field
# defaults are the protocol's defaults.
PROTOCOL_PARAMS = {
    ProtocolName.STRONGCHAIN: StrongchainParams,
    ProtocolName.FRUITCHAIN: FruitchainParams,
}


@dataclass(frozen=True)
class SimulationConfig:
    """One run's miners, protocol and end condition.

    A ``gamma`` of None takes ``default_gamma`` for the protocol and the
    number of selfish miners; ``protocol_params`` of None takes the
    protocol's ``PROTOCOL_PARAMS`` class defaults.
    """

    protocol: ProtocolName
    miners: tuple[MinerSpec, ...]
    gamma: Optional[float] = None
    master_seed: int = 0
    end_condition: EndCondition = field(default_factory=lambda: EndCondition(round_budget=100_000))
    protocol_params: object = None

    def __post_init__(self):
        miners = _as_tuple("miners", self.miners)
        object.__setattr__(self, "miners", miners)
        if not miners:
            raise ConfigError("at least one miner is required")
        _check_miner_count(len(miners))
        for i, m in enumerate(miners):
            if not isinstance(m, MinerSpec):
                raise ConfigError(f"miner {i} must be a MinerSpec, got {m!r}")
            if not is_int(m.id) or m.id != i:
                raise ConfigError(f"miner ids must be integers from 0 up, got {m.id!r} at {i}")
            if not is_number(m.power) or not 0.0 < m.power <= 1.0:
                raise ConfigError(f"miner {i} power must be a number in (0, 1], got {m.power!r}")
            if not isinstance(m.kind, MinerKind):
                raise ConfigError(f"miner {i} kind must be a MinerKind, got {m.kind!r}")
        total = sum(m.power for m in miners)
        if abs(total - 1.0) > POWER_SUM_TOL:
            raise ConfigError(f"miner powers must sum to 1, got {total!r}")
        proto = _check_protocol(self.protocol)
        object.__setattr__(self, "protocol", proto)
        if self.gamma is None:
            gamma = default_gamma(proto, len(self.selfish_ids))
        elif not is_number(self.gamma):
            raise ConfigError(f"gamma must be a number, got {self.gamma!r}")
        else:
            gamma = float(self.gamma)
        if not (0.0 <= gamma <= 1.0):
            raise ConfigError(f"gamma {gamma} outside [0, 1]")
        object.__setattr__(self, "gamma", gamma)
        if not is_int(self.master_seed) or self.master_seed < 0:
            raise ConfigError(f"master_seed must be an integer >= 0, got {self.master_seed!r}")
        cls = PROTOCOL_PARAMS.get(proto)
        params = self.protocol_params
        if cls is None:
            if params is not None:
                raise ConfigError(f"{proto.value} runs take no protocol parameters")
        elif params is None:
            params = cls()
        elif not isinstance(params, cls):
            raise ConfigError(f"{proto.value} runs need {cls.__name__}")
        object.__setattr__(self, "protocol_params", params)
        if not isinstance(self.end_condition, EndCondition):
            raise ConfigError(f"end_condition must be an EndCondition, got {self.end_condition!r}")
        if self.end_condition.target_height is not None and proto is not ProtocolName.FRUITCHAIN:
            raise ConfigError("target_height end condition is only supported for fruitchain")
        if self.master_seed >= 2**64:  # run seeds keep 64 bits of it
            raise ConfigError(f"master_seed must be below 2**64, got {self.master_seed}")

    @property
    def selfish_ids(self) -> tuple[int, ...]:
        return tuple(m.id for m in self.miners if m.kind is MinerKind.SELFISH)


def default_gamma(protocol: ProtocolName, n_selfish: int) -> float:
    """Tie propagation default: 0.5 generally, 0 for single-attacker strongchain."""
    if protocol is ProtocolName.STRONGCHAIN and n_selfish <= 1:
        return 0.0
    return 0.5


def _canonical_payload(config: SimulationConfig) -> dict:
    payload = {
        "protocol": config.protocol.value,
        "miners": [[m.id, repr(float(m.power)), m.kind.value] for m in config.miners],
        "gamma": repr(float(config.gamma)),
        "end": [config.end_condition.round_budget, config.end_condition.target_height],
    }
    params = config.protocol_params
    if params is not None:
        # int fields as they are, float fields in shortest round-trip form
        payload["params"] = entry = {}
        for f in fields(params):
            v = getattr(params, f.name)
            entry[f.name] = repr(float(v)) if f.type == "float" else v
    return payload


def config_digest(config: SimulationConfig) -> int:
    """Stable 64-bit digest of everything that defines a run except the seed.

    Floats are canonicalised through ``repr`` (shortest round-trip form), the
    payload through sorted-key JSON, and the first eight bytes of the SHA-256
    of that text give the digest.  Two configs that simulate identically
    digest identically regardless of construction order.
    """
    text = json.dumps(_canonical_payload(config), sort_keys=True, separators=(",", ":"))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _attacker_config(protocol, powers, honest, gamma, rounds, master_seed, protocol_params):
    """Selfish miners at ``powers`` plus one aggregate honest miner at ``honest``."""
    if honest <= 0.0:
        raise ConfigError("attacker powers must leave honest power positive")
    miners = [MinerSpec(i, p, MinerKind.SELFISH) for i, p in enumerate(powers)]
    miners.append(MinerSpec(len(powers), honest, MinerKind.HONEST))
    end = {} if rounds is None else {"end_condition": EndCondition(round_budget=rounds)}
    return SimulationConfig(
        protocol=protocol,
        miners=tuple(miners),
        gamma=gamma,
        master_seed=master_seed,
        protocol_params=protocol_params,
        **end,
    )


def symmetric_attacker_config(
    protocol: ProtocolName,
    n_attackers: int,
    alpha: float,
    gamma: Optional[float] = None,
    rounds: Optional[int] = None,
    master_seed: int = 0,
    protocol_params: object = None,
) -> SimulationConfig:
    """k selfish miners at power ``alpha`` each plus one aggregate honest miner.

    A ``rounds`` of None takes ``SimulationConfig``'s default end condition.
    """
    _check_count("n_attackers", n_attackers)
    _check_miner_count(n_attackers + 1)  # before the power list is built
    _check_powers((alpha,))
    honest = 1.0 - n_attackers * alpha
    return _attacker_config(
        protocol, [alpha] * n_attackers, honest, gamma, rounds, master_seed, protocol_params
    )


def rival_attacker_config(
    protocol: ProtocolName,
    alpha_1: float,
    rival_powers: tuple[float, ...],
    gamma: Optional[float] = None,
    rounds: Optional[int] = None,
    master_seed: int = 0,
    protocol_params: object = None,
) -> SimulationConfig:
    """Attacker of interest at ``alpha_1`` with fixed-power selfish rivals.

    A ``rounds`` of None takes ``SimulationConfig``'s default end condition.
    """
    powers = [alpha_1, *_as_tuple("rival_powers", rival_powers)]
    _check_powers(powers)
    return _attacker_config(
        protocol, powers, 1.0 - sum(powers), gamma, rounds, master_seed, protocol_params
    )
