"""Config validation, scenario builders, digest stability."""

import dataclasses
import tracemalloc

import pytest

from selfishsim.config import (
    MAX_MINERS,
    ConfigError,
    EndCondition,
    FruitchainParams,
    MinerKind,
    MinerSpec,
    ProtocolName,
    SimulationConfig,
    StrongchainParams,
    config_digest,
    default_gamma,
    rival_attacker_config,
    symmetric_attacker_config,
)
from selfishsim.experiments import SweepConfig


def _miners(*powers, selfish=()):
    return tuple(
        MinerSpec(i, p, MinerKind.SELFISH if i in selfish else MinerKind.HONEST)
        for i, p in enumerate(powers)
    )


def test_out_of_range_power_rejected():
    miners = (MinerSpec(0, 0.0, MinerKind.HONEST), MinerSpec(1, 1.0, MinerKind.HONEST))
    with pytest.raises(ConfigError):
        SimulationConfig(protocol=ProtocolName.NAKAMOTO, miners=miners)


def test_powers_must_sum_to_one():
    with pytest.raises(ConfigError):
        SimulationConfig(protocol=ProtocolName.NAKAMOTO, miners=_miners(0.5, 0.4))


def test_ids_must_be_contiguous():
    miners = (MinerSpec(0, 0.5, MinerKind.HONEST), MinerSpec(2, 0.5, MinerKind.HONEST))
    with pytest.raises(ConfigError):
        SimulationConfig(protocol=ProtocolName.NAKAMOTO, miners=miners)


def test_gamma_bounds():
    with pytest.raises(ConfigError):
        SimulationConfig(
            protocol=ProtocolName.NAKAMOTO, miners=_miners(0.5, 0.5), gamma=1.5
        )


def test_nakamoto_takes_no_params():
    with pytest.raises(ConfigError):
        SimulationConfig(
            protocol=ProtocolName.NAKAMOTO,
            miners=_miners(0.5, 0.5),
            protocol_params=StrongchainParams(),
        )


def test_params_default_when_omitted():
    sc = SimulationConfig(protocol=ProtocolName.STRONGCHAIN, miners=_miners(0.5, 0.5))
    assert isinstance(sc.protocol_params, StrongchainParams)
    assert sc.protocol_params.ratio == 10
    fc = SimulationConfig(protocol=ProtocolName.FRUITCHAIN, miners=_miners(0.5, 0.5))
    assert isinstance(fc.protocol_params, FruitchainParams)
    assert fc.protocol_params.fruit_ratio == 10
    assert fc.protocol_params.freshness_window == 10


def test_params_type_mismatch_rejected():
    with pytest.raises(ConfigError):
        SimulationConfig(
            protocol=ProtocolName.STRONGCHAIN,
            miners=_miners(0.5, 0.5),
            protocol_params=FruitchainParams(),
        )


def test_end_condition_exactly_one():
    with pytest.raises(ConfigError):
        EndCondition()
    with pytest.raises(ConfigError):
        EndCondition(round_budget=10, target_height=10)
    with pytest.raises(ConfigError):
        EndCondition(round_budget=0)


def test_target_height_only_for_fruitchain():
    with pytest.raises(ConfigError, match="fruitchain"):
        SimulationConfig(
            protocol=ProtocolName.STRONGCHAIN,
            miners=_miners(0.5, 0.5),
            end_condition=EndCondition(target_height=100),
        )
    cfg = SimulationConfig(
        protocol=ProtocolName.FRUITCHAIN,
        miners=_miners(0.5, 0.5),
        end_condition=EndCondition(target_height=100),
    )
    assert cfg.end_condition.target_height == 100


def test_default_gamma_rule():
    assert default_gamma(ProtocolName.STRONGCHAIN, 1) == 0.0
    assert default_gamma(ProtocolName.STRONGCHAIN, 2) == 0.5
    assert default_gamma(ProtocolName.NAKAMOTO, 1) == 0.5
    assert default_gamma(ProtocolName.FRUITCHAIN, 1) == 0.5


def test_selfish_and_honest_id_properties():
    cfg = SimulationConfig(
        protocol=ProtocolName.NAKAMOTO,
        miners=_miners(0.2, 0.3, 0.5, selfish=(0, 1)),
    )
    assert cfg.selfish_ids == (0, 1)
    assert cfg.honest_ids == (2,)


def test_digest_ignores_seed_but_not_substance():
    base = symmetric_attacker_config(ProtocolName.NAKAMOTO, 1, 0.3, master_seed=1)
    reseeded = dataclasses.replace(base, master_seed=999)
    assert config_digest(base) == config_digest(reseeded)
    other_gamma = dataclasses.replace(base, gamma=0.25)
    assert config_digest(base) != config_digest(other_gamma)


def test_symmetric_builder_shape():
    cfg = symmetric_attacker_config(ProtocolName.NAKAMOTO, 3, 0.1, master_seed=4)
    assert [m.power for m in cfg.miners] == pytest.approx([0.1, 0.1, 0.1, 0.7])
    assert cfg.selfish_ids == (0, 1, 2)
    assert cfg.gamma == 0.5
    assert cfg.end_condition.round_budget == 100_000


def test_rival_builder_shape():
    cfg = rival_attacker_config(ProtocolName.NAKAMOTO, 0.1, (0.4,), master_seed=4)
    assert [m.power for m in cfg.miners] == pytest.approx([0.1, 0.4, 0.5])
    assert cfg.selfish_ids == (0, 1)


def test_miner_count_is_capped():
    cfg = symmetric_attacker_config(ProtocolName.NAKAMOTO, MAX_MINERS - 1, 1e-6)
    assert len(cfg.miners) == MAX_MINERS
    with pytest.raises(ConfigError, match="at most"):
        symmetric_attacker_config(ProtocolName.NAKAMOTO, MAX_MINERS, 1e-6)
    honest = tuple(MinerSpec(i, 1.0 / (MAX_MINERS + 1), MinerKind.HONEST) for i in range(MAX_MINERS + 1))
    with pytest.raises(ConfigError, match="at most"):
        SimulationConfig(protocol=ProtocolName.NAKAMOTO, miners=honest)


def test_huge_attacker_count_is_refused_without_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="at most"):
            symmetric_attacker_config(ProtocolName.NAKAMOTO, 10**8, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_symmetric_builder_rejects_overfull_network():
    with pytest.raises(ConfigError):
        symmetric_attacker_config(ProtocolName.NAKAMOTO, 3, 0.34)


def test_digest_is_pinned():
    # Run seeds derive from this digest, so any change to its payload moves
    # every output.  One int-only and two fruit parameter sets, with int
    # and with float rewards.
    strong = symmetric_attacker_config(
        ProtocolName.STRONGCHAIN, 2, 0.2, gamma=0.5, rounds=5000,
        protocol_params=StrongchainParams(ratio=4),
    )
    fruit_int = symmetric_attacker_config(
        ProtocolName.FRUITCHAIN, 1, 0.3, gamma=0.0, rounds=5000,
        protocol_params=FruitchainParams(5, 3, 2, 1),
    )
    fruit_float = rival_attacker_config(
        ProtocolName.FRUITCHAIN, 0.25, (0.2,), gamma=0.5,
        protocol_params=FruitchainParams(8, 4, 1.0, 0.125),
    )
    assert [config_digest(c) for c in (strong, fruit_int, fruit_float)] == [
        731583043132408646,
        6541438617403619312,
        5069709593959087871,
    ]


NAKAMOTO = ProtocolName.NAKAMOTO


def _sweep(**knobs):
    base = dict(protocol=NAKAMOTO, alpha_grid=(0.2, 0.3), symmetric_attackers=1)
    return SweepConfig(**{**base, **knobs})


def _with_miner(**field):
    miner = dataclasses.replace(MinerSpec(0, 0.5, MinerKind.SELFISH), **field)
    return SimulationConfig(NAKAMOTO, (miner, MinerSpec(1, 0.5, MinerKind.HONEST)))


@pytest.mark.parametrize(
    "build,name,bad",
    [
        (lambda v: symmetric_attacker_config(NAKAMOTO, 1, 0.3, rounds=v), "round_budget", 1e4),
        (lambda v: symmetric_attacker_config(NAKAMOTO, 1, 0.3, rounds=v), "round_budget", 1.5),
        (lambda v: symmetric_attacker_config(NAKAMOTO, 1, 0.3, rounds=v), "round_budget", True),
        (lambda v: _sweep(repeats=v), "repeats", 2.5),
        (lambda v: _sweep(symmetric_attackers=v), "n_attackers", True),
        (lambda v: _sweep(symmetric_attackers=v), "n_attackers", 2.0),
        (lambda v: _sweep(master_seed=v), "master_seed", 1.5),
        (lambda v: symmetric_attacker_config(NAKAMOTO, 1, 0.3, gamma=v), "gamma", "0.5"),
        (lambda v: _with_miner(power=v), "power", "0.5"),
        (lambda v: _with_miner(id=v), "ids", 0.0),
        (lambda v: _with_miner(kind=v), "kind", "selfish"),
        (lambda v: _sweep(alpha_grid=v), "alpha_grid", (0.2, "0.3")),
        (lambda v: _sweep(symmetric_attackers=None, fixed_rivals=v), "fixed_rivals", ("0.4",)),
    ],
)
def test_library_configs_check_value_types(build, name, bad):
    # A library caller gets the same type rules as a config file: a float
    # count would hash a different run seed, a string power or a plain
    # string kind would simulate something other than what was asked.
    with pytest.raises(ConfigError, match=name) as err:
        build(bad)
    assert repr(bad) in str(err.value)
