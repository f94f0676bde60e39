"""Config parsing, result files, round trips, failure cleanup."""

import json
import re
from pathlib import Path

import pytest

from selfishsim.config import (
    ConfigError,
    FruitchainParams,
    MinerKind,
    MinerSpec,
    ProtocolName,
    SimulationConfig,
    StrongchainParams,
    rival_attacker_config,
    symmetric_attacker_config,
)
from selfishsim.engine import run_simulation
from selfishsim.experiments import (
    RevenuePoint,
    SweepConfig,
    ThresholdEstimate,
    estimate_threshold,
    run_sweep,
)
from selfishsim.io import (
    RESULT_COLUMNS,
    describe_digest,
    parse_config,
    read_results,
    read_thresholds,
    rows_from_result,
    write_results,
)

HEADER = "protocol,gamma,n_attackers,alpha_per_attacker,run_index,rounds,seed,miner_id,miner_kind,revenue,fair_share"


def _write(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return p


SIM_PAYLOAD = {
    "protocol": "strongchain",
    "miners": [
        {"power": 0.3, "kind": "selfish"},
        {"power": 0.7, "kind": "honest"},
    ],
}

SWEEP_PAYLOAD = {
    "protocol": "nakamoto",
    "sweep": {"alpha_grid": [0.2, 0.25, 0.3], "attackers": 2},
}


def test_parse_simulation_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, SIM_PAYLOAD))
    assert isinstance(cfg, SimulationConfig)
    assert cfg.protocol is ProtocolName.STRONGCHAIN
    assert cfg.gamma == 0.0  # single-attacker default for this protocol
    assert cfg.end_condition.round_budget == 100_000
    assert cfg.master_seed == 0
    assert cfg.protocol_params.ratio == 10


def test_parse_sweep_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, SWEEP_PAYLOAD))
    assert isinstance(cfg, SweepConfig)
    assert cfg.alpha_grid == (0.2, 0.25, 0.3)
    assert cfg.symmetric_attackers == 2
    assert cfg.gamma == 0.5
    assert cfg.repeats == 5
    assert cfg.rounds == 100_000


def test_parse_rival_sweep(tmp_path):
    payload = {
        "protocol": "fruitchain",
        "sweep": {"alpha_grid": [0.1, 0.2], "rivals": [0.4]},
        "gamma": 0.5,
        "seed": 28,
    }
    cfg = parse_config(_write(tmp_path, payload))
    assert cfg.fixed_rivals == (0.4,)
    assert cfg.master_seed == 28


def test_parse_explicit_knobs(tmp_path):
    payload = dict(SIM_PAYLOAD, gamma=0.25, rounds=5000, seed=9,
                   protocol_params={"ratio": 4})
    cfg = parse_config(_write(tmp_path, payload))
    assert cfg.gamma == 0.25
    assert cfg.end_condition.round_budget == 5000
    assert cfg.master_seed == 9
    assert cfg.protocol_params.ratio == 4


def test_parse_target_height(tmp_path):
    payload = {
        "protocol": "fruitchain",
        "miners": SIM_PAYLOAD["miners"],
        "end_condition": {"target_height": 500},
    }
    cfg = parse_config(_write(tmp_path, payload))
    assert cfg.end_condition.target_height == 500
    assert cfg.end_condition.round_budget is None


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda d: d.pop("protocol"), "protocol"),
        (lambda d: d.update(protocol="tendermint"), "unknown protocol"),
        (lambda d: d.update(extra=1), "unknown key"),
        (lambda d: d.update(sweep=SWEEP_PAYLOAD["sweep"]), "exactly one"),
        (lambda d: d.pop("miners"), "exactly one"),
        (lambda d: d["miners"][0].update(kind="lazy"), "unknown kind"),
        (lambda d: d["miners"][0].update(power=0.2), "sum to 1"),
        (lambda d: d.update(gamma=2.0), "gamma"),
        (lambda d: d.update(repeats=5), "repeats"),
        (lambda d: d.update(rounds=0), "rounds"),
        (lambda d: d.update(rounds=5000, end_condition={"round_budget": 10}), "mutually exclusive"),
        (lambda d: d.update(protocol_params={"pace": 3}), "unknown key"),
        (lambda d: d.update(protocol="nakamoto", protocol_params={"ratio": 2}), "no protocol parameters"),
        (lambda d: d.update(protocol_params={"ratio": 2.5}), "ratio must be an integer"),
        (lambda d: d.update(protocol_params={"ratio": True}), "ratio must be an integer"),
        (lambda d: d.update(protocol_params={"ratio": "3"}), "ratio must be an integer"),
        (lambda d: d.update(protocol="fruitchain", protocol_params={"fruit_ratio": 2.5}),
         "fruit_ratio must be an integer"),
        (lambda d: d.update(protocol="fruitchain", protocol_params={"freshness_window": 1.5}),
         "freshness_window must be an integer"),
        (lambda d: d.update(protocol="fruitchain", protocol_params={"fruit_reward": True}),
         "fruit_reward must be a number"),
        (lambda d: d.update(protocol="fruitchain", protocol_params={"block_reward": "x"}),
         "block_reward must be a number"),
        (lambda d: d.update(rounds=1.5), "rounds.*integer"),
        (lambda d: d.update(seed=1.5), r"integer.*1\.5"),
        (lambda d: d.update(gamma="0.5"), "a number, got '0.5'"),
        (lambda d: d["miners"][0].update(power="x"), "a number.*got 'x'"),
        (lambda d: d["miners"][0].update(id=1.5), r"integer.*1\.5"),
        (lambda d: d.update(protocol="fruitchain", protocol_params={"block_reward": float("nan")}),
         "block_reward must be finite, got nan"),
        (lambda d: d.update(protocol="fruitchain", protocol_params={"fruit_reward": float("inf")}),
         "fruit_reward must be finite, got inf"),
        (lambda d: d.update(protocol="fruitchain", protocol_params={"block_reward": 0, "fruit_reward": 0}),
         "not both be 0"),
        (lambda d: d.update(seed=2**64), "master_seed must be below 2\\*\\*64, got 18446744073709551616"),
        (lambda d: d.update(protocol="fruitchain", protocol_params={"block_reward": 10**400}),
         "block_reward must be finite, got 1000"),
    ],
)
def test_parse_simulation_errors(tmp_path, mutate, needle):
    payload = json.loads(json.dumps(SIM_PAYLOAD))
    mutate(payload)
    path = _write(tmp_path, payload)
    with pytest.raises(ConfigError, match=needle) as err:
        parse_config(path)
    assert str(err.value).count(str(path)) == 1


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda d: d["sweep"].pop("alpha_grid"), "alpha_grid"),
        (lambda d: d["sweep"].update(alpha_grid=[]), "alpha_grid"),
        (lambda d: d["sweep"].update(rivals=[0.4]), "exactly one"),
        (lambda d: d["sweep"].pop("attackers"), "exactly one"),
        (lambda d: d["sweep"].update(pace=1), "unknown key"),
        (lambda d: d.update(end_condition={"round_budget": 5}), "simulate configs"),
        (lambda d: d.update(repeats=0), "repeats"),
        (lambda d: d["sweep"].update(alpha_grid=[0.3, 0.2]), "ascending"),
        (lambda d: d["sweep"].update(alpha_grid=[1e-6], attackers=100_000), "at most 1000 miners"),
        (lambda d: d.update(repeats=2.5), "repeats.*integer"),
        (lambda d: d["sweep"].update(attackers=True), "integer, got True"),
        (lambda d: d["sweep"].update(alpha_grid=["x"]), "alpha_grid.*numbers"),
        (lambda d: d["sweep"].update(attackers=None, rivals=[True]), "rivals.*numbers"),
    ],
)
def test_parse_sweep_errors(tmp_path, mutate, needle):
    payload = json.loads(json.dumps(SWEEP_PAYLOAD))
    mutate(payload)
    path = _write(tmp_path, payload)
    with pytest.raises(ConfigError, match=needle) as err:
        parse_config(path)
    assert str(err.value).count(str(path)) == 1


def test_readme_cli_examples_parse(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    cli_section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    parsed = []
    for i, text in enumerate(re.findall(r"```json\n(.*?)```", cli_section, flags=re.S)):
        path = tmp_path / f"example{i}.json"
        path.write_text(text, encoding="utf-8")
        parsed.append(parse_config(path))
    assert [type(cfg) for cfg in parsed] == [SimulationConfig, SweepConfig]


def test_parse_bad_json_and_missing_file(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config(broken)
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(tmp_path / "absent.json")
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="object"):
        parse_config(lst)


def test_rows_symmetric_alpha_field():
    cfg = symmetric_attacker_config(ProtocolName.NAKAMOTO, 2, 0.2, rounds=500, master_seed=1)
    rows = rows_from_result(run_simulation(cfg))
    assert len(rows) == 3
    assert {r.alpha_per_attacker for r in rows} == {"0.2"}
    assert [r.miner_id for r in rows] == [0, 1, 2]
    assert rows[0].miner_kind == "selfish"
    assert rows[2].miner_kind == "honest"
    assert rows[0].fair_share == 0.2


def test_rows_rival_alpha_field_joins_vector():
    cfg = rival_attacker_config(ProtocolName.NAKAMOTO, 0.1, (0.4,), rounds=500, master_seed=1)
    rows = rows_from_result(run_simulation(cfg))
    assert rows[0].alpha_per_attacker == "0.1|0.4"
    assert rows[0].n_attackers == 2


def _sample_rows(rounds=500):
    cfg = symmetric_attacker_config(ProtocolName.NAKAMOTO, 1, 0.3, rounds=rounds, master_seed=5)
    rows = []
    for i in range(2):
        rows.extend(rows_from_result(run_simulation(cfg, run_index=i)))
    return rows


def test_write_and_read_results_round_trip(tmp_path):
    rows = _sample_rows()
    est = ThresholdEstimate(threshold=0.25, bracket=(0.24, 0.26), ci95=(0.24, 0.26),
                            crossing_confirmed=True)
    manifest = write_results(rows, {("nakamoto", 0.5, 1): est}, tmp_path / "out",
                             master_seed=5, digest="abc123")
    assert read_results(tmp_path / "out" / "results.csv") == rows
    back = read_thresholds(tmp_path / "out" / "thresholds.json")
    assert back == {("nakamoto", 0.5, 1): est}
    assert manifest.master_seed == 5
    assert manifest.config_digest == "abc123"
    assert "results.csv" in manifest.outputs
    assert "manifest.json" in manifest.outputs


_GOOD_ROW = "nakamoto,0.5,1,0.3,0,100,7,0,selfish,0.25,0.3"


@pytest.mark.parametrize("row,error", [
    (_GOOD_ROW + ",extra", "expected 11 fields, got 12"),
    (_GOOD_ROW.rsplit(",", 1)[0], "expected 11 fields, got 10"),
    (_GOOD_ROW.replace("0.25", "x"), "could not convert string to float: 'x'"),
])
def test_read_results_names_the_file_and_line_of_a_bad_row(tmp_path, row, error):
    path = tmp_path / "results.csv"
    path.write_text(f"{HEADER}\n{_GOOD_ROW}\n{row}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: {error}")):
        read_results(path)


_NO_THRESHOLD = {"threshold": None, "bracket": None, "ci95": None, "crossing_confirmed": False}


@pytest.mark.parametrize("text,error", [
    (json.dumps({"nakamoto g=0.5": _NO_THRESHOLD}), "key 'nakamoto g=0.5': "),
    (json.dumps({"nakamoto g=0.5 k=1": []}), "key 'nakamoto g=0.5 k=1': "),
    ("[]", "expected a JSON object, got list"),
    ("{", "Expecting property name"),
])
def test_read_thresholds_names_the_file_of_a_bad_entry(tmp_path, text, error):
    path = tmp_path / "thresholds.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: {error}")):
        read_thresholds(path)


def test_rival_threshold_key_round_trip(tmp_path):
    est = ThresholdEstimate(threshold=None)
    write_results([], {("fruitchain", 0.5, 2, (0.4,)): est}, tmp_path / "o", master_seed=0)
    back = read_thresholds(tmp_path / "o" / "thresholds.json")
    assert back == {("fruitchain", 0.5, 2, (0.4,)): est}


def test_csv_golden_header_and_line_endings(tmp_path):
    write_results(_sample_rows(), {}, tmp_path / "out", master_seed=5)
    for name in ("results.csv", "thresholds.json", "manifest.json"):
        assert b"\r" not in (tmp_path / "out" / name).read_bytes()
    raw = (tmp_path / "out" / "results.csv").read_bytes()
    text = raw.decode("utf-8")
    assert text.splitlines()[0] == HEADER
    assert HEADER == ",".join(RESULT_COLUMNS)


def test_empty_rows_write_header_only(tmp_path):
    write_results([], {}, tmp_path / "out", master_seed=0)
    assert (tmp_path / "out" / "results.csv").read_text(encoding="utf-8") == HEADER + "\n"
    assert json.loads((tmp_path / "out" / "thresholds.json").read_text()) == {}
    assert not (tmp_path / "out" / "plotdata").exists()


def test_plotdata_series_have_fair_share_baseline(tmp_path):
    rows = []
    sweep = SweepConfig(protocol=ProtocolName.NAKAMOTO, alpha_grid=(0.2, 0.3),
                        symmetric_attackers=1, repeats=2, rounds=500, master_seed=5)
    points = run_sweep(sweep, on_result=lambda r: rows.extend(rows_from_result(r)))
    write_results(rows, {sweep.key(): estimate_threshold(points)}, tmp_path / "out", master_seed=5)
    series = tmp_path / "out" / "plotdata" / "nakamoto_g0.5_k1.csv"
    lines = series.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "alpha,mean_revenue,fair_share"
    assert len(lines) == 3  # two grid powers
    first = lines[1].split(",")
    assert first[0] == first[2] == "0.2"


def test_rerun_is_byte_identical(tmp_path):
    rows = _sample_rows()
    write_results(rows, {}, tmp_path / "a", master_seed=5)
    write_results(rows, {}, tmp_path / "b", master_seed=5)
    for name in ("results.csv", "thresholds.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_failed_write_cleans_up_partials(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "plotdata").write_text("in the way", encoding="utf-8")
    est = ThresholdEstimate(threshold=None, points=(RevenuePoint(0.3, (0.28, 0.3)),))
    with pytest.raises(OSError):
        write_results(_sample_rows(), {("nakamoto", 0.5, 1): est}, out, master_seed=5)
    assert not (out / "results.csv").exists()
    assert not (out / "thresholds.json").exists()
    assert (out / "plotdata").read_text(encoding="utf-8") == "in the way"


def test_failed_rerun_keeps_the_earlier_runs_files(tmp_path):
    out = tmp_path / "out"
    write_results([], {}, out)
    earlier = {name: (out / name).read_bytes() for name in ("results.csv", "thresholds.json")}
    (out / "manifest.json").unlink()
    (out / "manifest.json").mkdir()
    with pytest.raises(IsADirectoryError):
        write_results([], {}, out)
    assert {name: (out / name).read_bytes() for name in earlier} == earlier
    assert (out / "manifest.json").is_dir()


def test_describe_digest_shapes():
    sim = symmetric_attacker_config(ProtocolName.NAKAMOTO, 1, 0.3, master_seed=1)
    sweep = SweepConfig(protocol=ProtocolName.NAKAMOTO, alpha_grid=(0.2,),
                        symmetric_attackers=1, master_seed=1)
    d_sim, d_sweep = describe_digest(sim), describe_digest(sweep)
    assert len(d_sim) == 16 and len(d_sweep) == 16
    assert d_sim == describe_digest(sim)
    int(d_sim, 16)
    int(d_sweep, 16)


def test_sweep_digest_does_not_depend_on_spelled_out_defaults():
    grid = dict(alpha_grid=(0.3,), symmetric_attackers=2)
    for proto, params in [(ProtocolName.STRONGCHAIN, StrongchainParams()),
                          (ProtocolName.FRUITCHAIN, FruitchainParams())]:
        implicit = SweepConfig(protocol=proto, **grid)
        explicit = SweepConfig(protocol=proto, protocol_params=params, **grid)
        assert describe_digest(implicit) == describe_digest(explicit)


def test_plotdata_curve_is_the_estimate_points(tmp_path):
    # the curve is attacker 1's mean revenue at each point the estimate used
    points = (RevenuePoint(0.1, (0.0625, 0.1875)), RevenuePoint(0.2, (0.25, 0.5)))
    est = ThresholdEstimate(threshold=0.15, points=points)
    write_results([], {("fruitchain", 0.5, 2, (0.2,)): est}, tmp_path / "o")
    curve = tmp_path / "o" / "plotdata" / "fruitchain_g0.5_k2_rivals_0.2.csv"
    lines = curve.read_text(encoding="utf-8").splitlines()
    assert lines == ["alpha,mean_revenue,fair_share", "0.1,0.125,0.1", "0.2,0.375,0.2"]
    assert sorted(p.name for p in (tmp_path / "o" / "plotdata").iterdir()) == [curve.name]


@pytest.mark.parametrize("protocol", ["strongchain", "nakamoto"])
def test_single_attacker_gamma_default_is_shared(tmp_path, protocol):
    # one default for a config built without gamma, however it is built
    proto = ProtocolName(protocol)
    miners = (MinerSpec(0, 0.3, MinerKind.SELFISH), MinerSpec(1, 0.7, MinerKind.HONEST))
    sim = SimulationConfig(protocol=proto, miners=miners)
    sweep = SweepConfig(protocol=proto, alpha_grid=(0.3,), symmetric_attackers=1)
    parsed_sim = parse_config(_write(tmp_path, dict(SIM_PAYLOAD, protocol=protocol), "a.json"))
    parsed_sweep = parse_config(_write(
        tmp_path, {"protocol": protocol, "sweep": {"alpha_grid": [0.3], "attackers": 1}}, "b.json"
    ))
    built = symmetric_attacker_config(proto, 1, 0.3)
    gammas = [c.gamma for c in (sim, sweep, parsed_sim, parsed_sweep, built)]
    assert gammas == [0.0 if protocol == "strongchain" else 0.5] * 5
    assert sim == parsed_sim == built
    rival = rival_attacker_config(proto, 0.3, (0.1,))
    lengths = [sim.end_condition.round_budget, sweep.rounds, parsed_sweep.rounds,
               built.end_condition.round_budget, rival.end_condition.round_budget]
    assert lengths == [sim.end_condition.round_budget] * 5
