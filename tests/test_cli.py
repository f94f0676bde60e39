"""CLI verbs end to end: output files, exit codes, stderr shape."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

import selfishsim.cli as cli
from selfishsim.config import ProtocolName
from selfishsim.experiments import SweepConfig
from selfishsim.suite import ThresholdCell


def _cfg_file(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return str(p)


SIM = {
    "protocol": "nakamoto",
    "miners": [{"power": 0.3, "kind": "selfish"}, {"power": 0.7, "kind": "honest"}],
    "rounds": 2000,
    "seed": 7,
}

SWEEP = {
    "protocol": "nakamoto",
    "sweep": {"alpha_grid": [0.2, 0.25, 0.3], "attackers": 1},
    "rounds": 2000,
    "repeats": 2,
    "seed": 3,
}


def test_simulate_prints_table(tmp_path, capsys):
    rc = cli.main(["simulate", "--config", _cfg_file(tmp_path, SIM)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "protocol=nakamoto" in out
    assert "selfish" in out and "honest" in out


def test_simulate_writes_results(tmp_path):
    out_dir = tmp_path / "res"
    rc = cli.main([
        "simulate", "--config", _cfg_file(tmp_path, SIM), "--out", str(out_dir),
    ])
    assert rc == 0
    lines = (out_dir / "results.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3  # header + two miners
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["master_seed"] == 7
    assert manifest["tool_version"]
    assert not (out_dir / "plotdata").exists()  # a curve needs a sweep


def test_simulate_seed_override_changes_outcome(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, SIM)
    cli.main(["simulate", "--config", cfg])
    base = capsys.readouterr().out
    cli.main(["simulate", "--config", cfg, "--seed", "8"])
    other = capsys.readouterr().out
    assert base != other
    assert "seed=8" in other


def test_sweep_reports_threshold_and_writes_outputs(tmp_path, capsys):
    out_dir = tmp_path / "sw"
    rc = cli.main([
        "sweep", "--config", _cfg_file(tmp_path, SWEEP), "--out", str(out_dir),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "threshold:" in out
    thresholds = json.loads((out_dir / "thresholds.json").read_text())
    assert list(thresholds) == ["nakamoto g=0.5 k=1"]
    assert (out_dir / "plotdata" / "nakamoto_g0.5_k1.csv").exists()


def test_rival_sweep_writes_one_rivals_curve(tmp_path):
    # attacker 1 at the rival's own power is still a point of the rivals curve
    payload = dict(SWEEP, sweep={"alpha_grid": [0.1, 0.2, 0.3], "rivals": [0.2]})
    out_dir = tmp_path / "rv"
    assert cli.main(["sweep", "--config", _cfg_file(tmp_path, payload), "--out", str(out_dir)]) == 0
    plots = sorted(p.name for p in (out_dir / "plotdata").iterdir())
    assert plots == ["nakamoto_g0.5_k2_rivals_0.2.csv"]
    lines = (out_dir / "plotdata" / plots[0]).read_text(encoding="utf-8").splitlines()
    assert "0.2" in [line.split(",")[0] for line in lines[1:]]


def test_sweep_jobs_do_not_change_outputs(tmp_path):
    cfg = _cfg_file(tmp_path, SWEEP)
    cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "one")])
    cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "two"), "--jobs", "3"])
    for name in ("results.csv", "thresholds.json"):
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b


def test_jobs_clamp_to_tasks_and_cpus():
    # computed, never spawned: a pool starts every worker it is given
    assert cli._workers(10**6, 17) <= (os.cpu_count() or 1)
    assert cli._workers(3, 1) == 1
    with pytest.raises(cli.ConfigError):
        cli._workers(0, 5)


def test_jobs_below_one_is_a_config_error(tmp_path, capsys):
    rc = cli.main(["sweep", "--config", _cfg_file(tmp_path, SWEEP), "--jobs", "0"])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_verb_config_mismatch_is_a_usage_error(tmp_path, capsys):
    rc = cli.main(["simulate", "--config", _cfg_file(tmp_path, SWEEP)])
    err = capsys.readouterr().err
    assert rc == 2
    msg = json.loads(err)
    assert msg["error"] == "config"
    rc = cli.main(["sweep", "--config", _cfg_file(tmp_path, SIM)])
    assert rc == 2


def test_one_point_sweep_is_a_config_error_before_any_run(tmp_path, capsys):
    payload = dict(SWEEP, sweep={"alpha_grid": [0.3], "attackers": 1})
    out_dir = tmp_path / "one"
    rc = cli.main(["sweep", "--config", _cfg_file(tmp_path, payload), "--out", str(out_dir)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not out_dir.exists()


def test_integer_power_writes_the_same_results(tmp_path):
    outs = []
    for power in (1, 1.0):
        payload = dict(SIM, miners=[{"power": power, "kind": "honest"}])
        outs.append(tmp_path / f"p{power}")
        cfg = _cfg_file(tmp_path, payload, name=f"p{power}.json")
        assert cli.main(["simulate", "--config", cfg, "--out", str(outs[-1])]) == 0
    a, b = ((out / "results.csv").read_bytes() for out in outs)
    assert a == b


def test_config_error_reports_json_on_stderr(tmp_path, capsys):
    rc = cli.main(["simulate", "--config", str(tmp_path / "absent.json")])
    err = capsys.readouterr().err
    assert rc == 2
    msg = json.loads(err)
    assert msg["error"] == "config"
    assert "absent.json" in msg["message"]


def _fake_cells(band):
    sweep = SweepConfig(
        protocol=ProtocolName.NAKAMOTO,
        alpha_grid=(0.2, 0.25, 0.3),
        symmetric_attackers=1,
        repeats=2,
        rounds=2000,
        master_seed=3,
    )
    return [ThresholdCell(name="probe", sweep=sweep, band=band)]


def test_threshold_suite_pass_and_fail(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "table_cells", lambda master_seed: _fake_cells((0.2, 0.3)))
    rc = cli.main(["threshold-suite", "--out", str(tmp_path / "suite")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "1/1 cells in band" in out
    assert (tmp_path / "suite" / "thresholds.json").exists()

    monkeypatch.setattr(cli, "table_cells", lambda master_seed: _fake_cells((0.29, 0.3)))
    rc = cli.main(["threshold-suite"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "OUT OF BAND" in captured.out
    assert json.loads(captured.err)["error"] == "band-mismatch"


def test_threshold_suite_jobs_do_not_change_outputs(tmp_path, monkeypatch):
    def two_cells(master_seed):
        (cell,) = _fake_cells((0.2, 0.3))
        g0 = dataclasses.replace(cell, name="probe-g0", sweep=dataclasses.replace(cell.sweep, gamma=0.0))
        return [cell, g0]

    monkeypatch.setattr(cli, "table_cells", two_cells)
    cli.main(["threshold-suite", "--out", str(tmp_path / "one")])
    cli.main(["threshold-suite", "--out", str(tmp_path / "two"), "--jobs", "2"])
    for name in ("results.csv", "thresholds.json"):
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b


def test_module_entry_point_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "selfishsim.cli", "simulate", "--config", _cfg_file(tmp_path, SIM)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "protocol=nakamoto" in proc.stdout
