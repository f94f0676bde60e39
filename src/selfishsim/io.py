"""Config files, result tables and run manifests.

A JSON config describes either a single simulation (a ``miners`` list)
or a power sweep (a ``sweep`` block).  Outputs are written under one
directory: ``results.csv`` holds one row per (run, miner) with a fixed
column order, ``thresholds.json`` maps series keys to threshold
estimates, ``plotdata/`` gets one revenue-curve CSV per series with a
fair-share baseline column, and ``manifest.json`` records tool version,
config digest, master seed, timestamp and the files written.  Text
outputs are UTF-8 with LF line endings; a failed write removes whatever
partial outputs it created.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Optional, Sequence, Tuple, Union

from .config import (
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
)
from .engine import SimulationResult
from .experiments import SweepConfig, ThresholdEstimate

RESULT_COLUMNS = (
    "protocol",
    "gamma",
    "n_attackers",
    "alpha_per_attacker",
    "run_index",
    "rounds",
    "seed",
    "miner_id",
    "miner_kind",
    "revenue",
    "fair_share",
)

_TOP_KEYS = {
    "protocol",
    "miners",
    "sweep",
    "gamma",
    "rounds",
    "repeats",
    "seed",
    "protocol_params",
    "end_condition",
}


@dataclass(frozen=True)
class ResultRow:
    """One results.csv line: one miner's outcome in one run.

    ``alpha_per_attacker`` is the shared attacker power, or the full
    attacker power vector joined with ``|`` when powers differ.
    """

    protocol: str
    gamma: float
    n_attackers: int
    alpha_per_attacker: str
    run_index: int
    rounds: int
    seed: int
    miner_id: int
    miner_kind: str
    revenue: float
    fair_share: float


@dataclass(frozen=True)
class RunManifest:
    """What a write_results call produced, recorded as manifest.json."""

    tool_version: str
    config_digest: str
    master_seed: int
    timestamp: str
    outputs: Tuple[str, ...]


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form, stable across runs."""
    return repr(float(x))


def rows_from_result(result: SimulationResult) -> list:
    """One ResultRow per miner, in miner-id order."""
    cfg = result.config
    selfish = cfg.selfish_ids
    powers = [cfg.miners[i].power for i in selfish]
    if powers and all(p == powers[0] for p in powers):
        alpha = _fmt(powers[0])
    else:
        alpha = "|".join(_fmt(p) for p in powers)
    rows = []
    for m in cfg.miners:
        rows.append(
            ResultRow(
                protocol=cfg.protocol.value,
                gamma=cfg.gamma,
                n_attackers=len(selfish),
                alpha_per_attacker=alpha,
                run_index=result.run_index,
                rounds=result.rounds,
                seed=result.run_seed,
                miner_id=m.id,
                miner_kind=m.kind.value,
                revenue=result.revenues[m.id],
                fair_share=m.power,
            )
        )
    return rows


def describe_digest(cfg: Union[SimulationConfig, SweepConfig, list]) -> str:
    """Hex digest identifying a config for the run manifest.

    Simulation configs reuse the seed-derivation digest; sweeps, and the
    list of sweeps a suite runs, hash their canonical field repr, which
    covers the grid and every knob.
    """
    if isinstance(cfg, SimulationConfig):
        return f"{config_digest(cfg):016x}"
    return hashlib.sha256(repr(cfg).encode("utf-8")).hexdigest()[:16]


# -- config parsing ----------------------------------------------------------


def _err(path, msg: str) -> ConfigError:
    return ConfigError(f"{path}: {msg}")


def _require_int(path, obj: dict, key: str, minimum: int) -> Optional[int]:
    if key not in obj or obj[key] is None:
        return None
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise _err(path, f"key '{key}': expected an integer, got {v!r}")
    if v < minimum:
        raise _err(path, f"key '{key}': must be >= {minimum}, got {v}")
    return v


def _parse_protocol(path, raw: dict) -> ProtocolName:
    if "protocol" not in raw:
        raise _err(path, "missing required key 'protocol'")
    try:
        return ProtocolName(raw["protocol"])
    except ValueError:
        names = ", ".join(p.value for p in ProtocolName)
        raise _err(
            path, f"key 'protocol': unknown protocol {raw['protocol']!r} (expected one of {names})"
        ) from None


def _parse_params(path, proto: ProtocolName, raw: dict):
    if "protocol_params" not in raw or raw["protocol_params"] is None:
        return None
    d = raw["protocol_params"]
    if not isinstance(d, dict):
        raise _err(path, "key 'protocol_params': expected an object")
    if proto is ProtocolName.NAKAMOTO:
        raise _err(path, "key 'protocol_params': nakamoto takes no protocol parameters")
    allowed = (
        {"ratio"}
        if proto is ProtocolName.STRONGCHAIN
        else {"fruit_ratio", "freshness_window", "block_reward", "fruit_reward"}
    )
    unknown = set(d) - allowed
    if unknown:
        raise _err(
            path,
            f"key 'protocol_params': unknown key {sorted(unknown)[0]!r} "
            f"(allowed: {', '.join(sorted(allowed))})",
        )
    try:
        if proto is ProtocolName.STRONGCHAIN:
            return StrongchainParams(**d)
        return FruitchainParams(**d)
    except (ConfigError, TypeError, ValueError) as e:
        raise _err(path, f"key 'protocol_params': {e}") from None


def _parse_gamma(path, raw: dict, proto: ProtocolName, n_selfish: int) -> float:
    if "gamma" not in raw or raw["gamma"] is None:
        return default_gamma(proto, n_selfish)
    g = raw["gamma"]
    if isinstance(g, bool) or not isinstance(g, (int, float)):
        raise _err(path, f"key 'gamma': expected a number, got {g!r}")
    if not 0.0 <= g <= 1.0:
        raise _err(path, f"key 'gamma': must lie in [0, 1], got {g}")
    return float(g)


def _parse_miners(path, raw_miners) -> list:
    if not isinstance(raw_miners, list) or not raw_miners:
        raise _err(path, "key 'miners': expected a non-empty list of miner objects")
    miners = []
    for i, m in enumerate(raw_miners):
        if not isinstance(m, dict):
            raise _err(path, f"key 'miners': entry {i} is not an object")
        unknown = set(m) - {"id", "power", "kind"}
        if unknown:
            raise _err(path, f"key 'miners': entry {i} has unknown key {sorted(unknown)[0]!r}")
        if "power" not in m:
            raise _err(path, f"key 'miners': entry {i} is missing 'power'")
        if "kind" not in m:
            raise _err(path, f"key 'miners': entry {i} is missing 'kind'")
        power = m["power"]
        if isinstance(power, bool) or not isinstance(power, (int, float)):
            raise _err(path, f"key 'miners': entry {i}: 'power' must be a number")
        if not 0.0 < power <= 1.0:
            raise _err(path, f"key 'miners': entry {i}: 'power' must lie in (0, 1]")
        try:
            kind = MinerKind(m["kind"])
        except ValueError:
            raise _err(
                path,
                f"key 'miners': entry {i}: unknown kind {m['kind']!r} "
                f"(expected 'honest' or 'selfish')",
            ) from None
        mid = m.get("id", i)
        if isinstance(mid, bool) or not isinstance(mid, int):
            raise _err(path, f"key 'miners': entry {i}: 'id' must be an integer")
        miners.append(MinerSpec(id=mid, power=float(power), kind=kind))
    total = sum(m.power for m in miners)
    if abs(total - 1.0) > 1e-9:
        raise _err(path, f"key 'miners': powers must sum to 1, got {total}")
    return miners


def _parse_end_condition(path, raw: dict) -> EndCondition:
    has_rounds = raw.get("rounds") is not None
    has_end = raw.get("end_condition") is not None
    if has_rounds and has_end:
        raise _err(path, "keys 'rounds' and 'end_condition' are mutually exclusive")
    if has_end:
        ec = raw["end_condition"]
        if not isinstance(ec, dict):
            raise _err(path, "key 'end_condition': expected an object")
        unknown = set(ec) - {"round_budget", "target_height"}
        if unknown:
            raise _err(path, f"key 'end_condition': unknown key {sorted(unknown)[0]!r}")
        budget = _require_int(path, ec, "round_budget", 1)
        target = _require_int(path, ec, "target_height", 1)
        try:
            return EndCondition(round_budget=budget, target_height=target)
        except ConfigError as e:
            raise _err(path, f"key 'end_condition': {e}") from None
    rounds = _require_int(path, raw, "rounds", 1)
    return EndCondition(round_budget=rounds if rounds is not None else 100_000)


def _parse_sweep(path, proto, raw: dict, seed: int):
    sw = raw["sweep"]
    if not isinstance(sw, dict):
        raise _err(path, "key 'sweep': expected an object")
    unknown = set(sw) - {"alpha_grid", "attackers", "rivals"}
    if unknown:
        raise _err(path, f"key 'sweep': unknown key {sorted(unknown)[0]!r}")
    if "alpha_grid" not in sw:
        raise _err(path, "key 'sweep': missing required key 'alpha_grid'")
    grid = sw["alpha_grid"]
    if not isinstance(grid, list) or not grid:
        raise _err(path, "key 'sweep': 'alpha_grid' must be a non-empty list of numbers")
    if any(isinstance(a, bool) or not isinstance(a, (int, float)) for a in grid):
        raise _err(path, "key 'sweep': 'alpha_grid' must be a non-empty list of numbers")
    has_k = sw.get("attackers") is not None
    has_r = sw.get("rivals") is not None
    if has_k == has_r:
        raise _err(path, "key 'sweep': exactly one of 'attackers' and 'rivals' is required")
    if raw.get("end_condition") is not None:
        raise _err(path, "key 'end_condition': only applies to simulate configs (use 'rounds')")
    if has_k:
        k = _require_int(path, sw, "attackers", 1)
        rivals = None
        n_selfish = k
    else:
        rv = sw["rivals"]
        if not isinstance(rv, list) or not rv:
            raise _err(path, "key 'sweep': 'rivals' must be a non-empty list of numbers")
        if any(isinstance(p, bool) or not isinstance(p, (int, float)) for p in rv):
            raise _err(path, "key 'sweep': 'rivals' must be a non-empty list of numbers")
        k = None
        rivals = tuple(float(p) for p in rv)
        n_selfish = 1 + len(rivals)
    gamma = _parse_gamma(path, raw, proto, n_selfish)
    repeats = _require_int(path, raw, "repeats", 1)
    rounds = _require_int(path, raw, "rounds", 1)
    try:
        return SweepConfig(
            protocol=proto,
            alpha_grid=tuple(float(a) for a in grid),
            symmetric_attackers=k,
            fixed_rivals=rivals,
            gamma=gamma,
            repeats=repeats if repeats is not None else 5,
            rounds=rounds if rounds is not None else 100_000,
            master_seed=seed,
            protocol_params=_parse_params(path, proto, raw),
        )
    except ConfigError as e:
        raise _err(path, f"key 'sweep': {e}") from None


def parse_config(path) -> Union[SimulationConfig, SweepConfig]:
    """Load a JSON config file into a simulation or sweep config.

    Exactly one of ``miners`` (single simulation) and ``sweep`` (power
    grid) must be present.  Omitted knobs fall back to the documented
    defaults: 100000 rounds, 5 repeats, seed 0, protocol-default
    parameters, and the usual tie-break rate for the scenario shape.
    """
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as e:
        raise _err(p, f"cannot read config: {e}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise _err(p, f"invalid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise _err(p, "top level must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise _err(p, f"unknown key {sorted(unknown)[0]!r}")
    proto = _parse_protocol(p, raw)
    has_miners = raw.get("miners") is not None
    has_sweep = raw.get("sweep") is not None
    if has_miners == has_sweep:
        raise _err(p, "exactly one of keys 'miners' and 'sweep' is required")
    seed = _require_int(p, raw, "seed", 0)
    seed = seed if seed is not None else 0

    if has_sweep:
        return _parse_sweep(p, proto, raw, seed)

    if raw.get("repeats") is not None:
        raise _err(p, "key 'repeats': only applies to sweep configs")
    miners = _parse_miners(p, raw["miners"])
    n_selfish = sum(1 for m in miners if m.kind is MinerKind.SELFISH)
    gamma = _parse_gamma(p, raw, proto, n_selfish)
    try:
        return SimulationConfig(
            protocol=proto,
            miners=tuple(miners),
            gamma=gamma,
            master_seed=seed,
            end_condition=_parse_end_condition(p, raw),
            protocol_params=_parse_params(p, proto, raw),
        )
    except ConfigError as e:
        raise _err(p, str(e)) from None


# -- output writing ----------------------------------------------------------


def _row_values(row: ResultRow) -> list:
    return [
        row.protocol,
        _fmt(row.gamma),
        str(row.n_attackers),
        row.alpha_per_attacker,
        str(row.run_index),
        str(row.rounds),
        str(row.seed),
        str(row.miner_id),
        row.miner_kind,
        _fmt(row.revenue),
        _fmt(row.fair_share),
    ]


def _threshold_key(key: tuple) -> str:
    proto, gamma, k = key[0], key[1], key[2]
    proto = proto.value if isinstance(proto, ProtocolName) else str(proto)
    name = f"{proto} g={_fmt(gamma)} k={int(k)}"
    if len(key) > 3 and key[3]:
        name += f" rivals={','.join(_fmt(r) for r in key[3])}"
    return name


def _threshold_entry(est: ThresholdEstimate) -> dict:
    return {
        "threshold": est.threshold,
        "bracket": list(est.bracket) if est.bracket else None,
        "ci95": list(est.ci95) if est.ci95 else None,
        "crossing_confirmed": est.crossing_confirmed,
    }


def _series_splits(rows: Sequence[ResultRow]) -> dict:
    """Group attacker-1 rows into plot series.

    A series fixes protocol, gamma, attacker count and the rival power
    tail; attacker 1's own power is the x axis.  Returns
    {series name: {alpha: [revenues]}}.
    """
    selfish_ids: dict = {}
    for row in rows:
        if row.miner_kind != MinerKind.SELFISH.value:
            continue
        parts = row.alpha_per_attacker.split("|")
        tail = tuple(parts[1:])
        skey = (row.protocol, row.gamma, row.n_attackers, tail)
        cur = selfish_ids.get(skey)
        if cur is None or row.miner_id < cur:
            selfish_ids[skey] = row.miner_id
    series: dict = {}
    for row in rows:
        if row.miner_kind != MinerKind.SELFISH.value:
            continue
        parts = row.alpha_per_attacker.split("|")
        tail = tuple(parts[1:])
        skey = (row.protocol, row.gamma, row.n_attackers, tail)
        if row.miner_id != selfish_ids[skey]:
            continue
        name = f"{row.protocol}_g{_fmt(row.gamma)}_k{row.n_attackers}"
        if tail:
            name += "_rivals_" + "-".join(tail)
        series.setdefault(name, {}).setdefault(float(parts[0]), []).append(row.revenue)
    return series


def write_results(
    rows: Sequence[ResultRow],
    thresholds: Mapping[tuple, ThresholdEstimate],
    out_dir,
    master_seed: int = 0,
    digest: str = "",
    tool_version: Optional[str] = None,
) -> RunManifest:
    """Write results.csv, thresholds.json, plotdata/ and manifest.json.

    Empty inputs still produce a header-only CSV and an empty threshold
    map.  If any write fails, files created by this call are removed
    before the error propagates.
    """
    from . import __version__

    out = Path(out_dir)
    created: list = []
    made_dirs: list = []

    def _creating(p: Path) -> Path:
        created.append(p)
        return p

    try:
        if not out.exists():
            out.mkdir(parents=True)
            made_dirs.append(out)

        csv_path = _creating(out / "results.csv")
        with csv_path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(RESULT_COLUMNS)
            for row in rows:
                writer.writerow(_row_values(row))

        thr_path = _creating(out / "thresholds.json")
        payload = {_threshold_key(k): _threshold_entry(v) for k, v in thresholds.items()}
        thr_path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

        outputs = ["results.csv", "thresholds.json"]
        series = _series_splits(rows)
        if series:
            plot_dir = out / "plotdata"
            if not plot_dir.exists():
                plot_dir.mkdir()
                made_dirs.append(plot_dir)
            for name in sorted(series):
                fpath = _creating(plot_dir / f"{name}.csv")
                with fpath.open("w", encoding="utf-8", newline="") as fh:
                    writer = csv.writer(fh, lineterminator="\n")
                    writer.writerow(("alpha", "mean_revenue", "fair_share"))
                    for alpha in sorted(series[name]):
                        revs = series[name][alpha]
                        writer.writerow(
                            (_fmt(alpha), _fmt(sum(revs) / len(revs)), _fmt(alpha))
                        )
                outputs.append(f"plotdata/{name}.csv")

        if tool_version is None:
            tool_version = __version__
        manifest = RunManifest(
            tool_version=tool_version,
            config_digest=digest,
            master_seed=master_seed,
            timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            outputs=tuple(outputs + ["manifest.json"]),
        )
        man_path = _creating(out / "manifest.json")
        man_path.write_text(
            json.dumps(
                {
                    "tool_version": manifest.tool_version,
                    "config_digest": manifest.config_digest,
                    "master_seed": manifest.master_seed,
                    "timestamp": manifest.timestamp,
                    "outputs": list(manifest.outputs),
                },
                indent=2,
            )
            + "\n",
            encoding="utf-8",
        )
        return manifest
    except BaseException:
        for p in created:
            try:
                p.unlink()
            except OSError:
                pass
        for d in reversed(made_dirs):
            try:
                d.rmdir()
            except OSError:
                pass
        raise


def read_results(path) -> list:
    """Parse a results.csv back into ResultRow objects."""
    p = Path(path)
    rows = []
    with p.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if tuple(header or ()) != RESULT_COLUMNS:
            raise ValueError(f"{p}: unexpected results.csv header: {header}")
        for rec in reader:
            rows.append(
                ResultRow(
                    protocol=rec[0],
                    gamma=float(rec[1]),
                    n_attackers=int(rec[2]),
                    alpha_per_attacker=rec[3],
                    run_index=int(rec[4]),
                    rounds=int(rec[5]),
                    seed=int(rec[6]),
                    miner_id=int(rec[7]),
                    miner_kind=rec[8],
                    revenue=float(rec[9]),
                    fair_share=float(rec[10]),
                )
            )
    return rows


def read_thresholds(path) -> dict:
    """Parse a thresholds.json back into {key tuple: ThresholdEstimate}."""
    p = Path(path)
    raw = json.loads(p.read_text(encoding="utf-8"))
    out = {}
    for name, entry in raw.items():
        fields = name.split(" ")
        proto = fields[0]
        gamma = float(fields[1].removeprefix("g="))
        k = int(fields[2].removeprefix("k="))
        key: tuple = (proto, gamma, k)
        if len(fields) > 3:
            rivals = tuple(float(x) for x in fields[3].removeprefix("rivals=").split(","))
            key = (proto, gamma, k, rivals)
        out[key] = ThresholdEstimate(
            threshold=entry["threshold"],
            bracket=tuple(entry["bracket"]) if entry["bracket"] else None,
            ci95=tuple(entry["ci95"]) if entry["ci95"] else None,
            crossing_confirmed=entry["crossing_confirmed"],
        )
    return out
