"""Config files, result tables and run manifests.

A JSON config describes either a single simulation (a ``miners`` list)
or a power sweep (a ``sweep`` block).  The parser checks only the JSON
shape: known and required keys, value types, enum names, and which keys
go together.  Ranges and cross-field rules (powers, gamma, grid order,
protocol parameters) belong to the config classes it builds, and every
error names the config file once.

Outputs are written under one directory: ``results.csv`` holds one row
per (run, miner) with the ``ResultRow`` fields as columns,
``thresholds.json`` maps series keys to threshold estimates,
``plotdata/`` gets one revenue-curve CSV per series with a fair-share
baseline column, and ``manifest.json`` records the ``RunManifest``
fields: tool version, config digest, master seed, timestamp and the
files written.  Text outputs are UTF-8 with LF line endings; a failed
write removes whatever partial outputs it created.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Sequence, Tuple, Union

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
    is_int,
    is_number,
)
from .engine import SimulationResult
from .experiments import SweepConfig, ThresholdEstimate

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


# results.csv columns are the ResultRow fields in order; each column's
# (format, parse) pair follows the field's type.
_CODECS = {"str": (str, str), "int": (str, int), "float": (_fmt, float)}
RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow))
_COLUMN_CODECS = tuple(_CODECS[f.type] for f in fields(ResultRow))


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

_TOP_KEYS = (
    "protocol",
    "miners",
    "sweep",
    "gamma",
    "rounds",
    "repeats",
    "seed",
    "protocol_params",
    "end_condition",
)
_PARAMS = {ProtocolName.STRONGCHAIN: StrongchainParams, ProtocolName.FRUITCHAIN: FruitchainParams}

_INT = ("an integer", is_int)
_NUMBER = ("a number", is_number)
_NUMBERS = ("a list of numbers", lambda v: isinstance(v, list) and all(map(is_number, v)))
_OBJECT = ("an object", lambda v: isinstance(v, dict))
_OBJECTS = (
    "a list of objects",
    lambda v: isinstance(v, list) and all(isinstance(x, dict) for x in v),
)


def _value(obj: dict, key: str, kind, where: str = "", default=None, required: bool = False):
    """``obj[key]`` checked against a JSON value kind.

    An optional key that is absent or null gives ``default``; a required
    key must be present, and null fails its kind.
    """
    if required and key not in obj:
        raise ConfigError(f"{where}missing required key '{key}'")
    v = obj.get(key)
    if v is None and not required:
        return default
    what, ok = kind
    if not ok(v):
        raise ConfigError(f"{where}key '{key}': expected {what}, got {v!r}")
    return v


def _enum(cls, obj: dict, key: str, where: str = ""):
    if key not in obj:
        raise ConfigError(f"{where}missing required key '{key}'")
    try:
        return cls(obj[key])
    except ValueError:
        names = ", ".join(e.value for e in cls)
        raise ConfigError(
            f"{where}key '{key}': unknown {key} {obj[key]!r} (expected one of {names})"
        ) from None


def _known(obj: dict, allowed, where: str = "") -> None:
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(
            f"{where}unknown key {sorted(unknown)[0]!r} (allowed: {', '.join(sorted(allowed))})"
        )


def _build(where: str, cls, **kwargs):
    """``cls(**kwargs)``, naming the config key its ConfigError comes from."""
    try:
        return cls(**kwargs)
    except ConfigError as e:
        raise ConfigError(f"{where}{e}") from None


def _parse_params(proto: ProtocolName, raw: dict):
    d = _value(raw, "protocol_params", _OBJECT)
    if d is None:
        return None
    where = "key 'protocol_params': "
    cls = _PARAMS.get(proto)
    if cls is None:
        raise ConfigError(f"{where}nakamoto takes no protocol parameters")
    _known(d, [f.name for f in fields(cls)], where)
    return _build(where, cls, **d)


def _parse_gamma(raw: dict, proto: ProtocolName, n_selfish: int) -> float:
    g = _value(raw, "gamma", _NUMBER)
    return default_gamma(proto, n_selfish) if g is None else float(g)


def _parse_miners(raw: dict) -> tuple:
    miners = []
    for i, m in enumerate(_value(raw, "miners", _OBJECTS)):
        where = f"key 'miners': entry {i}: "
        _known(m, ("id", "power", "kind"), where)
        power = _value(m, "power", _NUMBER, where, required=True)
        kind = _enum(MinerKind, m, "kind", where)
        mid = _value(m, "id", _INT, where, required=True) if "id" in m else i
        miners.append(MinerSpec(id=mid, power=float(power), kind=kind))
    return tuple(miners)


def _parse_end_condition(raw: dict) -> EndCondition:
    rounds = _value(raw, "rounds", _INT)
    ec = _value(raw, "end_condition", _OBJECT)
    if ec is None:
        budget = 100_000 if rounds is None else rounds
        return _build("key 'rounds': ", EndCondition, round_budget=budget)
    if rounds is not None:
        raise ConfigError("keys 'rounds' and 'end_condition' are mutually exclusive")
    where = "key 'end_condition': "
    _known(ec, ("round_budget", "target_height"), where)
    return _build(
        where,
        EndCondition,
        round_budget=_value(ec, "round_budget", _INT, where),
        target_height=_value(ec, "target_height", _INT, where),
    )


def _parse_sweep(proto: ProtocolName, raw: dict, seed: int) -> SweepConfig:
    if raw.get("end_condition") is not None:
        raise ConfigError("key 'end_condition': only applies to simulate configs (use 'rounds')")
    where = "key 'sweep': "
    sw = _value(raw, "sweep", _OBJECT)
    _known(sw, ("alpha_grid", "attackers", "rivals"), where)
    grid = _value(sw, "alpha_grid", _NUMBERS, where, required=True)
    k = _value(sw, "attackers", _INT, where)
    rivals = _value(sw, "rivals", _NUMBERS, where)
    return SweepConfig(
        protocol=proto,
        alpha_grid=tuple(grid),
        symmetric_attackers=k,
        fixed_rivals=None if rivals is None else tuple(rivals),
        gamma=_parse_gamma(raw, proto, k if k is not None else 1 + len(rivals or ())),
        repeats=_value(raw, "repeats", _INT, default=5),
        rounds=_value(raw, "rounds", _INT, default=100_000),
        master_seed=seed,
        protocol_params=_parse_params(proto, raw),
    )


def _parse(raw) -> Union[SimulationConfig, SweepConfig]:
    if not isinstance(raw, dict):
        raise ConfigError("top level must be a JSON object")
    _known(raw, _TOP_KEYS)
    proto = _enum(ProtocolName, raw, "protocol")
    if (raw.get("miners") is None) == (raw.get("sweep") is None):
        raise ConfigError("exactly one of keys 'miners' and 'sweep' is required")
    seed = _value(raw, "seed", _INT, default=0)
    if raw.get("sweep") is not None:
        return _parse_sweep(proto, raw, seed)
    if raw.get("repeats") is not None:
        raise ConfigError("key 'repeats': only applies to sweep configs")
    miners = _parse_miners(raw)
    return SimulationConfig(
        protocol=proto,
        miners=miners,
        gamma=_parse_gamma(raw, proto, sum(m.kind is MinerKind.SELFISH for m in miners)),
        master_seed=seed,
        end_condition=_parse_end_condition(raw),
        protocol_params=_parse_params(proto, raw),
    )


def parse_config(path) -> Union[SimulationConfig, SweepConfig]:
    """Load a JSON config file into a simulation or sweep config.

    Exactly one of ``miners`` (single simulation) and ``sweep`` (power
    grid) must be present.  Omitted knobs fall back to the documented
    defaults: 100000 rounds, 5 repeats, seed 0, protocol-default
    parameters, and the usual tie-break rate for the scenario shape.
    Every error is a ConfigError whose message names the file once.
    """
    p = Path(path)
    try:
        try:
            raw = json.loads(p.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read config: {e}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid JSON: {e}") from None
        return _parse(raw)
    except ConfigError as e:
        raise ConfigError(f"{p}: {e}") from None


# -- output writing ----------------------------------------------------------


def _row_values(row: ResultRow) -> list:
    return [fmt(getattr(row, c)) for c, (fmt, _) in zip(RESULT_COLUMNS, _COLUMN_CODECS)]


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
    selfish = []  # (row, series key, attacker-1 power)
    first_id: dict = {}
    for row in rows:
        if row.miner_kind != MinerKind.SELFISH.value:
            continue
        alpha, *tail = row.alpha_per_attacker.split("|")
        skey = (row.protocol, row.gamma, row.n_attackers, tuple(tail))
        selfish.append((row, skey, alpha))
        first_id[skey] = min(first_id.get(skey, row.miner_id), row.miner_id)
    series: dict = {}
    for row, skey, alpha in selfish:
        if row.miner_id != first_id[skey]:
            continue
        name = f"{row.protocol}_g{_fmt(row.gamma)}_k{row.n_attackers}"
        if skey[3]:
            name += "_rivals_" + "-".join(skey[3])
        series.setdefault(name, {}).setdefault(float(alpha), []).append(row.revenue)
    return series


def write_results(
    rows: Sequence[ResultRow],
    thresholds: Mapping[tuple, ThresholdEstimate],
    out_dir,
    master_seed: int = 0,
    digest: str = "",
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

        manifest = RunManifest(
            tool_version=__version__,
            config_digest=digest,
            master_seed=master_seed,
            timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            outputs=tuple(outputs + ["manifest.json"]),
        )
        man_path = _creating(out / "manifest.json")
        man_path.write_text(json.dumps(asdict(manifest), indent=2) + "\n", encoding="utf-8")
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
            rows.append(ResultRow(*(parse(v) for v, (_, parse) in zip(rec, _COLUMN_CODECS))))
    return rows


def read_thresholds(path) -> dict:
    """Parse a thresholds.json back into {key tuple: ThresholdEstimate}."""
    p = Path(path)
    raw = json.loads(p.read_text(encoding="utf-8"))
    out = {}
    for name, entry in raw.items():
        parts = name.split(" ")
        proto = parts[0]
        gamma = float(parts[1].removeprefix("g="))
        k = int(parts[2].removeprefix("k="))
        key: tuple = (proto, gamma, k)
        if len(parts) > 3:
            rivals = tuple(float(x) for x in parts[3].removeprefix("rivals=").split(","))
            key = (proto, gamma, k, rivals)
        out[key] = ThresholdEstimate(
            threshold=entry["threshold"],
            bracket=tuple(entry["bracket"]) if entry["bracket"] else None,
            ci95=tuple(entry["ci95"]) if entry["ci95"] else None,
            crossing_confirmed=entry["crossing_confirmed"],
        )
    return out
