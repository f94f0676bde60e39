"""Config files, result tables and run manifests.

A JSON config describes either a single simulation (a ``miners`` list)
or a power sweep (a ``sweep`` block).  The parser checks only the JSON
shape: known and required keys, objects and lists, enum names, and
which keys go together.  It passes on only the keys a file sets, so an
omitted knob takes the config class's own default; every value's type
and range, every default and every cross-field rule (powers, gamma,
grid order, protocol parameters) belong to the config classes it
builds, and every error names the config file once.

Outputs are written under one directory: ``results.csv`` holds one row
per (run, miner) with the ``ResultRow`` fields as columns,
``thresholds.json`` maps series keys (``SweepConfig.key()``) to
threshold estimates, ``plotdata/`` gets one CSV per threshold estimate
holding the attacker-1 revenue curve it was computed from, with a
fair-share baseline column, and ``manifest.json`` records the
``RunManifest`` fields: tool version, config digest, master seed,
timestamp and the files written.  Text outputs are UTF-8 with LF line
endings; a failed write removes whatever partial outputs it created.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from io import StringIO
from pathlib import Path
from typing import Mapping, Optional, Sequence, Tuple, Union

from .config import (
    PROTOCOL_PARAMS,
    ConfigError,
    EndCondition,
    MinerKind,
    MinerSpec,
    ProtocolName,
    SimulationConfig,
    config_digest,
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

_OBJECT = ("an object", lambda v: isinstance(v, dict))
_LIST = ("a list", lambda v: isinstance(v, list))
_OBJECTS = (
    "a list of objects",
    lambda v: isinstance(v, list) and all(isinstance(x, dict) for x in v),
)


def _value(obj: dict, key: str, kind=None, where: str = "", required: bool = False):
    """``obj[key]``, checked against a JSON shape when ``kind`` is given.

    An optional key that is absent or null gives None; a required key
    must be present, and null fails its shape.  The value's own type
    and range are left to the config class that takes it.
    """
    if required and key not in obj:
        raise ConfigError(f"{where}missing required key '{key}'")
    v = obj.get(key)
    if kind is None or (v is None and not required):
        return v
    what, ok = kind
    if not ok(v):
        raise ConfigError(f"{where}key '{key}': expected {what}, got {v!r}")
    return v


def _enum(cls, obj: dict, key: str, where: str = ""):
    name = _value(obj, key, where=where, required=True)
    try:
        return cls(name)
    except ValueError:
        names = ", ".join(e.value for e in cls)
        raise ConfigError(
            f"{where}key '{key}': unknown {key} {name!r} (expected one of {names})"
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


def _given(obj: dict, spec) -> dict:
    """Keyword arguments for the keys of ``obj`` that ``spec`` names.

    ``spec`` lists (key, keyword) pairs.  A key that is absent or null is
    left out, so the config class's own default applies.
    """
    return {name: obj[key] for key, name in spec if obj.get(key) is not None}


def _parse_params(proto: ProtocolName, d: dict):
    cls = PROTOCOL_PARAMS.get(proto)
    if cls is None:
        return d  # the config class refuses parameters for this protocol
    where = "key 'protocol_params': "
    _known(d, [f.name for f in fields(cls)], where)
    return _build(where, cls, **d)


def _parse_miners(raw: dict) -> tuple:
    miners = []
    for i, m in enumerate(_value(raw, "miners", _OBJECTS)):
        where = f"key 'miners': entry {i}: "
        _known(m, ("id", "power", "kind"), where)
        power = _value(m, "power", where=where, required=True)
        kind = _enum(MinerKind, m, "kind", where)
        miners.append(MinerSpec(id=m.get("id", i), power=power, kind=kind))
    return tuple(miners)


def _parse_end_condition(raw: dict) -> Optional[EndCondition]:
    rounds = raw.get("rounds")
    ec = _value(raw, "end_condition", _OBJECT)
    if ec is None:
        if rounds is None:
            return None
        return _build("key 'rounds': ", EndCondition, round_budget=rounds)
    if rounds is not None:
        raise ConfigError("keys 'rounds' and 'end_condition' are mutually exclusive")
    where = "key 'end_condition': "
    _known(ec, ("round_budget", "target_height"), where)
    return _build(
        where,
        EndCondition,
        round_budget=ec.get("round_budget"),
        target_height=ec.get("target_height"),
    )


def _parse_sweep(proto: ProtocolName, raw: dict, knobs: dict) -> SweepConfig:
    if raw.get("end_condition") is not None:
        raise ConfigError("key 'end_condition': only applies to simulate configs (use 'rounds')")
    where = "key 'sweep': "
    sw = _value(raw, "sweep", _OBJECT)
    _known(sw, ("alpha_grid", "attackers", "rivals"), where)
    grid = _value(sw, "alpha_grid", _LIST, where, required=True)
    rivals = _value(sw, "rivals", _LIST, where)
    return SweepConfig(
        protocol=proto,
        alpha_grid=tuple(grid),
        symmetric_attackers=sw.get("attackers"),
        fixed_rivals=None if rivals is None else tuple(rivals),
        **knobs,
        **_given(raw, (("repeats", "repeats"), ("rounds", "rounds"))),
    )


def _parse(raw) -> Union[SimulationConfig, SweepConfig]:
    if not isinstance(raw, dict):
        raise ConfigError("top level must be a JSON object")
    _known(raw, _TOP_KEYS)
    proto = _enum(ProtocolName, raw, "protocol")
    if (raw.get("miners") is None) == (raw.get("sweep") is None):
        raise ConfigError("exactly one of keys 'miners' and 'sweep' is required")
    knobs = _given(raw, (("gamma", "gamma"), ("seed", "master_seed")))
    params = _value(raw, "protocol_params", _OBJECT)
    if params is not None:
        knobs["protocol_params"] = _parse_params(proto, params)
    if raw.get("sweep") is not None:
        return _parse_sweep(proto, raw, knobs)
    if raw.get("repeats") is not None:
        raise ConfigError("key 'repeats': only applies to sweep configs")
    end = _parse_end_condition(raw)
    if end is not None:
        knobs["end_condition"] = end
    return SimulationConfig(protocol=proto, miners=_parse_miners(raw), **knobs)


def parse_config(path) -> Union[SimulationConfig, SweepConfig]:
    """Load a JSON config file into a simulation or sweep config.

    Exactly one of ``miners`` (single simulation) and ``sweep`` (power
    grid) must be present.  Omitted knobs take the config classes'
    defaults, the same ones a library caller gets.  Every error is a
    ConfigError whose message names the file once.
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


def _series_names(key: tuple) -> Tuple[str, str]:
    """thresholds.json name and plotdata/ file stem of a ``SweepConfig.key()``."""
    proto, gamma, k, *rivals = key
    name, stem = f"{proto} g={_fmt(gamma)} k={k}", f"{proto}_g{_fmt(gamma)}_k{k}"
    if rivals:
        name += " rivals=" + ",".join(map(_fmt, rivals[0]))
        stem += "_rivals_" + "-".join(map(_fmt, rivals[0]))
    return name, stem


def _threshold_entry(est: ThresholdEstimate) -> dict:
    return {
        "threshold": est.threshold,
        "bracket": list(est.bracket) if est.bracket else None,
        "ci95": list(est.ci95) if est.ci95 else None,
        "crossing_confirmed": est.crossing_confirmed,
    }


def _csv(header, rows) -> str:
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_results(
    rows: Sequence[ResultRow],
    thresholds: Mapping[tuple, ThresholdEstimate],
    out_dir,
    master_seed: int = 0,
    digest: str = "",
) -> RunManifest:
    """Write results.csv, thresholds.json, plotdata/ and manifest.json.

    ``thresholds`` maps ``SweepConfig.key()`` tuples to estimates; each
    estimate's ``points`` become its plotdata/ curve.  Empty inputs still
    produce a header-only CSV and an empty threshold map, and no
    plotdata/.  Every file is formatted before any is written; if a write
    fails, files created by this call are removed before the error
    propagates.
    """
    from . import __version__

    series = [(*_series_names(k), est) for k, est in thresholds.items()]
    payload = {name: _threshold_entry(est) for name, _, est in series}
    texts = {
        "results.csv": _csv(RESULT_COLUMNS, map(_row_values, rows)),
        "thresholds.json": json.dumps(payload, indent=2, sort_keys=True) + "\n",
    }
    for _, stem, est in sorted(series, key=lambda s: s[1]):
        texts[f"plotdata/{stem}.csv"] = _csv(
            ("alpha", "mean_revenue", "fair_share"),
            ((_fmt(p.alpha), _fmt(p.mean_revenue), _fmt(p.alpha)) for p in est.points),
        )
    manifest = RunManifest(
        tool_version=__version__,
        config_digest=digest,
        master_seed=master_seed,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        outputs=(*texts, "manifest.json"),
    )
    texts["manifest.json"] = json.dumps(asdict(manifest), indent=2) + "\n"

    out = Path(out_dir)
    created: list = []
    made_dirs: list = []
    try:
        for d in dict.fromkeys((out / name).parent for name in texts):
            if not d.exists():
                d.mkdir(parents=True)
                made_dirs.append(d)
        for name, text in texts.items():
            path = out / name
            created.append(path)
            path.write_text(text, encoding="utf-8", newline="")
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
