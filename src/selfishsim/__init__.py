"""Monte-Carlo selfish-mining simulator for three proof-of-work protocols."""

from .config import (
    ConfigError,
    EndCondition,
    FruitchainParams,
    MinerKind,
    MinerSpec,
    ProtocolName,
    SimulationConfig,
    StrongchainParams,
    balanced_fruit_params,
    config_digest,
    fruit_heavy_params,
    rival_attacker_config,
    symmetric_attacker_config,
)
from .engine import RoundRecord, SimulationResult, run_simulation
from .experiments import (
    RevenuePoint,
    SweepConfig,
    ThresholdEstimate,
    bootstrap_ci,
    estimate_threshold,
    run_sweep,
    threshold_search,
)
from .io import (
    RESULT_COLUMNS,
    ResultRow,
    RunManifest,
    parse_config,
    read_results,
    read_thresholds,
    rows_from_result,
    write_results,
)
from .rng import derive_run_seed
from .strategy import Action, decide_action

__version__ = "0.1.0"

__all__ = [
    "Action",
    "ConfigError",
    "EndCondition",
    "FruitchainParams",
    "MinerKind",
    "MinerSpec",
    "ProtocolName",
    "RESULT_COLUMNS",
    "ResultRow",
    "RevenuePoint",
    "RoundRecord",
    "RunManifest",
    "SimulationConfig",
    "SimulationResult",
    "StrongchainParams",
    "SweepConfig",
    "ThresholdEstimate",
    "balanced_fruit_params",
    "bootstrap_ci",
    "config_digest",
    "decide_action",
    "derive_run_seed",
    "estimate_threshold",
    "fruit_heavy_params",
    "parse_config",
    "read_results",
    "read_thresholds",
    "rival_attacker_config",
    "rows_from_result",
    "run_simulation",
    "run_sweep",
    "symmetric_attacker_config",
    "threshold_search",
    "write_results",
    "__version__",
]
