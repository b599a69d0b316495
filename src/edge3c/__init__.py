"""Bandwidth-optimal task placement for a cache-equipped device served by an edge node.

Each of F identical tasks is served one of three ways: from cached remote input
with local compute, by downloading the remote input then computing locally, or
by offloading everything to the edge server. The package computes the per-route
minimum bandwidths, the power draw of each choice, and the integer split of the
task set that minimizes total radio bandwidth under cache and average-power
budgets, together with brute-force oracles, a parameter sweep, and the CPU-speed
turning points of the resulting bandwidth curve.
"""

__version__ = "0.1.0"

from .bandwidth import (
    DEFAULT_BANDWIDTH_CAP,
    RouteCosts,
    kkt_split,
    route_costs,
    route_latency,
)
from .bounds import cache_task_capacity, floor_eps, power_within_budget
from .errors import (
    ConfigParseError,
    DegenerateChannelError,
    Edge3cError,
    InfeasibleError,
    InvalidConfigError,
    InvalidFieldError,
    TooLargeError,
)
from .model import (
    ChannelParams,
    DeviceParams,
    ServerParams,
    SystemConfig,
    TaskSpec,
    config_from_dict,
    config_to_dict,
    downlink_spectral_efficiency,
    load_config,
    power_coefficients,
    replace_field,
    snr_db_to_spectral_efficiency,
    spectral_efficiency,
    uplink_spectral_efficiency,
    validate_config,
)
from .oracle import (
    OracleSolution,
    enumerate_optimal,
    enumerate_per_task,
    numeric_bandwidth_split,
    relative_error,
    run_verification,
)
from .policy import (
    REGIMES,
    PolicySolution,
    Regime,
    baseline_policy,
    classify_regime,
    solve_optimal,
)
from .sampling import sample_config
from .tradeoff import (
    BASELINE_KINDS,
    INF_TOKEN,
    SweepRow,
    SweepSpec,
    TurningPoints,
    detect_breakpoints,
    grid_values,
    rows_to_csv,
    sweep,
    turning_points,
)
from .units import format_hz, parse_quantity

__all__ = [
    "__version__",
    "BASELINE_KINDS",
    "DEFAULT_BANDWIDTH_CAP",
    "INF_TOKEN",
    "REGIMES",
    "ChannelParams",
    "ConfigParseError",
    "DegenerateChannelError",
    "DeviceParams",
    "Edge3cError",
    "InfeasibleError",
    "InvalidConfigError",
    "InvalidFieldError",
    "OracleSolution",
    "PolicySolution",
    "Regime",
    "RouteCosts",
    "ServerParams",
    "SweepRow",
    "SweepSpec",
    "SystemConfig",
    "TaskSpec",
    "TooLargeError",
    "TurningPoints",
    "baseline_policy",
    "cache_task_capacity",
    "classify_regime",
    "config_from_dict",
    "config_to_dict",
    "detect_breakpoints",
    "downlink_spectral_efficiency",
    "enumerate_optimal",
    "enumerate_per_task",
    "floor_eps",
    "format_hz",
    "grid_values",
    "kkt_split",
    "load_config",
    "numeric_bandwidth_split",
    "parse_quantity",
    "power_coefficients",
    "power_within_budget",
    "relative_error",
    "replace_field",
    "route_costs",
    "route_latency",
    "run_verification",
    "sample_config",
    "snr_db_to_spectral_efficiency",
    "solve_optimal",
    "spectral_efficiency",
    "sweep",
    "turning_points",
    "uplink_spectral_efficiency",
    "validate_config",
]
