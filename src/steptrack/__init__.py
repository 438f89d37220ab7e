"""Closed-loop step-track pointing toolkit.

Simulates an inclined-orbit geosynchronous satellite, a two-axis
earth-station antenna and its beacon receiver, estimates the optimal
pointing by batch or recursive least squares over a small displacement
pattern, and drives the timed tracking cycle that ties them together.
"""

from .antenna import (
    AntennaState,
    AxisLimitError,
    BeaconSample,
    ReceiverConfig,
    command,
    measure,
    read_resolvers,
    receiver_voltage,
    tick,
)
from .beacon import (
    DEFAULT_K_EL,
    ParabolaParams,
    QuadraticCoefficients,
    az_coeff_from_elevation,
    beacon_level,
)
from .estimators import (
    DegenerateCoefficientsError,
    EstimationError,
    InsufficientDataError,
    PeakEstimate,
    RankDeficientError,
    RegressionRow,
    RlsState,
    fit_peak,
    ls_fit,
    memory_horizon,
    recover_peak,
    regression_row,
    rls_init,
    rls_recover,
    rls_update,
)
from .orbit import OrbitConfig, orbit_trace, satellite_direction
from .scenario import Scenario, ScenarioError, load_scenario
from .telemetry import (
    BeaconStats,
    TelemetryLog,
    TelemetryRecord,
    beacon_stats,
    extract_trajectory,
    read_csv,
    write_csv,
)
from .tracker import (
    PatternInfeasibleError,
    StepTracker,
    TrackerConfig,
    TrackerPhase,
    plan_pattern,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AntennaState",
    "AxisLimitError",
    "BeaconSample",
    "BeaconStats",
    "DEFAULT_K_EL",
    "DegenerateCoefficientsError",
    "EstimationError",
    "InsufficientDataError",
    "OrbitConfig",
    "ParabolaParams",
    "PatternInfeasibleError",
    "PeakEstimate",
    "QuadraticCoefficients",
    "RankDeficientError",
    "ReceiverConfig",
    "RegressionRow",
    "RlsState",
    "Scenario",
    "ScenarioError",
    "StepTracker",
    "TelemetryLog",
    "TelemetryRecord",
    "TrackerConfig",
    "TrackerPhase",
    "az_coeff_from_elevation",
    "beacon_level",
    "beacon_stats",
    "command",
    "extract_trajectory",
    "fit_peak",
    "load_scenario",
    "ls_fit",
    "measure",
    "memory_horizon",
    "orbit_trace",
    "plan_pattern",
    "read_csv",
    "read_resolvers",
    "receiver_voltage",
    "recover_peak",
    "regression_row",
    "rls_init",
    "rls_recover",
    "rls_update",
    "run_scenario",
    "satellite_direction",
    "tick",
    "write_csv",
]
