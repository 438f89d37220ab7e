"""Closed-loop step-track pointing toolkit.

Simulates an inclined-orbit geosynchronous satellite, a two-axis
earth-station antenna and its beacon receiver, estimates the optimal
pointing by batch or recursive least squares over a small displacement
pattern, and drives the timed tracking cycle that ties them together.

The names below run a simulation; the rest of the library is reached
through its modules (``steptrack.estimators``, ``steptrack.scenario``, ...).
"""

from .antenna import AntennaState, ReceiverConfig
from .beacon import QuadraticCoefficients
from .orbit import OrbitConfig
from .telemetry import beacon_stats, write_csv
from .tracker import TrackerConfig, run_scenario

__version__ = "0.1.0"

__all__ = [
    "AntennaState",
    "OrbitConfig",
    "QuadraticCoefficients",
    "ReceiverConfig",
    "TrackerConfig",
    "beacon_stats",
    "run_scenario",
    "write_csv",
]
