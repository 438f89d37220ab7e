"""Workload inputs and output checks.

Each workload is a case: a list of ``steptrack`` CLI operations run in
one process (see child.py). The scenario YAML is written here from the
workload seed, so the program receives only generated inputs.

- day_wait: two hours of the bundled default_figure8 (600 s cycles,
  0.2 dB noise, 0.5 dB drift); 99.7 % of steps are WAIT, so per-step
  overhead and CSV writing dominate.
- rapid_cycle: the desk-speed figure-8 with a 1.5 s cycle, just above the
  1.12 s pattern; about 90 % of steps are ACQUIRE or MOVE, so the RLS
  update and the moving plant dominate and no WAIT span is long.
- offline_analysis: the README's analysis commands over the day_wait
  CSV of the same seed, cut after cycle 4 (made untimed beforehand):
  stats, a batch fit and an RLS fit at forgetting 0.98 over cycles 2 to
  4, and a decimated trajectory. CSV reading and the estimators over long
  windows dominate.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import yaml

DEFAULT_SEED = 42
WORKLOADS = ("day_wait", "rapid_cycle", "offline_analysis")

CSV = "telemetry.csv"
TRAJECTORY = "trajectory.csv"
DAY_WAIT_S = 7200.0
# Cycles 2, 3 and 4 of the 600 s day_wait cycle, whole: the record at
# 1200 s starts cycle 2 and the one at 3000 s starts cycle 5.
FIT_WINDOW = ("1199.99", "2999.99")
# The offline_analysis input ends with cycle 4, so one repetition of its
# four commands is short enough to repeat several times in a run.
OFFLINE_INPUT_S = 3000.0
DECIMATION = 50

RAPID_CYCLE = {
    "duration_s": 600.0,
    "orbit": {
        "center_azimuth_deg": 180.0,
        "center_elevation_deg": 72.0,
        "azimuth_amplitude_deg": 16.0,
        "elevation_amplitude_deg": 1.2,
        "period_s": 600.0,
    },
    "antenna": {"azimuth_deg": 180.0, "elevation_deg": 72.0},
    "receiver": {
        "floor_db": -24.0,
        "max_db": 6.0,
        "noise_sigma_db": 0.2,
        "drift_amplitude_db": 0.5,
        "drift_period_s": 300.0,
    },
    "parabola": {"k_y_db_per_deg2": -11.4, "peak_level_db": 6.0},
    "tracker": {
        "rect_half_width_el_deg": 0.03,
        "cycle_period_s": 1.5,
        "sampling_mode": "continuous",
        "estimator": "rls",
        "forgetting": 0.98,
    },
}

PHASES = ("acquire", "estimate", "move", "wait")


def scenario_doc(root: Path, workload: str, seed: int) -> dict:
    """The scenario a sim workload runs, or the one offline_analysis reads."""
    if workload == "rapid_cycle":
        doc = dict(RAPID_CYCLE)
    else:
        path = root / "src" / "steptrack" / "scenarios" / "default_figure8.yaml"
        with open(path) as fh:
            doc = yaml.safe_load(fh)
        doc["duration_s"] = DAY_WAIT_S
    doc["seed"] = seed
    doc["output"] = CSV
    return doc


def write_scenario(root: Path, workload: str, seed: int, workdir: Path) -> Path:
    path = workdir / "scenario.yaml"
    with open(path, "w") as fh:
        yaml.safe_dump(scenario_doc(root, workload, seed), fh, sort_keys=False)
    return path


def sim_op(scenario: str, duration_s: float | None = None) -> dict:
    argv = ["simulate", scenario, "--output", CSV]
    if duration_s is not None:
        argv += ["--duration-s", repr(duration_s)]
    return {"argv": argv, "outputs": [CSV]}


def analysis_ops(k_y: float) -> list[dict]:
    t0, t1 = FIT_WINDOW
    fit = ["fit", CSV, "--k-y", repr(k_y), "--t0", t0, "--t1", t1]
    return [
        {"argv": ["stats", CSV], "outputs": []},
        {"argv": fit, "outputs": []},
        {"argv": fit + ["--mode", "rls", "--forgetting", "0.98"], "outputs": []},
        {
            "argv": ["trajectory", CSV, "--decimation", str(DECIMATION),
                     "--output", TRAJECTORY],
            "outputs": [TRAJECTORY],
        },
    ]


# -- reading a telemetry CSV ------------------------------------------------


class Log:
    """Columns of a telemetry CSV, and what is wrong with it, if anything."""

    def __init__(self, path: Path):
        from steptrack.telemetry import CSV_HEADER

        cols = [[] for _ in range(7)]
        self.phase: list[str] = []
        self.cycle: list[int] = []
        self.problem = None
        with open(path) as fh:
            if fh.readline().rstrip("\n") != CSV_HEADER:
                self.problem = "unexpected CSV header"
            for n, line in enumerate(fh, start=2):
                parts = line.rstrip("\n").split(",")
                try:
                    if len(parts) != 9:
                        raise ValueError(f"{len(parts)} fields")
                    values = [float(text) for text in parts[:7]]
                    cycle = int(parts[8])
                except ValueError as exc:
                    self.problem = self.problem or f"line {n}: {exc}"
                    continue
                for col, value in zip(cols, values):
                    col.append(value)
                self.phase.append(parts[7])
                self.cycle.append(cycle)
        self.t, _, _, self.az, self.el, self.db, _ = (np.array(c) for c in cols)
        if self.problem is None:
            if not all(np.isfinite(c).all() for c in cols):
                self.problem = "non-finite field"
            elif len(self.t) > 1 and not (np.diff(self.t) > 0).all():
                self.problem = "t does not strictly increase"
            elif not set(self.phase) <= set(PHASES):
                self.problem = "unknown phase"

    def __len__(self) -> int:
        return len(self.t)

    def window(self, t0: float, t1: float) -> np.ndarray:
        return (self.t >= t0) & (self.t <= t1)


def cycle_outcomes(log: Log) -> tuple[int, int]:
    """(completed, failed) cycles.

    A cycle is completed when it is back in WAIT; it failed when it got
    there without a MOVE record. A cycle cut off by the end of the run
    counts for neither.
    """
    seen: dict[int, set] = {}
    for phase, cycle in zip(log.phase, log.cycle):
        if cycle >= 0:
            seen.setdefault(cycle, set()).add(phase)
    completed = failed = 0
    last = log.cycle[-1] if log.cycle else None
    for cycle, phases in seen.items():
        if cycle == last and log.phase[-1] != "wait":
            continue
        completed += 1
        failed += "move" not in phases
    return completed, failed


def quality(log: Log, scenario) -> dict:
    """Truth-referenced tracking quality of a run, from its CSV.

    The loss of each record is the peak level minus the beacon surface at
    the readback pointing, with the surface centred on the simulated
    satellite direction at that record's time.
    """
    from steptrack.beacon import ParabolaParams, az_coeff_from_elevation, beacon_level
    from steptrack.orbit import satellite_direction

    orbit, k_el, peak = scenario.orbit, scenario.tracker.k_el, scenario.peak_level_db
    loss = np.empty(len(log))
    for i, (t, az, el) in enumerate(zip(log.t.tolist(), log.az.tolist(), log.el.tolist())):
        sat_az, sat_el = satellite_direction(orbit, t)
        field = ParabolaParams(az_coeff_from_elevation(k_el, sat_el), k_el,
                               sat_az, sat_el, peak)
        loss[i] = peak - beacon_level(field, az, el)
    completed, failed = cycle_outcomes(log)
    return {
        "beacon_mean_db": float(log.db.mean()),
        "pointing_loss_mean_db": float(loss.mean()),
        "pointing_loss_p99_db": float(np.percentile(loss, 99)),
        "cycles": completed,
        "cycles_failed": failed,
    }


# -- checking analysis output ----------------------------------------------


def _fields(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            out[key.strip()] = value.split()[0] if value.split() else ""
    return out


def fit_failure(stdout: str, log: Log, scenario):
    """Why a fit's printed peak is unusable, or None.

    The peak must be finite and lie near the window's readback span: on
    each axis within the distance at which the fitted surface falls by
    the receiver's whole range (max_db - floor_db), since beyond it no
    sample in the window could have been above the noise floor.
    """
    from steptrack.beacon import az_coeff_from_elevation

    f = _fields(stdout)
    try:
        peak = (float(f["peak azimuth"]), float(f["peak elevation"]),
                float(f["peak level"]))
    except (KeyError, ValueError):
        return "no peak printed"
    if not all(math.isfinite(v) for v in peak):
        return f"non-finite peak {peak}"
    w = log.window(*map(float, FIT_WINDOW))
    k_y = scenario.tracker.k_el
    span_db = scenario.receiver.max_db - scenario.receiver.floor_db
    k_az = az_coeff_from_elevation(k_y, float(log.el[w].mean()))
    for value, column, k in ((peak[0], log.az[w], k_az), (peak[1], log.el[w], k_y)):
        margin = math.sqrt(span_db / abs(k))
        if not column.min() - margin <= value <= column.max() + margin:
            return f"peak {value} far outside readback span [{column.min()}, {column.max()}]"
    return None


def stats_mismatch(stdout: str, log: Log):
    """Where ``stats`` over the whole log disagrees with numpy, or None."""
    f = _fields(stdout)
    expect = {
        "records": len(log),
        "mean": log.db.mean(),
        "stddev": log.db.std(),
        "min": log.db.min(),
        "max": log.db.max(),
    }
    for key, value in expect.items():
        try:
            got = float(f[key])
        except (KeyError, ValueError):
            return f"stats: no {key}"
        if not abs(got - value) <= 1e-6:
            return f"stats: {key} {got} != {value}"
    return None


def trajectory_mismatch(path: Path, log: Log):
    """Where the trajectory file disagrees with the log, or None."""
    with open(path) as fh:
        lines = fh.read().splitlines()[1:]
    expect = list(zip(log.az[::DECIMATION], log.el[::DECIMATION]))
    if len(lines) != len(expect):
        return f"trajectory: {len(lines)} points, expected {len(expect)}"
    for i in (0, len(expect) - 1):
        if tuple(map(float, lines[i].split(","))) != expect[i]:
            return f"trajectory: point {i} differs"
    return None
