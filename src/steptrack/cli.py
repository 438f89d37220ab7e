"""Command-line entry point.

Subcommands:
  simulate    run a scenario file and write the telemetry CSV
  fit         offline peak fit over a time window of an existing log
  stats       beacon-level statistics over a time window
  trajectory  decimated (azimuth, elevation) pairs for plotting

Exit codes: 0 success, 1 usage or configuration error, 2 runtime
estimation error.
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from .beacon import QuadraticCoefficients, az_coeff_from_elevation
from .estimators import ESTIMATORS, EstimationError, fit_peak
# Unused here since ``fit`` runs through ``fit_peak``, but bound as the
# layer names through which perfbench/tracer.py traces this module.
from .estimators import (  # noqa: F401
    ls_fit, recover_peak, regression_row, rls_init, rls_recover, rls_update,
)
from .scenario import ScenarioError, load_scenario, resolve_scenario_path
from .telemetry import (
    beacon_stats,
    extract_trajectory,
    format_floats,
    read_csv,
    time_window,
    write_csv,
)
from .tracker import PatternInfeasibleError, run_scenario

USAGE_ERROR = 1
ESTIMATION_ERROR = 2

# The RLS initial gain scale of ``fit``. It is not the tracker's
# DEFAULT_RLS_DELTA (1e4) because ``fit``'s output at 1e8 is pinned in
# perfbench/goldens.json.
FIT_RLS_DELTA = 1e8


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the CLI contract reserves
    # 2 for estimation failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="steptrack", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sim = sub.add_parser("simulate", help="run a scenario and write telemetry CSV")
    sim.add_argument("scenario", help="scenario file path or bundled scenario name")
    sim.add_argument("--output", help="override the scenario's output CSV path")
    sim.add_argument(
        "--duration-s", type=float, default=None, help="override the run duration"
    )

    fit = sub.add_parser("fit", help="offline peak fit on a telemetry log")
    fit.add_argument("log", help="telemetry CSV path")
    fit.add_argument(
        "--k-y", type=float, required=True, help="elevation curvature, dB/deg^2"
    )
    fit.add_argument("--t0", type=float, default=None, help="window start, s")
    fit.add_argument("--t1", type=float, default=None, help="window end, s")
    fit.add_argument("--mode", choices=ESTIMATORS, default="batch-ls")
    fit.add_argument(
        "--forgetting", type=float, default=1.0, help="RLS forgetting factor"
    )

    st = sub.add_parser("stats", help="beacon statistics over a window")
    st.add_argument("log", help="telemetry CSV path")
    st.add_argument("--t0", type=float, default=None)
    st.add_argument("--t1", type=float, default=None)

    tr = sub.add_parser("trajectory", help="plot-ready (az, el) trace")
    tr.add_argument("log", help="telemetry CSV path")
    tr.add_argument("--decimation", type=int, default=1)
    tr.add_argument("--output", required=True, help="output CSV path")

    return parser


def _cmd_simulate(args) -> int:
    try:
        path = resolve_scenario_path(args.scenario)
        scenario = load_scenario(path)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    duration = scenario.duration if args.duration_s is None else args.duration_s
    output = args.output or scenario.output
    try:
        log = run_scenario(
            scenario.orbit,
            scenario.antenna,
            scenario.receiver,
            scenario.tracker,
            duration,
            peak_level_db=scenario.peak_level_db,
            truth_k_el=scenario.truth_k_el,
        )
    except (ValueError, PatternInfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        write_csv(log, output)
    except OSError as exc:
        print(f"error: cannot write {output}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(f"wrote {len(log)} records to {output}")
    if len(log):
        stats = beacon_stats(log)
        cmd_az = log.column("commanded_az")
        cmd_el = log.column("commanded_el")
        print(f"beacon mean {stats.mean:.3f} dB, stddev {stats.stddev:.3f} dB, "
              f"min {stats.minimum:.3f} dB, max {stats.maximum:.3f} dB")
        print(f"command peak-to-peak: azimuth {cmd_az.max() - cmd_az.min():.4f} deg, "
              f"elevation {cmd_el.max() - cmd_el.min():.4f} deg")
    return 0


def _cmd_fit(args) -> int:
    try:
        log = read_csv(args.log)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read log: {exc}", file=sys.stderr)
        return USAGE_ERROR
    window = time_window(log, args.t0, args.t1)
    if window.stop == window.start:
        print(f"error: no records in window [{args.t0}, {args.t1}]", file=sys.stderr)
        return ESTIMATION_ERROR
    az = log.column("readback_az")[window]
    el = log.column("readback_el")[window]
    # Centred on the window mean, where the curvature is taken too.
    centre = (float(np.mean(az)), float(np.mean(el)))
    try:
        k = QuadraticCoefficients(
            k_az=az_coeff_from_elevation(args.k_y, centre[1]), k_el=args.k_y
        )
        peak, rms = fit_peak(
            az, el, log.column("beacon_db")[window], centre, k, args.mode,
            args.forgetting, FIT_RLS_DELTA,
        )
    except (EstimationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ESTIMATION_ERROR
    print(f"peak azimuth   : {peak.azimuth:.6f} deg")
    print(f"peak elevation : {peak.elevation:.6f} deg")
    print(f"peak level     : {peak.level:.6f} dB")
    print(f"residual rms   : {rms:.6e} dB")
    return 0


def _cmd_stats(args) -> int:
    try:
        log = read_csv(args.log)
        stats = beacon_stats(log, args.t0, args.t1)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    window = time_window(log, args.t0, args.t1)
    print(f"records : {window.stop - window.start}")
    print(f"mean    : {stats.mean:.6f} dB")
    print(f"stddev  : {stats.stddev:.6f} dB")
    print(f"min     : {stats.minimum:.6f} dB")
    print(f"max     : {stats.maximum:.6f} dB")
    return 0


def _cmd_trajectory(args) -> int:
    try:
        log = read_csv(args.log)
        points = extract_trajectory(log, args.decimation)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        with open(args.output, "w", newline="") as fh:
            fh.write("readback_az_deg,readback_el_deg\n")
            az = format_floats([point[0] for point in points])
            el = format_floats([point[1] for point in points])
            fh.writelines(f"{a},{e}\n" for a, e in zip(az, el))
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(f"wrote {len(points)} points to {args.output}")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    handlers = {
        "simulate": _cmd_simulate,
        "fit": _cmd_fit,
        "stats": _cmd_stats,
        "trajectory": _cmd_trajectory,
    }
    return handlers[args.subcommand](args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
