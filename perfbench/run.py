"""steptrack benchmark: end-to-end and per-layer timings of the CLI.

    python3 perfbench/run.py --workload day_wait --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, both modes
    python3 perfbench/run.py --check-digests           # golden CSV digests only
    python3 perfbench/run.py --update-digests          # re-record them, on purpose

Run from anywhere; the package is imported from ``src`` next to this
directory. One client runs one workload at a time, in a closed loop, in a
fresh child process (child.py) with BLAS pinned to one thread. The child
repeats the workload as often as fits in ``--seconds``. setup_s is the
median of several fresh processes that each import steptrack and load the
workload's scenario.

wall_s is in reference seconds. This host's speed drifts by up to 1.7x
with other tenants' load, for whole minutes, and median repetition times
drifted with it. So the child also times a fixed calibration kernel
(child.py) around every operation. Each operation's time is scaled by
REFERENCE_KERNEL_S over the kernel's median time in the bursts just
before and after it, and wall_s is the median repetition so scaled. The
raw repetition times are kept in the result record.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half
the time untraced and half under tracer.py, and prints the per-layer
split and the tracing overhead. Every run checks every output, counts
failed operations against attempted ones, checks that repetitions give
identical bytes, and compares the outputs with the golden digests in
goldens.json (recorded at seed 42). The last stdout line is one JSON
object: correct, attempted, failed, metrics. A full record with
provenance and quartiles goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads as wl
from child import CALIBRATION_BURST

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens.json"
WORK = HERE / "work"
RESULTS = HERE / "results"

SETUP_PROCESSES = 11
# The calibration kernel's typical time on this benchmark's 2-core x86-64
# host (Python 3.11) when no other tenant slows it: a scaled time is what
# that host would measure then.
REFERENCE_KERNEL_S = 0.0155
CHILD_TIMEOUT_S = 150

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "beacon_mean_db": "dB",
    "cycle_ok_ratio": "ratio",
}

LAYERS = (
    "orbit.satellite_direction",
    "beacon.beacon_level",
    "beacon.az_coeff_from_elevation",
    "antenna.measure",
    "antenna.receiver_voltage",
    "antenna.tick",
    "antenna.command",
    "tracker.step.wait",
    "tracker.step.acquire",
    "tracker.step.estimate",
    "tracker.step.move",
    "tracker.run_scenario",
    "telemetry.append",
    "telemetry.write_csv",
    "telemetry.read_csv",
    "telemetry.beacon_stats",
    "telemetry.extract_trajectory",
    "estimators.regression_row",
    "estimators.rls_init",
    "estimators.rls_update",
    "estimators.rls_recover",
    "estimators.ls_fit",
    "estimators.recover_peak",
    "scenario.resolve_scenario_path",
    "scenario.load_scenario",
    "cli.main",
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(ops, seconds, trace, workdir: Path, tag: str) -> dict:
    """Run ``ops`` in a fresh child, repeated within ``seconds`` (at least once)."""
    case = workdir / f"case-{tag}.json"
    result = workdir / f"result-{tag}.json"
    case.write_text(json.dumps({"ops": ops, "seconds": seconds, "trace": trace}))
    with open(workdir / f"child-{tag}.log", "w") as log:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "run", str(case), str(result)],
            cwd=workdir, env=child_env(), stdout=log, stderr=log,
            timeout=CHILD_TIMEOUT_S,
        )
    if proc.returncode != 0:
        tail = (workdir / f"child-{tag}.log").read_text()[-2000:]
        raise BenchError(f"{tag} child exited {proc.returncode}:\n{tail}")
    return json.loads(result.read_text())


def setup_times(scenario, workdir: Path, processes: int) -> list[float]:
    args = [sys.executable, str(HERE / "child.py"), "setup"]
    if scenario is not None:
        args.append(scenario)
    times = []
    for _ in range(processes):
        proc = subprocess.run(args, cwd=workdir, env=child_env(), capture_output=True,
                              text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"setup process failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def scaled_reps(child) -> list[float]:
    """Each repetition's time in reference seconds (see the module docstring)."""
    calibration, n = child["calibration_s"], CALIBRATION_BURST
    scaled, k = [], 0
    for rep in child["reps"]:
        total = 0.0
        for op in rep["ops"]:
            around = calibration[k * n:(k + 2) * n]  # the bursts before and after it
            total += op["wall_s"] * REFERENCE_KERNEL_S / statistics.median(around)
            k += 1
        scaled.append(total)
    return scaled


def summary(values) -> dict:
    values = list(values)
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def source_digest() -> str:
    h = hashlib.sha256()
    files = sorted(
        [p for p in SRC.rglob("*") if p.suffix in (".py", ".yaml")]
        + list(HERE.glob("*.py"))
    )
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


# -- one workload -----------------------------------------------------------


def prepare(workload: str, seed: int, workdir: Path):
    """Write the scenario (and for offline_analysis, its CSV); return ops."""
    source = "day_wait" if workload == "offline_analysis" else workload
    scenario_path = wl.write_scenario(ROOT, source, seed, workdir)
    if workload != "offline_analysis":
        return [wl.sim_op(scenario_path.name)], scenario_path.name
    made = run_child([wl.sim_op(scenario_path.name, wl.OFFLINE_INPUT_S)], 0, False,
                     workdir, "input")
    if made["reps"][0]["ops"][0]["rc"] != 0:
        raise BenchError("could not generate the offline_analysis input CSV")
    from steptrack.scenario import load_scenario

    return wl.analysis_ops(load_scenario(scenario_path).tracker.k_el), None


def produce_digest(workload: str, seed: int, workdir: Path) -> str:
    ops, _ = prepare(workload, seed, workdir)
    return run_child(ops, 0, False, workdir, "digest")["reps"][0]["digest"]


def golden_check(workload: str, seed: int, digest: str, goldens: dict):
    """Whether this code's output at the golden seed differs from goldens.json.

    At the golden seed the run's own digest answers it. Otherwise the
    workload is produced once more at that seed, untimed; the answer is
    cached per source digest, so a checkout pays for it once.
    """
    golden = goldens["workloads"].get(workload)
    if golden is None:
        return None
    if seed != goldens["seed"]:
        cache = WORK / f"golden-{workload}-{source_digest()[:16]}"
        if not cache.exists():
            tmp = WORK / f"golden-{workload}-{os.getpid()}"
            tmp.mkdir(parents=True)
            try:
                cache.write_text(produce_digest(workload, goldens["seed"], tmp))
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
        digest = cache.read_text()
    return digest != golden


def check_outputs(workload, ops, children, workdir: Path, scenario):
    """Failed operations, mismatches and quality.

    Every repetition runs the same operations on the same inputs, and must
    give the same bytes and exit codes. So each operation is checked, and
    counted as attempted, once per run: the counts then depend on the
    seed alone, not on how many repetitions fitted in the time.
    """
    log = wl.Log(workdir / wl.CSV)
    reps = [rep for child in children for rep in child["reps"]]
    mismatches = []
    if len({rep["digest"] for rep in reps}) != 1:
        mismatches.append("repetitions with the same seed gave different bytes")
    if len({tuple(repr(op["rc"]) for op in rep["ops"]) for rep in reps}) != 1:
        mismatches.append("repetitions with the same seed gave different exit codes")
    failures = {}  # reason -> count
    sim = workload != "offline_analysis"
    if sim:
        expected = round(scenario.duration / scenario.tracker.sample_interval)
        csv_problem = log.problem or (
            f"{len(log)} records, expected {expected}" if len(log) != expected else None
        )
    else:
        mismatches.append(wl.stats_mismatch(reps[-1]["ops"][0]["stdout"], log))
        mismatches.append(wl.trajectory_mismatch(workdir / wl.TRAJECTORY, log))
    for i, op in enumerate(reps[0]["ops"]):
        argv = ops[i]["argv"]
        if op["rc"] != 0:
            reason = f"exit {op['rc']!r}"[:200]
        elif sim:
            reason = csv_problem
        elif argv[0] == "fit":
            reason = wl.fit_failure(op["stdout"], log, scenario)
        else:
            reason = None
        if reason is not None:
            failures[f"{' '.join(argv[:1] + argv[2:])}: {reason}"] = 1
    return len(ops), failures, [m for m in mismatches if m], wl.quality(log, scenario)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from steptrack.scenario import load_scenario

    workdir = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        ops, setup_scenario = prepare(workload, seed, workdir)
        scenario = load_scenario(workdir / "scenario.yaml")
        # Half the set-up processes run before the timed child and half
        # after it, so that their median sees more of the host's load.
        setup = setup_times(setup_scenario, workdir, SETUP_PROCESSES // 2)
        if trace:
            untraced = run_child(ops, seconds / 2, False, workdir, "untraced")
            traced = run_child(ops, seconds / 2, True, workdir, "traced")
            children = [untraced, traced]
        else:
            untraced = run_child(ops, seconds, False, workdir, "timed")
            traced = None
            children = [untraced]
        setup += setup_times(setup_scenario, workdir, SETUP_PROCESSES - len(setup))
        attempted, failures, mismatches, q = check_outputs(
            workload, ops, children, workdir, scenario
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    goldens = json.loads(GOLDENS.read_text())
    digest = untraced["reps"][0]["digest"]
    walls = [rep["wall_s"] for rep in untraced["reps"]]
    records = scenario_records(scenario)
    if workload == "offline_analysis":
        records = len(ops) * round(wl.OFFLINE_INPUT_S / scenario.tracker.sample_interval)
    stats = {
        "wall_s": summary(scaled_reps(untraced)),
        "setup_s": summary(setup),
        "peak_rss_mb": summary([untraced["peak_rss_mb"]]),
        "beacon_mean_db": summary([q["beacon_mean_db"]]),
        "cycle_ok_ratio": summary(
            [(q["cycles"] - q["cycles_failed"]) / q["cycles"] if q["cycles"] else 0.0]
        ),
    }
    units = dict(END_TO_END)
    if traced is not None:
        layer_stats, layer_units = per_layer(traced, untraced, q)
        stats, units = layer_stats, layer_units
    return {
        "workload": workload,
        "trace": int(trace),
        "correct": not mismatches,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "failures": failures,
        "mismatches": mismatches,
        "digest": digest,
        "digest_changed": golden_check(workload, seed, digest, goldens),
        "quality": q,
        "runs_wall_s": walls,
        "stats": stats,
        "units": units,
        "spans": traced["spans"] if traced is not None else [],
        "provenance": provenance(seed, untraced, traced, records, seconds),
    }


def scenario_records(scenario) -> int:
    return round(scenario.duration / scenario.tracker.sample_interval)


def per_layer(traced, untraced, q):
    reps = traced["reps"]
    stats, units = {}, {}

    def put(name, unit, values):
        stats[name] = summary(values)
        units[name] = unit

    for layer in LAYERS:
        put(f"{layer}.calls", "count", [rep["layers"][layer][0] for rep in reps])
        put(f"{layer}.self_s", "s", [rep["layers"][layer][1] for rep in reps])
    put("antenna.tick.moving_ratio", "ratio", [
        rep["counters"].get("antenna.tick.moving", 0) / rep["layers"]["antenna.tick"][0]
        if rep["layers"]["antenna.tick"][0] else 0.0
        for rep in reps
    ])
    for name in ("telemetry.write_csv.bytes", "telemetry.read_csv.bytes"):
        put(name, "B", [rep["counters"].get(name, 0) for rep in reps])
    steps = [sum(rep["layers"][f"tracker.step.{p}"][0]
                 for p in ("wait", "acquire", "estimate", "move")) for rep in reps]
    put("tracker.wait_ratio", "ratio", [
        rep["layers"]["tracker.step.wait"][0] / n if n else 0.0
        for rep, n in zip(reps, steps)
    ])
    put("pointing_loss_mean_db", "dB", [q["pointing_loss_mean_db"]])
    put("pointing_loss_p99_db", "dB", [q["pointing_loss_p99_db"]])
    put("tracker.cycles", "count", [q["cycles"]])
    put("tracker.cycles_failed", "count", [q["cycles_failed"]])
    put("tracker.cycle_fail_ratio", "ratio",
        [q["cycles_failed"] / q["cycles"] if q["cycles"] else 0.0])
    traced_walls = [rep["wall_s"] for rep in reps]
    put("trace.wall_s", "s", traced_walls)
    put("trace.unattributed_s", "s", [rep["unattributed_s"] for rep in reps])
    put("trace.overhead_ratio", "ratio", [
        statistics.median(scaled_reps(traced)) / statistics.median(scaled_reps(untraced))
    ])
    return stats, units


def provenance(seed, untraced, traced, records, seconds) -> dict:
    import numpy

    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
        "seconds": seconds,
        "runs": len(untraced["reps"]),
        "kernel_median_s": statistics.median(untraced["calibration_s"]),
        "reference_kernel_s": REFERENCE_KERNEL_S,
        "traced_runs": len(traced["reps"]) if traced is not None else 0,
        "records_per_run": records,
        "loop": "closed, one client, one workload at a time",
    }


def report(result: dict) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    print(f"== {result['workload']}  trace={result['trace']}  "
          f"seed={result['provenance']['seed']}  runs={result['provenance']['runs']}"
          f"  records/run={result['provenance']['records_per_run']}")
    for name, s in result["stats"].items():
        print(f"  {name:40s} {s['median']:<14.6g} {result['units'][name]:6s}"
              f" q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}")
    print(f"  ops_failed/ops_attempted {result['failed']}/{result['attempted']}")
    for reason, count in result["failures"].items():
        print(f"    failed x{count}: {reason}")
    for mismatch in result["mismatches"]:
        print(f"    MISMATCH: {mismatch}")
    q = result["quality"]
    print(f"  pointing_loss_mean_db {q['pointing_loss_mean_db']:.6g} dB  "
          f"pointing_loss_p99_db {q['pointing_loss_p99_db']:.6g} dB  "
          f"cycle_fail_ratio {q['cycles_failed']}/{q['cycles']}")
    print(f"  digest_changed {json.dumps(result['digest_changed'])}")
    print("provenance " + json.dumps(result["provenance"]))
    RESULTS.mkdir(exist_ok=True)
    name = f"{result['workload']}-seed{result['provenance']['seed']}-trace{result['trace']}"
    (RESULTS / f"{name}.json").write_text(json.dumps(result, indent=1))
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": s["median"], "unit": result["units"][name]}
            for name, s in result["stats"].items()
        },
    }


# -- golden digests -----------------------------------------------------------


BUNDLED = {  # scenario -> duration cap in seconds (None: its own duration)
    "default_figure8": 7200.0,
    "desk_figure8": None,
    "sawtooth_drift": None,
    "static_noiseless": None,
}


def check_digests(update: bool) -> int:
    """Compare (or re-record) every golden digest; each bundled scenario twice."""
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    seed = goldens.get("seed", wl.DEFAULT_SEED)
    found = {"seed": seed, "bundled": {}, "workloads": {}}
    ok = True
    workdir = WORK / f"digests-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for name, cap in BUNDLED.items():
            argv = ["simulate", name, "--output", wl.CSV]
            if cap is not None:
                argv += ["--duration-s", repr(cap)]
            op = [{"argv": argv, "outputs": [wl.CSV]}]
            digests = {run_child(op, 0, False, workdir, f"{name}-{i}")["reps"][0]["digest"]
                       for i in range(2)}
            ok &= report_digest(name, digests, goldens.get("bundled", {}).get(name))
            found["bundled"][name] = digests.pop()
        for name in wl.WORKLOADS:
            digest = produce_digest(name, seed, workdir)
            ok &= report_digest(name, {digest}, goldens.get("workloads", {}).get(name))
            found["workloads"][name] = digest
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if update:
        found["capped_s"] = {k: v for k, v in BUNDLED.items() if v is not None}
        GOLDENS.write_text(json.dumps(found, indent=1) + "\n")
        print(f"recorded {GOLDENS}")
        return 0
    return 0 if ok else 1


def report_digest(name, digests, golden) -> bool:
    if len(digests) != 1:
        print(f"{name:20s} NONDETERMINISTIC {sorted(digests)}")
        return False
    digest = next(iter(digests))
    status = "ok" if digest == golden else "CHANGED"
    print(f"{name:20s} {status:8s} {digest}")
    return digest == golden


# -- entry point --------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="day_wait, rapid_cycle, offline_analysis or all")
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-digests", action="store_true")
    parser.add_argument("--update-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "steptrack" / "__init__.py").is_file():
        print(f"error: no steptrack package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import steptrack.cli  # noqa: F401  (compiles the package before any timing)

    if args.check_digests or args.update_digests:
        return check_digests(args.update_digests)
    if args.workload == "all":
        names, modes = wl.WORKLOADS, (False, True)
    elif args.workload in wl.WORKLOADS:
        names, modes = (args.workload,), (bool(args.trace),)
    else:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    final = None
    for name in names:
        for trace in modes:
            final = report(run_workload(name, args.seed, args.seconds, trace))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
