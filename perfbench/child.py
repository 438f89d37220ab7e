"""The measured process. The benchmark starts a fresh one per job.

    child.py setup [SCENARIO]        time the import and scenario load
    child.py run CASE RESULT         repeat a case's operations for its time

A case (JSON) lists operations, each an argument list for
``steptrack.cli.main`` (what the ``steptrack`` command runs) and the
files it writes. One repetition runs every operation once, in order, with
stdout captured; its time is the sum of the operations' times. Digests
of each repetition's outputs and the process's peak RSS are taken after
the timed calls and written to RESULT. Output checks are left to the
parent, so they touch neither the timings nor this process's peak RSS.

Before each operation, and once after the last, the process also times a
fixed calibration kernel CALIBRATION_BURST times (``calibration_s`` in
RESULT, outside every operation's time). The host's speed drifts with
other tenants' load; the parent divides each operation's time by the
kernel's typical time around it to correct for that.
"""

import math
import sys
import time

CALIBRATION_BURST = 5


def _kernel() -> float:
    # Fixed interpreter work in the style of the program: float formatting
    # and parsing, small tuples in a list, libm calls. Benchmark code only,
    # so no change to steptrack can speed it up.
    rows = []
    for i in range(12000):
        a, b = f"{i * 0.02:.6f},{i * 1.5:.4f}".split(",")
        rows.append((float(a), float(b), math.sin(i * 1e-3)))
    return sum(x * z + y for x, y, z in rows)


def calibrate(times: list) -> None:
    """Time the calibration kernel a few times, appending to ``times``."""
    for _ in range(CALIBRATION_BURST):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)


def setup(scenario=None) -> None:
    t0 = time.perf_counter()
    from steptrack import cli

    if scenario is not None:
        cli.load_scenario(cli.resolve_scenario_path(scenario))
    print(repr(time.perf_counter() - t0))


def _digest(stdouts, paths) -> str:
    import hashlib

    h = hashlib.sha256()
    for text in stdouts:
        h.update(text.encode())
    for path in paths:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def _peak_rss_mb() -> float:
    # Not ru_maxrss: the kernel carries the spawning parent's peak over
    # into it across exec, so a large parent would hide a small child.
    # VmHWM belongs to this program image alone.
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run(case_path, result_path) -> None:
    import contextlib
    import io
    import json
    import traceback

    from steptrack import cli

    with open(case_path) as fh:
        case = json.load(fh)
    tracer = None
    main = cli.main
    if case["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        main = tracer.wrap("cli.main", cli.main)
    reps = []
    spans = []
    calibration = []
    start = time.perf_counter()
    try:
        while True:
            if tracer is not None:
                tracer.reset()
            ops = []
            for op in case["ops"]:
                calibrate(calibration)
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    t0 = time.perf_counter()
                    try:
                        rc = main(op["argv"])
                    except Exception:  # an operation that raises counts as failed
                        rc = traceback.format_exc()
                    t1 = time.perf_counter()
                ops.append({"rc": rc, "stdout": out.getvalue(), "wall_s": t1 - t0})
            rep = {
                "wall_s": sum(op["wall_s"] for op in ops),
                "ops": ops,
                "digest": _digest(
                    [op["stdout"] for op in ops],
                    [p for op in case["ops"] for p in op["outputs"]],
                ),
            }
            if tracer is not None:
                rep["layers"] = {k: list(v) for k, v in tracer.layers.items()}
                rep["counters"] = dict(tracer.counters)
                rep["unattributed_s"] = rep["wall_s"] - tracer.covered_s()
                spans.extend(
                    (len(reps), name, t0 - start, t1 - start, depth)
                    for name, t0, t1, depth in tracer.spans
                )
            reps.append(rep)
            # Start another repetition only if it should end within the time.
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(reps) > case["seconds"]:
                break
        calibrate(calibration)  # so the last operation has a burst after it too
    finally:
        if tracer is not None:
            tracer.restore()
    result = {
        "reps": reps,
        "calibration_s": calibration,
        "peak_rss_mb": _peak_rss_mb(),
        "spans": spans,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(*sys.argv[2:3])
    else:
        run(sys.argv[2], sys.argv[3])
