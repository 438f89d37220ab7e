"""Per-layer tracer for the traced benchmark run.

The tracer never edits the package. It rebinds the names through which
one steptrack module calls another (``steptrack.tracker.measure``,
``steptrack.cli.read_csv``, ...) and two methods on their classes, to
wrappers that count calls and add up self time: a call's span minus the
spans of the wrapped calls made inside it. ``restore`` puts every
original back.

The untraced child never imports this module, so the end-to-end
timings carry no tracing cost at all.
"""

from __future__ import annotations

import os
import time

# Names the traced run rebinds, per calling module: (module attribute,
# layer name). The layer name is the defining module and function.
MODULE_BINDINGS = {
    "steptrack.tracker": [
        ("satellite_direction", "orbit.satellite_direction"),
        ("az_coeff_from_elevation", "beacon.az_coeff_from_elevation"),
        ("measure", "antenna.measure"),
        ("receiver_voltage", "antenna.receiver_voltage"),
        ("tick", "antenna.tick"),
        ("command", "antenna.command"),
        ("regression_row", "estimators.regression_row"),
        ("rls_init", "estimators.rls_init"),
        ("rls_update", "estimators.rls_update"),
        ("rls_recover", "estimators.rls_recover"),
        ("ls_fit", "estimators.ls_fit"),
        ("recover_peak", "estimators.recover_peak"),
    ],
    "steptrack.antenna": [
        ("beacon_level", "beacon.beacon_level"),
    ],
    "steptrack.estimators": [
        ("recover_peak", "estimators.recover_peak"),
    ],
    "steptrack.cli": [
        ("resolve_scenario_path", "scenario.resolve_scenario_path"),
        ("load_scenario", "scenario.load_scenario"),
        ("run_scenario", "tracker.run_scenario"),
        ("write_csv", "telemetry.write_csv"),
        ("read_csv", "telemetry.read_csv"),
        ("beacon_stats", "telemetry.beacon_stats"),
        ("extract_trajectory", "telemetry.extract_trajectory"),
        ("az_coeff_from_elevation", "beacon.az_coeff_from_elevation"),
        ("regression_row", "estimators.regression_row"),
        ("rls_init", "estimators.rls_init"),
        ("rls_update", "estimators.rls_update"),
        ("rls_recover", "estimators.rls_recover"),
        ("ls_fit", "estimators.ls_fit"),
        ("recover_peak", "estimators.recover_peak"),
    ],
}

# Layers called once or a few times per command, not once per step: only
# these keep a full span record (name, start, end, depth). Per-step
# layers keep counts and times only, so that millions of calls do not
# turn the trace itself into the workload.
SPAN_LAYERS = {
    "cli.main",
    "scenario.resolve_scenario_path",
    "scenario.load_scenario",
    "tracker.run_scenario",
    "telemetry.write_csv",
    "telemetry.read_csv",
    "telemetry.beacon_stats",
    "telemetry.extract_trajectory",
    "estimators.ls_fit",
}

STEP_PHASES = ("wait", "acquire", "estimate", "move")


class Tracer:
    """Call counts, self times, extra counters and coarse spans, in memory."""

    def __init__(self):
        self.layers: dict[str, list] = {}  # name -> [calls, self_s]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack = [0.0]  # child time of each open span; [0] is the root
        self._patches: list[tuple[object, str, object]] = []

    def covered_s(self) -> float:
        """Time covered by outermost wrapped calls since the last reset."""
        return self._stack[0]

    def reset(self) -> None:
        for rec in self.layers.values():
            rec[:] = [0, 0.0]
        self.counters.clear()
        self.spans.clear()
        self._stack[:] = [0.0]

    def _record(self, name: str) -> list:
        return self.layers.setdefault(name, [0, 0.0])

    def wrap(self, name, fn, after=None):
        """``fn`` wrapped to charge its calls to layer ``name``.

        ``after(args, result)`` runs outside the timed span, for counters
        that look at a call's result.
        """
        stack = self._stack
        spans = self.spans if name in SPAN_LAYERS else None
        clock = time.perf_counter
        rec = self._record(name)

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                child = stack.pop()
                stack[-1] += t1 - t0
                rec[0] += 1
                rec[1] += t1 - t0 - child
                if spans is not None:
                    spans.append((name, t0, t1, len(stack) - 1))
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Rebind every traced name; call ``restore`` to undo."""
        import importlib

        from steptrack.telemetry import TelemetryLog
        from steptrack.tracker import StepTracker

        extra = {
            "antenna.tick": self._count_moving,
            "telemetry.write_csv": self._count_bytes("telemetry.write_csv.bytes", 1),
            "telemetry.read_csv": self._count_bytes("telemetry.read_csv.bytes", 0),
        }
        for module_name, bindings in MODULE_BINDINGS.items():
            module = importlib.import_module(module_name)
            for attr, name in bindings:
                fn = getattr(module, attr)
                self._patch(module, attr, self.wrap(name, fn, extra.get(name)))
        self._patch(TelemetryLog, "append",
                    self.wrap("telemetry.append", TelemetryLog.append))
        self._patch(StepTracker, "step", self._wrap_step(StepTracker.step))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap_step(self, step):
        # Charge each call to the phase the tracker is in when it starts.
        by_phase = {p: self.wrap(f"tracker.step.{p}", step) for p in STEP_PHASES}

        def traced_step(tracker, *args):
            return by_phase[tracker.phase.value](tracker, *args)

        return traced_step

    def _count_moving(self, args, result) -> None:
        # ``tick`` returns its input state unchanged when neither axis moves.
        if result is not args[0]:
            self.counters["antenna.tick.moving"] = (
                self.counters.get("antenna.tick.moving", 0) + 1
            )

    def _count_bytes(self, counter, path_index):
        def after(args, result) -> None:
            self.counters[counter] = (
                self.counters.get(counter, 0) + os.path.getsize(args[path_index])
            )

        return after
