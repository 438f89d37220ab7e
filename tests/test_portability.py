"""Same bytes on every x86-64 BLAS kernel.

numpy's OpenBLAS picks a kernel per CPU (``DYNAMIC_ARCH``), and kernels
round matrix products differently. The estimators use no BLAS, so the
commands must write the same bytes whichever kernel runs. Each case runs
in a child process with ``OPENBLAS_CORETYPE`` set in the child's
environment only.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import steptrack

KERNELS = ("SkylakeX", "Haswell", "Nehalem")
TESTS = Path(__file__).resolve().parent


def _openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in str(blas.get("name", "")).lower()


pytestmark = pytest.mark.skipif(not _openblas(), reason="numpy is not linked against OpenBLAS")

# A short run of the desk figure-8, then a batch and a recursive fit over
# its cycles 1 to 3. Chosen so that BLAS arithmetic in the estimators
# shows: with it, the recursive fit prints other digits under Nehalem
# than under SkylakeX.
COMMANDS = """
import contextlib, hashlib, io
from steptrack.cli import main

csv = "telemetry.csv"  # one path for every kernel: ``simulate`` prints it
out = hashlib.sha256()
fit = ["fit", csv, "--k-y", "-11.4", "--t0", "10", "--t1", "39.99"]
for argv in (
    ["simulate", "desk_figure8", "--duration-s", "60", "--output", csv],
    fit + ["--mode", "batch-ls"],
    fit + ["--mode", "rls", "--forgetting", "0.999"],
):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        out.update(repr(main(argv)).encode())
    out.update(stdout.getvalue().encode())
with open(csv, "rb") as fh:
    out.update(fh.read())
print(out.hexdigest())
"""


def _run_under_each_kernel(args: list[str], cwd: Path) -> dict[str, tuple[int, str, str]]:
    """Exit code, stdout and stderr of ``python args`` under each kernel, the
    children running side by side, each in its own directory under ``cwd``."""
    src = str(Path(steptrack.__file__).resolve().parents[1])
    children = {}
    for kernel in KERNELS:
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        (cwd / kernel).mkdir()
        children[kernel] = subprocess.Popen(
            [sys.executable, *args], env=env, cwd=cwd / kernel, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
    results = {}
    try:
        for kernel, child in children.items():
            stdout, stderr = child.communicate(timeout=300)
            results[kernel] = (child.returncode, stdout, stderr)
    finally:
        for child in children.values():
            if child.poll() is None:
                child.kill()
                child.wait()
    return results


def test_commands_write_the_same_bytes_under_every_kernel(tmp_path):
    digests = set()
    results = _run_under_each_kernel(["-c", COMMANDS], tmp_path)
    for kernel, (code, stdout, stderr) in results.items():
        assert code == 0, (kernel, stderr)
        digests.add(stdout)
    assert len(digests) == 1, digests


def test_windup_tests_pass_bit_for_bit_under_every_kernel(tmp_path):
    module = TESTS / "test_estimators.py"
    args = [
        "-m", "pytest", "-q", "-p", "no:cacheprovider",
        f"{module}::test_rls_run_matches_rls_update_loop_through_windup",
        f"{module}::test_rls_run_stops_once_the_state_is_a_nan_fixed_point",
        f"{module}::test_rls_matches_the_reference_recursion_bit_for_bit",
    ]
    for kernel, (code, stdout, stderr) in _run_under_each_kernel(args, tmp_path).items():
        assert code == 0 and "3 passed" in stdout, (kernel, stdout + stderr)
