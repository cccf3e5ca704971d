"""``results/`` holds on every BLAS kernel: the same verdicts, and numbers within a stated bound.

``tests/test_reproduce.py`` pins ``results/`` byte for byte, which holds only
on the kernel the bytes were made on (``tests/pinned_platform.json``).  This is
its portable twin.  ``write_results`` runs in subprocesses whose OpenBLAS is
forced, through ``OPENBLAS_CORETYPE`` set for those subprocesses only, onto
kernels that round zgemm and ``eigvalsh`` differently (Prescott, SandyBridge)
and onto the usual one (Haswell).  Every run must give the verdicts of
``results/verify.json``, ``sweep.csv`` within ``SWEEP_BOUND`` of
``results/sweep.csv``, and ``curve.csv`` byte for byte: the curve's path
calls no BLAS or LAPACK routine.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"

KERNELS = ("Prescott", "SandyBridge", "Haswell")

#: Largest move of a ``sweep.csv`` number from one kernel to another, 32 eps.
#: Only the simulated columns (and the gaps read off them) go through BLAS and
#: LAPACK.  A product of two 8x8 matrices is within gamma_8 |A||B| of the exact
#: one, with gamma_k = k u / (1 - k u) and u = eps / 2 (Higham, ch. 3), so
#: ``op @ big @ op^dagger`` is within gamma_16 of its entries' magnitudes, and
#: two kernels that sum in different orders differ by at most 2 gamma_16, about
#: 32 u.  The 4x4 partial transposes have norm at most 1, and ``eigvalsh`` is
#: backward stable with an error of a small multiple of 4 u.  Every sweep
#: number is at most 2 in magnitude, so 64 u = 32 eps covers both.  The
#: spread measured between these kernels is 2.2e-16, 1 eps.
SWEEP_BOUND = 32 * np.finfo(float).eps

WRITE = (
    "import pathlib, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from reproduce_results import write_results\n"
    "sys.exit(write_results(pathlib.Path(sys.argv[2])))\n"
)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each kernel's exit code and output directory, the three runs side by side."""
    started = {}
    for kernel in KERNELS:
        out = tmp_path_factory.mktemp(kernel)
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
        command = [sys.executable, "-c", WRITE, str(ROOT / "scripts"), str(out)]
        proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        started[kernel] = proc, out
    done = {}
    for kernel, (proc, out) in started.items():
        _, err = proc.communicate(timeout=120)
        done[kernel] = proc.returncode, out, err.decode()
    return done


def verdicts(path: Path) -> tuple[list[tuple[str, bool]], bool]:
    report = json.loads(path.read_text())
    return [(c["name"], c["passed"]) for c in report["checks"]], report["all_passed"]


def sweep_table(path: Path) -> tuple[str, np.ndarray]:
    header, *rows = path.read_text().splitlines()
    return header, np.array([[float(x) for x in row.split(",")] for row in rows])


@pytest.mark.parametrize("kernel", KERNELS)
def test_every_kernel_gives_the_committed_results(runs, kernel):
    code, out, err = runs[kernel]
    assert code == 0, err
    assert sorted(p.name for p in out.iterdir()) == ["curve.csv", "sweep.csv", "verify.json"]

    assert verdicts(out / "verify.json") == verdicts(RESULTS / "verify.json")

    header, table = sweep_table(out / "sweep.csv")
    pinned_header, pinned = sweep_table(RESULTS / "sweep.csv")
    assert header == pinned_header and table.shape == pinned.shape
    worst = np.abs(table - pinned).max()
    assert worst <= SWEEP_BOUND, f"sweep.csv moved by {worst:.3g} on {kernel}"

    assert (out / "curve.csv").read_bytes() == (RESULTS / "curve.csv").read_bytes()
