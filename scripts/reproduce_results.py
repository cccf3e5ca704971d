#!/usr/bin/env python3
"""Regenerate every quantitative artifact into results/.

Runs the default 11 x 9 parameter sweep (closed forms vs brute-force
simulation), the full verification report, and the entropy-vs-negativity
curve.  Exit status is nonzero if any verification check fails.
"""

import pathlib
import sys

from entport.cli import (
    DEFAULT_E0_GRID,
    DEFAULT_PHI_GRID,
    SweepGrid,
    cmd_curve,
    cmd_sweep,
    cmd_verify,
)


def write_results(outdir: pathlib.Path) -> int:
    """Write sweep.csv, verify.json and curve.csv into ``outdir``; the worst exit code."""
    outdir.mkdir(exist_ok=True)

    grid = SweepGrid(list(DEFAULT_E0_GRID), list(DEFAULT_PHI_GRID))
    rc_sweep = cmd_sweep(grid, str(outdir / "sweep.csv"), "csv")
    print(f"sweep  -> {outdir / 'sweep.csv'}  (exit {rc_sweep})")

    rc_verify = cmd_verify(trials=1000, seed=20240801, out_path=str(outdir / "verify.json"))
    print(f"verify -> {outdir / 'verify.json'}  (exit {rc_verify})")

    rc_curve = cmd_curve(points=201, out_path=str(outdir / "curve.csv"))
    print(f"curve  -> {outdir / 'curve.csv'}  (exit {rc_curve})")

    return max(rc_sweep, rc_verify, rc_curve)


def main() -> int:
    return write_results(pathlib.Path(__file__).resolve().parent.parent / "results")


if __name__ == "__main__":
    sys.exit(main())
