"""Command line front end: parameter sweeps, verification runs, curve export.

Subcommands::

    entport sweep  --e0 <list|range> --phi <list|range> --out PATH [--format csv|json]
    entport verify --trials N --seed S --out PATH [--branches B]
    entport curve  --points N --out PATH

Value lists are comma separated (``0,0.5,1``); ranges are
``start:stop:count`` with inclusive endpoints.  CSV output uses '.' as the
decimal separator, 17 significant digits, a header row and LF line endings.
Every output is written atomically (a temporary file, then ``os.replace``).
Exit codes: 0 success, 1 verification failure, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import TextIO

import numpy as np

from .axioms import AXIOM_TOL, check_c1, check_c2, check_c3
from .entanglement import entropy_vs_negativity_curve, negativities
from .matkernel import _check_count, _herm_eigvals, _partial_transpose
from .states import _check_range, _werner_ew, werner_states
from .teleport import (
    _entanglement,
    _fidelity,
    _information,
    correlation_info_from_entanglement,
    final_entanglement_closed_form,
    final_information_closed_form,
    simulate_grid,
)

#: Every checked closed-vs-simulated gap must lie below this, in sweep and verify alike.
DISCREPANCY_TOL = 1e-8

#: Werner spectra are exact; ``eigvalsh`` of a 4x4 state errs by a few eps.
SPECTRUM_TOL = 1e-12

#: A negativity that should be exact carries the roundoff of the state it is read off.
NEGATIVITY_TOL = 1e-10

#: Largest ``count`` accepted in a ``start:stop:count`` range, checked before
#: the values are allocated.
MAX_RANGE_COUNT = 10_000

#: Most (e0, phi) points a sweep accepts, checked before the grid is expanded.  At the cap
#: the ``tracemalloc`` peak of ``cmd_sweep`` is 22 MiB for CSV and for JSON (a 250 x 400 grid).
MAX_GRID_POINTS = 100_000

DEFAULT_E0_GRID = tuple(round(0.1 * i, 10) for i in range(11))
DEFAULT_PHI_GRID = tuple(-1.0 + 0.25 * i for i in range(9))

SWEEP_COLUMNS = (
    "e0",
    "phi",
    "ew",
    "fidelity_closed",
    "fidelity_sim",
    "ent_final_closed",
    "ent_final_sim",
    "info_total",
    "info_i1",
    "info_i4",
    "info_ic",
    "max_abs_discrepancy",
)


@dataclass
class SweepGrid:
    """The (e0, phi) grid a sweep runs over."""

    e0_values: list[float]
    phi_values: list[float]

    def __post_init__(self):
        _check_count("grid points", len(self.e0_values) * len(self.phi_values), 1, MAX_GRID_POINTS)
        _check_range("e0", self.e0_values, 0.0, 1.0)
        _check_range("phi", self.phi_values, -1.0, 1.0)


def parse_values(text: str) -> list[float]:
    """Parse ``a,b,c`` or ``start:stop:count`` into a list of floats."""
    s = text.strip()
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:stop:count, got {text!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if not np.isfinite([start, stop]).all():
            raise ValueError(f"range endpoints must be finite, got {text!r}")
        _check_count("range count", count, 1, MAX_RANGE_COUNT)
        return [float(x) for x in np.linspace(start, stop, count)]
    values = [float(tok) for tok in s.split(",") if tok.strip()]
    if not values:
        raise ValueError(f"no values in {text!r}")
    return values


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_atomic(out_path: str, write: Callable[[TextIO], None]) -> int:
    """Write ``out_path`` through ``write(handle)`` all at once, or not at all.

    The text goes to a new temporary file in the target's directory, which
    then replaces the target, so a failed write leaves any existing file as
    it was and no temporary file behind.  Returns 0, or 2 after reporting an
    I/O error on stderr.
    """
    directory, name = os.path.split(os.path.abspath(out_path))
    tmp_path = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    created = False
    try:
        with open(tmp_path, "x", newline="") as handle:
            created = True
            write(handle)
        os.replace(tmp_path, out_path)
        created = False
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return 2
    finally:
        if created:
            os.unlink(tmp_path)
    return 0


def compare(grid: SweepGrid) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """The closed forms against the simulation at every (e0, phi) point of ``grid``.

    Returns the ``SWEEP_COLUMNS`` as arrays over the points, e0 by e0 and phi by phi
    within each, and each named gap that ``verify`` folds as an array over the points
    where it is read: every point for the entanglement, phi >= 0 for the fidelity and
    information, phi < 0 for the vanishing simulated entanglement and the ungated
    readings (phi substituted into the cores, and ew = 0).  The simulation and the
    closed forms, read at ``ew = max(0, phi)``, each run once over the whole grid.
    """
    e0 = np.repeat(grid.e0_values, len(grid.phi_values))
    phi = np.tile(grid.phi_values, len(grid.e0_values))
    sim = simulate_grid(e0, phi)
    fid, ent, info = sim.averaged_fidelity, sim.final_entanglement, sim.final_information
    ew = _werner_ew(phi)
    fid_closed, ent_closed = _fidelity(e0, ew), _entanglement(e0, ew)
    info_closed = _information(e0, ew)

    ent_gap = np.abs(ent_closed - ent)
    fid_gap = np.abs(fid_closed - fid)
    info_gap = np.abs(np.column_stack(info_closed) - info).max(axis=1)
    gated, negative = phi >= 0.0, phi < 0.0
    discrepancy = np.where(gated, np.maximum(np.maximum(ent_gap, fid_gap), info_gap), ent_gap)
    values = (e0, phi, ew, fid_closed, fid, ent_closed, ent, *info_closed, discrepancy)

    gaps = {
        "entanglement_oracle_grid": ent_gap,
        "fidelity_oracle_grid": fid_gap[gated],
        "information_oracle_grid": info_gap[gated],
        "entanglement_zero_at_ew_zero": ent[negative],
        "fidelity_phi_substitution_max_delta": np.abs(_fidelity(e0, phi) - fid)[negative],
        "fidelity_ew_zero_max_delta": fid_gap[negative],
        "information_total_phi_substitution_max_delta": np.abs(
            _information(e0, phi)[0] - info[:, 0]
        )[negative],
        "information_total_ew_zero_max_delta": np.abs(info_closed[0] - info[:, 0])[negative],
        "entanglement_clamped_max_delta": ent_gap[negative],
        "entanglement_phi_substitution_max_delta": np.abs(_entanglement(e0, phi) - ent)[negative],
    }
    return dict(zip(SWEEP_COLUMNS, values)), gaps


def cmd_sweep(grid: SweepGrid, out_path: str, fmt: str = "csv") -> int:
    """Evaluate the closed forms and the simulation over a grid; write rows."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    columns, _ = compare(grid)

    def write(handle):
        rows = zip(*columns.values())
        if fmt == "csv":
            handle.write(",".join(SWEEP_COLUMNS) + "\n")
            for row in rows:
                handle.write(",".join(map(_fmt, row)) + "\n")
        else:
            # The bytes of json.dump(list_of_row_dicts, indent=2, sort_keys=True),
            # one row at a time, so the rows are never all held as dicts.
            for i, row in enumerate(rows):
                text = json.dumps(dict(zip(columns, row)), indent=2, sort_keys=True)
                handle.write(("[\n  " if i == 0 else ",\n  ") + text.replace("\n", "\n  "))
            handle.write("\n]\n")

    if _write_atomic(out_path, write):
        return 2
    return 0 if columns["max_abs_discrepancy"].max() < DISCREPANCY_TOL else 1


def _check(name: str, max_violation: float, tolerance: float) -> dict:
    value = float(max_violation)
    passed = value <= tolerance
    return {"name": name, "max_violation": value, "tolerance": tolerance, "passed": passed}


def _werner_fixture_checks() -> list[dict]:
    f = np.array([-1.0 / 3.0, 0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])[:, None]
    phi = (3.0 * f[:, 0] - 1.0) / 2.0
    states = werner_states(phi)
    expected = np.sort(np.hstack([np.repeat((1 - f) / 4, 3, axis=1), (1 + 3 * f) / 4]))
    expected_pt = np.sort(np.hstack([np.repeat((1 + f) / 4, 3, axis=1), (1 - 3 * f) / 4]))
    pt_eigs = _herm_eigvals(_partial_transpose(states))
    neg = negativities(states)
    return [
        _check("werner_eigs", np.abs(_herm_eigvals(states) - expected).max(), SPECTRUM_TOL),
        _check("werner_pt_eigs", np.abs(pt_eigs - expected_pt).max(), SPECTRUM_TOL),
        _check("werner_negativity", np.abs(neg - _werner_ew(phi)).max(), NEGATIVITY_TOL),
    ]


def _oracle_grid_checks() -> tuple[list[dict], dict]:
    """The gated oracle-grid checks and, left over, the phi < 0 readings, from ``compare``."""
    _, gaps = compare(SweepGrid(list(DEFAULT_E0_GRID), list(DEFAULT_PHI_GRID)))
    worst = {name: float(gap.max(initial=0.0)) for name, gap in gaps.items()}
    worst["correlation_info_consistency"] = max(
        abs(
            correlation_info_from_entanglement(final_entanglement_closed_form(e0, ew), ew)
            - final_information_closed_form(e0, ew).correlation
        )
        for ew in (0.25, 0.5, 0.75, 1.0)
        for e0 in DEFAULT_E0_GRID
    )
    gated = [
        _check(name, worst.pop(name), tolerance)
        for name, tolerance in (
            ("fidelity_oracle_grid", DISCREPANCY_TOL),
            ("entanglement_oracle_grid", DISCREPANCY_TOL),
            ("entanglement_zero_at_ew_zero", NEGATIVITY_TOL),
            ("information_oracle_grid", DISCREPANCY_TOL),
            ("correlation_info_consistency", DISCREPANCY_TOL),
        )
    ]
    return gated, worst


def cmd_verify(trials: int, seed: int, out_path: str, branches: int = 2) -> int:
    """Run the axiom suite, the oracle grids and the Werner fixtures."""
    # C3 runs first so that a bad trial or branch count fails before C1 and C2 run;
    # every trial seeds its own generator, so the order changes no result.
    c3 = check_c3(trials, branches, seed)
    c1 = check_c1(trials, seed)
    c2 = check_c2(trials, seed)
    checks = [
        {**_check(f"axiom_{r.condition.lower()}", r.max_violation, AXIOM_TOL), "trials": r.trials}
        for r in (c1, c2, c3)
    ]
    grid_checks, neg_branch = _oracle_grid_checks()
    checks += _werner_fixture_checks() + grid_checks

    report = {
        "schema": "entport-verify/1",
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "seed": seed,
        "trials": trials,
        "branches": branches,
        "checks": checks,
        "diagnostics": {
            "c3_skip_rate": c3.skip_rate,
            "phi_negative_branch": neg_branch,
        },
        "all_passed": all(check["passed"] for check in checks),
    }

    def write(handle):
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    if _write_atomic(out_path, write):
        return 2
    return 0 if report["all_passed"] else 1


def cmd_curve(points: int, out_path: str) -> int:
    """Write the entropy-vs-negativity curve as CSV with columns e, s."""
    curve = entropy_vs_negativity_curve(points)

    def write(handle):
        handle.write("e,s\n")
        for e, s in curve:
            handle.write(f"{_fmt(e)},{_fmt(s)}\n")

    return _write_atomic(out_path, write)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entport",
        description="Teleportation of one half of an entangled pair through a "
        "noisy Werner channel: sweeps, verification, curve export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="closed forms vs simulation over a grid")
    sweep.add_argument("--e0", default=None, help="initial entanglements (list or range)")
    sweep.add_argument("--phi", default=None, help="channel parameters (list or range)")
    sweep.add_argument("--out", required=True, help="output file")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")

    verify = sub.add_parser("verify", help="axiom suite, oracle grids, fixtures")
    verify.add_argument("--trials", type=int, default=1000)
    verify.add_argument("--seed", type=int, default=20240801)
    verify.add_argument("--branches", type=int, default=2, help="measurement branches per family")
    verify.add_argument("--out", required=True, help="output JSON file")

    curve = sub.add_parser("curve", help="entropy of entanglement vs negativity")
    curve.add_argument("--points", type=int, default=101)
    curve.add_argument("--out", required=True, help="output CSV file")

    return parser


def _merge_value_flags(argv: list[str]) -> list[str]:
    # argparse mistakes values like "-1:1:9" for option names; fold the
    # value into the flag token so negative grids parse as documented.
    merged = []
    tokens = iter(argv)
    for token in tokens:
        if token in ("--e0", "--phi"):
            value = next(tokens, None)
            merged.append(token if value is None else f"{token}={value}")
        else:
            merged.append(token)
    return merged


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(_merge_value_flags(argv))
    try:
        if args.command == "sweep":
            e0_values = parse_values(args.e0) if args.e0 else list(DEFAULT_E0_GRID)
            phi_values = parse_values(args.phi) if args.phi else list(DEFAULT_PHI_GRID)
            return cmd_sweep(SweepGrid(e0_values, phi_values), args.out, args.format)
        if args.command == "verify":
            return cmd_verify(args.trials, args.seed, args.out, branches=args.branches)
        if args.command == "curve":
            return cmd_curve(args.points, args.out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
