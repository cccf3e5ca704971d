"""Command line front end: parameter sweeps, verification runs, curve export.

Subcommands::

    entport sweep  --e0 <list|range> --phi <list|range> --out PATH [--format csv|json]
    entport verify --trials N --seed S --out PATH [--branches B]
    entport curve  --points N --out PATH

Value lists are comma separated (``0,0.5,1``); ranges are
``start:stop:count`` with inclusive endpoints.  CSV output uses '.' as the
decimal separator, 17 significant digits, a header row and LF line endings.
JSON sweep output is the bytes of ``json.dump(rows, indent=2, sort_keys=True)``
and a newline, each float in its shortest round-trip repr.
Every output is written atomically (a temporary file, then ``os.replace``) to
the file the path resolves to, which must be a regular file if it exists.
Exit codes: 0 success, 1 verification failure, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain
from typing import TextIO

import numpy as np

from .axioms import AXIOM_TOL, check_c1, check_c2, check_c3
from .entanglement import _negativities, entropy_vs_negativity_curve
from .matkernel import _blocks, _check_count, _herm_eigvals, _partial_transpose
from .states import _check_range, _werner_ew, _werner_states
from .teleport import _correlation_info, _entanglement, _fidelity, _information, simulate_grid

#: The largest closed-vs-simulated gap may reach this, in sweep and verify alike.
DISCREPANCY_TOL = 1e-8

#: Werner spectra are exact; ``eigvalsh`` of a 4x4 state errs by a few eps.
SPECTRUM_TOL = 1e-12

#: A negativity that should be exact carries the roundoff of the state it is read off.
NEGATIVITY_TOL = 1e-10

#: The gated checks of ``verify``, in report order, each with the tolerance its
#: largest violation may reach.  A gap of ``compare`` not named here is ungated.
VERIFY_CHECKS = {
    "axiom_c1": AXIOM_TOL,
    "axiom_c2": AXIOM_TOL,
    "axiom_c3": AXIOM_TOL,
    "werner_eigs": SPECTRUM_TOL,
    "werner_pt_eigs": SPECTRUM_TOL,
    "werner_negativity": NEGATIVITY_TOL,
    "fidelity_oracle_grid": DISCREPANCY_TOL,
    "entanglement_oracle_grid": DISCREPANCY_TOL,
    "entanglement_zero_at_ew_zero": NEGATIVITY_TOL,
    "information_oracle_grid": DISCREPANCY_TOL,
    "correlation_info_consistency": DISCREPANCY_TOL,
}

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
    """The (e0, phi) grid a sweep runs over.

    Both axes are stored as 1-D float64 arrays, the values the range checks
    read, so :func:`compare` evaluates the closed forms in float64 whatever
    the dtype of the values given.
    """

    e0_values: np.ndarray
    phi_values: np.ndarray

    def __post_init__(self):
        e0 = self.e0_values = _check_range("e0", self.e0_values, 0.0, 1.0)
        phi = self.phi_values = _check_range("phi", self.phi_values, -1.0, 1.0)
        if e0.ndim != 1 or phi.ndim != 1:
            raise ValueError(f"e0 and phi axes must be 1-D, got shapes {e0.shape}, {phi.shape}")
        _check_count("grid points", e0.size * phi.size, 1, MAX_GRID_POINTS)


def _parse(kind: type, field: str, token: str):
    """``kind(token)``, or a ``ValueError`` that names the field and the token."""
    try:
        return kind(token)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{field} must be {noun}, got {token!r}") from None


def parse_values(text: str) -> list[float]:
    """Parse ``a,b,c`` or ``start:stop:count`` into a list of floats."""
    s = text.strip()
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:stop:count, got {text!r}")
        start, stop = _parse(float, "range start", parts[0]), _parse(float, "range stop", parts[1])
        count = _parse(int, "range count", parts[2])
        if not np.isfinite([start, stop]).all():
            raise ValueError(f"range endpoints must be finite, got {text!r}")
        if not np.isfinite(stop - start):
            raise ValueError(f"range width stop - start must be finite, got {text!r}")
        _check_count("range count", count, 1, MAX_RANGE_COUNT)
        return [float(x) for x in np.linspace(start, stop, count)]
    values = [_parse(float, "list value", tok) for tok in s.split(",") if tok.strip()]
    if not values:
        raise ValueError(f"no values in {text!r}")
    return values


def _csv_layout(*header: str) -> tuple[str, str, str, str]:
    """The table layout of a CSV file: a header line, then one line of ``%.17g`` numbers a row."""
    return ",".join(header) + "\n", ",".join(["%.17g"] * len(header)), "\n", "\n"


def _json_layout(*keys: str) -> tuple[str, str, str, str]:
    """The table layout of ``json.dump(rows, indent=2)`` and a newline, for rows keyed ``keys``.

    Each number is written as its ``%r``, which for a finite Python float is
    the shortest round-trip repr, as ``json`` writes it.  The keys are written
    as given, so none may need a JSON escape or hold a ``%``.
    """
    fields = ",\n".join(f'    "{key}": %r' for key in keys)
    return "[\n", "  {\n" + fields + "\n  }", ",\n", "\n]\n"


def _write_table(
    handle: TextIO, layout: Sequence[str], rows: int, block: Callable[[slice], Iterable[float]]
) -> None:
    """Write ``rows`` rows in ``layout``, which is ``(head, row, separator, tail)``.

    ``row`` has one ``%`` field per number, and ``block(s)`` gives the numbers
    of the rows in slice ``s``, row by row.  The slices are
    ``matkernel._blocks`` with a row counted as its numbers, so each block of
    up to ``STACK_BLOCK`` numbers is formatted by one ``%`` and written by one
    ``handle.write`` (the head before the first, the tail with the last), and
    the table is never held as text.  Blocks of rows rather than numbers
    raised the sweep's peak memory (measured in ``CHANGES.md``).
    """
    head, row, separator, tail = layout
    handle.write(head)
    for s in _blocks(rows, row.count("%")):
        end = tail if s.stop == rows else separator
        handle.write((separator.join([row] * (s.stop - s.start)) + end) % tuple(block(s)))


def _write_atomic(out_path: str, write: Callable[[TextIO], None]) -> int:
    """Write ``out_path`` through ``write(handle)`` all at once, or not at all.

    The path is resolved first, so a symbolic link keeps pointing at its
    target and the target gets the text; a target that exists and is not a
    regular file (a directory, a FIFO, a device) is refused.  The text goes
    to a new temporary file in the target's directory, whose name does not
    grow with the target's, which then replaces the target, so a failed
    write leaves any existing file as it was and no temporary file behind.
    Returns 0, or 2 after reporting an I/O error on stderr.
    """
    target = os.path.realpath(out_path)
    tmp_path = os.path.join(os.path.dirname(target), f".entport-{os.urandom(8).hex()}.tmp")
    created = False
    try:
        if os.path.lexists(target) and not stat.S_ISREG(os.stat(target).st_mode):
            raise OSError(f"{target} is not a regular file")
        with open(tmp_path, "x", newline="") as handle:
            created = True
            write(handle)
        os.replace(tmp_path, target)
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
    A row's ``max_abs_discrepancy`` is the largest of its gated gaps.
    """
    if not isinstance(grid, SweepGrid):
        raise ValueError("grid must be a SweepGrid")
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
    # JSON rows carry their keys sorted, as json.dump(..., sort_keys=True) writes them.
    keys = SWEEP_COLUMNS if fmt == "csv" else sorted(columns)
    layout = _csv_layout(*keys) if fmt == "csv" else _json_layout(*keys)

    def stacked_rows(rows: slice) -> list[float]:
        return np.column_stack([columns[key][rows] for key in keys]).ravel().tolist()

    def write(handle):
        _write_table(handle, layout, len(columns["e0"]), stacked_rows)

    if _write_atomic(out_path, write):
        return 2
    return 0 if columns["max_abs_discrepancy"].max() <= DISCREPANCY_TOL else 1


def _fixture_violations() -> dict[str, np.ndarray]:
    """The fixed-input checks of ``verify``, as arrays of violations.

    The spectra and negativities of Werner states at five weights against their
    exact values, and the correlation information read from the final
    entanglement against its closed form, at four channels and every default e0.
    The Werner states are built here from constants, so they are not validated.
    """
    f = np.array([-1.0 / 3.0, 0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])[:, None]
    phi = (3.0 * f[:, 0] - 1.0) / 2.0
    states = _werner_states(phi)
    expected = np.sort(np.hstack([np.repeat((1 - f) / 4, 3, axis=1), (1 + 3 * f) / 4]))
    expected_pt = np.sort(np.hstack([np.repeat((1 + f) / 4, 3, axis=1), (1 - 3 * f) / 4]))
    ew, e0 = np.meshgrid([0.25, 0.5, 0.75, 1.0], DEFAULT_E0_GRID, indexing="ij")
    consistency = _correlation_info(_entanglement(e0, ew), ew) - _information(e0, ew)[3]
    return {
        "werner_eigs": np.abs(_herm_eigvals(states) - expected),
        "werner_pt_eigs": np.abs(_herm_eigvals(_partial_transpose(states)) - expected_pt),
        "werner_negativity": np.abs(_negativities(states)[0] - _werner_ew(phi)),
        "correlation_info_consistency": np.abs(consistency),
    }


def cmd_verify(trials: int, seed: int, out_path: str, branches: int = 2) -> int:
    """Run the axiom suite, the oracle grids and the Werner fixtures.

    Every source gives its violations by check name: the C1-C3 reports,
    :func:`_fixture_violations` and the gaps of :func:`compare`.  Each row of
    ``VERIFY_CHECKS`` becomes one check entry, passed when the largest violation
    is at most its tolerance; the gaps of ``compare`` that no row names are
    reported, ungated, as ``diagnostics.phi_negative_branch``.
    """
    # C3 runs first so that a bad trial or branch count fails before C1 and C2 run;
    # every trial seeds its own generator, so the order changes no result.  Its
    # gates pass numpy integers too, so the report echoes them as Python ints.
    c3 = check_c3(trials, branches, seed)
    trials, branches, seed = c3.trials, int(branches), int(seed)
    reports = check_c1(trials, seed), check_c2(trials, seed), c3
    axioms = {f"axiom_{r.condition.lower()}": r.max_violation for r in reports}
    _, gaps = compare(SweepGrid(list(DEFAULT_E0_GRID), list(DEFAULT_PHI_GRID)))
    found = axioms | _fixture_violations() | gaps
    worst = {name: float(np.max(violations, initial=0.0)) for name, violations in found.items()}
    checks = [
        {"name": name, "max_violation": worst[name], "tolerance": tol, "passed": worst[name] <= tol}
        | ({"trials": trials} if name in axioms else {})
        for name, tol in VERIFY_CHECKS.items()
    ]

    report = {
        "schema": "entport-verify/1",
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "seed": seed,
        "trials": trials,
        "branches": branches,
        "checks": checks,
        "diagnostics": {
            "c3_skip_rate": c3.skip_rate,
            "phi_negative_branch": {n: worst[n] for n in gaps if n not in VERIFY_CHECKS},
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
        _write_table(handle, _csv_layout("e", "s"), len(curve), lambda s: chain(*curve[s]))

    return _write_atomic(out_path, write)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``entport`` argument parser, built once per process on the first call.

    Building it takes about 0.9 ms on a shared 2-CPU host (four parsers,
    each probing the terminal size), an eighth of a warm 2,001-point
    ``curve``; later calls reuse it.  It is built lazily, not at import, so
    that an import of this module or of the package does not pay for it.
    """
    # Options are spelled in full: a prefix of one is an unrecognised argument,
    # whatever its value (``_merge_value_flags`` folds only the full names).
    full_names = {"allow_abbrev": False}
    parser = argparse.ArgumentParser(
        prog="entport",
        description="Teleportation of one half of an entangled pair through a "
        "noisy Werner channel: sweeps, verification, curve export.",
        **full_names,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="closed forms vs simulation over a grid", **full_names)
    sweep.add_argument("--e0", default=None, help="initial entanglements (list or range)")
    sweep.add_argument("--phi", default=None, help="channel parameters (list or range)")
    sweep.add_argument("--out", required=True, help="output file")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")

    verify = sub.add_parser("verify", help="axiom suite, oracle grids, fixtures", **full_names)
    verify.add_argument("--trials", type=int, default=1000)
    verify.add_argument("--seed", type=int, default=20240801)
    verify.add_argument("--branches", type=int, default=2, help="measurement branches per family")
    verify.add_argument("--out", required=True, help="output JSON file")

    curve = sub.add_parser("curve", help="entropy of entanglement vs negativity", **full_names)
    curve.add_argument("--points", type=int, default=101)
    curve.add_argument("--out", required=True, help="output CSV file")

    return parser


def _merge_value_flags(argv: list[str]) -> list[str]:
    # argparse mistakes values like "-1:1:9" for option names; fold the
    # value into the flag token so negative grids parse as documented.
    merged = []
    tokens = iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in ("--e0", "--phi") else None
        merged.append(token if value is None else f"{token}={value}")
    return merged


def main(argv: list[str] | None = None) -> int:
    """Run one ``entport`` command on ``argv`` (default: the process arguments).

    Returns the exit code, except on a usage error: argparse reports that on
    stderr and raises ``SystemExit(2)``.  Every other failure, a bad value or
    an I/O error, is reported on stderr and returned as a code (see the module
    docstring).  The parser is :func:`_build_parser`'s: built once
    per process, lazily on the first call so that an import does not pay for
    it, and reused by every later call.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(_merge_value_flags(argv))
    for name, value in vars(args).items():  # argparse reads a lone "--" value as []
        if isinstance(value, list):
            _build_parser().error(f"argument --{name}: expected one value, got '--'")
    try:
        if args.command == "sweep":
            e0_values = list(DEFAULT_E0_GRID) if args.e0 is None else parse_values(args.e0)
            phi_values = list(DEFAULT_PHI_GRID) if args.phi is None else parse_values(args.phi)
            return cmd_sweep(SweepGrid(e0_values, phi_values), args.out, args.format)
        if args.command == "verify":
            return cmd_verify(args.trials, args.seed, args.out, branches=args.branches)
        # The subparsers are required, so any other command is curve.
        return cmd_curve(args.points, args.out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
