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

from .axioms import AXIOM_TOL, check_c1, check_c2, check_c3, check_trials
from .entanglement import entropy_vs_negativity_curve, negativity
from .matkernel import herm_eigvals, partial_transpose
from .states import WernerChannel, seed_state, werner_state
from .teleport import (
    fidelity_closed_form,
    final_entanglement_closed_form,
    final_information_closed_form,
    correlation_info_from_entanglement,
    simulate,
)

#: A sweep exits 0 only if every checked closed-vs-simulated gap is below this.
DISCREPANCY_TOL = 1e-8

#: Largest ``count`` accepted in a ``start:stop:count`` range, checked before
#: the values are allocated.
MAX_RANGE_COUNT = 10_000

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
        if not self.e0_values or not self.phi_values:
            raise ValueError("sweep grid must be nonempty")
        if any(not 0.0 <= v <= 1.0 for v in self.e0_values):
            raise ValueError("e0 values must lie in [0, 1]")
        if any(not -1.0 <= v <= 1.0 for v in self.phi_values):
            raise ValueError("phi values must lie in [-1, 1]")


def parse_values(text: str) -> list[float]:
    """Parse ``a,b,c`` or ``start:stop:count`` into a list of floats."""
    s = text.strip()
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:stop:count, got {text!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if not 1 <= count <= MAX_RANGE_COUNT:
            raise ValueError(f"range count must lie in [1, {MAX_RANGE_COUNT}], got {count}")
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


def _sweep_row(e0: float, phi: float) -> dict:
    channel = WernerChannel(phi)
    ew = channel.ew
    report = simulate(seed_state(e0), channel)

    fid_closed = fidelity_closed_form(e0, ew)
    ent_closed = final_entanglement_closed_form(e0, ew)
    info_closed = final_information_closed_form(e0, ew)
    info_sim = report.final_information

    # The entanglement form (with ew clamped at 0) holds on both branches of
    # phi; the fidelity and information forms only claim phi >= 0, where
    # ew == phi.  On phi < 0 the simulation is authoritative.
    deltas = [abs(ent_closed - report.final_entanglement)]
    if phi >= 0.0:
        deltas.append(abs(fid_closed - report.averaged_fidelity))
        deltas.append(abs(info_closed.total - info_sim.total))
        deltas.append(abs(info_closed.individual_a - info_sim.individual_a))
        deltas.append(abs(info_closed.individual_b - info_sim.individual_b))
        deltas.append(abs(info_closed.correlation - info_sim.correlation))

    return {
        "e0": e0,
        "phi": phi,
        "ew": ew,
        "fidelity_closed": fid_closed,
        "fidelity_sim": report.averaged_fidelity,
        "ent_final_closed": ent_closed,
        "ent_final_sim": report.final_entanglement,
        "info_total": info_closed.total,
        "info_i1": info_closed.individual_a,
        "info_i4": info_closed.individual_b,
        "info_ic": info_closed.correlation,
        "max_abs_discrepancy": max(deltas),
    }


def cmd_sweep(grid: SweepGrid, out_path: str, fmt: str = "csv") -> int:
    """Evaluate the closed forms and the simulation over a grid; write rows."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    rows = [_sweep_row(e0, phi) for e0 in grid.e0_values for phi in grid.phi_values]

    def write(handle):
        if fmt == "csv":
            handle.write(",".join(SWEEP_COLUMNS) + "\n")
            for row in rows:
                handle.write(",".join(_fmt(row[col]) for col in SWEEP_COLUMNS) + "\n")
        else:
            json.dump(rows, handle, indent=2, sort_keys=True)
            handle.write("\n")

    if _write_atomic(out_path, write):
        return 2
    worst = max(row["max_abs_discrepancy"] for row in rows)
    return 0 if worst < DISCREPANCY_TOL else 1


def _werner_fixture_checks() -> list[dict]:
    eig_worst = 0.0
    pt_worst = 0.0
    neg_worst = 0.0
    for f in (-1.0 / 3.0, 0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0):
        phi = (3.0 * f - 1.0) / 2.0
        state = werner_state(phi)
        expected = np.sort([(1 - f) / 4] * 3 + [(1 + 3 * f) / 4])
        eig_worst = max(eig_worst, float(np.max(np.abs(herm_eigvals(state) - expected))))
        expected_pt = np.sort([(1 + f) / 4] * 3 + [(1 - 3 * f) / 4])
        pt_worst = max(
            pt_worst,
            float(np.max(np.abs(herm_eigvals(partial_transpose(state)) - expected_pt))),
        )
        neg_worst = max(
            neg_worst, abs(negativity(state).value - max(0.0, (3.0 * f - 1.0) / 2.0))
        )
    return [
        {"name": "werner_eigs", "max_violation": eig_worst, "tolerance": 1e-12},
        {"name": "werner_pt_eigs", "max_violation": pt_worst, "tolerance": 1e-12},
        {"name": "werner_negativity", "max_violation": neg_worst, "tolerance": 1e-10},
    ]


def _oracle_grid_checks() -> tuple[list[dict], dict]:
    fid_worst = 0.0
    ent_worst = 0.0
    ent_zero_worst = 0.0
    info_worst = 0.0
    consistency_worst = 0.0
    neg_branch = {
        "fidelity_phi_substitution_max_delta": 0.0,
        "fidelity_ew_zero_max_delta": 0.0,
        "information_total_phi_substitution_max_delta": 0.0,
        "information_total_ew_zero_max_delta": 0.0,
        "entanglement_clamped_max_delta": 0.0,
        "entanglement_phi_substitution_max_delta": 0.0,
    }

    for e0 in DEFAULT_E0_GRID:
        for phi in DEFAULT_PHI_GRID:
            channel = WernerChannel(phi)
            ew = channel.ew
            report = simulate(seed_state(e0), channel)
            ent_closed = final_entanglement_closed_form(e0, ew)
            ent_worst = max(ent_worst, abs(ent_closed - report.final_entanglement))
            if phi >= 0.0:
                fid_worst = max(
                    fid_worst,
                    abs(fidelity_closed_form(e0, ew) - report.averaged_fidelity),
                )
                closed = final_information_closed_form(e0, ew)
                sim = report.final_information
                info_worst = max(
                    info_worst,
                    abs(closed.total - sim.total),
                    abs(closed.individual_a - sim.individual_a),
                    abs(closed.individual_b - sim.individual_b),
                    abs(closed.correlation - sim.correlation),
                )
            else:
                ent_zero_worst = max(ent_zero_worst, report.final_entanglement)
                # Both readings of the phi < 0 branch, reported but not gated:
                # substituting phi itself into the closed forms versus using
                # ew = max(0, phi) = 0.
                fid_phi = (phi + 2.0) / 3.0 + (phi - 1.0) / 6.0 * e0 * e0
                g = (2.0 * phi + 1.0) / 3.0
                info_phi = (2.0 / 3.0) * (1.0 + 2.0 * g * g + (g * g - 1.0) * e0 * e0)
                u = 1.0 - phi
                ent_phi = (
                    np.sqrt(max(0.0, u * u + 3.0 * phi * (2.0 + phi) * e0 * e0)) - u
                ) / 3.0
                neg_branch["fidelity_phi_substitution_max_delta"] = max(
                    neg_branch["fidelity_phi_substitution_max_delta"],
                    abs(fid_phi - report.averaged_fidelity),
                )
                neg_branch["fidelity_ew_zero_max_delta"] = max(
                    neg_branch["fidelity_ew_zero_max_delta"],
                    abs(fidelity_closed_form(e0, 0.0) - report.averaged_fidelity),
                )
                neg_branch["information_total_phi_substitution_max_delta"] = max(
                    neg_branch["information_total_phi_substitution_max_delta"],
                    abs(info_phi - report.final_information.total),
                )
                neg_branch["information_total_ew_zero_max_delta"] = max(
                    neg_branch["information_total_ew_zero_max_delta"],
                    abs(
                        final_information_closed_form(e0, 0.0).total
                        - report.final_information.total
                    ),
                )
                neg_branch["entanglement_clamped_max_delta"] = max(
                    neg_branch["entanglement_clamped_max_delta"],
                    abs(ent_closed - report.final_entanglement),
                )
                neg_branch["entanglement_phi_substitution_max_delta"] = max(
                    neg_branch["entanglement_phi_substitution_max_delta"],
                    abs(float(ent_phi) - report.final_entanglement),
                )

    for ew in (0.25, 0.5, 0.75, 1.0):
        for e0 in DEFAULT_E0_GRID:
            e_final = final_entanglement_closed_form(e0, ew)
            consistency_worst = max(
                consistency_worst,
                abs(
                    correlation_info_from_entanglement(e_final, ew)
                    - final_information_closed_form(e0, ew).correlation
                ),
            )

    checks = [
        {"name": "fidelity_oracle_grid", "max_violation": fid_worst, "tolerance": 1e-8},
        {"name": "entanglement_oracle_grid", "max_violation": ent_worst, "tolerance": 1e-8},
        {
            "name": "entanglement_zero_at_ew_zero",
            "max_violation": ent_zero_worst,
            "tolerance": 1e-10,
        },
        {"name": "information_oracle_grid", "max_violation": info_worst, "tolerance": 1e-8},
        {
            "name": "correlation_info_consistency",
            "max_violation": consistency_worst,
            "tolerance": 1e-8,
        },
    ]
    return checks, neg_branch


def cmd_verify(trials: int, seed: int, out_path: str, branches: int = 2) -> int:
    """Run the axiom suite, the oracle grids and the Werner fixtures."""
    check_trials(trials)
    # C3 runs first so that a bad branch count fails before C1 and C2 run;
    # every trial seeds its own generator, so the order changes no result.
    c3 = check_c3(trials, branches, seed)
    c1 = check_c1(trials, seed)
    c2 = check_c2(trials, seed)
    checks = [
        {
            "name": f"axiom_{r.condition.lower()}",
            "max_violation": r.max_violation,
            "tolerance": AXIOM_TOL,
            "trials": r.trials,
        }
        for r in (c1, c2, c3)
    ]
    checks.extend(_werner_fixture_checks())
    grid_checks, neg_branch = _oracle_grid_checks()
    checks.extend(grid_checks)
    for check in checks:
        check["passed"] = bool(check["max_violation"] <= check["tolerance"])

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
