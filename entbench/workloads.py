"""The benchmark's workloads: CLI arguments made from the seed, and output checks.

Each workload is one ``entport`` subcommand.  A round runs the command once
and then checks every item of its output against :mod:`reference`; each
checked item, and the exit status, is one operation.  ``check`` returns the number of operations
and a list of ``(known_fault, message)`` for the ones that failed, where
``known_fault`` marks the negativity probes that fail on every run because of
the negativity dead zone (``entanglement.NEGATIVE_EIG_THRESHOLD``).
"""

from __future__ import annotations

import csv
import json
import math
import re

import numpy as np

import reference

#: Roundoff allowance for a simulated or closed-form value against the
#: reference; the observed worst case is about 2e-15.
VALUE_TOL = 1e-12

#: The program's own sweep gate (``cli.DISCREPANCY_TOL``).
DISCREPANCY_TOL = 1e-8

#: Negativities up to this width are read as 0 by the program (it drops
#: partial-transpose eigenvalues above -1e-10).  A sweep row whose reference
#: negativity falls inside the band may read either value; the fault itself
#: is measured by the verify workload's probes on fixed inputs.
DEAD_ZONE = 2e-10

#: c0 values for ``negativity(seed_state(c0)) == |c0|``.  The first five lie
#: inside the dead zone and fail on every run; the rest pass.
PROBES = (1e-12, 1e-11, 5e-11, 1e-10, 1.9e-10, 2.1e-10, 1e-9, 1e-6, 0.3)
PROBE_TOL = 1e-14


def _values(xs) -> str:
    return ",".join(repr(float(x)) for x in xs)


class Sweep:
    """Closed forms against the brute-force simulation on a seeded (e0, phi) grid."""

    name = "sweep"
    n_e0 = 20
    n_phi = 20

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        # Fixed corners plus uniform draws; phi covers both signs.
        self.e0 = sorted(map(float, [0.0, 1.0, *rng.uniform(0.0, 1.0, self.n_e0 - 2)]))
        half = (self.n_phi - 3) // 2
        self.phi = sorted(map(float, [-1.0, 0.0, 1.0, *rng.uniform(-1.0, 0.0, half),
                                      *rng.uniform(0.0, 1.0, self.n_phi - 3 - half)]))
        self.items = self.n_e0 * self.n_phi
        self.expected = {
            (e0, phi): (reference.paper_closed_forms(e0, phi), reference.sweep_reference(e0, phi))
            for e0 in self.e0
            for phi in self.phi
        }

    def argv(self, out: str) -> list[str]:
        return ["sweep", "--e0", _values(self.e0), "--phi", _values(self.phi),
                "--out", out, "--format", "csv"]

    def check(self, rc: int, out: str) -> tuple[int, list[tuple[bool, str]]]:
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        keys = [(e0, phi) for e0 in self.e0 for phi in self.phi]
        if len(rows) != len(keys):
            msg = f"sweep wrote {len(rows)} rows, expected {len(keys)}"
            return self.items + 1, [(False, msg)] * (self.items + 1)
        failures = [] if rc == 0 else [(False, f"sweep exit {rc}")]
        for key, row in zip(keys, rows):
            bad = self._row_errors(key, {k: float(v) for k, v in row.items()})
            if bad:
                failures.append((False, f"sweep row e0={key[0]!r} phi={key[1]!r}: {'; '.join(bad)}"))
        return self.items + 1, failures

    def _row_errors(self, key, row) -> list[str]:
        e0, phi = key
        closed, ref = self.expected[key]
        bad = []

        def near(col, want, tol=VALUE_TOL):
            if not abs(row[col] - want) <= tol:
                bad.append(f"{col}={row[col]!r} want {want!r}")

        if (row["e0"], row["phi"]) != key:
            bad.append(f"row echoes ({row['e0']!r}, {row['phi']!r})")
        for col, want in closed.items():
            near(col, want)
        near("fidelity_sim", ref["fidelity"])
        near("ent_final_sim", ref["negativity"],
             VALUE_TOL if ref["negativity"] > DEAD_ZONE else DEAD_ZONE)
        if phi >= 0.0:  # where the closed forms claim the simulation
            near("fidelity_closed", ref["fidelity"])
            near("ent_final_closed", ref["negativity"])
            for col in ("info_total", "info_i1", "info_i4", "info_ic"):
                near(col, ref[col])
        if not row["max_abs_discrepancy"] < DISCREPANCY_TOL:
            bad.append(f"max_abs_discrepancy={row['max_abs_discrepancy']!r}")
        return bad


class Verify:
    """Axiom suites, Werner fixtures and oracle grids at the default trial count."""

    name = "verify"
    trials = 1000
    branches = 2
    checks = (
        "axiom_c1", "axiom_c2", "axiom_c3",
        "werner_eigs", "werner_pt_eigs", "werner_negativity",
        "fidelity_oracle_grid", "entanglement_oracle_grid",
        "entanglement_zero_at_ew_zero", "information_oracle_grid",
        "correlation_info_consistency",
    )

    def __init__(self, seed: int):
        self.seed = seed
        self.items = 3 * self.trials  # axiom trials over C1-C3
        self.first_report = None

    def argv(self, out: str) -> list[str]:
        return ["verify", "--trials", str(self.trials), "--branches", str(self.branches),
                "--seed", str(self.seed), "--out", out]

    @staticmethod
    def _without_timestamp(text: str) -> str:
        return re.sub(r'\n\s*"timestamp": "[^"]*",?', "", text)

    def check(self, rc: int, out: str) -> tuple[int, list[tuple[bool, str]]]:
        with open(out) as handle:
            text = handle.read()
        report = json.loads(text)
        failures = []
        header = (rc, report.get("trials"), report.get("branches"), report.get("seed"),
                  report.get("all_passed"))
        if header != (0, self.trials, self.branches, self.seed, True):
            failures.append((False, f"verify exit/trials/branches/seed/all_passed = {header}"))
        by_name = {c.get("name"): c for c in report.get("checks", [])}
        for name in self.checks:
            c = by_name.get(name)
            if c is None:
                failures.append((False, f"verify check {name} missing"))
            elif not (c["passed"] is True and c["max_violation"] <= c["tolerance"]
                      and c.get("trials", self.trials) == self.trials):
                failures.append((False, f"verify check {name} failed: {c}"))
        # The first pass of a worker is the determinism reference for the rest.
        stripped = self._without_timestamp(text)
        if self.first_report is None:
            self.first_report = stripped
        elif stripped != self.first_report:
            failures.append((False, "verify report differs from the first pass at the same seed"))
        failures.extend(self._probe_failures())
        return len(self.checks) + 2 + len(PROBES), failures

    @staticmethod
    def _probe_failures() -> list[tuple[bool, str]]:
        from entport.entanglement import negativity
        from entport.states import seed_state

        failures = []
        for c0 in PROBES:
            got = negativity(seed_state(c0)).value
            if not abs(got - c0) <= PROBE_TOL:
                failures.append((c0 < DEAD_ZONE, f"negativity(seed_state({c0!r})) = {got!r}"))
        return failures


class Curve:
    """Entropy of entanglement against negativity at many points."""

    name = "curve"
    points = 2001

    def __init__(self, seed: int):
        # The curve has no random input: the seed only names the run.
        self.items = self.points
        self.expected = [(i / (self.points - 1), reference.entropy_of_negativity(i / (self.points - 1)))
                         for i in range(self.points)]

    def argv(self, out: str) -> list[str]:
        return ["curve", "--points", str(self.points), "--out", out]

    def check(self, rc: int, out: str) -> tuple[int, list[tuple[bool, str]]]:
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        if rows[:1] != [["e", "s"]] or len(rows) != self.points + 1:
            msg = f"curve header {rows[:1]}, {len(rows) - 1} points"
            return self.items + 1, [(False, msg)] * (self.items + 1)
        failures = [] if rc == 0 else [(False, f"curve exit {rc}")]
        prev = -math.inf
        for i, ((e_want, s_want), row) in enumerate(zip(self.expected, rows[1:])):
            e, s = float(row[0]), float(row[1])
            endpoint = i in (0, self.points - 1)  # (0, 0) and (1, 1) exactly
            e_tol, s_tol = (0.0, 0.0) if endpoint else (1e-15, VALUE_TOL)
            if not (abs(e - e_want) <= e_tol and abs(s - s_want) <= s_tol and s > prev):
                failures.append((False, f"curve point {i}: ({e!r}, {s!r}) want ({e_want!r}, {s_want!r}) "
                                        f"above {prev!r}"))
            prev = s
        return self.items + 1, failures


WORKLOADS = {w.name: w for w in (Sweep, Verify, Curve)}
