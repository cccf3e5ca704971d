"""``cli.compare`` against the per-point comparison it replaced.

The reference below runs :func:`simulate` and the public closed forms point
by point, reads ``ew = max(0, phi)`` with Python's ``max`` and writes the
phi-substituted scalar formulas out with ``math``.  Every column and every
gap of the array table must equal it exactly, signed zeros included.
"""

import math

import numpy as np
import pytest

from entport.cli import DEFAULT_E0_GRID, DEFAULT_PHI_GRID, SWEEP_COLUMNS, SweepGrid, compare
from entport.information import InformationReport
from entport.states import WernerChannel, seed_state
from entport.teleport import (
    fidelity_closed_form,
    final_entanglement_closed_form,
    final_information_closed_form,
    simulate,
)

from conftest import identical

GAP_NAMES = {
    "entanglement_oracle_grid",
    "fidelity_oracle_grid",
    "information_oracle_grid",
    "entanglement_zero_at_ew_zero",
    "fidelity_phi_substitution_max_delta",
    "fidelity_ew_zero_max_delta",
    "information_total_phi_substitution_max_delta",
    "information_total_ew_zero_max_delta",
    "entanglement_clamped_max_delta",
    "entanglement_phi_substitution_max_delta",
}


def scalar_fidelity(e0, w):
    return (w + 2.0) / 3.0 + (w - 1.0) / 6.0 * e0 * e0


def scalar_entanglement(e0, w):
    u = 1.0 - w
    return (math.sqrt(max(0.0, u * u + 3.0 * w * (2.0 + w) * e0 * e0)) - u) / 3.0


def scalar_information_total(e0, w):
    g, e0sq = (2.0 * w + 1.0) / 3.0, e0 * e0
    return (2.0 / 3.0) * (1.0 + 2.0 * g * g + (g * g - 1.0) * e0sq)


def reference_point(e0, phi):
    """The sweep row and the named gaps of one point, computed on their own."""
    sim = simulate(seed_state(e0), WernerChannel(phi))
    fid, ent = sim.averaged_fidelity, sim.final_entanglement
    info = list(vars(sim.final_information).values())
    ew = max(0.0, phi)
    fid_closed = fidelity_closed_form(e0, ew)
    ent_closed = final_entanglement_closed_form(e0, ew)
    info_closed = list(vars(final_information_closed_form(e0, ew)).values())
    gaps = {"entanglement_oracle_grid": abs(ent_closed - ent)}
    if phi >= 0.0:
        gaps["fidelity_oracle_grid"] = abs(fid_closed - fid)
        gaps["information_oracle_grid"] = max(abs(c - s) for c, s in zip(info_closed, info))
        discrepancy = max(gaps.values())
    else:
        discrepancy = gaps["entanglement_oracle_grid"]
        gaps.update(
            entanglement_zero_at_ew_zero=ent,
            fidelity_phi_substitution_max_delta=abs(scalar_fidelity(e0, phi) - fid),
            fidelity_ew_zero_max_delta=abs(fid_closed - fid),
            information_total_phi_substitution_max_delta=abs(
                scalar_information_total(e0, phi) - info[0]
            ),
            information_total_ew_zero_max_delta=abs(info_closed[0] - info[0]),
            entanglement_clamped_max_delta=abs(ent_closed - ent),
            entanglement_phi_substitution_max_delta=abs(scalar_entanglement(e0, phi) - ent),
        )
    row = (e0, phi, ew, fid_closed, fid, ent_closed, ent, *info_closed, discrepancy)
    return dict(zip(SWEEP_COLUMNS, row)), gaps


GRIDS = {
    "phi_negative_only": ([0.0, 0.35, 1.0], [-1.0, -0.5, -0.2]),
    "phi_nonnegative_only": ([0.0, 0.6, 1.0], [0.0, 0.3, 1.0]),
    "one_point": ([0.7], [0.25]),
    "negative_zero_phi": ([0.2, 1.0], [-0.0, -0.25, 0.5]),
    "default": (list(DEFAULT_E0_GRID), list(DEFAULT_PHI_GRID)),
}


@pytest.mark.parametrize("name", GRIDS)
def test_compare_equals_the_per_point_reference(name):
    e0_values, phi_values = GRIDS[name]
    columns, gaps = compare(SweepGrid(e0_values, phi_values))
    reference = [reference_point(e0, phi) for e0 in e0_values for phi in phi_values]

    assert list(columns) == list(SWEEP_COLUMNS)
    for column in SWEEP_COLUMNS:
        assert identical(columns[column], [row[column] for row, _ in reference]), column

    assert set(gaps) == GAP_NAMES
    for gap in GAP_NAMES:
        expected = [point_gaps[gap] for _, point_gaps in reference if gap in point_gaps]
        assert identical(gaps[gap], expected), gap


def test_negative_zero_phi_reads_the_nonnegative_branch():
    columns, gaps = compare(SweepGrid([0.5], [-0.0]))
    assert np.signbit(columns["phi"][0]) and not np.signbit(columns["ew"][0])
    assert len(gaps["fidelity_oracle_grid"]) == 1
    assert len(gaps["entanglement_zero_at_ew_zero"]) == 0


def test_public_closed_forms_keep_scalar_types():
    assert type(fidelity_closed_form(0.5, 0.5)) is float
    assert type(final_entanglement_closed_form(0.5, 0.5)) is float
    report = final_information_closed_form(0.5, 0.5)
    assert type(report) is InformationReport
    assert all(type(v) is float for v in vars(report).values())
    assert type(WernerChannel(-0.0).ew) is float
    assert math.copysign(1.0, WernerChannel(-0.0).ew) == 1.0
