"""Every public scalar entry point rejects NaN, infinite and out-of-range input.

A check written as ``x < lo or x > hi`` lets NaN through, because every
comparison with NaN is False; these properties feed such values to each entry
point and require a ``ValueError``.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entport.cli import SweepGrid
from entport.information import observable_information
from entport.states import seed_state, werner_state
from entport.teleport import (
    correlation_info_from_entanglement,
    fidelity_closed_form,
    final_entanglement_closed_form,
    final_information_closed_form,
)

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def outside(lo: float, hi: float) -> st.SearchStrategy:
    """NaN, +-inf, or a finite value outside [lo, hi]."""
    return st.one_of(
        NON_FINITE,
        st.floats(max_value=lo, exclude_max=True, allow_infinity=False),
        st.floats(min_value=hi, exclude_min=True, allow_infinity=False),
    )


def inside(lo: float, hi: float) -> st.SearchStrategy:
    return st.floats(min_value=lo, max_value=hi)


CLOSED_FORMS = [
    fidelity_closed_form,
    final_entanglement_closed_form,
    final_information_closed_form,
    correlation_info_from_entanglement,
]


@pytest.mark.parametrize("closed_form", CLOSED_FORMS, ids=lambda f: f.__name__)
@given(data=st.data())
def test_closed_forms_reject_bad_arguments(closed_form, data):
    bad, good = data.draw(outside(0.0, 1.0)), data.draw(inside(0.0, 1.0))
    bad_first = data.draw(st.booleans())
    args = (bad, good) if bad_first else (good, bad)
    with pytest.raises(ValueError):
        closed_form(*args)


@given(c0=outside(-1.0, 1.0))
def test_seed_state_rejects_bad_c0(c0):
    with pytest.raises(ValueError):
        seed_state(c0)


@given(phi=outside(-1.0, 1.0))
def test_werner_state_rejects_bad_phi(phi):
    with pytest.raises(ValueError):
        werner_state(phi)


@given(
    good=st.lists(inside(0.0, 1.0), min_size=1, max_size=5),
    bad=outside(0.0, 1.0),
    at=st.integers(min_value=0, max_value=5),
    phi=st.lists(inside(-1.0, 1.0), min_size=1, max_size=5),
)
def test_sweep_grid_rejects_bad_e0(good, bad, at, phi):
    e0 = good[:at] + [bad] + good[at:]
    with pytest.raises(ValueError):
        SweepGrid(e0, phi)


@given(
    good=st.lists(inside(-1.0, 1.0), min_size=1, max_size=5),
    bad=outside(-1.0, 1.0),
    at=st.integers(min_value=0, max_value=5),
)
def test_sweep_grid_rejects_bad_phi(good, bad, at):
    phi = good[:at] + [bad] + good[at:]
    with pytest.raises(ValueError):
        SweepGrid([0.5], phi)


@given(k=st.integers(min_value=1, max_value=3), data=st.data())
def test_observable_information_rejects_non_finite_probabilities(k, data):
    n = 2**k
    probs = data.draw(st.lists(inside(0.0, 1.0), min_size=n, max_size=n))
    probs[data.draw(st.integers(min_value=0, max_value=n - 1))] = data.draw(NON_FINITE)
    with pytest.raises(ValueError):
        observable_information(probs, k)


@given(k=st.one_of(NON_FINITE, st.floats(allow_nan=False, allow_infinity=False)))
def test_observable_information_rejects_a_float_k(k):
    with pytest.raises(ValueError, match="k must be a positive integer"):
        observable_information([0.5, 0.5], k)


# The upper bound keeps 2**k small (125 kB), should a change compute it again.
@given(k=st.integers(max_value=0) | st.integers(min_value=64, max_value=10**6))
def test_observable_information_rejects_k_out_of_range(k):
    with pytest.raises(ValueError):
        observable_information([0.5, 0.5], k)


def test_observable_information_nan_regressions():
    # Every comparison with NaN is False, so these passed both range checks.
    with pytest.raises(ValueError, match="finite"):
        observable_information([math.nan, math.nan], 1)
    with pytest.raises(ValueError, match="finite"):
        observable_information(np.array([0.5, math.nan, 0.25, 0.25]), 2)
    with pytest.raises(ValueError, match="k must be a positive integer, got inf"):
        observable_information([0.5, 0.5], math.inf)
    with pytest.raises(ValueError, match="k must be a positive integer"):
        observable_information([0.5, 0.5], True)
    assert observable_information([1.0, 0.0], np.int64(1)) == 1.0
