"""The abstract's findings, checked on the simulated side for any (e0, phi).

``simulate_grid`` runs the brute-force protocol, so these properties hold
for the simulation itself, not only for the closed forms that describe it:
the fidelity falls as the initial entanglement grows, the final entanglement
never exceeds the product e0 * ew of the initial and channel entanglements,
and it stays positive while both are positive.  Each allowance is roundoff
where a bound is reached exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entport.matkernel import STACK_BLOCK
from entport.teleport import simulate_grid

#: Points per block of ``simulate_grid``: a point counts as 16 4x4 matrices.
GRID_BLOCK = STACK_BLOCK // 16

EPS = np.finfo(float).eps

#: Roundoff allowed when the fidelity rises from one e0 to the next.  At
#: phi = 1 the fidelity is 1 for every e0, and at equal e0 the two points are
#: the same, so neighbours differ by the roundoff of the four weighted
#: overlaps that sum to it; measured up to 1.5 eps over 19,200 sorted points.
FIDELITY_ROUNDOFF = 8 * EPS

#: Roundoff allowed above e0 * ew.  The bound is reached at e0 = 1 and at
#: phi = 1, where the negativity carries the backward error of one 4x4
#: eigensolve; measured up to 1.5 eps over 60,000 points.
PRODUCT_ROUNDOFF = 8 * EPS

PHI_EDGES = (-1.0, -0.5, 0.0, 1.0)
E0 = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))
PHI = st.one_of(st.sampled_from(PHI_EDGES), st.floats(-1.0, 1.0))


@settings(deadline=None, max_examples=60)
@given(e0=st.lists(E0, min_size=2, max_size=2 * GRID_BLOCK + 1), phi=PHI)
def test_fidelity_does_not_rise_with_e0(e0, phi):
    e0 = np.sort(e0)
    fidelity = simulate_grid(e0, np.full(len(e0), phi)).averaged_fidelity
    assert np.all(np.diff(fidelity) <= FIDELITY_ROUNDOFF), np.max(np.diff(fidelity))


@settings(deadline=None, max_examples=60)
@given(points=st.lists(st.tuples(E0, PHI), min_size=1, max_size=2 * GRID_BLOCK + 1))
def test_final_entanglement_is_at_most_the_product(points):
    e0, phi = (np.array(values) for values in zip(*points))
    excess = simulate_grid(e0, phi).final_entanglement - e0 * np.maximum(0.0, phi)
    assert np.all(excess <= PRODUCT_ROUNDOFF), np.max(excess)


@settings(deadline=None, max_examples=60)
@given(
    points=st.lists(
        st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
        min_size=1,
        max_size=2 * GRID_BLOCK + 1,
    )
)
def test_final_entanglement_is_positive_when_both_are(points):
    e0, phi = (np.array(values) for values in zip(*points))
    assert np.all(simulate_grid(e0, phi).final_entanglement > 0.0)
