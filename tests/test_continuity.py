"""C4, continuity: the negativity moves at most twice the Hilbert-Schmidt distance.

For two-qubit states ``|N(rho) - N(sigma)| <= 2 ||rho - sigma||_2``.  N is
twice the negative part of the lowest partial-transpose eigenvalue (a
two-qubit partial transpose has at most one negative eigenvalue: Sanpera,
Tarrach & Vidal, PRA 58, 826, 1998).  By Weyl's inequality that eigenvalue
moves by at most the spectral norm of the transposed difference, which is at
most its Hilbert-Schmidt norm, and the partial transpose keeps that norm.

The measure's threshold breaks the bound by its own jump, so the draws
straddle it: Werner states whose partial-transpose eigenvalue ``-phi / 2``
lies within a factor of two of ``NEGATIVE_EIG_THRESHOLD``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entport.entanglement import NEGATIVE_EIG_THRESHOLD, negativity
from entport.states import werner_state

from conftest import ginibre_states

#: Allowed excess over the bound.  The measure reads 0 where the lowest
#: partial-transpose eigenvalue lies at or above -64 eps and twice its size
#: below, so two states either side of that threshold differ by 128 eps
#: however close they are (the worst excess measured there is 127.5 eps); 8
#: eps more covers the roundoff of the two eigensolves and of the distance.
#: It is a number, not read from the threshold, so a larger jump fails.
C4_ALLOWANCE = 136 * np.finfo(float).eps


def c4_excess(rho: np.ndarray, sigma: np.ndarray) -> float:
    """``|N(rho) - N(sigma)| - 2 ||rho - sigma||_2``."""
    moved = abs(negativity(rho).value - negativity(sigma).value)
    return moved - 2.0 * np.linalg.norm(rho - sigma)


@settings(deadline=None, max_examples=200)
@given(s=st.floats(-0.5, 0.5), r=st.floats(-0.5, 0.5))
def test_c4_across_the_threshold(s, r):
    # Werner(phi) has negativity phi for phi > 0; it reads 0 until phi passes
    # 2 |NEGATIVE_EIG_THRESHOLD|, and each draw lands on either side with even odds.
    jump = 2.0 * abs(NEGATIVE_EIG_THRESHOLD)
    assert c4_excess(werner_state(jump * (1 + s)), werner_state(jump * (1 + r))) <= C4_ALLOWANCE


@settings(deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(1, 4),
    log_t=st.floats(-14.0, -2.0),
)
def test_c4_under_a_small_mixture(seed, rank, log_t):
    gen = np.random.default_rng(seed)
    rho = ginibre_states(gen, 1, rank)[0]
    t = 10.0**log_t
    sigma = (1.0 - t) * rho + t * ginibre_states(gen, 1, 4)[0]
    assert c4_excess(rho, sigma) <= C4_ALLOWANCE
