"""A value oracle for the negativity on mixed states: the Wootters concurrence.

The concurrence C (Wootters, PRL 80, 2245, 1998) is computed from another
matrix, rho (sigma_y (x) sigma_y) rho* (sigma_y (x) sigma_y), and another
eigensolve than the negativity N.  For two qubits the two measures bound each
other (Verstraete, Audenaert, Dehaene & De Moor, J. Phys. A 34, 10327, 2001):

    C >= N >= sqrt((1 - C)^2 + C^2) - (1 - C),

and N = C on pure states.  The C1 axiom pins the negativity's value only on
pure states and the Werner fixtures on one family; these bounds pin its size
on every mixed state.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entport.entanglement import negativities
from entport.states import random_local_unitary, rotated_pure_state, werner_states

SIGMA_YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])

#: Allowed gap between the two measures where a bound holds with equality.
#: The negativity reads 0 below 2 * |NEGATIVE_EIG_THRESHOLD| = 128 eps, where
#: the concurrence does not; elsewhere the two agree to roundoff, measured up
#: to 11.5 eps on 100,000 Ginibre states of rank 1-4 (a third of them mixed
#: with Werner states) and 9.5 eps on 30,000 rotated seed states with
#: |c0| >= 1e-12.  The concurrence below takes no square root of a near-zero
#: eigenvalue, which would turn eps-scale roundoff into sqrt(eps)-scale
#: error: taken as ``sqrt(eigvals(rho (sigma_y (x) sigma_y) rho* (sigma_y
#: (x) sigma_y)))``, it missed the negativity of a rotated seed state with
#: c0 = 2.1e-6 by 2.0e-6.
CONCURRENCE_ALLOWANCE = 256 * np.finfo(float).eps


def concurrence(rho: np.ndarray) -> np.ndarray:
    """Wootters concurrence of each state of a ``(..., 4, 4)`` stack.

    With ``rho = w w^dagger``, the square roots of the eigenvalues of
    ``rho (sigma_y (x) sigma_y) rho* (sigma_y (x) sigma_y)`` are the
    singular values of ``w^T (sigma_y (x) sigma_y) w``, and C is the largest
    less the other three, floored at 0.
    """
    values, vectors = np.linalg.eigh(rho)
    w = vectors * np.sqrt(np.clip(values, 0.0, None))[..., None, :]
    singular = np.linalg.svd(w.swapaxes(-1, -2) @ SIGMA_YY @ w, compute_uv=False)
    return np.maximum(0.0, singular[..., 0] - singular[..., 1:].sum(axis=-1))


def mixed_states(gen: np.random.Generator, n: int, rank: int) -> np.ndarray:
    """``n`` Ginibre states of ``rank``, every third one mixed with a Werner state."""
    g = gen.standard_normal((n, 4, rank)) + 1j * gen.standard_normal((n, 4, rank))
    rho = g @ g.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
    weight = gen.random(n)[:, None, None]
    mixed = weight * rho + (1.0 - weight) * werner_states(gen.uniform(-1.0, 1.0, n))
    return np.where((np.arange(n) % 3 == 0)[:, None, None], mixed, rho)


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_negativity_lies_between_the_concurrence_bounds(seed, rank):
    rho = mixed_states(np.random.default_rng(seed), 64, rank)
    c, n = concurrence(rho), negativities(rho)
    assert np.all(n <= c + CONCURRENCE_ALLOWANCE), np.max(n - c)
    lower = np.sqrt((1.0 - c) ** 2 + c**2) - (1.0 - c)
    assert np.all(n >= lower - CONCURRENCE_ALLOWANCE), np.max(lower - n)


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 2**32 - 1), c0=st.floats(-1.0, 1.0))
def test_negativity_equals_the_concurrence_on_rotated_seed_states(seed, c0):
    gen = np.random.default_rng(seed)
    rho = rotated_pure_state(c0, random_local_unitary(gen), random_local_unitary(gen))
    assert abs(negativities(rho) - concurrence(rho)) <= CONCURRENCE_ALLOWANCE
