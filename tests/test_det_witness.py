"""A witness of the negativity that shares no eigensolver with it.

A two-qubit state is entangled if and only if det(rho^Gamma) < 0
(Augusiak, Demianowicz & Horodecki, PRA 77, 030301, 2008): the partial
transpose has at most one negative eigenvalue (Sanpera, Tarrach & Vidal,
PRA 58, 826, 1998), so its determinant is negative exactly when that
eigenvalue exists.  The determinant comes from an LU factorisation, and the
partial transpose is written out here, so the witness does not read the
measure's code.  It decides only where |det| clears ``DET_FLOOR``.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entport.entanglement import negativity
from entport.states import werner_state

from conftest import ginibre_states, random_global_unitary

EPS = np.finfo(float).eps

#: |det(rho^Gamma)| at or below this decides nothing.  At unit trace the
#: other three partial-transpose eigenvalues sum to at most 3/2, so their
#: product is at most 1/8: the measure's threshold (a lowest eigenvalue of
#: -64 eps) gives |det| <= 8 eps, and LU's roundoff on a 4x4 matrix of norm
#: at most 1 adds a few eps.  Above the floor the lowest eigenvalue is at
#: least 8 |det| > 64 eps from zero, so the measure and the sign agree.
DET_FLOOR = 64 * EPS


def det_partial_transpose(rho: np.ndarray) -> float:
    """det of rho with the second qubit transposed, by LU."""
    return float(np.linalg.det(rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)).real)


def assert_witness_agrees(rho: np.ndarray) -> None:
    det = det_partial_transpose(rho)
    assume(abs(det) > DET_FLOOR)
    assert (negativity(rho).value > 0.0) == (det < 0.0), det


@settings(deadline=None, max_examples=300)
@given(
    seed=st.integers(0, 2**32 - 1),
    log_phi=st.floats(-14.0, -2.0),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_witness_on_rotated_werner_states_near_the_boundary(seed, log_phi, sign):
    # Werner(phi) is the mixture at f = (2 phi + 1) / 3, separable up to
    # f = 1/3 (phi = 0); its lowest partial-transpose eigenvalue is -phi / 2.
    # A local unitary moves it off the Bell basis and keeps that spectrum.
    gen = np.random.default_rng(seed)
    u = np.kron(random_global_unitary(gen, 2), random_global_unitary(gen, 2))
    assert_witness_agrees(u @ werner_state(sign * 10.0**log_phi) @ u.conj().T)


@settings(deadline=None, max_examples=300)
@given(
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(1, 4),
    log_gap=st.floats(-14.0, -2.0),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_witness_on_noisy_states_near_the_boundary(seed, rank, log_gap, sign):
    # White noise mixed into a Ginibre state moves its lowest partial-transpose
    # eigenvalue mu linearly, (1 - t) mu + t / 4; t is chosen to land it at
    # -sign * gap.  The lowest eigenvalue is only the target of the draw: the
    # witness itself reads the determinant.
    sigma = ginibre_states(np.random.default_rng(seed), 1, rank)[0]
    mu = np.linalg.eigvalsh(sigma.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4))[0]
    target = -sign * 10.0**log_gap
    assume(mu < target)
    t = (target - mu) / (0.25 - mu)
    assert_witness_agrees((1.0 - t) * sigma + t * np.eye(4) / 4)


@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_witness_on_ginibre_states(seed, rank):
    assert_witness_agrees(ginibre_states(np.random.default_rng(seed), 1, rank)[0])
