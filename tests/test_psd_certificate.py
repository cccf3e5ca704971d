"""The PSD certificate of ``check_density_matrix`` decides as the eigensolve does.

``check_density_matrix`` first tries one Cholesky factorisation of the
symmetrised stack shifted by ``PSD_ATOL / 2`` and solves eigenvalues only
when that fails.  The certificate may only save work: a matrix is accepted
exactly when the lowest eigenvalue of ``(m + m^dagger) / 2`` lies at or above
``-PSD_ATOL``, and a rejection carries the eigensolve's own message.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entport.cli import cmd_verify
from entport.entanglement import negativities
from entport.matkernel import PSD_ATOL, StackItemError, check_density_matrix
from entport.states import seed_state, werner_states

from conftest import random_global_unitary


def state_with_lowest(seed: int, delta: float, skew: float) -> np.ndarray:
    """A Haar-rotated unit-trace matrix with eigenvalues ``(-delta, p1, p2, p3)``.

    A skew-Hermitian part with a zero diagonal and largest entry ``|skew|``
    is added: it stays inside the Hermiticity and trace allowances, and the
    symmetrisation cancels it.  Its lower triangle is that of ``v v^dagger``
    for the eigenvector ``v`` of ``-delta``, so a factorisation that read only
    one triangle would see that eigenvalue moved by about ``2 |skew|``: up
    for one sign of ``skew``, down for the other.
    """
    gen = np.random.default_rng(seed)
    p = gen.random(3) + 1e-3
    spectrum = np.concatenate([[-delta], p / p.sum() * (1.0 + delta)])
    u = random_global_unitary(gen)
    s = np.tril(np.outer(u[:, 0], u[:, 0].conj()), -1)
    s = s - s.conj().T
    return u @ np.diag(spectrum) @ u.conj().T + skew / np.abs(s).max() * s


def lowest_symmetrised(m: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh((m + m.conj().swapaxes(-1, -2)) / 2)[..., 0]


@settings(deadline=None, max_examples=300)
@given(
    seed=st.integers(0, 2**32 - 1),
    log_delta=st.floats(-12.0, -8.0),
    skew=st.floats(-0.45 * PSD_ATOL, 0.45 * PSD_ATOL),
    position=st.integers(0, 2),
)
def test_certificate_accepts_exactly_what_the_eigensolve_accepts(seed, log_delta, skew, position):
    # delta is log-uniform on [1e-12, 1e-8], so the draws fall on both sides of
    # PSD_ATOL / 2 (the certificate's shift) and of PSD_ATOL (the verdict).
    m = state_with_lowest(seed, 10.0**log_delta, skew)
    stack = [np.eye(4) / 4, seed_state(0.5)]
    stack.insert(position, m)
    for rho, prefix in ((m, ""), (np.array(stack), f"stack item {position}: ")):
        lowest = lowest_symmetrised(m)
        if lowest >= -PSD_ATOL:
            assert check_density_matrix(rho) is not None
        else:
            with pytest.raises(StackItemError) as err:
                check_density_matrix(rho)
            assert str(err.value) == f"{prefix}density matrix has a negative eigenvalue: {lowest}"


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_certificate_reads_both_triangles(sign):
    # Lowest eigenvalue -1.2 PSD_ATOL, below the verdict's bound; the skew part
    # would lift it above -PSD_ATOL / 2 in one triangle, but the symmetrised
    # matrix keeps it.
    m = state_with_lowest(7, 1.2 * PSD_ATOL, sign * 0.45 * PSD_ATOL)
    lowest = lowest_symmetrised(m)
    assert -1.3 * PSD_ATOL < lowest < -1.1 * PSD_ATOL
    with pytest.raises(StackItemError) as err:
        check_density_matrix(m)
    assert str(err.value) == f"density matrix has a negative eigenvalue: {lowest}"


def test_passing_negativities_solve_only_the_partial_transposes(eigvalsh_shapes):
    states = werner_states(np.linspace(-1.0, 1.0, 101))
    negativities(states)
    assert eigvalsh_shapes == [(101, 4, 4)]


def test_a_failed_certificate_solves_the_stack_once(eigvalsh_shapes):
    states = werner_states(np.linspace(-1.0, 1.0, 5))
    states[3] = np.diag([1.5, -0.5, 0.0, 0.0])
    with pytest.raises(StackItemError, match=r"^stack item 3: .* negative eigenvalue: -0\.5$"):
        check_density_matrix(states)
    assert eigvalsh_shapes == [(5, 4, 4)]


def test_verify_solves_half_the_matrices(eigvalsh_shapes, tmp_path):
    # 16,119 matrices in 56 calls when every PSD check solved its stack;
    # the partial-transpose eigensolves alone are 8,114 in 31.
    assert cmd_verify(1000, 7, str(tmp_path / "verify.json")) == 0
    assert sum(math.prod(shape[:-2]) for shape in eigvalsh_shapes) <= 8_200
