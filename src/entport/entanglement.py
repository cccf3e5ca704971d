"""Entanglement quantifiers for two-qubit states.

The workhorse measure is the negativity: minus twice the negative
eigenvalue of the partial transpose (a two-qubit state has at most one),
normalised to [0, 1].  For two qubits it vanishes exactly on the separable
states.  Pure states also admit the entropy of entanglement (von Neumann
entropy of either reduced state); the two quantities do not coincide, but
the entropy is a strictly increasing function of the negativity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matkernel import (
    _single,
    check_density_matrix,
    herm_eigvals,
    partial_trace,
    partial_transpose,
    purity,
)
from .states import seed_state

#: Partial-transpose eigenvalues above this are treated as non-negative,
#: so roundoff on exactly separable states cannot fake entanglement.
#: The bound follows from the scale of the problem: the partial transpose of
#: a unit-trace 4x4 state has spectral norm at most 1 (it is a convex sum of
#: partial transposes of pure states, whose eigenvalues lie in [-1/2, 1]),
#: and ``eigvalsh`` is backward stable, with an error of a small multiple of
#: ``n * eps * ||A||``.  With n = 4, 64 eps = 16 n eps covers that error and
#: the roundoff already in the state; every negative eigenvalue below about
#: -1.4e-14 is kept, so no negativity above 3e-14 reads as zero.
NEGATIVE_EIG_THRESHOLD = -64 * np.finfo(float).eps

#: Purity slack accepted when a pure state is required.
PURITY_ATOL = 1e-8

#: Most points :func:`entropy_vs_negativity_curve` samples, checked before
#: the sample grid is allocated.
MAX_CURVE_POINTS = 100_000


@dataclass
class EntanglementReport:
    """Negativity value together with the eigenvalues that produced it."""

    value: float
    negative_eigs: list[float] = field(default_factory=list)


def negativity(rho: np.ndarray) -> EntanglementReport:
    """Entanglement of a two-qubit density matrix via the partial transpose.

    The partial transpose of a two-qubit state has at most one negative
    eigenvalue (Sanpera, Tarrach & Vidal, PRA 58, 826, 1998).  If the
    smallest one lies below ``NEGATIVE_EIG_THRESHOLD`` the measure is minus
    twice it, clamped to [0, 1], and ``negative_eigs`` holds it; otherwise
    the measure is zero and ``negative_eigs`` is empty.  Zero if and only if
    the state is separable.  For a stack of states, see :func:`negativities`.
    """
    return _negativity(_single(check_density_matrix(rho, dim=4)))


def negativities(rho) -> np.ndarray:
    """:func:`negativity` value of every state in a ``(..., 4, 4)`` stack.

    The stack is validated as a whole and evaluated with one stacked
    eigensolve; each value equals ``negativity(rho[i]).value`` bit for bit.
    """
    return _negativities(check_density_matrix(rho, dim=4))[0]


def _negativities(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Negativities and smallest partial-transpose eigenvalues of validated states."""
    lowest = herm_eigvals(partial_transpose(rho))[..., 0]
    value = np.where(lowest < NEGATIVE_EIG_THRESHOLD, np.minimum(1.0, 2.0 * -lowest), 0.0)
    return value, lowest


def _negativity(rho: np.ndarray) -> EntanglementReport:
    """:func:`negativity` of an already validated density matrix."""
    value, lowest = _negativities(rho)
    negative = [float(lowest)] if value > 0.0 else []
    return EntanglementReport(value=float(value), negative_eigs=negative)


def entropy_of_entanglement(rho: np.ndarray) -> float:
    """Von Neumann entropy (base 2) of either reduced state of a pure state.

    Only defined for pure inputs: Tr(rho^2) must equal 1 within
    ``PURITY_ATOL``.  Returns a value in [0, 1]; the two reduced states give
    the same result.
    """
    rho = check_density_matrix(rho, dim=4)
    if abs(purity(rho) - 1.0) > PURITY_ATOL:
        raise ValueError("entropy of entanglement is defined for pure states only")
    probs = herm_eigvals(partial_trace(rho, keep=0))
    probs = probs[probs > 1e-12]  # 0 log 0 := 0
    return float(max(0.0, -np.sum(probs * np.log2(probs))))


def entropy_vs_negativity_curve(points: int) -> list[tuple[float, float]]:
    """Sample the entropy of entanglement as a function of the negativity.

    The negativity ``e`` is sampled uniformly on [0, 1]; for each sample the
    entropy is evaluated on the canonical pure state with that negativity.
    The sequence runs from (0, 0) to (1, 1) and is strictly increasing.
    """
    if not 2 <= points <= MAX_CURVE_POINTS:
        raise ValueError(f"points must lie in [2, {MAX_CURVE_POINTS}], got {points}")
    curve = []
    for e in np.linspace(0.0, 1.0, points):
        curve.append((float(e), entropy_of_entanglement(seed_state(float(e)))))
    return curve
