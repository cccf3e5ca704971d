"""Squared-deviation information measures for one and two qubits.

The information carried by one observable is the normalised sum of squared
deviations of its outcome probabilities from uniform.  Summed over a
complete set of mutually complementary observables this becomes a function
of the purity alone, which is what the closed forms below evaluate:
``2 Tr(rho^2) - 1`` for a qubit and ``(2/3)(4 Tr(rho^2) - 1)`` for a qubit
pair.  The two-qubit total splits into the two individual (reduced-state)
informations plus a correlation term that vanishes exactly on product
states.  The correlation term equals (2/3) of the squared correlation-matrix
norm minus the product of squared Bloch norms, so for mixed states it can
dip below zero (never below -2/3); it is nonnegative on every state the
teleportation protocol produces.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .matkernel import (
    _as_numbers,
    _nonnegative,
    _partial_trace,
    _purities,
    _single,
    check_density_matrix,
)

#: |correlation| below this is clamped to zero (roundoff on product states).
CORRELATION_CLAMP = 1e-12

#: Outcome probabilities must sum to 1 within this (a few eps of roundoff
#: per term, with ample headroom for probabilities read off a simulation).
PROBABILITY_SUM_ATOL = 1e-10


@dataclass
class InformationReport:
    """Two-qubit information split into individual and correlation parts.

    ``correlation == total - (2/3) (individual_a + individual_b
    + individual_a * individual_b)`` up to the clamp tolerance.
    """

    total: float
    individual_a: float
    individual_b: float
    correlation: float


def observable_information(probs, k: int) -> float:
    """Information (in bits, 0..k) carried by one measured observable.

    Parameters
    ----------
    probs : sequence of float
        Outcome probabilities; must be real numbers, finite, nonnegative,
        sum to 1 within ``PROBABILITY_SUM_ATOL`` and have length ``2**k``.
    k : int
        Number of bits the system can carry.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    p = _as_numbers("probs", probs)
    # Compare bit lengths first, so a huge k is rejected without computing 2**k.
    if p.ndim != 1 or p.size.bit_length() != k + 1 or p.size != 2**k:
        raise ValueError(f"expected 2**{k} probabilities for k={k}, got shape {p.shape}")
    n = p.size
    if not np.isfinite(p).all():
        raise ValueError("probabilities must be finite")
    if np.any(p < 0) or abs(p.sum() - 1.0) > PROBABILITY_SUM_ATOL:
        raise ValueError("probabilities must be nonnegative and sum to 1")
    norm = n * k / (n - 1)
    return float(norm * np.sum((p - 1.0 / n) ** 2))


def total_information(rho: np.ndarray) -> float:
    """Total information of a qubit (dim 2) or qubit pair (dim 4).

    Summed over a complete set of complementary observables this depends on
    the state only through its purity: ``2 Tr(rho^2) - 1`` for one qubit,
    ``(2/3)(4 Tr(rho^2) - 1)`` for two.
    """
    rho = _as_numbers("matrix entries", rho, real=False)
    if rho.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"expected a 2x2 or 4x4 density matrix, got {rho.shape}")
    rho = check_density_matrix(rho, dim=rho.shape[0])
    return float(_information_from_purity(_purities(rho), rho.shape[0]))


def _information_from_purity(p, dim: int):
    """Total information of qubit (dim 2) or qubit-pair (dim 4) states from their purities."""
    if dim == 2:
        return _nonnegative(2.0 * p - 1.0)
    return _nonnegative((2.0 / 3.0) * (4.0 * p - 1.0))


def information_decomposition(rho: np.ndarray) -> InformationReport:
    """Split the total two-qubit information into individual and correlation parts.

    The individual terms are the single-qubit informations of the reduced
    states; the correlation term is the total minus the information of the
    product of the reduced states.
    """
    rho = _single(check_density_matrix(rho, dim=4))
    return InformationReport(*map(float, _information_decompositions(rho)))


def _information_decompositions(rho: np.ndarray) -> np.ndarray:
    """The decomposition of each validated state in a ``(..., 4, 4)`` stack.

    Returns shape ``(..., 4)``: total, individual_a, individual_b and
    correlation, in the field order of :class:`InformationReport`.
    """
    total = _information_from_purity(_purities(rho), 4)
    ia = _information_from_purity(_purities(_partial_trace(rho, keep=0)), 2)
    ib = _information_from_purity(_purities(_partial_trace(rho, keep=1)), 2)
    correlation = total - (2.0 / 3.0) * (ia + ib + ia * ib)
    correlation = np.where(abs(correlation) < CORRELATION_CLAMP, 0.0, correlation)
    return np.stack([total, ia, ib, correlation], axis=-1)
