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
    _blocks,
    _check_count,
    _herm_eigvals,
    _nonnegative,
    _partial_trace,
    _partial_transpose,
    _purities,
    _reject,
    _single,
    check_density_matrix,
)
from .states import _seed_states

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

#: Reduced-state eigenvalues at or below this are left out of the entropy
#: (0 log 0 := 0).  ``eigvalsh`` places a zero eigenvalue of a unit-trace
#: qubit state within a few eps of 0, possibly below it, where the logarithm
#: is undefined; a true eigenvalue of 1e-12 adds only about 4e-11 bits.
ENTROPY_EIG_FLOOR = 1e-12

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
    value, lowest = _negativities(_single(check_density_matrix(rho, dim=4)))
    negative = [float(lowest)] if value > 0.0 else []
    return EntanglementReport(value=float(value), negative_eigs=negative)


def negativities(rho) -> np.ndarray:
    """:func:`negativity` value of every state in a ``(..., 4, 4)`` stack.

    The stack is validated as a whole and evaluated with one stacked
    eigensolve; each value equals ``negativity(rho[i]).value`` bit for bit.
    """
    return _negativities(check_density_matrix(rho, dim=4))[0]


def _negativities(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Negativities and smallest partial-transpose eigenvalues of validated states."""
    lowest = _herm_eigvals(_partial_transpose(rho))[..., 0]
    value = np.where(lowest < NEGATIVE_EIG_THRESHOLD, np.minimum(1.0, 2.0 * -lowest), 0.0)
    return value, lowest


def entropy_of_entanglement(rho: np.ndarray) -> float:
    """Von Neumann entropy (base 2) of either reduced state of a pure state.

    Only defined for pure inputs: Tr(rho^2) must equal 1 within
    ``PURITY_ATOL``.  Returns a value in [0, 1]; the two reduced states give
    the same result.
    """
    return float(_entropies(_single(check_density_matrix(rho, dim=4))))


def _entropies(rho: np.ndarray) -> np.ndarray:
    """:func:`entropy_of_entanglement` of each validated state in a ``(..., 4, 4)`` stack.

    One stacked purity check, then :func:`_pure_entropies`.
    """
    impure = abs(_purities(rho) - 1.0) > PURITY_ATOL
    _reject(impure, "entropy of entanglement is defined for pure states only")
    return _pure_entropies(rho)


def _pure_entropies(rho: np.ndarray) -> np.ndarray:
    """:func:`_entropies` of states known to be pure, unchecked.

    One partial trace and one stacked eigensolve.
    """
    probs = _herm_eigvals(_partial_trace(rho, keep=0))
    kept = probs > ENTROPY_EIG_FLOOR
    terms = np.where(kept, probs * np.log2(np.where(kept, probs, 1.0)), 0.0)
    return _nonnegative(-terms.sum(axis=-1))


def _seed_entropies(e: np.ndarray) -> np.ndarray:
    """The entropy of ``seed_state(e_i)`` for each ``e_i`` of a 1-D array, in blocks.

    The seed states are built here from range-checked ``e``, so they are
    neither validated again nor checked for purity (on 200,001 points their
    purity is 1 within 2.2e-16, against ``PURITY_ATOL``): they go to
    :func:`_pure_entropies`.  Blocks of ``STACK_BLOCK`` states
    (``matkernel._blocks`` at one matrix per state) keep peak memory flat
    in the number of points.
    Measured on the 2,001 ``curve`` points in a fresh process on a shared
    2-CPU host, peak resident memory above one state per block (30.7 MiB):
    one stack of all points +0.7 MiB, blocks of 512 +0.0 MiB, blocks of 128
    +0.0 MiB; the entropies took 1.8, 1.5 and 2.2 ms, and one state per
    block 122 ms (each the middle of five processes' medians of 14).  With
    the purity check of :func:`_entropies`, blocks of 512 took 2.1 to 2.5 ms
    against 1.0 ms in alternating processes.
    """
    out = np.empty(len(e))
    for block in _blocks(len(e), 1):
        out[block] = _pure_entropies(_seed_states(e[block]))
    return out


def entropy_vs_negativity_curve(points: int) -> list[tuple[float, float]]:
    """Sample the entropy of entanglement as a function of the negativity.

    The negativity ``e`` is sampled uniformly on [0, 1]; for each sample the
    entropy is evaluated on the canonical pure state with that negativity.
    The sequence runs from (0, 0) to (1, 1) and is strictly increasing.
    """
    e = np.linspace(0.0, 1.0, _check_count("points", points, 2, MAX_CURVE_POINTS))
    return list(zip(e.tolist(), _seed_entropies(e).tolist()))
