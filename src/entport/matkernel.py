"""Dense complex linear algebra for two-qubit simulations.

Operators are plain ``numpy`` arrays of dimension 2, 4 or 16 (dimension 16
only appears transiently, for the four-particle state before the Bell
measurement).  All functions are pure, never mutate their arguments and are
safe to call concurrently.

Downstream formulas are exact rationals in the inputs, so roundoff is the
only noise source; the tolerances below are sized accordingly.
"""

from __future__ import annotations

import numpy as np

#: Operator dimensions supported by the kernel.
ALLOWED_DIMS = (2, 4, 16)

#: Largest entrywise deviation from m == m^dagger accepted as Hermitian.
HERMITICITY_ATOL = 1e-10

#: Density-matrix eigenvalues may undershoot zero by at most this much.
PSD_ATOL = 1e-10

#: Tolerance on Tr(rho) == 1 for density matrices.
TRACE_ATOL = 1e-10


def as_operator(m, dims: tuple[int, ...] = ALLOWED_DIMS) -> np.ndarray:
    """Validate ``m`` as a finite square complex matrix of an allowed dimension.

    Returns the input as a complex ``ndarray`` (a view when possible).
    Raises ``ValueError`` for non-square shapes, unsupported dimensions or
    non-finite entries.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] not in dims:
        raise ValueError(f"dimension {a.shape[0]} not supported (allowed: {dims})")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of ``m``."""
    return np.asarray(m).conj().T


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two operators.

    The entry at row ``i * dim(b) + k``, column ``j * dim(b) + l`` is
    ``a[i, j] * b[k, l]``.  Only products of total dimension 4 or 16 are
    allowed; anything larger is rejected.
    """
    a = as_operator(a)
    b = as_operator(b)
    if a.shape[0] * b.shape[0] not in (4, 16):
        raise ValueError(
            f"tensor product of dims {a.shape[0]} x {b.shape[0]} is outside the "
            "supported composite dimensions (4, 16)"
        )
    return _kron(a, b)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two square matrices, without argument checks.

    The same broadcast product that ``np.kron`` forms, so the result is
    bit-for-bit equal to it, without its Python-level ``expand_dims`` calls.
    """
    n = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n, n)


def partial_trace(m: np.ndarray, keep: int) -> np.ndarray:
    """Trace out one qubit of a two-qubit operator.

    Parameters
    ----------
    m : ndarray
        4x4 operator on qubits (0, 1).
    keep : int
        0 keeps the first qubit (traces out the second), 1 keeps the second.

    Returns
    -------
    ndarray
        The reduced 2x2 operator.  The trace of the input is preserved.
    """
    m = as_operator(m, dims=(4,))
    r = m.reshape(2, 2, 2, 2)  # r[i, k, j, l] = m[(i, k), (j, l)]
    if keep == 0:
        return np.einsum("ikjk->ij", r)
    if keep == 1:
        return np.einsum("kikj->ij", r)
    raise ValueError(f"keep must be 0 (first qubit) or 1 (second qubit), got {keep!r}")


def partial_transpose(m: np.ndarray) -> np.ndarray:
    """Transpose the second tensor factor of a 4x4 operator.

    Maps the entry at ((i, k), (j, l)) to ((i, l), (j, k)).  Applying it
    twice returns the input; trace and Hermiticity are preserved.
    """
    m = as_operator(m, dims=(4,))
    return m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def herm_eigvals(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian operator, ascending.

    The input must be Hermitian within ``HERMITICITY_ATOL`` and is
    symmetrised as ``(m + m^dagger) / 2`` before solving, which suppresses
    roundoff accumulated by upstream arithmetic.
    """
    m = as_operator(m)
    if np.max(np.abs(m - adjoint(m))) > HERMITICITY_ATOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh((m + adjoint(m)) / 2)


def check_density_matrix(rho, dim: int | None = None) -> np.ndarray:
    """Validate ``rho`` as a density matrix and return it as an ndarray.

    Checks: square with an allowed (or the requested) dimension, Hermitian,
    unit trace within ``TRACE_ATOL`` and positive semidefinite within
    ``PSD_ATOL``.
    """
    dims = (dim,) if dim is not None else ALLOWED_DIMS
    rho = as_operator(rho, dims=dims)
    if np.max(np.abs(rho - adjoint(rho))) > HERMITICITY_ATOL:
        raise ValueError("density matrix must be Hermitian")
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValueError(f"density matrix must have unit trace, got {tr}")
    evals = np.linalg.eigvalsh((rho + adjoint(rho)) / 2)
    if evals[0] < -PSD_ATOL:
        raise ValueError(f"density matrix has a negative eigenvalue: {evals[0]}")
    return rho


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2), real."""
    rho = as_operator(rho)
    return float(np.trace(rho @ rho).real)
