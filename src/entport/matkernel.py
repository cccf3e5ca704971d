"""Dense complex linear algebra for two-qubit simulations.

Operators are plain ``numpy`` arrays of dimension 2, 4 or 16 (dimension 16
appears only in ``tensor`` of two 4x4 operators and in the operators
``1 (x) P_alpha (x) U_alpha`` of ``teleport.BobStrategy``).  ``as_operator``,
``adjoint``, ``tensor``/``_kron``, ``partial_transpose``, ``herm_eigvals``,
``check_density_matrix`` and the unchecked cores also take stacks of shape
``(..., d, d)``: they act on every matrix of the stack at once, and each item
comes out bit for bit as it would alone.  All functions are pure, never
mutate their arguments and are safe to call concurrently.

Input is validated once, at the public entry points.  The four unchecked
cores ``_partial_trace``, ``_partial_transpose``, ``_herm_eigvals`` and
``_purities`` (and ``_kron``, behind ``tensor``) work on input that is
already validated and check nothing; ``partial_trace``,
``partial_transpose`` and ``purity`` validate, then call them.
``_single`` is the gate of the entry points that take one matrix and not a
stack, ``_check_count`` the gate of every integer count or index, and
``_as_real`` the one test of what real numbers are.
``_reject`` is the one way a stack item is rejected: every check of a
stack, here and in the other modules, hands it the items that fail, and it
raises the :class:`StackItemError` that names the first of them.
:func:`check_density_matrix` says how it certifies positive semidefiniteness.

Downstream formulas are exact rationals in the inputs, so roundoff is the
only noise source; the tolerances below are sized accordingly.
"""

from __future__ import annotations

import numbers

import numpy as np

#: Operator dimensions supported by the kernel.
ALLOWED_DIMS = (2, 4, 16)

#: Largest entrywise deviation from m == m^dagger accepted as Hermitian.
HERMITICITY_ATOL = 1e-10

#: Density-matrix eigenvalues may undershoot zero by at most this much.
PSD_ATOL = 1e-10

#: Tolerance on Tr(rho) == 1 for density matrices.
TRACE_ATOL = 1e-10

#: Stacked evaluations hold at most this many 4x4 matrices at once (or one
#: item, where an item needs more), so peak memory does not grow with the
#: number of items.  Measured on the 1,000-trial ``verify`` run in a fresh
#: process: blocks of 512 matrices raised its peak resident memory from 38.1
#: to 39.6 MiB over blocks of 128 and cut the time of its C1-C3 suites from
#: 283 to 242 ms (medians of 11); blocks of 1,024 added 2.1 MiB more and took
#: 238 ms.
STACK_BLOCK = 512


class StackItemError(ValueError):
    """A ``ValueError`` that keeps the failed stack item's ``index`` (``()``: one matrix)."""

    def __init__(self, index: tuple[int, ...], reason: str):
        where = f"stack item {index[0] if len(index) == 1 else index}: " if index else ""
        super().__init__(where + reason)
        self.index, self.reason = index, reason


def _reject(bad: np.ndarray, reason: str, values: np.ndarray | None = None) -> None:
    """Raise a :class:`StackItemError` at the first stack item where ``bad`` holds.

    ``bad`` has one entry per item (0-d for one matrix).  With ``values``,
    shaped as ``bad``, the ``{}`` in ``reason`` is filled with that item's value.
    """
    if bad.any():
        index = tuple(int(i) for i in np.argwhere(bad)[0])
        raise StackItemError(index, reason if values is None else reason.format(values[index]))


def as_operator(m, dims: tuple[int, ...] = ALLOWED_DIMS) -> np.ndarray:
    """Validate ``m`` as a finite square complex matrix of an allowed dimension.

    ``m`` may also be a stack of shape ``(..., d, d)``, which is validated as
    a whole; an error then names the first bad item.  Returns the input as
    a complex ``ndarray`` (a view when possible).  Raises ``ValueError`` for
    entries that are not numbers (a string or object dtype), non-square
    shapes, unsupported dimensions or non-finite entries.
    """
    a = np.asarray(m)
    if a.dtype.kind not in "biufc":
        raise ValueError(f"matrix entries must be numbers, got dtype {a.dtype}")
    a = a.astype(complex, copy=False)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if a.shape[-1] not in dims:
        raise ValueError(f"dimension {a.shape[-1]} not supported (allowed: {dims})")
    _reject(~np.isfinite(a).all(axis=(-2, -1)), "matrix entries must be finite")
    return a


def _as_real(name: str, values) -> np.ndarray:
    """``values`` as a float64 array, if they are real numbers; the one test of what that is.

    Real numbers are the bool, integer and float dtypes; any other dtype
    (complex, string, object) is a ``ValueError``, raised before numpy would
    drop an imaginary part or parse a string.
    """
    array = np.asarray(values)
    if array.dtype.kind not in "biuf":
        raise ValueError(f"{name} must be real numbers, got dtype {array.dtype}")
    return array.astype(float, copy=False)


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of ``m``, or of each matrix in a ``(..., d, d)`` stack."""
    return np.asarray(m).conj().swapaxes(-1, -2)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two operators.

    The entry at row ``i * dim(b) + k``, column ``j * dim(b) + l`` is
    ``a[i, j] * b[k, l]``.  Only products of total dimension 4 or 16 are
    allowed; anything larger is rejected.  Stacks broadcast against each
    other, as in :func:`_kron`.
    """
    a = as_operator(a)
    b = as_operator(b)
    if a.shape[-1] * b.shape[-1] not in (4, 16):
        raise ValueError(
            f"tensor product of dims {a.shape[-1]} x {b.shape[-1]} is outside the "
            "supported composite dimensions (4, 16)"
        )
    return _kron(a, b)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two square matrices, or item by item of two stacks, without checks.

    The same broadcast product that ``np.kron`` forms, so each result is
    bit-for-bit equal to it, without its Python-level ``expand_dims`` calls.
    The leading dimensions of ``(..., d, d)`` stacks broadcast.
    """
    n = a.shape[-1] * b.shape[-1]
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(*product.shape[:-4], n, n)


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
    return _partial_trace(_single(as_operator(m, dims=(4,))), _check_count("keep", keep, 0, 1))


def _partial_trace(m: np.ndarray, keep: int) -> np.ndarray:
    """:func:`partial_trace` of a 4x4 operator or of each in a ``(..., 4, 4)`` stack, unchecked."""
    r = m.reshape(*m.shape[:-2], 2, 2, 2, 2)  # r[..., i, k, j, l] = m[..., (i, k), (j, l)]
    return np.einsum("...ikjk->...ij" if keep == 0 else "...kikj->...ij", r)


def partial_transpose(m: np.ndarray) -> np.ndarray:
    """Transpose the second tensor factor of a 4x4 operator, or of each in a stack.

    Maps the entry at ((i, k), (j, l)) to ((i, l), (j, k)).  Applying it
    twice returns the input; trace and Hermiticity are preserved.
    """
    return _partial_transpose(as_operator(m, dims=(4,)))


def _partial_transpose(m: np.ndarray) -> np.ndarray:
    """:func:`partial_transpose` of a 4x4 operator or of each in a stack, unchecked."""
    lead = m.shape[:-2]
    return m.reshape(*lead, 2, 2, 2, 2).swapaxes(-3, -1).reshape(*lead, 4, 4)


def _check_hermitian(m: np.ndarray, message: str) -> np.ndarray:
    """The symmetrised ``(m + m^dagger) / 2``, once ``m`` is Hermitian within tolerance.

    It is the array ``_herm_eigvals`` would build, so :func:`herm_eigvals`
    and :func:`check_density_matrix` solve it and form the adjoint once.
    """
    m_h = adjoint(m)
    _reject(np.abs(m - m_h).max(axis=(-2, -1)) > HERMITICITY_ATOL, message)
    return (m + m_h) / 2


def _check_unit_trace(m: np.ndarray, message: str) -> None:
    tr = m.trace(axis1=-2, axis2=-1)
    _reject(abs(tr - 1.0) > TRACE_ATOL, f"{message}, got {{}}", tr)


def herm_eigvals(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian operator, ascending; of each item for a stack.

    The input must be Hermitian within ``HERMITICITY_ATOL`` and is
    symmetrised as ``(m + m^dagger) / 2`` before solving, which suppresses
    roundoff accumulated by upstream arithmetic.  A ``(..., d, d)`` stack is
    solved by one ``eigvalsh`` call and gives ``(..., d)`` eigenvalues.
    """
    m = as_operator(m)
    return np.linalg.eigvalsh(_check_hermitian(m, "matrix is not Hermitian within tolerance"))


def _herm_eigvals(m: np.ndarray) -> np.ndarray:
    """:func:`herm_eigvals` of an operator or of each in a stack, unchecked.

    The symmetrised eigensolve, ``eigvalsh((m + m^dagger) / 2)``.
    """
    return np.linalg.eigvalsh((m + adjoint(m)) / 2)


def check_density_matrix(rho, dim: int | None = None) -> np.ndarray:
    """Validate ``rho`` as a density matrix and return it as an ndarray.

    Checks: square with an allowed (or the requested) dimension, Hermitian,
    unit trace within ``TRACE_ATOL`` and positive semidefinite within
    ``PSD_ATOL``.  A ``(..., d, d)`` stack is validated as a whole; an error
    names the first bad item.  The PSD check first certifies the whole stack
    with one Cholesky factorisation of ``(rho + rho^dagger) / 2`` shifted by
    ``PSD_ATOL / 2``, which solves no eigenvalues.  Only if that fails does
    one stacked ``eigvalsh`` decide, and word the error, by the lowest
    eigenvalue; the certificate accepts nothing that this rejects.
    """
    dims = (dim,) if dim is not None else ALLOWED_DIMS
    rho = as_operator(rho, dims=dims)
    symmetrised = _check_hermitian(rho, "density matrix must be Hermitian")
    _check_unit_trace(rho, "density matrix must have unit trace")
    try:
        # Cholesky is backward stable, so a factor of the symmetrised stack
        # shifted by PSD_ATOL / 2 puts every lowest eigenvalue above
        # -PSD_ATOL / 2 - O(n eps), far above -PSD_ATOL at unit trace.  The
        # symmetrisation matters: Cholesky reads only one triangle.
        np.linalg.cholesky(symmetrised + PSD_ATOL / 2 * np.eye(rho.shape[-1]))
    except np.linalg.LinAlgError:
        lowest = np.linalg.eigvalsh(symmetrised)[..., 0]
        _reject(lowest < -PSD_ATOL, "density matrix has a negative eigenvalue: {}", lowest)
    return rho


def _single(m: np.ndarray) -> np.ndarray:
    """``m`` itself, if it is one matrix and not a stack; for scalar-only entry points."""
    if m.ndim != 2:
        raise ValueError(f"expected one matrix, got a stack of shape {m.shape}")
    return m


def _check_count(name: str, n, lo: int, hi: int) -> int:
    """``n`` as an int, if it is an integer in [lo, hi]; the gate of counts and indices.

    Accepts Python and numpy integers; a bool, a float (even a whole one) or
    a string is a ``ValueError``, as is a value outside [lo, hi].
    """
    # bool is a subclass of int, but True or False given as a count is a mistake.
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if not lo <= n <= hi:
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {n}")
    return int(n)


def _nonnegative(x):
    """``max(0.0, x)`` elementwise, as Python's ``max`` gives it: never -0.0.

    ``np.maximum(0.0, -0.0)`` is -0.0, which would print as ``-0``.
    """
    return np.where(x > 0.0, x, 0.0)


def _purities(rho: np.ndarray) -> np.ndarray:
    """Tr(rho^2), real, of an operator or of each in a ``(..., d, d)`` stack, unchecked."""
    return (rho @ rho).trace(axis1=-2, axis2=-1).real


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2), real."""
    return float(_purities(_single(as_operator(rho))))
