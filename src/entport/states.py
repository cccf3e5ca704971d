"""States and operators used by the teleportation protocol.

Two-qubit states are handled in two equivalent representations: the 4x4
density matrix itself, and its expansion over Pauli tensor products
(two Bloch vectors plus a 3x3 correlation matrix).  Pauli axes are indexed
``(x, y, z) -> (0, 1, 2)`` everywhere in this package.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .matkernel import (
    PSD_ATOL,
    _as_numbers,
    _check_broadcast,
    _check_count,
    _check_hermitian,
    _check_unit_trace,
    _kron,
    _nonnegative,
    _reject,
    _single,
    adjoint,
    as_operator,
)


def _read_only(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


ID2 = _read_only(np.eye(2, dtype=complex))
SIGMA_X = _read_only(np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Y = _read_only(np.array([[0, -1j], [1j, 0]], dtype=complex))
SIGMA_Z = _read_only(np.array([[1, 0], [0, -1]], dtype=complex))

#: Pauli matrices in project-wide axis order (x, y, z).
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

#: The Pauli matrices as one read-only ``(3, 2, 2)`` stack.
_PAULI_STACK = _read_only(np.array(PAULIS))

#: Pauli-product basis of two-qubit operators, built once and read-only:
#: ``PAULI_A[n] = sigma_n (x) 1``, ``PAULI_B[n] = 1 (x) sigma_n`` and
#: ``PAULI_AB[n][m] = sigma_n (x) sigma_m``.
PAULI_A = tuple(_read_only(_kron(p, ID2)) for p in PAULIS)
PAULI_B = tuple(_read_only(_kron(ID2, p)) for p in PAULIS)
PAULI_AB = tuple(tuple(_read_only(_kron(pn, pm)) for pm in PAULIS) for pn in PAULIS)

#: Sign patterns of the four Bell projectors in the Pauli expansion.
#: Index 0 is the singlet; 1, 2, 3 are the remaining Bell states.
BELL_SIGN_MATRICES = tuple(
    _read_only(np.diag(signs))
    for signs in ([-1.0, -1.0, -1.0], [-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0])
)

#: Receiver-side correction unitary for each Bell outcome, chosen so the
#: induced Bloch rotation is the negative of the outcome's sign matrix.
BOB_CORRECTIONS = (ID2, SIGMA_X, SIGMA_Y, SIGMA_Z)

#: Largest entrywise deviation from u u^dagger == 1 accepted as unitary.
UNITARITY_ATOL = 1e-10

#: A Pauli correction's rotation is within a few eps of ``-P_alpha``; a wrong one misses by 2.
ROTATION_ATOL = 1e-12


def _check_unitary(u) -> np.ndarray:
    """Validate a qubit unitary, or every item of a ``(..., 2, 2)`` stack.

    The Gram matrix ``u u^dagger`` is one elementwise product over the stack,
    ``sum_k u[i, k] conj(u[j, k])``, not one matrix product per item.
    """
    u = as_operator(u, dims=(2,))
    gram = (u[..., :, None, :] * u[..., None, :, :].conj()).sum(axis=-1)
    deviation = np.abs(gram - ID2).max(axis=(-2, -1))
    _reject(deviation > UNITARITY_ATOL, "matrix is not unitary within tolerance")
    return u


def _check_range(name: str, values, lo: float, hi: float) -> np.ndarray:
    """``values`` (a number or an array) as float64, if each is a real number in [lo, hi].

    What is not real numbers (see :func:`_as_numbers`) is a ``ValueError``, as
    is NaN or a value outside [lo, hi].
    """
    array = _as_numbers(name, values)
    inside = (array >= lo) & (array <= hi)  # False for NaN
    _reject(~inside, f"{name} must lie in [{lo:g}, {hi:g}], got {{}}", array)
    return array


def _check_number(name: str, x, lo: float, hi: float) -> float:
    """``x`` as a float, if it is one real number in [lo, hi]; the gate of scalar parameters.

    Accepts Python and numpy numbers and 0-d arrays; anything else (an array
    of several numbers, a string, a complex number) is a ``ValueError``, as
    is NaN or a value outside [lo, hi].  The number is read as the array
    gate reads it (see :func:`_as_numbers`): an int or ``Fraction`` beyond the
    float range counts as the infinity of its sign, so it is out of range.
    """
    value = x[()] if isinstance(x, np.ndarray) else x
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a single real number, got {x!r}")
    return float(_check_range(name, value, lo, hi))


def _check_seed(seed) -> None:
    # bool is a subclass of int, but True or False given as a seed is a mistake.
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def _as_generator(rng) -> np.random.Generator:
    """``rng`` itself if it is a ``numpy.random.Generator``, else a new one seeded with it.

    The gate of every sampler's ``rng``: a seed must be a non-negative integer.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    _check_seed(rng)
    return np.random.default_rng(rng)


def _seed_polarisation(c0):
    """``a0 = sqrt(1 - c0^2)`` of the seed state, elementwise."""
    return np.sqrt(np.maximum(0.0, 1.0 - c0 * c0))


def _werner_f(phi):
    """``f = (2 phi + 1) / 3``, the correlation scale of the Werner state, elementwise."""
    return (2.0 * phi + 1.0) / 3.0


def _werner_ew(phi):
    """``ew = max(0, phi)``, the entanglement of the Werner state, elementwise (never -0.0)."""
    return _nonnegative(phi)


@dataclass(frozen=True)
class HilbertSchmidtForm:
    """Pauli-expansion coefficients of a two-qubit operator.

    Attributes
    ----------
    a : ndarray, shape (3,)
        Bloch vector of the first qubit.
    b : ndarray, shape (3,)
        Bloch vector of the second qubit.
    c : ndarray, shape (3, 3)
        Correlation matrix; ``c[n, m]`` multiplies ``sigma_n (x) sigma_m``.

    The coefficients pass the gate of :func:`hs_compose_stack`, and a stack
    of them is a ``ValueError``: a form holds one set.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a, b, c = _hs_coefficients(self.a, self.b, self.c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", _single(c))


@dataclass(frozen=True)
class SeedParams:
    """Parameters of the canonical one-parameter pure state.

    ``c0`` in [-1, 1] sets the correlation amplitude; the polarisation is
    the derived ``a0 = +sqrt(1 - c0^2)``, so ``a0^2 + c0^2 = 1`` by
    construction.  The state's entanglement equals ``|c0|``.
    """

    c0: float

    def __post_init__(self):
        object.__setattr__(self, "c0", _check_number("c0", self.c0, -1.0, 1.0))

    @property
    def a0(self) -> float:
        return float(_seed_polarisation(self.c0))

    @property
    def entanglement(self) -> float:
        return abs(self.c0)


@dataclass(frozen=True)
class WernerChannel:
    """Isotropic noisy channel state, parameterised by phi in [-1, 1].

    ``f = (2 phi + 1) / 3`` scales the (negative, isotropic) correlations;
    the channel entanglement is ``ew = max(0, phi)``.  The state is the
    singlet at phi = 1 and maximally mixed at phi = -1/2.
    """

    phi: float

    def __post_init__(self):
        object.__setattr__(self, "phi", _check_number("phi", self.phi, -1.0, 1.0))

    @property
    def f(self) -> float:
        return float(_werner_f(self.phi))

    @property
    def ew(self) -> float:
        return float(_werner_ew(self.phi))

    def state(self) -> np.ndarray:
        return werner_state(self.phi)


@dataclass(frozen=True)
class BellOutcome:
    """One Bell-measurement outcome with its correction unitary."""

    alpha: int
    p_matrix: np.ndarray
    correction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_count("alpha", self.alpha, 0, 3))
        p = _single(_as_numbers("p_matrix", self.p_matrix, (3, 3)), "p_matrix")
        object.__setattr__(self, "p_matrix", p)
        # Optimality condition: the correction's Bloch rotation must be the
        # negative of the outcome's sign matrix.
        rot = rotation_from_unitary(self.correction)
        if not np.max(np.abs(rot + p)) <= ROTATION_ATOL:  # NaN too
            raise ValueError("correction does not rotate by -P_alpha")


def bell_outcome(alpha: int) -> BellOutcome:
    """The Bell outcome ``alpha`` with the standard optimal correction."""
    alpha = _check_count("alpha", alpha, 0, 3)
    return BellOutcome(
        alpha=alpha,
        p_matrix=BELL_SIGN_MATRICES[alpha].copy(),
        correction=BOB_CORRECTIONS[alpha].copy(),
    )


#: The Pauli-product basis in the order :func:`hs_compose_stack` adds it and
#: :func:`hs_decompose` reads it: ``sigma_n (x) 1``, ``1 (x) sigma_n``, then
#: ``sigma_n (x) sigma_m`` for m = x, y, z, for each n in turn.
_HS_BASIS = tuple(p for n in range(3) for p in (PAULI_A[n], PAULI_B[n], *PAULI_AB[n]))


def hs_compose_stack(a, b, c) -> np.ndarray:
    """Build 4x4 matrices from stacks of Pauli-expansion coefficients.

    ``a`` and ``b`` have shape ``(..., 3)`` and ``c`` shape ``(..., 3, 3)``,
    with equal leading dimensions; the result has shape ``(..., 4, 4)``.
    Each item is ``(1/4) [1(x)1 + a.sigma (x) 1 + 1 (x) b.sigma
    + sum_nm c[n,m] sigma_n (x) sigma_m]``, the term-by-term sum of
    ``coefficient * basis matrix`` from the identity in the basis order of
    ``_HS_BASIS``: the bit reference of :func:`seed_states` and
    :func:`werner_states`.  Coefficients that are not finite real numbers,
    or not of those shapes, are a ``ValueError`` naming their argument.
    """
    return _hs_compose_stack(*_hs_coefficients(a, b, c))


def _hs_coefficients(a, b, c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``a``, ``b``, ``c`` as float arrays, if they are finite real ``(..., 3)``,
    ``(..., 3)`` and ``(..., 3, 3)`` stacks with one leading shape.

    The gate of Pauli-expansion coefficients; its errors name the arguments.
    """
    a, b, c = _as_numbers("a", a, (3,)), _as_numbers("b", b, (3,)), _as_numbers("c", c, (3, 3))
    if not a.shape[:-1] == b.shape[:-1] == c.shape[:-2]:
        raise ValueError(f"a, b and c must share a leading shape: {a.shape}, {b.shape}, {c.shape}")
    for name, x, axes in (("a", a, -1), ("b", b, -1), ("c", c, (-2, -1))):
        _reject(~np.isfinite(x).all(axis=axes), f"{name} must be finite")
    return a, b, c


def _hs_compose_stack(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """:func:`hs_compose_stack` of float arrays, unchecked."""
    coefficients = np.concatenate([a[..., None], b[..., None], c], axis=-1)
    coefficients = coefficients.reshape(*c.shape[:-2], 15, 1, 1)
    rho = np.eye(4, dtype=complex)
    for k, p in enumerate(_HS_BASIS):
        rho = rho + coefficients[..., k, :, :] * p
    return rho / 4.0


def hs_compose(form: HilbertSchmidtForm) -> np.ndarray:
    """Build the 4x4 matrix from Pauli-expansion coefficients.

    Returns ``(1/4) [1(x)1 + a.sigma (x) 1 + 1 (x) b.sigma
    + sum_nm c[n,m] sigma_n (x) sigma_m]``; see :func:`hs_compose_stack`.
    """
    if not isinstance(form, HilbertSchmidtForm):
        raise ValueError("form must be a HilbertSchmidtForm")
    return _hs_compose_stack(form.a, form.b, form.c)


def hs_decompose(rho: np.ndarray) -> HilbertSchmidtForm:
    """Extract Pauli-expansion coefficients from a 4x4 matrix.

    The input must be Hermitian with unit trace; the coefficients are then
    ``a[n] = Tr[rho (sigma_n (x) 1)]`` and so on, all real.  Inverse of
    :func:`hs_compose` to machine precision.
    """
    rho = _single(as_operator(rho, dims=(4,)))
    _check_hermitian(rho, "matrix must be Hermitian")
    _check_unit_trace(rho, "matrix must have unit trace")
    traces = np.array([np.trace(rho @ p).real for p in _HS_BASIS]).reshape(3, 5)
    return HilbertSchmidtForm(a=traces[:, 0], b=traces[:, 1], c=traces[:, 2:])


def seed_states(c0) -> np.ndarray:
    """:func:`seed_state` of every ``c0`` in an array, as a ``(..., 4, 4)`` stack.

    Writes the diagonal and the (0, 3) and (3, 0) entries directly; the rest
    are zero.  Each adds its nonzero Pauli terms (``c0`` from
    ``sigma_x (x) sigma_x`` and ``sigma_y (x) sigma_y``, ``a0`` from
    ``sigma_z (x) 1`` and ``1 (x) sigma_z``, 1 from ``sigma_z (x) sigma_z``)
    to the identity's entry in ``_HS_BASIS`` order, so the stack equals
    :func:`hs_compose_stack` of the state's coefficients bit for bit, sign
    of zero included.
    """
    return _seed_states(_check_range("c0", c0, -1.0, 1.0))


def _seed_states(c0: np.ndarray) -> np.ndarray:
    """:func:`seed_states` of a float array already in [-1, 1], unchecked."""
    a0 = _seed_polarisation(c0)
    rho = np.zeros(c0.shape + (4, 4), dtype=complex)
    rho[..., 0, 0] = 1.0 + a0 + a0 + 1.0
    # (1, 1) is a roundoff residual, nonzero at 94,033 of the 400,015 c0 of
    # np.linspace(-1, 1, 400015): an exact 0 would change results/.
    rho[..., 1, 1] = 1.0 + a0 - a0 - 1.0
    rho[..., 2, 2] = 1.0 - a0 + a0 - 1.0
    rho[..., 3, 3] = 1.0 - a0 - a0 + 1.0
    rho[..., 0, 3] = rho[..., 3, 0] = 0.0 + c0 + c0
    return rho / 4.0


def seed_state(c0: float) -> np.ndarray:
    """Canonical pure state with entanglement ``|c0|``.

    Both Bloch vectors are ``(0, 0, a0)`` with ``a0 = sqrt(1 - c0^2)`` and
    the correlation matrix is ``diag(c0, -c0, 1)``.  Every two-qubit pure
    state is this state up to local unitaries.
    """
    return _seed_states(np.array(_check_number("c0", c0, -1.0, 1.0)))


def rotated_pure_state(c0, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Seed state conjugated by the local unitary ``u1 (x) u2``.

    Purity and entanglement are those of ``seed_state(c0)``.  ``c0`` may
    also be an array and ``u1``, ``u2`` ``(..., 2, 2)`` stacks, which gives
    a stack of states; leading shapes that do not broadcast are a
    ``ValueError`` naming ``c0``, ``u1`` and ``u2``.
    """
    c0, u1, u2 = _check_range("c0", c0, -1.0, 1.0), _check_unitary(u1), _check_unitary(u2)
    _check_broadcast("c0, u1 and u2", c0.shape, u1.shape[:-2], u2.shape[:-2])
    return _rotated_pure_states(c0, u1, u2)


def _rotated_pure_states(c0: np.ndarray, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """:func:`rotated_pure_state` of a float array in [-1, 1] and unitary stacks, unchecked."""
    u = _kron(u1, u2)
    return u @ _seed_states(c0) @ adjoint(u)


# The random vectors below are drawn raw and normalised as stacks, so the axiom
# suites can normalise a whole block at once.  The squared norms are stacked
# ``(1, n) @ (n, 1)`` products: these give the bits of the per-vector
# ``ndarray.dot`` that ``np.linalg.norm`` evaluates, where ``einsum`` and
# ``(x * x).sum(-1)`` round differently.
def _squared_norms(x: np.ndarray) -> np.ndarray:
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


def _su2_vectors(raw) -> np.ndarray:
    """Unit complex 2-vectors from a ``(..., 4)`` stack of raw Gaussians ``(re0, re1, im0, im1)``."""
    re, im = raw[..., :2], raw[..., 2:]
    return (re + 1j * im) / np.sqrt(_squared_norms(re) + _squared_norms(im))[..., None]


def _draw_su2(gen: np.random.Generator) -> np.ndarray:
    """The normalised complex 2-vector :func:`random_local_unitary` draws."""
    return _su2_vectors(gen.standard_normal(4))


def su2_matrices(z) -> np.ndarray:
    """The SU(2) matrices ``[[z0, -z1*], [z1, z0*]]`` of a ``(..., 2)`` stack of unit vectors.

    ``z`` must hold numbers, finite and in pairs, and each pair must have
    unit length within ``UNITARITY_ATOL``: the matrix's ``u u^dagger`` is
    ``|z|^2`` times the identity.  Anything else is a ``ValueError`` naming ``z``.
    """
    z = _as_numbers("z", z, (2,), real=False)
    deviation = np.abs((z.real * z.real + z.imag * z.imag).sum(axis=-1) - 1.0)
    reason = "z must have unit length, or its matrix is not unitary: |z|^2 - 1 = {}"
    _reject(~(deviation <= UNITARITY_ATOL), reason, deviation)
    return _su2_matrices(z)


def _su2_matrices(z: np.ndarray) -> np.ndarray:
    """:func:`su2_matrices` of a complex ``(..., 2)`` stack, unchecked."""
    u = np.empty(z.shape[:-1] + (2, 2), dtype=complex)
    u[..., 0, 0] = z[..., 0]
    u[..., 0, 1] = -np.conj(z[..., 1])
    u[..., 1, 0] = z[..., 1]
    u[..., 1, 1] = np.conj(z[..., 0])
    return u


def random_local_unitary(rng) -> np.ndarray:
    """Haar-random SU(2) element, deterministic for a given seed.

    ``rng`` is either an integer seed or a ``numpy.random.Generator`` (which
    is advanced).  The first column is a normalised two-component complex
    Gaussian; the second is its orthogonal complement, which makes the
    result Haar-distributed with determinant exactly +1.
    """
    return _su2_matrices(_draw_su2(_as_generator(rng)))


def werner_states(phi) -> np.ndarray:
    """:func:`werner_state` of every ``phi`` in an array, as a ``(..., 4, 4)`` stack.

    Writes the nonzero entries directly, as :func:`seed_states` does: the
    correlations ``-f`` of ``sigma_n (x) sigma_n`` added in ``_HS_BASIS`` order.
    """
    return _werner_states(_check_range("phi", phi, -1.0, 1.0))


def _werner_states(phi: np.ndarray) -> np.ndarray:
    """:func:`werner_states` of a float array already in [-1, 1], unchecked."""
    f = _werner_f(phi)
    rho = np.zeros(phi.shape + (4, 4), dtype=complex)
    rho[..., 0, 0] = rho[..., 3, 3] = 1.0 - f
    rho[..., 1, 1] = rho[..., 2, 2] = 1.0 + f
    rho[..., 1, 2] = rho[..., 2, 1] = 0.0 - f - f
    return rho / 4.0


def werner_state(phi: float) -> np.ndarray:
    """Werner state with parameter ``phi`` in [-1, 1].

    In the Pauli expansion both Bloch vectors vanish and the correlation
    matrix is ``-f I`` with ``f = (2 phi + 1) / 3``.  Eigenvalues are
    ``(1 - f) / 4`` (three-fold) and ``(1 + 3 f) / 4``.
    """
    return _werner_states(np.array(_check_number("phi", phi, -1.0, 1.0)))


#: The four Bell projectors as one read-only ``(4, 4, 4)`` stack; index 0 is
#: the singlet.  Built once by one stacked :func:`hs_compose_stack`, each item
#: bit for bit as it would be alone.
_BELL_PROJECTORS = _read_only(
    _hs_compose_stack(np.zeros((4, 3)), np.zeros((4, 3)), np.array(BELL_SIGN_MATRICES))
)


def bell_projector(alpha: int) -> np.ndarray:
    """Rank-1 projector onto Bell state ``alpha`` (0 is the singlet), as a fresh copy."""
    return _BELL_PROJECTORS[_check_count("alpha", alpha, 0, 3)].copy()


def rotation_from_unitary(u: np.ndarray) -> np.ndarray:
    """Bloch rotation induced by a qubit unitary.

    Returns the real 3x3 matrix ``O`` with
    ``u (a . sigma) u^dagger = (O^T a) . sigma`` for every real ``a``,
    i.e. ``O[k, n] = Re Tr[sigma_n u sigma_k u^dagger] / 2``.  ``O`` is
    orthogonal with determinant +1.  The three conjugated Paulis are one
    stacked product, and the nine traces one ``(3, 3)`` stack of products.
    """
    u = _single(_check_unitary(u))
    conjugated = u @ _PAULI_STACK @ adjoint(u)
    return (_PAULI_STACK[None] @ conjugated[:, None]).trace(axis1=-2, axis2=-1).real / 2.0


def random_product_state(rng) -> np.ndarray:
    """Random two-qubit product state ``rho_a (x) rho_b``.

    Each factor has a Bloch vector drawn uniformly from the unit ball.
    ``rng`` is an integer seed or a ``numpy.random.Generator`` (which is advanced).
    """
    gen = _as_generator(rng)
    return _kron(_qubit_states(_draw_bloch(gen)), _qubit_states(_draw_bloch(gen)))


def _draw_ball(gen: np.random.Generator) -> tuple[np.ndarray, float]:
    """The raw draws of one Bloch vector: a Gaussian 3-vector and the radius it
    is scaled to, which is drawn only when the vector is not zero.

    The test ``x*x + y*y + z*z > 0`` on Python floats makes the decision that
    ``r.dot(r) > 0`` makes, for every double: each rounded square is
    non-negative, and a rounded sum of non-negative terms is at least its
    largest term (rounding is monotone), so the sum is positive exactly when
    one rounded square is; a fused multiply-add rounds each square the same
    way once the running sum is zero.  The radius is Python's ``u ** (1/3)``:
    ``np.power`` and ``np.cbrt`` round some cube roots differently.
    """
    r = gen.standard_normal(3)
    x, y, z = r.tolist()
    return r, (gen.random() ** (1.0 / 3.0) if x * x + y * y + z * z > 0 else 0.0)


def _bloch_vectors(r, radius) -> np.ndarray:
    """The ``(..., 3)`` Gaussian vectors ``r`` scaled to lengths ``radius`` (zero vectors stay zero)."""
    norm = np.sqrt(_squared_norms(r))
    return r * (radius / np.where(norm > 0, norm, 1.0))[..., None]


def _draw_bloch(gen: np.random.Generator) -> np.ndarray:
    """A Bloch vector drawn uniformly from the unit ball."""
    return _bloch_vectors(*_draw_ball(gen))


def qubit_states(r) -> np.ndarray:
    """Qubit states ``(1 + r.sigma) / 2`` of a ``(..., 3)`` stack of Bloch vectors.

    ``r`` must be real numbers in triples, each of length at most 1 within
    ``PSD_ATOL`` (the state's eigenvalues are ``(1 +- |r|) / 2``); anything
    else, NaN too, is a ``ValueError`` naming ``r``.
    """
    r = _as_numbers("r", r, (3,))
    length = np.linalg.norm(r, axis=-1)
    _reject(~(length <= 1.0 + PSD_ATOL), "r must have length at most 1, got {}", length)
    return _qubit_states(r)


def _qubit_states(r: np.ndarray) -> np.ndarray:
    """:func:`qubit_states` of a float ``(..., 3)`` stack, unchecked."""
    r = r[..., None, None]
    x, y, z = r[..., 0, :, :], r[..., 1, :, :], r[..., 2, :, :]
    return (ID2 + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z) / 2.0
