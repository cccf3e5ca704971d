"""Randomised checks of the axioms a two-qubit entanglement measure must obey.

Three conditions are exercised against the negativity measure:

* C1 -- zero exactly on separable states,
* C2 -- invariance under local unitaries,
* C3 -- no increase, on average, under local general measurements whose
  two sides are classically correlated (modelled as index-paired local
  Kraus sets).

These are sampling harnesses, not proofs: they guard the implementation.
Trial states mix locally rotated pure states with pure/Werner convex
combinations so that both the pure and the genuinely mixed regimes are
covered.  Every trial derives its generator deterministically from the
root seed and the trial index, so runs are reproducible and order
independent.

Each check runs in two steps per block of trials.  First it makes each
trial's generator calls, in the order the trial's construction consumes
them, and keeps only the raw draws.  A trial makes as few calls as its
stream allows: Gaussian draws that follow one another are one
``standard_normal`` call, which gives the same numbers as consecutive calls.
Then it normalises the block's SU(2) and Bloch vectors as stacks, builds
the block's states, local unitaries and Kraus families as ``(..., d, d)``
stacks, validates them and evaluates every negativity with one stacked
eigensolve, and folds the per-trial violations in trial order.  Each
stacked result equals the matrix-by-matrix computation bit for bit, and
blocks hold at most ``STACK_BLOCK`` matrices (or one trial), so memory does
not grow with the trial count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entanglement import negativities
from .matkernel import STACK_BLOCK, StackItemError, _check_count, _kron, _stack_item
from .matkernel import adjoint, tensor
from .states import (
    _as_generator,
    _bloch_vectors,
    _check_seed,
    _check_unitary,
    _draw_ball,
    _su2_vectors,
    qubit_states,
    rotated_pure_state,
    su2_matrices,
    werner_states,
)

#: A condition counts as violated only above this (roundoff headroom).
AXIOM_TOL = 1e-9

#: Measurement branches with probability below this are skipped.
BRANCH_PROB_FLOOR = 1e-12

#: Allowed residual in the Kraus completeness relation.
COMPLETENESS_ATOL = 1e-10

#: Most measurement branches per family, checked before the Kraus set (whose
#: size grows with the branch count) is drawn.
MAX_BRANCHES = 1024

#: Most trials per check, checked before any trial runs.
MAX_TRIALS = 1_000_000


@dataclass
class LgmCcFamily:
    """Classically correlated local measurement operators ``A_i (x) B_i``.

    The index pairing is the classical correlation: branch ``i`` applies
    ``A_i`` on one side and ``B_i`` on the other.  The family must satisfy
    the joint completeness relation
    ``sum_i (A_i (x) B_i)^dagger (A_i (x) B_i) = 1``, which index-paired
    sets achieve when the side opposite a measurement applies branch-wise
    unitaries (see :func:`sample_lgm_cc`).
    """

    operators: list[tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        if not self.operators:
            raise ValueError("family needs at least one operator pair")
        if self.completeness_residual() > COMPLETENESS_ATOL:
            raise ValueError("operator family does not satisfy completeness")

    def completeness_residual(self) -> float:
        a, b = zip(*self.operators)
        return float(_completeness_residuals(tensor(np.array(a), np.array(b))))


def _completeness_residuals(v: np.ndarray) -> np.ndarray:
    """``max |sum_i v_i^dagger v_i - 1|`` of each family in a ``(..., branches, 4, 4)`` stack."""
    total = (adjoint(v) @ v).sum(axis=-3)
    return np.abs(total - np.eye(4)).max(axis=(-2, -1))


@dataclass
class AxiomReport:
    """Outcome of one sampled condition check."""

    condition: str
    trials: int
    max_violation: float
    passed: bool
    skip_rate: float = 0.0


def _generator(seed: int, check_tag: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, check_tag, trial])


def _blocks(trials: int, matrices_per_trial: int):
    """Consecutive trial ranges of at most ``STACK_BLOCK`` matrices (one trial at least).

    A C3 trial needs ``branches + 1`` matrices, so at 128 branches or more a
    block is one trial.
    """
    step = max(1, STACK_BLOCK // matrices_per_trial)
    return (range(start, min(start + step, trials)) for start in range(0, trials, step))


def _evaluate(check: str, seed: int, trial_of, *parts) -> np.ndarray:
    """Negativities of the parts as one stack; a bad item i is reported as trial ``trial_of[i]``."""
    try:
        return negativities(np.concatenate(parts))
    except StackItemError as exc:
        trial = trial_of[exc.index[0]]
        raise ValueError(f"{check}, seed {seed}, trial {trial}: {exc.reason}") from exc


def _draw_lgm_cc(gen: np.random.Generator, branches: int) -> tuple:
    """The draws behind one :func:`sample_lgm_cc` family, in generator order.

    A complex Gaussian ``(2 * branches, 2)`` matrix for the Kraus set (its
    real parts, then its imaginary parts), the raw ``(branches, 4)``
    Gaussians of one SU(2) vector per branch for the conditional unitaries,
    all from one call, and whether the measuring side comes first.
    """
    re, im, z = gen.standard_normal(12 * branches).reshape(3, -1)
    return (re + 1j * im).reshape(-1, 2), z.reshape(-1, 4), gen.random() < 0.5


def _lgm_cc_operators(g, z, measuring_first) -> tuple[np.ndarray, np.ndarray]:
    """``(A, B)`` stacks of shape ``(..., branches, 2, 2)`` from stacked family draws.

    The 2x2 blocks of the isometry ``Q`` of ``g = QR`` form a complete Kraus
    set (for one branch, completeness forces unitarity); the SU(2) matrices
    of the raw draws ``z``, normalised here, are the conditional unitaries,
    validated as unitary.
    """
    q, _ = np.linalg.qr(g)
    kraus = q.reshape(*q.shape[:-2], -1, 2, 2)
    unitaries = _check_unitary(su2_matrices(_su2_vectors(z)))
    first = np.asarray(measuring_first)[..., None, None, None]
    return np.where(first, kraus, unitaries), np.where(first, unitaries, kraus)


def sample_lgm_cc(rng, branches: int) -> LgmCcFamily:
    """Draw a random classically correlated measurement family.

    One side performs a general measurement (a complete Kraus set); the
    other applies a Haar-random unitary conditioned on the branch index,
    which is the classical correlation.  Which side measures is drawn at
    random.  This index-paired structure is what makes the family complete:
    ``sum_i A_i^dagger A_i (x) 1 = 1``.

    ``rng`` is an integer seed or a ``numpy.random.Generator``; the result
    is deterministic for a given seed.
    """
    branches = _check_count("branches", branches, 1, MAX_BRANCHES)
    a, b = _lgm_cc_operators(*_draw_lgm_cc(_as_generator(rng), branches))
    return LgmCcFamily(operators=list(zip(a, b)))


def _su2_pairs(z) -> np.ndarray:
    """The unchecked SU(2) stacks ``u1, u2`` of ``n`` rows of 8 raw Gaussians.

    They come as one ``(2, n, 2, 2)`` array, so ``*_su2_pairs(z)`` unpacks them.
    """
    return su2_matrices(_su2_vectors(np.reshape(z, (-1, 2, 4)))).swapaxes(0, 1)


def _draw_test_state(gen: np.random.Generator) -> tuple:
    """Draws of one trial state: ``(c0, z, mixed, lam, phi)``.

    The state is the seed state with ``c0`` rotated by the SU(2) pair of the
    8 raw Gaussians ``z``; when ``mixed``, it is mixed with weight ``1 - lam``
    into the Werner state with ``phi`` (``lam`` and ``phi`` are 0 otherwise).
    """
    c0, z, mixed = gen.random(), gen.standard_normal(8), gen.random() >= 0.5
    lam, phi = (gen.random(), gen.uniform(-1.0, 1.0)) if mixed else (0.0, 0.0)
    return c0, z, mixed, lam, phi


def _test_states(draws: list[tuple]) -> np.ndarray:
    """Stack of the trial states of :func:`_draw_test_state` draws."""
    c0, z, mixed, lam, phi = (np.array(column) for column in zip(*draws))
    pure = rotated_pure_state(c0, *_su2_pairs(z))
    lam = lam[:, None, None]
    mixture = lam * pure + (1.0 - lam) * werner_states(phi)
    return np.where(mixed[:, None, None], mixture, pure)


def _product_states(balls) -> np.ndarray:
    """Stack of ``rho_a (x) rho_b`` from consecutive pairs of :func:`_draw_ball` draws."""
    r, radius = (np.array(column) for column in zip(*balls))
    bloch = _bloch_vectors(r, radius).reshape(-1, 2, 3)
    return _kron(qubit_states(bloch[:, 0]), qubit_states(bloch[:, 1]))


def check_c1(trials: int, seed: int) -> AxiomReport:
    """C1: separable states report zero, entangled pure states report |c0|.

    Per trial: a product state, a mixture of 2 to 4 more product states,
    and a locally rotated seed state with ``c0`` (at most 7 matrices).
    """
    trials = _check_count("trials", trials, 1, MAX_TRIALS)
    _check_seed(seed)
    worst = 0.0
    for block in _blocks(trials, 7):
        products, weights, parts, pure_draws = [], [], [], []
        for t in block:
            gen = _generator(seed, 1, t)
            products += (_draw_ball(gen), _draw_ball(gen))
            terms = int(gen.integers(2, 5))
            w = gen.random(terms)
            w /= w.sum()
            weights.append(w)
            parts.extend(_draw_ball(gen) for _ in range(2 * terms))
            pure_draws.append((gen.random(), gen.standard_normal(8)))
        separable = _product_states(products + parts)
        # The ragged mixtures keep their Python sums, term by term.
        components = iter(separable[len(block) :])
        mixed = [sum(wi * state for wi, state in zip(w, components)) for w in weights]
        c0, z = (np.array(column) for column in zip(*pure_draws))
        pure = rotated_pure_state(c0, *_su2_pairs(z))
        values = _evaluate("C1", seed, np.tile(block, 3), separable[: len(block)], mixed, pure)
        product, mixture, rotated = values.reshape(3, len(block))
        violations = np.stack([product, mixture, np.abs(rotated - c0)], axis=-1)
        worst = max(worst, *violations.ravel().tolist())
    return AxiomReport("C1", trials, worst, worst <= AXIOM_TOL)


def check_c2(trials: int, seed: int) -> AxiomReport:
    """C2: the measure is unchanged by any local unitary rotation."""
    trials = _check_count("trials", trials, 1, MAX_TRIALS)
    _check_seed(seed)
    worst = 0.0
    for block in _blocks(trials, 2):
        states, z = [], []
        for t in block:
            gen = _generator(seed, 2, t)
            states.append(_draw_test_state(gen))
            z.append(gen.standard_normal(8))
        rho = _test_states(states)
        u = _kron(*_check_unitary(_su2_pairs(z)))
        values = _evaluate("C2", seed, np.tile(block, 2), u @ rho @ adjoint(u), rho)
        rotated, original = np.split(values, 2)
        worst = max(worst, *np.abs(rotated - original).tolist())
    return AxiomReport("C2", trials, worst, worst <= AXIOM_TOL)


def check_c3(trials: int, branches: int, seed: int) -> AxiomReport:
    """C3: the branch-averaged measure never exceeds the input's measure."""
    trials = _check_count("trials", trials, 1, MAX_TRIALS)
    branches = _check_count("branches", branches, 1, MAX_BRANCHES)
    _check_seed(seed)
    worst = 0.0
    skipped = 0
    for block in _blocks(trials, branches + 1):
        states, families = [], []
        for t in block:
            gen = _generator(seed, 3, t)
            states.append(_draw_test_state(gen))
            families.append(_draw_lgm_cc(gen, branches))
        rho = _test_states(states)
        g, z, measuring_first = (np.array(column) for column in zip(*families))
        v = _kron(*_lgm_cc_operators(g, z, measuring_first))
        residuals = _completeness_residuals(v)
        if residuals.max() > COMPLETENESS_ATOL:
            (index,) = _stack_item(residuals > COMPLETENESS_ATOL)
            raise ValueError(f"trial {block[index]}: operator family does not satisfy completeness")
        mapped = v @ rho[:, None] @ adjoint(v)
        p = mapped.trace(axis1=-2, axis2=-1).real
        kept = p >= BRANCH_PROB_FLOOR
        skipped += int(np.count_nonzero(~kept))
        trial_of = np.concatenate([block, np.repeat(block, branches)[kept.ravel()]])
        values = _evaluate("C3", seed, trial_of, rho, mapped[kept] / p[kept][:, None, None])
        weighted = np.zeros_like(p)
        weighted[kept] = p[kept] * values[len(block) :]
        # Sequential branch sums, as a running total would add them.
        averaged = np.cumsum(weighted, axis=-1)[:, -1]
        worst = max(worst, *(averaged - values[: len(block)]).tolist())
    worst = max(worst, 0.0)
    return AxiomReport(
        "C3",
        trials,
        worst,
        worst <= AXIOM_TOL,
        skip_rate=skipped / (trials * branches),
    )
