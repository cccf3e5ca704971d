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
independent.  One driver, :func:`_run_trials`, runs every check; its
docstring says how a trial is drawn, evaluated and folded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entanglement import negativities
from .matkernel import StackItemError, _as_numbers, _blocks, _check_count, _kron, _reject
from .matkernel import adjoint, tensor
from .states import (
    _as_generator,
    _bloch_vectors,
    _check_seed,
    _check_unitary,
    _draw_ball,
    _qubit_states,
    _rotated_pure_states,
    _su2_matrices,
    _su2_vectors,
    _werner_states,
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
    unitaries (see :func:`sample_lgm_cc`).  ``operators`` that are not
    ``(A, B)`` pairs of 2x2 matrices are a ``ValueError`` naming them.
    """

    operators: list[tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        pairs = _as_numbers("operators", self.operators, (2, 2, 2), real=False)
        if pairs.ndim != 4:
            raise ValueError(f"operators must be (A, B) pairs of 2x2 matrices, got shape {pairs.shape}")
        if self.completeness_residual() > COMPLETENESS_ATOL:
            raise ValueError("operator family does not satisfy completeness")

    def completeness_residual(self) -> float:
        return float(_completeness_residuals(tensor(*np.swapaxes(self.operators, 0, 1))))


def _completeness_residuals(v: np.ndarray) -> np.ndarray:
    """``max |sum_i v_i^dagger v_i - 1|`` of each family in a ``(..., branches, 4, 4)`` stack.

    The sum is one product ``W^dagger W`` per family, with its branch
    operators stacked vertically into ``W``.
    """
    w = v.reshape(*v.shape[:-3], -1, 4)
    return np.abs(adjoint(w) @ w - np.eye(4)).max(axis=(-2, -1))


@dataclass
class AxiomReport:
    """Outcome of one sampled condition check."""

    condition: str
    trials: int
    max_violation: float
    passed: bool
    skip_rate: float = 0.0


def _generator(seed: int, check_tag: int, trial: int) -> np.random.Generator:
    """The generator of ``np.random.default_rng([seed, check_tag, trial])``.

    numpy turns that list into the ``uint32`` words of each int, low word
    first, so three ints below 2**32 are their own three words: passing them
    as one ``uint32`` array gives the same stream and skips numpy's per-int
    coercion.  Any larger int is left to numpy's own conversion of the list.
    """
    if max(seed, check_tag, trial) <= 0xFFFFFFFF:
        return np.random.default_rng(np.array([seed, check_tag, trial], dtype=np.uint32))
    return np.random.default_rng([seed, check_tag, trial])


def _run_trials(tag: int, trials, seed, matrices, draw, violations) -> AxiomReport:
    """Check ``C<tag>`` over ``trials`` trials: the trial driver of every suite.

    ``matrices`` is the number of 4x4 matrices one trial holds at the peak
    of its block: the states, operators and stacks that ``violations``
    builds for it, not only the states it evaluates.  A check with counts
    of its own gates them after ``trials`` and before calling this, so the
    ``seed`` gate comes last.  The blocks of consecutive trials are
    ``matkernel._blocks(trials, matrices)``: at most ``STACK_BLOCK``
    matrices, or one trial (a C3 trial at 64 branches or more fills a
    block), so the working set of every check has the same bound and does
    not grow with the trial count.  The count leaves out the raw draws held
    for the block, which are small next to a trial's matrices: 0.9 to 1.0 KB
    per C1 trial (traced over 1,000 trials), some 4 matrices' worth.

    In each block, every trial first makes its generator calls:
    ``draw(gen)`` makes them on trial ``t``'s ``_generator(seed, tag, t)``,
    in the order the trial's construction consumes them, and returns the raw
    draws as a flat tuple of fields, each a number or an array of one shape
    for every trial of the check: C1's ``(r, radius, w, c0, z)`` (see
    :func:`_draw_c1`), C2's ``(c0, z, mixed, lam, phi, rotation)`` and C3's
    ``(c0, z, mixed, lam, phi, raw, measuring_first)``.  Only this driver
    stacks them, each field once: ``violations`` gets it as one array whose
    first axis runs over the block's trials.  A trial makes the fewest calls
    that give the same stream: Gaussian draws that follow one another are one
    ``standard_normal`` call, which gives the same numbers as consecutive
    calls.  So a C2 trial makes 4 or 6 calls and a C3 trial 5 or 7 at any
    branch count; a C1 trial makes ``8 + 4 t`` for a mixture of ``t``
    product states, because each Bloch vector's radius draw sits between
    Gaussian draws (``states._draw_ball``).

    Besides those calls, a trial computes only the tests that decide them
    (C1's zero test of each Bloch vector, the mixed-state choice of C2's and
    C3's trial states), C3's side bit, and the cube root of each Bloch
    radius, which numpy's ``power`` rounds differently from Python's ``**``.
    Everything else runs per block: ``violations(*fields)`` gets the
    block's stacked fields, and no trial range.  It splits C3's raw
    Gaussians into Kraus and SU(2) arrays, normalises C1's mixture weights
    and the block's SU(2) and Bloch vectors as stacks, builds the block's
    states, local unitaries and Kraus families as stacks, validates them,
    evaluates every negativity with one stacked call and returns the
    violations of its trials in trial order.  Every stack it validates or
    evaluates is trial-first: its first axis runs over the block's trials
    and its second, if any, over the parts of a trial (C1's three states,
    C2's rotated and original state, C3's input and branch states).  So a
    ``StackItemError`` it raises names the trial, and is reported as
    ``C<tag>, seed <seed>, trial <t>: <reason>``.  Each stacked result
    equals the trial-by-trial computation bit for bit.

    The fold is a running maximum in trial order.  It starts at 0.0, which
    is the clamp: a run whose violations are all negative reports 0.0.
    """
    trials = _check_count("trials", trials, 1, MAX_TRIALS)
    _check_seed(seed)
    worst = 0.0
    for block in _blocks(trials, matrices):
        draws = [draw(_generator(seed, tag, t)) for t in range(block.start, block.stop)]
        try:
            found = violations(*map(np.array, zip(*draws)))
        except StackItemError as exc:
            label = f"C{tag}, seed {seed}, trial {block.start + exc.index[0]}"
            raise ValueError(f"{label}: {exc.reason}") from exc
        worst = max(worst, *found.ravel().tolist())
    return AxiomReport(f"C{tag}", trials, worst, worst <= AXIOM_TOL)


def _draw_lgm_cc(gen: np.random.Generator, branches: int) -> tuple:
    """The draws behind one :func:`sample_lgm_cc` family, in generator order.

    The ``12 * branches`` raw Gaussians of one call (see :func:`_lgm_cc_arrays`)
    and whether the measuring side comes first.
    """
    return gen.standard_normal(12 * branches), gen.random() < 0.5


def _lgm_cc_arrays(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Kraus and SU(2) draws of a ``(..., 12 * branches)`` stack of raw Gaussians.

    The first third are the real parts and the second the imaginary parts of
    a complex Gaussian ``(..., 2 * branches, 2)`` matrix for the Kraus set;
    the last third are the raw ``(..., branches, 4)`` Gaussians of one SU(2)
    vector per branch, for the conditional unitaries.
    """
    re, im, z = np.split(raw, 3, axis=-1)
    lead = raw.shape[:-1]
    return (re + 1j * im).reshape(*lead, -1, 2), z.reshape(*lead, -1, 4)


def _lgm_cc_operators(g, z, measuring_first) -> tuple[np.ndarray, np.ndarray]:
    """``(A, B)`` stacks of shape ``(..., branches, 2, 2)`` from stacked family draws.

    The 2x2 blocks of the isometry ``Q`` of ``g = QR`` form a complete Kraus
    set (for one branch, completeness forces unitarity); the SU(2) matrices
    of the raw draws ``z``, normalised here, are the conditional unitaries,
    validated as unitary.
    """
    q, _ = np.linalg.qr(g)
    kraus = q.reshape(*q.shape[:-2], -1, 2, 2)
    unitaries = _check_unitary(_su2_matrices(_su2_vectors(z)))
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
    raw, measuring_first = _draw_lgm_cc(_as_generator(rng), branches)
    a, b = _lgm_cc_operators(*_lgm_cc_arrays(raw), measuring_first)
    return LgmCcFamily(operators=list(zip(a, b)))


def _su2_pairs(z) -> np.ndarray:
    """The unchecked SU(2) stacks ``u1, u2`` of ``n`` rows of 8 raw Gaussians.

    They come as one ``(2, n, 2, 2)`` array, so ``*_su2_pairs(z)`` unpacks them.
    """
    return _su2_matrices(_su2_vectors(np.reshape(z, (-1, 2, 4)))).swapaxes(0, 1)


def _draw_test_state(gen: np.random.Generator) -> tuple:
    """Draws of one trial state: ``(c0, z, mixed, lam, phi)``.

    The state is the seed state with ``c0`` rotated by the SU(2) pair of the
    8 raw Gaussians ``z``; when ``mixed``, it is mixed with weight ``1 - lam``
    into the Werner state with ``phi`` (``lam`` and ``phi`` are 0 otherwise).
    """
    c0, z, mixed = gen.random(), gen.standard_normal(8), gen.random() >= 0.5
    lam, phi = (gen.random(), gen.uniform(-1.0, 1.0)) if mixed else (0.0, 0.0)
    return c0, z, mixed, lam, phi


def _test_states(c0, z, mixed, lam, phi) -> np.ndarray:
    """Stack of the trial states of stacked :func:`_draw_test_state` fields."""
    pure = _rotated_pure_states(c0, *_su2_pairs(z))
    lam = lam[:, None, None]
    mixture = lam * pure + (1.0 - lam) * _werner_states(phi)
    return np.where(mixed[:, None, None], mixture, pure)


def _normalised(w: np.ndarray) -> np.ndarray:
    """Each row of C1's zero-padded ``(n, 4)`` weights divided by its sum.

    A row sums in order with its zeros last, so its sum has the bits of the
    unpadded vector's ``w.sum()`` and each weight the bits of ``w / w.sum()``
    (``np.add.reduceat`` does not give them).
    """
    return w / w.sum(axis=1, keepdims=True)


def _mixtures(w: np.ndarray, components: np.ndarray) -> np.ndarray:
    """Stack of the mixtures ``sum_k w[i, k] * components[i, k]`` of ``(n, 4)`` weights.

    Each row is Python's ``sum`` of its four terms.  An unused term has
    weight 0.0 and a finite state, so it is ``+0`` or ``-0``, and adding
    either changes no ``x`` but ``-0.0``; the sum starts as
    ``0 + w[i, 0] * s_0``, which never holds ``-0.0``.  So the bits, signed
    zeros too, are those of ``sum`` over the row's own terms.
    """
    return sum(w[:, k, None, None] * components[:, k] for k in range(4))


def _draw_c1(gen: np.random.Generator) -> tuple:
    """Draws of one C1 trial: ``(r (10, 3), radius (10,), w (4,), c0, z (8,))``.

    ``r`` and ``radius`` are the :func:`_draw_ball` draws of five product
    states' Bloch vectors, two each: the product state's, then those of the
    2 to 4 terms of a mixture with raw weights ``w``; ``(c0, z)`` draw a
    rotated seed state.  A mixture of fewer than 4 terms is padded: its
    unused weights are 0.0, and its unused balls zero vectors of radius 0.0.
    """
    r, radius, w = np.zeros((10, 3)), np.zeros(10), np.zeros(4)
    r[0], radius[0] = _draw_ball(gen)
    r[1], radius[1] = _draw_ball(gen)
    terms = int(gen.integers(2, 5))
    w[:terms] = gen.random(terms)
    for i in range(2, 2 + 2 * terms):
        r[i], radius[i] = _draw_ball(gen)
    return r, radius, w, gen.random(), gen.standard_normal(8)


def _c1_violations(r, radius, w, c0, z) -> np.ndarray:
    """Per trial: the product state's and the mixture's measure, and ``|N - c0|``."""
    bloch = _bloch_vectors(r, radius).reshape(-1, 5, 2, 3)
    separable = _kron(_qubit_states(bloch[:, :, 0]), _qubit_states(bloch[:, :, 1]))
    mixed = _mixtures(_normalised(w), separable[:, 1:])
    pure = _rotated_pure_states(c0, *_su2_pairs(z))
    states = np.stack([separable[:, 0], mixed, pure], axis=1)  # (trials, 3, 4, 4)
    product, mixture, rotated = negativities(states).T
    return np.stack([product, mixture, np.abs(rotated - c0)], axis=-1)


def check_c1(trials: int, seed: int) -> AxiomReport:
    """C1: separable states report zero, entangled pure states report |c0|.

    Per trial: a product state, a mixture of 2 to 4 more product states,
    and a locally rotated seed state with ``c0``.  A trial holds at most 12
    matrices: its 5 product states, the 4 weighted terms of its mixture and
    its 3 stacked states.
    """
    return _run_trials(1, trials, seed, 5 + 4 + 3, _draw_c1, _c1_violations)


def _c2_violations(c0, z, mixed, lam, phi, rotation) -> np.ndarray:
    """Per trial: how far a local rotation moves the trial state's measure."""
    rho = _test_states(c0, z, mixed, lam, phi)
    u = _kron(*_su2_pairs(rotation))
    rotated, original = negativities(np.stack([u @ rho @ adjoint(u), rho], axis=1)).T
    return np.abs(rotated - original)


def check_c2(trials: int, seed: int) -> AxiomReport:
    """C2: the measure is unchanged by any local unitary rotation."""

    def draw(gen):
        return *_draw_test_state(gen), gen.standard_normal(8)

    # A trial holds its state, its local unitary and its rotated pair.
    return _run_trials(2, trials, seed, 1 + 1 + 2, draw, _c2_violations)


def check_c3(trials: int, branches: int, seed: int) -> AxiomReport:
    """C3: the branch-averaged measure never exceeds the input's measure.

    The violation is the largest excess of a trial's branch average over its
    input's measure, clamped at 0.0 by the driver's fold.  Branches whose
    probability lies below ``BRANCH_PROB_FLOOR`` are skipped and counted:
    each holds its trial's input state in the stack and weighs nothing.
    """
    trials = _check_count("trials", trials, 1, MAX_TRIALS)
    branches = _check_count("branches", branches, 1, MAX_BRANCHES)
    skipped = 0

    def draw(gen):
        return *_draw_test_state(gen), *_draw_lgm_cc(gen, branches)

    def violations(c0, z, mixed, lam, phi, raw, measuring_first):
        nonlocal skipped
        rho = _test_states(c0, z, mixed, lam, phi)[:, None]
        v = _kron(*_lgm_cc_operators(*_lgm_cc_arrays(raw), measuring_first))
        incomplete = ~(_completeness_residuals(v) <= COMPLETENESS_ATOL)  # NaN too
        _reject(incomplete, "operator family does not satisfy completeness")
        mapped = v @ rho @ adjoint(v)
        p = mapped.trace(axis1=-2, axis2=-1).real
        kept = p >= BRANCH_PROB_FLOOR
        skipped += int(np.count_nonzero(~kept))
        normalised = mapped / np.where(kept, p, 1.0)[..., None, None]
        branch_states = np.where(kept[..., None, None], normalised, rho)
        values = negativities(np.concatenate([rho, branch_states], axis=1))
        weighted = np.where(kept, p * values[:, 1:], 0.0)
        # Sequential branch sums, as a running total would add them.
        averaged = np.cumsum(weighted, axis=-1)[:, -1]
        return averaged - values[:, 0]

    # A trial holds its input and, per branch, its operator and its mapped,
    # normalised and stacked states.
    report = _run_trials(3, trials, seed, 1 + 4 * branches, draw, violations)
    report.skip_rate = skipped / (report.trials * branches)
    return report
