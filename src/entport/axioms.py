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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entanglement import negativity
from .matkernel import adjoint, tensor
from .states import (
    random_local_unitary,
    random_product_state,
    rotated_pure_state,
    werner_state,
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
        total = np.zeros((4, 4), dtype=complex)
        for a, b in self.operators:
            v = tensor(a, b)
            total += adjoint(v) @ v
        return float(np.max(np.abs(total - np.eye(4))))


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


def _check_branches(branches: int) -> None:
    if not 1 <= branches <= MAX_BRANCHES:
        raise ValueError(f"branches must lie in [1, {MAX_BRANCHES}], got {branches}")


def _random_kraus_set(gen: np.random.Generator, branches: int) -> list[np.ndarray]:
    # The 2x2 blocks of a random isometry C^2 -> C^(2*branches) form a
    # complete Kraus set; for branches == 1 completeness forces unitarity.
    g = gen.standard_normal((2 * branches, 2)) + 1j * gen.standard_normal((2 * branches, 2))
    q, _ = np.linalg.qr(g)
    return [q[2 * i : 2 * i + 2, :].copy() for i in range(branches)]


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
    _check_branches(branches)
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    measuring = _random_kraus_set(gen, branches)
    conditional = [random_local_unitary(gen) for _ in range(branches)]
    if gen.random() < 0.5:
        return LgmCcFamily(operators=list(zip(measuring, conditional)))
    return LgmCcFamily(operators=list(zip(conditional, measuring)))


def _random_test_state(gen: np.random.Generator) -> np.ndarray:
    pure = rotated_pure_state(
        gen.random(), random_local_unitary(gen), random_local_unitary(gen)
    )
    if gen.random() < 0.5:
        return pure
    lam = gen.random()
    return lam * pure + (1.0 - lam) * werner_state(gen.uniform(-1.0, 1.0))


def check_c1(trials: int, seed: int) -> AxiomReport:
    """C1: separable states report zero, entangled pure states report |c0|."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    worst = 0.0
    for t in range(trials):
        gen = _generator(seed, 1, t)
        worst = max(worst, negativity(random_product_state(gen)).value)
        terms = int(gen.integers(2, 5))
        weights = gen.random(terms)
        weights /= weights.sum()
        mixture = sum(w * random_product_state(gen) for w in weights)
        worst = max(worst, negativity(mixture).value)
        c0 = gen.random()
        pure = rotated_pure_state(c0, random_local_unitary(gen), random_local_unitary(gen))
        worst = max(worst, abs(negativity(pure).value - c0))
    return AxiomReport("C1", trials, worst, worst <= AXIOM_TOL)


def check_c2(trials: int, seed: int) -> AxiomReport:
    """C2: the measure is unchanged by any local unitary rotation."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    worst = 0.0
    for t in range(trials):
        gen = _generator(seed, 2, t)
        rho = _random_test_state(gen)
        u = tensor(random_local_unitary(gen), random_local_unitary(gen))
        worst = max(
            worst,
            abs(negativity(u @ rho @ adjoint(u)).value - negativity(rho).value),
        )
    return AxiomReport("C2", trials, worst, worst <= AXIOM_TOL)


def check_c3(trials: int, branches: int, seed: int) -> AxiomReport:
    """C3: the branch-averaged measure never exceeds the input's measure."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _check_branches(branches)
    worst = 0.0
    skipped = 0
    for t in range(trials):
        gen = _generator(seed, 3, t)
        rho = _random_test_state(gen)
        base = negativity(rho).value
        family = sample_lgm_cc(gen, branches)
        averaged = 0.0
        for a, b in family.operators:
            v = tensor(a, b)
            mapped = v @ rho @ adjoint(v)
            p = float(np.trace(mapped).real)
            if p < BRANCH_PROB_FLOOR:
                skipped += 1
                continue
            averaged += p * negativity(mapped / p).value
        worst = max(worst, averaged - base)
    worst = max(worst, 0.0)
    return AxiomReport(
        "C3",
        trials,
        worst,
        worst <= AXIOM_TOL,
        skip_rate=skipped / (trials * branches),
    )
