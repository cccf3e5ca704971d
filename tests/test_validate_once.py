"""Input is validated once, at the public boundary.

The stacked cores work on input that a public entry point has already checked,
or that the code built itself from range-checked numbers, so they validate
nothing.  These tests count the matrix validations (``check_density_matrix``,
``as_operator`` and the Hermiticity check), and the unitarity and range gates
of the states, by wrapping them wherever the package has bound them.
"""

import collections

import numpy as np
import pytest

import entport.axioms
import entport.cli
import entport.entanglement
import entport.information
import entport.matkernel
import entport.states
import entport.teleport
from entport.axioms import check_c1, check_c2, check_c3
from entport.cli import DEFAULT_E0_GRID, DEFAULT_PHI_GRID, SweepGrid, compare
from entport.entanglement import entropy_vs_negativity_curve, negativities
from entport.states import WernerChannel, seed_state, werner_state
from entport.teleport import simulate

MODULES = (
    entport.matkernel,
    entport.states,
    entport.entanglement,
    entport.information,
    entport.teleport,
    entport.axioms,
    entport.cli,
)
VALIDATIONS = ("check_density_matrix", "as_operator", "_check_hermitian")


def counted_calls(monkeypatch, source, names) -> collections.Counter:
    """A counter of the calls to each ``source.<name>`` made while the test runs."""
    counter = collections.Counter()
    for name in names:
        original = getattr(source, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counter[_name] += 1
            return _original(*args, **kwargs)

        for module in MODULES:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counter


@pytest.fixture
def calls(monkeypatch):
    """A counter of the matrix validation calls made while the test runs."""
    return counted_calls(monkeypatch, entport.matkernel, VALIDATIONS)


def test_compare_validates_no_matrix(calls):
    columns, _ = compare(SweepGrid(list(DEFAULT_E0_GRID), list(DEFAULT_PHI_GRID)))
    assert len(columns["e0"]) == 99
    assert calls == {}


def test_verify_fixtures_validate_no_matrix(calls):
    # The Werner fixtures are built from constants, so their negativities need no check.
    assert entport.cli._fixture_violations()["werner_negativity"].shape == (5,)
    assert calls == {}


def test_curve_validates_no_matrix(calls):
    assert len(entropy_vs_negativity_curve(2001)) == 2001
    assert calls == {}


def test_negativities_validates_the_stack_once(calls):
    stack = np.stack([seed_state(0.5), werner_state(0.3), seed_state(0.0)])
    negativities(stack)
    assert calls == {"check_density_matrix": 1, "as_operator": 1, "_check_hermitian": 1}


def test_simulate_validates_its_input_once(calls):
    rho = seed_state(0.6)
    simulate(rho, WernerChannel(0.5))
    assert calls == {"check_density_matrix": 1, "as_operator": 1, "_check_hermitian": 1}


# A C3 trial at 2 branches holds 1 + 4 * 2 matrices, so 100 trials take this many blocks.
C3_BLOCK = entport.matkernel.STACK_BLOCK // (1 + 4 * 2)
C3_BLOCKS = -(-100 // C3_BLOCK)


@pytest.mark.parametrize(
    "run,expected",
    [
        (lambda: check_c1(100, 7), {}),
        (lambda: check_c2(100, 7), {}),
        (lambda: check_c3(100, 2, 7), {"_check_unitary": C3_BLOCKS}),
    ],
    ids=["C1", "C2", "C3"],
)
def test_axiom_trials_are_validated_once(monkeypatch, run, expected):
    # The negativities' check_density_matrix validates every trial state, so the
    # suites build them unchecked.  C3 checks the family unitaries once per
    # block, which would otherwise fail completeness first if NaN.
    calls = counted_calls(monkeypatch, entport.states, ("_check_unitary", "_check_range"))
    run()
    assert calls == expected


def family_unitaries(trial: int) -> np.ndarray:
    """The conditional unitaries of the family of C3 trial ``trial`` at seed 7, 2 branches."""
    gen = entport.axioms._generator(7, 3, trial)
    entport.axioms._draw_test_state(gen)
    raw, _ = entport.axioms._draw_lgm_cc(gen, 2)
    z = entport.axioms._lgm_cc_arrays(raw)[1]
    return entport.states._su2_matrices(entport.states._su2_vectors(z))


def test_c3_checks_each_familys_unitaries_once(monkeypatch):
    checked = []
    original = entport.states._check_unitary

    def recorded(u, *args, **kwargs):
        checked.append(np.array(u))
        return original(u, *args, **kwargs)

    monkeypatch.setattr(entport.axioms, "_check_unitary", recorded)
    check_c3(100, 2, 7)
    # One (trials, branches, 2, 2) stack per block, its trials in order: every
    # trial's two unitaries are checked, none twice.
    assert [u.shape for u in checked] == [
        (min(C3_BLOCK, 100 - start), 2, 2, 2) for start in range(0, 100, C3_BLOCK)
    ]
    assert np.array_equal(np.concatenate(checked), [family_unitaries(t) for t in range(100)])

