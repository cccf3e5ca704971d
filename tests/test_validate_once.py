"""Input is validated once, at the public boundary.

The stacked cores work on input that a public entry point has already checked,
or that the code built itself from range-checked numbers, so they validate
nothing.  These tests count the matrix validations (``check_density_matrix``,
``as_operator`` and the Hermiticity check), and the unitarity and range gates
of the states, by wrapping them wherever the package has bound them.  A value
that a gate has passed, such as a ``WernerChannel``'s ``phi`` or the optimal
strategy built at import, is not checked again, and each gate keeps its message.
"""

import collections
import re

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
from entport.entanglement import (
    entropy_of_entanglement,
    entropy_vs_negativity_curve,
    negativities,
)
from entport.states import WernerChannel, seed_state, werner_state
from entport.teleport import optimal_strategy, simulate

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


def test_simulate_reads_the_channels_checked_phi(monkeypatch):
    # WernerChannel checked phi when it was built; simulate converts only rho12.
    rho, channel = seed_state(0.6), WernerChannel(0.5)
    numbers = counted_calls(monkeypatch, entport.states, ("_check_number",))
    arrays = counted_calls(monkeypatch, entport.matkernel, ("_as_numbers",))
    simulate(rho, channel)
    assert numbers == {}
    assert arrays == {"_as_numbers": 1}


@pytest.mark.parametrize("phi", [-1.0, -0.5, -0.0, 0.0, 1 / 3, 0.5, 1.0])
def test_channel_state_is_werner_state_bit_for_bit(phi):
    state = WernerChannel(phi).state()
    assert state.shape == (4, 4)
    assert state.tobytes() == werner_state(phi).tobytes()


def test_optimal_strategy_is_built_and_checked_once(monkeypatch):
    calls = counted_calls(monkeypatch, entport.states, ("_check_unitary",))
    strategy = optimal_strategy()
    assert optimal_strategy() is strategy
    assert calls == {}
    # Shared between callers, so nothing in it can be written.
    arrays = (*strategy.corrections, strategy.operators)
    assert not any(a.flags.writeable for a in arrays)


def test_entropy_has_no_stacked_twin():
    assert not hasattr(entport.entanglement, "_entropies")


RHO, STACK, CHANNEL = seed_state(0.5), np.array([seed_state(0.5)] * 2), WernerChannel(0.5)
NOT_4X4 = "dimension 3 not supported (allowed: (4,))"
A_STACK = "expected one matrix, got a stack of shape (2, 4, 4)"
NOT_ONE_NUMBER = "phi must be a single real number, got "


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: simulate(np.eye(3) / 3, CHANNEL), NOT_4X4),
        (lambda: simulate(STACK, CHANNEL), A_STACK),
        (lambda: simulate(np.full((4, 4), np.nan), CHANNEL), "matrix entries must be finite"),
        (lambda: simulate(RHO, 0.5), "channel must be a WernerChannel"),
        (lambda: simulate(RHO, CHANNEL, "x"), "strategy must be a BobStrategy"),
        (lambda: WernerChannel(2.0), "phi must lie in [-1, 1], got 2.0"),
        (lambda: WernerChannel(float("nan")), "phi must lie in [-1, 1], got nan"),
        (lambda: WernerChannel("0.5"), NOT_ONE_NUMBER + "'0.5'"),
        (lambda: WernerChannel(np.array([0.1, 0.2])), NOT_ONE_NUMBER + "array([0.1, 0.2])"),
        (lambda: WernerChannel(1j), NOT_ONE_NUMBER + "1j"),
        (
            lambda: entropy_of_entanglement(werner_state(0.5)),
            "entropy of entanglement is defined for pure states only",
        ),
        (lambda: entropy_of_entanglement(STACK), A_STACK),
        (lambda: entropy_of_entanglement(np.eye(3) / 3), NOT_4X4),
        (
            lambda: entropy_of_entanglement(np.triu(np.ones((4, 4))) / 4),
            "density matrix must be Hermitian",
        ),
        (
            lambda: entropy_of_entanglement(np.eye(4)),
            "density matrix must have unit trace, got (4+0j)",
        ),
    ],
)
def test_the_single_gates_keep_their_messages(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


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

