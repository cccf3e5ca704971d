"""Every public entry point rejects NaN, infinite and out-of-range input.

A check written as ``x < lo or x > hi`` lets NaN through, because every
comparison with NaN is False; these properties feed such values to each entry
point, scalar and matrix alike, and require a ``ValueError``.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entport.axioms import check_c1, check_c2, check_c3, sample_lgm_cc
from entport.cli import SweepGrid, main
from entport.entanglement import (
    entropy_of_entanglement,
    entropy_vs_negativity_curve,
    negativities,
    negativity,
)
from entport.information import information_decomposition, observable_information
from entport.matkernel import (
    check_density_matrix,
    herm_eigvals,
    partial_trace,
    partial_transpose,
    purity,
    tensor,
)
from entport.states import (
    BELL_SIGN_MATRICES,
    BOB_CORRECTIONS,
    BellOutcome,
    HilbertSchmidtForm,
    SeedParams,
    WernerChannel,
    bell_outcome,
    bell_projector,
    hs_compose_stack,
    hs_decompose,
    qubit_states,
    random_local_unitary,
    random_product_state,
    rotated_pure_state,
    seed_state,
    seed_states,
    werner_state,
    werner_states,
)
from entport.teleport import (
    correlation_info_from_entanglement,
    fidelity_closed_form,
    final_entanglement_closed_form,
    final_information_closed_form,
    final_state_closed_form,
    fidelity_general,
    simulate,
    simulate_grid,
)

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def outside(lo: float, hi: float) -> st.SearchStrategy:
    """NaN, +-inf, or a finite value outside [lo, hi]."""
    return st.one_of(
        NON_FINITE,
        st.floats(max_value=lo, exclude_max=True, allow_infinity=False),
        st.floats(min_value=hi, exclude_min=True, allow_infinity=False),
    )


def inside(lo: float, hi: float) -> st.SearchStrategy:
    return st.floats(min_value=lo, max_value=hi)


CLOSED_FORMS = [
    fidelity_closed_form,
    final_entanglement_closed_form,
    final_information_closed_form,
    correlation_info_from_entanglement,
]


@pytest.mark.parametrize("closed_form", CLOSED_FORMS, ids=lambda f: f.__name__)
@given(data=st.data())
def test_closed_forms_reject_bad_arguments(closed_form, data):
    bad, good = data.draw(outside(0.0, 1.0)), data.draw(inside(0.0, 1.0))
    bad_first = data.draw(st.booleans())
    args = (bad, good) if bad_first else (good, bad)
    with pytest.raises(ValueError):
        closed_form(*args)


@given(c0=outside(-1.0, 1.0))
def test_seed_state_rejects_bad_c0(c0):
    with pytest.raises(ValueError):
        seed_state(c0)


@given(phi=outside(-1.0, 1.0))
def test_werner_state_rejects_bad_phi(phi):
    with pytest.raises(ValueError):
        werner_state(phi)


@given(
    good=st.lists(inside(0.0, 1.0), min_size=1, max_size=5),
    bad=outside(0.0, 1.0),
    at=st.integers(min_value=0, max_value=5),
    phi=st.lists(inside(-1.0, 1.0), min_size=1, max_size=5),
)
def test_sweep_grid_rejects_bad_e0(good, bad, at, phi):
    e0 = good[:at] + [bad] + good[at:]
    with pytest.raises(ValueError):
        SweepGrid(e0, phi)


@given(
    good=st.lists(inside(-1.0, 1.0), min_size=1, max_size=5),
    bad=outside(-1.0, 1.0),
    at=st.integers(min_value=0, max_value=5),
)
def test_sweep_grid_rejects_bad_phi(good, bad, at):
    phi = good[:at] + [bad] + good[at:]
    with pytest.raises(ValueError):
        SweepGrid([0.5], phi)


@given(k=st.integers(min_value=1, max_value=3), data=st.data())
def test_observable_information_rejects_non_finite_probabilities(k, data):
    n = 2**k
    probs = data.draw(st.lists(inside(0.0, 1.0), min_size=n, max_size=n))
    probs[data.draw(st.integers(min_value=0, max_value=n - 1))] = data.draw(NON_FINITE)
    with pytest.raises(ValueError):
        observable_information(probs, k)


@given(k=st.one_of(NON_FINITE, st.floats(allow_nan=False, allow_infinity=False)))
def test_observable_information_rejects_a_float_k(k):
    with pytest.raises(ValueError, match="k must be a positive integer"):
        observable_information([0.5, 0.5], k)


# The upper bound keeps 2**k small (125 kB), should a change compute it again.
@given(k=st.integers(max_value=0) | st.integers(min_value=64, max_value=10**6))
def test_observable_information_rejects_k_out_of_range(k):
    with pytest.raises(ValueError):
        observable_information([0.5, 0.5], k)


def test_observable_information_nan_regressions():
    # Every comparison with NaN is False, so these passed both range checks.
    with pytest.raises(ValueError, match="finite"):
        observable_information([math.nan, math.nan], 1)
    with pytest.raises(ValueError, match="finite"):
        observable_information(np.array([0.5, math.nan, 0.25, 0.25]), 2)
    with pytest.raises(ValueError, match="k must be a positive integer, got inf"):
        observable_information([0.5, 0.5], math.inf)
    with pytest.raises(ValueError, match="k must be a positive integer"):
        observable_information([0.5, 0.5], True)
    assert observable_information([1.0, 0.0], np.int64(1)) == 1.0


def test_scalar_range_messages_name_the_value():
    with pytest.raises(ValueError) as excinfo:
        fidelity_closed_form(math.nan, 0.5)
    assert str(excinfo.value) == "e0 must lie in [0, 1], got nan"
    with pytest.raises(ValueError) as excinfo:
        correlation_info_from_entanglement(0.5, 1.5)
    assert str(excinfo.value) == "ew must lie in [0, 1], got 1.5"
    with pytest.raises(ValueError) as excinfo:
        WernerChannel(-math.inf)
    assert str(excinfo.value) == "phi must lie in [-1, 1], got -inf"
    with pytest.raises(ValueError) as excinfo:
        SeedParams(1.5)
    assert str(excinfo.value) == "c0 must lie in [-1, 1], got 1.5"


def test_grid_range_messages_name_the_item():
    with pytest.raises(ValueError) as excinfo:
        SweepGrid([0.0, 0.1, 0.2, 1.5], [0.0])
    assert str(excinfo.value) == "stack item 3: e0 must lie in [0, 1], got 1.5"
    with pytest.raises(ValueError) as excinfo:
        SweepGrid([0.5], [0.0, math.nan])
    assert str(excinfo.value) == "stack item 1: phi must lie in [-1, 1], got nan"


# Each entry point takes one 4x4 state; ``negativities`` gets it as the middle
# item of a stack of three valid states.
MATRIX_ENTRY_POINTS = {
    "negativity": negativity,
    "negativities": lambda rho: negativities(np.stack([seed_state(0.5), rho, werner_state(0.2)])),
    "simulate": lambda rho: simulate(rho, WernerChannel(0.5)),
    "hs_decompose": hs_decompose,
    "information_decomposition": information_decomposition,
    "entropy_of_entanglement": entropy_of_entanglement,
}


@pytest.mark.parametrize("name", MATRIX_ENTRY_POINTS)
@given(
    c0=inside(0.0, 1.0),
    row=st.integers(min_value=0, max_value=3),
    col=st.integers(min_value=0, max_value=3),
    bad=NON_FINITE,
    imaginary=st.booleans(),
)
def test_matrix_entry_points_reject_non_finite_entries(name, c0, row, col, bad, imaginary):
    rho = seed_state(c0)
    rho[row, col] = complex(0.0, bad) if imaginary else bad
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        MATRIX_ENTRY_POINTS[name](rho)


# The matrix entry points above and the kernel's, each given one 4x4 state.
KERNEL_ENTRY_POINTS = {
    **MATRIX_ENTRY_POINTS,
    "check_density_matrix": check_density_matrix,
    "purity": purity,
    "partial_trace": lambda rho: partial_trace(rho, 0),
    "partial_transpose": partial_transpose,
    "herm_eigvals": herm_eigvals,
    "tensor": lambda rho: tensor(rho, rho),
}


@pytest.mark.parametrize("name", KERNEL_ENTRY_POINTS)
@pytest.mark.parametrize(
    "bad",
    [
        seed_state(0.5).real.astype(str),
        seed_state(0.5).real.astype(str).tolist(),
        seed_state(0.5).astype(object),
    ],
    ids=["str array", "str list", "object array"],
)
def test_matrix_entry_points_reject_what_is_not_a_number(name, bad):
    # Rejected before numpy would parse a string or convert an object.
    with pytest.raises(ValueError, match="^matrix entries must be numbers, got dtype "):
        KERNEL_ENTRY_POINTS[name](bad)


def test_negativities_names_the_non_finite_item():
    stack = np.stack([seed_state(0.5), werner_state(0.2), seed_state(0.1)])
    stack[2, 0, 3] = math.inf
    with pytest.raises(ValueError, match="^stack item 2: matrix entries must be finite$"):
        negativities(stack)


@pytest.mark.parametrize(
    "flags",
    [["--e0", "nan"], ["--e0", "0,inf"], ["--phi", "0:inf:3"], ["--phi", "nan:1:3"]],
    ids=lambda flags: " ".join(flags),
)
def test_cli_rejects_non_finite_values(flags, tmp_path, capsys):
    out = tmp_path / "s.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before numpy computes with them
        assert main(["sweep", *flags, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


# Each scalar entry point with one parameter replaced by ``x``; the closed forms
# take it in either argument.  The other is ew = 0.5 or e = 0.2, so ``ew`` stays
# positive and ``e`` stays below it, as a final entanglement must, at x = 0.3.
SCALAR_ENTRY_POINTS = {
    **{f"{f.__name__}(first)": (lambda x, f=f: f(x, 0.5)) for f in CLOSED_FORMS},
    **{f"{f.__name__}(second)": (lambda x, f=f: f(0.2, x)) for f in CLOSED_FORMS},
    "seed_state": seed_state,
    "werner_state": werner_state,
    "SeedParams": SeedParams,
    "WernerChannel": WernerChannel,
}


@pytest.mark.parametrize("name", SCALAR_ENTRY_POINTS)
def test_scalar_entry_points_reject_an_array(name):
    with pytest.raises(ValueError, match="must be a single real number"):
        SCALAR_ENTRY_POINTS[name](np.array([0.2, 0.3]))


@pytest.mark.parametrize("name", SCALAR_ENTRY_POINTS)
@pytest.mark.parametrize("bad", ["0.3", 0.3 + 0j, [0.3], None], ids=repr)
def test_scalar_entry_points_reject_what_is_not_a_number(name, bad):
    with pytest.raises(ValueError, match="must be a single real number"):
        SCALAR_ENTRY_POINTS[name](bad)


# Each entry point that takes an array of parameter values, with one parameter
# replaced by ``x`` and the others fixed; the key names that parameter.
ARRAY_ENTRY_POINTS = {
    "e0 simulate_grid": lambda x: simulate_grid(x, [0.5]),
    "phi simulate_grid": lambda x: simulate_grid([0.5], x),
    "e0 SweepGrid": lambda x: SweepGrid(x, [0.5]),
    "phi SweepGrid": lambda x: SweepGrid([0.5], x),
    "c0 seed_states": seed_states,
    "phi werner_states": werner_states,
    "c0 rotated_pure_state": lambda x: rotated_pure_state(x, BOB_CORRECTIONS[1], BOB_CORRECTIONS[2]),
    "probs observable_information": lambda x: observable_information(x, 1),
    "a HilbertSchmidtForm": lambda x: HilbertSchmidtForm(x, np.zeros(3), np.zeros((3, 3))),
    "c HilbertSchmidtForm": lambda x: HilbertSchmidtForm(np.zeros(3), np.zeros(3), x),
    "r qubit_states": qubit_states,
    "a hs_compose_stack": lambda x: hs_compose_stack(x, np.zeros(3), np.zeros((3, 3))),
}


@pytest.mark.parametrize("name", ARRAY_ENTRY_POINTS)
@pytest.mark.parametrize("bad", [[0.3 + 1j], 0.3 + 0.1j, ["0.3"], [None]], ids=repr)
def test_array_entry_points_reject_what_is_not_a_real_number(name, bad):
    # Rejected before numpy would drop an imaginary part or parse a string.
    parameter = name.split()[0]
    with pytest.raises(ValueError, match=f"^{parameter} must be real numbers, got dtype "):
        ARRAY_ENTRY_POINTS[name](bad)


@pytest.mark.parametrize("name", SCALAR_ENTRY_POINTS)
def test_scalar_entry_points_accept_numpy_numbers(name):
    def plain(result):
        # States are arrays; a closed form's report or number compares as itself.
        return result.tolist() if isinstance(result, np.ndarray) else result

    expected = plain(SCALAR_ENTRY_POINTS[name](0.3))
    for x in (np.float64(0.3), np.array(0.3)):
        assert plain(SCALAR_ENTRY_POINTS[name](x)) == expected


def test_parameters_are_stored_as_floats():
    assert type(SeedParams(np.array(0.5)).c0) is float
    assert type(WernerChannel(np.float64(0.5)).phi) is float
    assert WernerChannel(np.array(0.5)) == WernerChannel(0.5)
    assert type(correlation_info_from_entanglement(np.float64(0.2), np.array(0.5))) is float


@pytest.mark.parametrize("entry", [simulate, fidelity_general], ids=lambda f: f.__name__)
@pytest.mark.parametrize("strategy", ["x", BOB_CORRECTIONS, 0], ids=["str", "array", "int"])
def test_simulation_rejects_a_strategy_that_is_not_a_bob_strategy(entry, strategy):
    with pytest.raises(ValueError, match="^strategy must be a BobStrategy$"):
        entry(seed_state(0.5), WernerChannel(0.5), strategy)
    with pytest.raises(ValueError, match="^channel must be a WernerChannel$"):
        entry(seed_state(0.5), 0.5)


def test_final_state_closed_form_rejects_a_channel_that_is_not_a_werner_channel():
    with pytest.raises(ValueError, match="^channel must be a WernerChannel$"):
        final_state_closed_form(hs_decompose(seed_state(0.5)), 0.5)


# The axiom checks with every argument but the seed fixed.
AXIOM_CHECKS = {
    "C1": lambda seed: check_c1(3, seed),
    "C2": lambda seed: check_c2(3, seed),
    "C3": lambda seed: check_c3(3, 2, seed),
}


@pytest.mark.parametrize("check", AXIOM_CHECKS)
@pytest.mark.parametrize("seed", [-3, True, 1.5, np.float64(7.0), "7", None], ids=repr)
def test_axiom_checks_reject_a_bad_seed_before_any_trial(check, seed, monkeypatch):
    import entport.axioms as axioms

    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(axioms, "_generator", no_trial)
    message = f"^seed must be a non-negative integer, got {re.escape(str(seed))}$"
    with pytest.raises(ValueError, match=message):
        AXIOM_CHECKS[check](seed)


@pytest.mark.parametrize("check", AXIOM_CHECKS)
def test_axiom_checks_accept_numpy_and_multi_word_seeds(check):
    assert AXIOM_CHECKS[check](np.int64(7)) == AXIOM_CHECKS[check](7)
    assert AXIOM_CHECKS[check](2**70).passed


def test_cli_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "v.json"
    assert main(["verify", "--trials", "3", "--seed", "-3", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -3\n"


# Each integer count or index a public entry point takes, as ``(run, lo, hi)``:
# ``run(n)`` passes ``n`` for that argument and fixes the others.
COUNTS = {
    "trials C1": (lambda n: check_c1(n, 1), 1, 1_000_000),
    "trials C2": (lambda n: check_c2(n, 1), 1, 1_000_000),
    "trials C3": (lambda n: check_c3(n, 1, 1), 1, 1_000_000),
    "branches C3": (lambda n: check_c3(2, n, 1), 1, 1024),
    "branches sample_lgm_cc": (lambda n: sample_lgm_cc(1, n), 1, 1024),
    "points": (entropy_vs_negativity_curve, 2, 100_000),
    "alpha bell_projector": (bell_projector, 0, 3),
    "alpha bell_outcome": (bell_outcome, 0, 3),
    "alpha BellOutcome": (
        lambda n: BellOutcome(n, BELL_SIGN_MATRICES[2], BOB_CORRECTIONS[2]), 0, 3
    ),
    "keep": (lambda n: partial_trace(seed_state(0.5), n), 0, 1),
}


@pytest.mark.parametrize("name", COUNTS)
@pytest.mark.parametrize("bad", [True, 2.5, np.float64(3.0), "3"], ids=repr)
def test_counts_reject_what_is_not_an_integer(name, bad):
    run, _, _ = COUNTS[name]
    argument = name.split()[0]
    with pytest.raises(ValueError, match=f"^{argument} must be an integer, got "):
        run(bad)


@pytest.mark.parametrize("name", COUNTS)
def test_counts_reject_a_value_out_of_range(name):
    run, lo, hi = COUNTS[name]
    argument = name.split()[0]
    for n in (lo - 1, hi + 1):
        message = re.escape(f"{argument} must lie in [{lo}, {hi}], got {n}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            run(n)


def comparable(result):
    """A result as plain data that ``==`` compares whole."""
    if isinstance(result, BellOutcome):
        matrices = result.p_matrix.tolist(), result.correction.tolist()
        return type(result.alpha), result.alpha, matrices
    if isinstance(result, np.ndarray):
        return result.tolist()
    if hasattr(result, "operators"):
        return np.array(result.operators).tolist()
    return result


@pytest.mark.parametrize("name", COUNTS)
def test_counts_accept_numpy_integers(name):
    run, lo, _ = COUNTS[name]
    n = max(lo, 1)
    assert comparable(run(np.int64(n))) == comparable(run(n))


# The public samplers, each with every argument but its generator fixed.
SAMPLERS = {
    "random_local_unitary": random_local_unitary,
    "random_product_state": random_product_state,
    "sample_lgm_cc": lambda rng: np.array(sample_lgm_cc(rng, 2).operators),
}


@pytest.mark.parametrize("sampler", SAMPLERS)
@pytest.mark.parametrize("seed", [-3, True, 1.5, "7", None], ids=repr)
def test_samplers_reject_a_bad_seed(sampler, seed):
    message = f"^seed must be a non-negative integer, got {re.escape(str(seed))}$"
    with pytest.raises(ValueError, match=message):
        SAMPLERS[sampler](seed)


@pytest.mark.parametrize("sampler", SAMPLERS)
def test_samplers_take_a_numpy_seed_or_a_generator(sampler):
    draw = SAMPLERS[sampler]
    np.testing.assert_array_equal(draw(np.int64(7)), draw(7))
    gen = np.random.default_rng(7)
    np.testing.assert_array_equal(draw(gen), draw(7))  # the generator is used ...
    assert not np.array_equal(draw(gen), draw(7))  # ... and advanced


@pytest.mark.parametrize("count", ["2.5", "abc", "1e3"])
def test_cli_rejects_a_range_count_that_is_not_an_integer(count, tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--e0", f"0:1:{count}", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"error: range count must be an integer, got {count!r}\n"


@pytest.mark.parametrize(
    ("flag", "value", "message"),
    [
        ("--e0", "a:1:3", "range start must be a number, got 'a'"),
        ("--e0", "0:b:3", "range stop must be a number, got 'b'"),
        ("--phi", "0,abc", "list value must be a number, got 'abc'"),
    ],
    ids=["start", "stop", "list"],
)
def test_cli_names_the_field_that_is_not_a_number(flag, value, message, tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["sweep", flag, value, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {message}\n"
