"""Every public entry point rejects NaN, infinite and out-of-range input.

A check written as ``x < lo or x > hi`` lets NaN through, because every
comparison with NaN is False; these properties feed such values to each entry
point, scalar and matrix alike, and require a ``ValueError``.  ``BOUNDARY``, at
the end, names every public callable of the package with the rows that feed it
bad input, or the reason it has none.
"""

import importlib
import inspect
import math
import re
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entport.axioms import LgmCcFamily, check_c1, check_c2, check_c3, sample_lgm_cc
from entport.cli import SweepGrid, cmd_sweep, compare, main
from entport.entanglement import (
    entropy_of_entanglement,
    entropy_vs_negativity_curve,
    negativities,
    negativity,
)
from entport.information import (
    information_decomposition,
    observable_information,
    total_information,
)
from entport.matkernel import (
    _as_numbers,
    as_operator,
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
    ID2,
    BellOutcome,
    HilbertSchmidtForm,
    SeedParams,
    WernerChannel,
    _check_number,
    bell_outcome,
    bell_projector,
    hs_compose,
    hs_compose_stack,
    hs_decompose,
    qubit_states,
    random_local_unitary,
    random_product_state,
    rotated_pure_state,
    rotation_from_unitary,
    seed_state,
    seed_states,
    su2_matrices,
    werner_state,
    werner_states,
)
from entport.teleport import (
    BobStrategy,
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
    "total_information": total_information,
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
    "as_operator": as_operator,
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


def test_cli_names_a_range_whose_width_overflows(tmp_path, capsys):
    # Both endpoints are finite, but stop - start is not: numpy's linspace
    # would warn and yield nan and inf.
    out = tmp_path / "s.csv"
    assert main(["sweep", "--e0", "0.5", "--phi=-1e308:1e308:3", "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'-1e308:1e308:3'" in err
    assert "Traceback" not in err


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


def replaced_parameter(name: str) -> str:
    """The parameter of the entry point ``SCALAR_ENTRY_POINTS[name]`` that ``x`` replaces."""
    function, _, argument = name.partition("(")
    return list(inspect.signature(globals()[function]).parameters)[argument == "second)"]


@pytest.mark.parametrize("name", SCALAR_ENTRY_POINTS)
@pytest.mark.parametrize(
    "huge", [10**400, -(10**400), Fraction(10**400)], ids=["int", "-int", "Fraction"]
)
def test_scalar_entry_points_reject_a_number_beyond_the_float_range(name, huge):
    # float() of such a number raises OverflowError; the gate reads it as an infinity.
    sign = "" if huge > 0 else "-"
    message = rf"^{replaced_parameter(name)} must lie in \[-?[01], 1\], got {sign}inf$"
    with pytest.raises(ValueError, match=message):
        SCALAR_ENTRY_POINTS[name](huge)


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


# Numbers that numpy holds in an object array, each with the float the scalar
# gate reads it as: a Fraction, an int beyond 64 bits, and ints beyond the
# float range, which count as the infinity of their sign.
OBJECT_NUMBERS = {
    "Fraction(1, 2)": (Fraction(1, 2), 0.5),
    "2**64": (2**64, 2.0**64),
    "10**400": (10**400, math.inf),
    "-10**400": (-(10**400), -math.inf),
}

# The item shape each array entry point reads, where it is not a single number.
ITEM_SHAPES = {
    "probs observable_information": (2,),
    "a HilbertSchmidtForm": (3,),
    "c HilbertSchmidtForm": (3, 3),
    "r qubit_states": (3,),
    "a hs_compose_stack": (3,),
}


def holding(name: str, x):
    """A nested list of the item shape of ``ARRAY_ENTRY_POINTS[name]``: ``x``, then zeros."""
    array = np.zeros(ITEM_SHAPES.get(name, (1,)), dtype=object)
    array.flat[0] = x
    return array.tolist()


def verdict(call):
    """What ``call()`` gives: each array of its result as bytes, or the error message."""

    def plain(value):
        if isinstance(value, (tuple, list)):
            return tuple(map(plain, value))
        if hasattr(value, "__dict__"):
            return type(value).__name__, plain(list(vars(value).values()))
        array = np.asarray(value)
        return array.dtype.str, array.shape, array.tobytes()

    try:
        return plain(call())
    except ValueError as error:
        return type(error).__name__, str(error)


@pytest.mark.parametrize("name", ARRAY_ENTRY_POINTS)
@pytest.mark.parametrize("number", OBJECT_NUMBERS)
def test_array_entry_points_read_a_number_as_the_scalar_gate_does(name, number):
    x, reading = OBJECT_NUMBERS[number]
    assert _check_number("x", x, -math.inf, math.inf) == reading
    entry = ARRAY_ENTRY_POINTS[name]
    for given, read in ((x, reading), (holding(name, x), holding(name, reading))):
        assert verdict(lambda: entry(given)) == verdict(lambda: entry(read))


@pytest.mark.parametrize("name", ARRAY_ENTRY_POINTS)
def test_array_entry_points_reject_a_decimal(name):
    # A Decimal is not numbers.Real, so the object array holding it stays rejected.
    message = f"^{name.split()[0]} must be real numbers, got dtype object$"
    for bad in (Decimal("0.5"), holding(name, Decimal("0.5"))):
        with pytest.raises(ValueError, match=message):
            ARRAY_ENTRY_POINTS[name](bad)


RAGGED = "must be a regular array, got a ragged nesting"


@pytest.mark.parametrize("name", ARRAY_ENTRY_POINTS)
def test_array_entry_points_name_a_ragged_nesting(name):
    # numpy's own message for it names no argument.
    parameter = name.split()[0]
    with pytest.raises(ValueError, match=f"^{parameter} {RAGGED}$"):
        ARRAY_ENTRY_POINTS[name]([[0.3, 0.3, 0.3], [0.3]])


@pytest.mark.parametrize("name", KERNEL_ENTRY_POINTS)
def test_matrix_entry_points_name_a_ragged_nesting(name):
    ragged = [[1, 0, 0, 0], [0]]
    # The negativities row stacks its argument with numpy, which refuses a
    # ragged one before the package sees it; so it gets a ragged stack itself.
    entry = KERNEL_ENTRY_POINTS[name]
    if name == "negativities":
        entry, ragged = negativities, [seed_state(0.5), ragged]
    with pytest.raises(ValueError, match=f"^matrix entries {RAGGED}$"):
        entry(ragged)


def test_a_measurement_family_names_a_ragged_nesting():
    with pytest.raises(ValueError, match=f"^operators {RAGGED}$"):
        LgmCcFamily([(ID2, np.stack([ID2, ID2]))])


# The public stack builders with a stack outside their domain, as
# ``(argument, build, bad)``: NaN or infinite entries, a Bloch vector longer
# than 1, a non-unit SU(2) vector, a wrong last axis and strings; and the
# Pauli coefficients of ``hs_compose_stack`` and ``HilbertSchmidtForm``, and
# the stacks of ``tensor`` and ``rotated_pure_state``, in shapes that do not
# fit together.
BAD_STACKS = {
    "qubit_states nan": ("r", qubit_states, [math.nan, 0.0, 0.0]),
    "qubit_states inf": ("r", qubit_states, [[0.0, 0.0, 0.5], [0.0, -math.inf, 0.0]]),
    "qubit_states outside the ball": ("r", qubit_states, [2.0, 0.0, 0.0]),
    "qubit_states pair": ("r", qubit_states, [0.6, 0.0]),
    "su2_matrices not unit": ("z", su2_matrices, [[2.0, 0.0]]),
    "su2_matrices quadruple": ("z", su2_matrices, np.ones((1, 4))),
    "su2_matrices strings": ("z", su2_matrices, [["1", "0"]]),
    "su2_matrices nan": ("z", su2_matrices, [[math.nan, 0.0]]),
    "su2_matrices inf": ("z", su2_matrices, [[1.0, 0.0], [0.0, complex(0.0, math.inf)]]),
    "hs_compose_stack nan": (
        "a",
        lambda x: hs_compose_stack(x, np.zeros(3), np.zeros((3, 3))),
        [math.nan, 0.0, 0.0],
    ),
    "hs_compose_stack pair": (
        "a",
        lambda x: hs_compose_stack(x, np.zeros(3), np.zeros((3, 3))),
        [0.1, 0.2],
    ),
    "hs_compose_stack flat c": (
        "c",
        lambda x: hs_compose_stack(np.zeros(3), np.zeros(3), x),
        np.zeros(9),
    ),
    "hs_compose_stack leading shapes": (
        "a, b and c",
        lambda x: hs_compose_stack(x, x, np.zeros((3, 3, 3))),
        np.zeros((2, 3)),
    ),
    "HilbertSchmidtForm flat c": (
        "c",
        lambda x: HilbertSchmidtForm(np.zeros(3), np.zeros(3), x),
        np.arange(9.0),
    ),
    "HilbertSchmidtForm leading shapes": (
        "a, b and c",
        lambda x: HilbertSchmidtForm(x, np.zeros(3), np.zeros((3, 3))),
        np.zeros((1, 3)),
    ),
    "tensor leading shapes": ("a and b", lambda x: tensor(x, np.stack([ID2, ID2])), [ID2] * 3),
    "rotated_pure_state leading shapes": (
        "c0, u1 and u2",
        lambda x: rotated_pure_state(x, np.stack([ID2, ID2]), ID2),
        [0.1, 0.2, 0.3],
    ),
}


@pytest.mark.parametrize("name", BAD_STACKS)
def test_stack_builders_reject_a_stack_outside_their_domain(name):
    argument, build, bad = BAD_STACKS[name]
    with pytest.raises(ValueError, match=rf"^(stack item \d+: )?{argument} must "):
        build(bad)


@pytest.mark.parametrize(
    "name,shapes",
    [
        ("tensor leading shapes", "(3,), (2,)"),
        ("rotated_pure_state leading shapes", "(3,), (2,), ()"),
    ],
)
def test_stacks_that_do_not_broadcast_are_named_with_their_shapes(name, shapes):
    argument, build, bad = BAD_STACKS[name]
    message = re.escape(f"{argument} must broadcast to one leading shape: {shapes}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(bad)


def test_a_hilbert_schmidt_form_holds_one_set_of_coefficients():
    # A form's attributes have the shapes (3,), (3,) and (3, 3), so a stack of one set is no form.
    message = re.escape("expected one matrix, got a stack of shape (1, 3, 3)")
    with pytest.raises(ValueError, match=f"^{message}$"):
        HilbertSchmidtForm(np.zeros((1, 3)), np.zeros((1, 3)), np.zeros((1, 3, 3)))


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


# Each entry point that takes a HilbertSchmidtForm, with it replaced by ``x``;
# the key names that argument.
FORM_ENTRY_POINTS = {
    "form hs_compose": hs_compose,
    "form0 final_state_closed_form": lambda x: final_state_closed_form(x, WernerChannel(0.5)),
}


@pytest.mark.parametrize("name", FORM_ENTRY_POINTS)
@pytest.mark.parametrize("bad", [np.eye(4) / 4, None], ids=["matrix", "None"])
def test_form_entry_points_reject_what_is_not_a_form(name, bad):
    argument = name.split()[0]
    with pytest.raises(ValueError, match=f"^{argument} must be a HilbertSchmidtForm$"):
        FORM_ENTRY_POINTS[name](bad)


# Each argument, other than a form, that takes a package object or a sequence of
# matrices, with it replaced by ``x``, and a plain matrix that is not one; the key
# names the argument and its callable.
TYPE_GATES = {
    "grid compare": (compare, np.eye(2)),
    "grid cmd_sweep": (lambda x: cmd_sweep(x, "sweep.csv"), np.eye(2)),
    "channel simulate": (lambda x: simulate(seed_state(0.5), x), werner_state(0.5)),
    "channel fidelity_general": (lambda x: fidelity_general(seed_state(0.5), x), werner_state(0.5)),
    "channel final_state_closed_form": (
        lambda x: final_state_closed_form(hs_decompose(seed_state(0.5)), x),
        werner_state(0.5),
    ),
    "strategy simulate": (lambda x: simulate(seed_state(0.5), WernerChannel(0.5), x), ID2),
    "strategy fidelity_general": (
        lambda x: fidelity_general(seed_state(0.5), WernerChannel(0.5), x),
        ID2,
    ),
    "corrections BobStrategy": (BobStrategy, ID2),
    "operators LgmCcFamily": (LgmCcFamily, np.eye(4)),
    "p_matrix BellOutcome": (lambda x: BellOutcome(0, x, ID2), np.eye(2)),
}


@pytest.mark.parametrize("name", TYPE_GATES)
@pytest.mark.parametrize("kind", ["object", "int", "matrix"])
def test_type_gates_reject_what_is_not_their_type(name, kind, tmp_path, monkeypatch):
    run, matrix = TYPE_GATES[name]
    argument = name.split()[0]
    monkeypatch.chdir(tmp_path)  # where cmd_sweep would write
    with pytest.raises(ValueError, match=f"^{argument} must "):
        run({"object": object(), "int": 5, "matrix": matrix}[kind])
    assert list(tmp_path.iterdir()) == []


def test_a_bell_outcome_holds_one_finite_sign_matrix():
    # A stack of the right sign matrices broadcasts through the rotation test.
    stack = np.stack([BELL_SIGN_MATRICES[0]] * 2)
    message = re.escape("p_matrix must be one matrix, got a stack of shape (2, 3, 3)")
    with pytest.raises(ValueError, match=f"^{message}$"):
        BellOutcome(0, stack, ID2)
    with pytest.raises(ValueError, match="^correction does not rotate by -P_alpha$"):
        BellOutcome(0, np.full((3, 3), math.nan), ID2)


@pytest.mark.parametrize(
    "operators",
    [[], [ID2], [(ID2,)], [(np.stack([ID2, ID2]),) * 2]],
    ids=["empty", "no pair", "one of a pair", "pair of stacks"],
)
def test_a_measurement_family_takes_pairs_of_qubit_operators(operators):
    with pytest.raises(ValueError, match="^operators must "):
        LgmCcFamily(operators)


# Each entry point that takes a qubit unitary, with one replaced by ``u``.
UNITARY_ENTRY_POINTS = {
    "rotation_from_unitary": rotation_from_unitary,
    "rotated_pure_state": lambda u: rotated_pure_state(0.5, ID2, u),
    "BobStrategy": lambda u: BobStrategy((*BOB_CORRECTIONS[:3], u)),
}


@pytest.mark.parametrize("name", UNITARY_ENTRY_POINTS)
@pytest.mark.parametrize(
    ("bad", "message"),
    [
        (2.0 * np.eye(2), "matrix is not unitary within tolerance"),
        (np.full((2, 2), math.nan), "matrix entries must be finite"),
        (np.eye(4), re.escape("dimension 4 not supported (allowed: (2,))")),
    ],
    ids=["not unitary", "nan", "4x4"],
)
def test_unitary_entry_points_reject_what_is_not_a_qubit_unitary(name, bad, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        UNITARY_ENTRY_POINTS[name](bad)


@pytest.mark.parametrize("name", ["rotation_from_unitary", "BobStrategy"])
def test_one_unitary_entry_points_reject_a_stack(name):
    message = re.escape("expected one matrix, got a stack of shape (2, 2, 2)")
    with pytest.raises(ValueError, match=f"^{message}$"):
        UNITARY_ENTRY_POINTS[name](np.stack([ID2, ID2]))


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


def test_only_the_gate_tests_a_dtype():
    # A dtype test or float conversion of its own would let a new array argument
    # skip the gate unseen.
    pattern = re.compile(r"dtype\.kind|np\.asarray\(.*dtype=|\.astype\(")
    gate = inspect.getsource(_as_numbers)
    assert pattern.search(gate)  # the scan sees what it looks for
    found = []
    for path in sorted((Path(__file__).parent.parent / "src" / "entport").glob("*.py")):
        text = path.read_text().replace(gate, "")
        found += [f"{path.name}: {match.group()}" for match in pattern.finditer(text)]
    assert found == []


# Every public function and class of the seven modules, with the rows above that
# feed it bad input (``(table, key)`` pairs and tests of this file), or the
# reason it has none.
RECORD = "a result or error record that the package fills; it validates nothing"
BOUNDARY = {
    "matkernel.StackItemError": RECORD,
    "matkernel.as_operator": ((KERNEL_ENTRY_POINTS, "as_operator"),),
    "matkernel.adjoint": "any numeric array has a conjugate transpose: there is no domain to check",
    "matkernel.tensor": (
        (KERNEL_ENTRY_POINTS, "tensor"),
        (BAD_STACKS, "tensor leading shapes"),
    ),
    "matkernel.partial_trace": ((KERNEL_ENTRY_POINTS, "partial_trace"), (COUNTS, "keep")),
    "matkernel.partial_transpose": ((KERNEL_ENTRY_POINTS, "partial_transpose"),),
    "matkernel.herm_eigvals": ((KERNEL_ENTRY_POINTS, "herm_eigvals"),),
    "matkernel.check_density_matrix": ((KERNEL_ENTRY_POINTS, "check_density_matrix"),),
    "matkernel.purity": ((KERNEL_ENTRY_POINTS, "purity"),),
    "states.HilbertSchmidtForm": (
        (ARRAY_ENTRY_POINTS, "a HilbertSchmidtForm"),
        (ARRAY_ENTRY_POINTS, "c HilbertSchmidtForm"),
        (BAD_STACKS, "HilbertSchmidtForm flat c"),
        (BAD_STACKS, "HilbertSchmidtForm leading shapes"),
        test_a_hilbert_schmidt_form_holds_one_set_of_coefficients,
    ),
    "states.SeedParams": ((SCALAR_ENTRY_POINTS, "SeedParams"),),
    "states.WernerChannel": ((SCALAR_ENTRY_POINTS, "WernerChannel"),),
    "states.BellOutcome": (
        (COUNTS, "alpha BellOutcome"),
        (TYPE_GATES, "p_matrix BellOutcome"),
        test_a_bell_outcome_holds_one_finite_sign_matrix,
    ),
    "states.bell_outcome": ((COUNTS, "alpha bell_outcome"),),
    "states.hs_compose_stack": (
        (ARRAY_ENTRY_POINTS, "a hs_compose_stack"),
        (BAD_STACKS, "hs_compose_stack nan"),
        (BAD_STACKS, "hs_compose_stack pair"),
        (BAD_STACKS, "hs_compose_stack flat c"),
        (BAD_STACKS, "hs_compose_stack leading shapes"),
    ),
    "states.hs_compose": ((FORM_ENTRY_POINTS, "form hs_compose"),),
    "states.hs_decompose": ((MATRIX_ENTRY_POINTS, "hs_decompose"),),
    "states.seed_states": ((ARRAY_ENTRY_POINTS, "c0 seed_states"),),
    "states.seed_state": ((SCALAR_ENTRY_POINTS, "seed_state"), test_seed_state_rejects_bad_c0),
    "states.rotated_pure_state": (
        (ARRAY_ENTRY_POINTS, "c0 rotated_pure_state"),
        (UNITARY_ENTRY_POINTS, "rotated_pure_state"),
        (BAD_STACKS, "rotated_pure_state leading shapes"),
    ),
    "states.su2_matrices": tuple((BAD_STACKS, k) for k in BAD_STACKS if k.startswith("su2_")),
    "states.random_local_unitary": ((SAMPLERS, "random_local_unitary"),),
    "states.werner_states": ((ARRAY_ENTRY_POINTS, "phi werner_states"),),
    "states.werner_state": (
        (SCALAR_ENTRY_POINTS, "werner_state"),
        test_werner_state_rejects_bad_phi,
    ),
    "states.bell_projector": ((COUNTS, "alpha bell_projector"),),
    "states.rotation_from_unitary": (
        (UNITARY_ENTRY_POINTS, "rotation_from_unitary"),
        test_one_unitary_entry_points_reject_a_stack,
    ),
    "states.random_product_state": ((SAMPLERS, "random_product_state"),),
    "states.qubit_states": (
        (ARRAY_ENTRY_POINTS, "r qubit_states"),
        *((BAD_STACKS, k) for k in BAD_STACKS if k.startswith("qubit_states")),
    ),
    "entanglement.EntanglementReport": RECORD,
    "entanglement.negativity": ((MATRIX_ENTRY_POINTS, "negativity"),),
    "entanglement.negativities": (
        (MATRIX_ENTRY_POINTS, "negativities"),
        test_negativities_names_the_non_finite_item,
    ),
    "entanglement.entropy_of_entanglement": ((MATRIX_ENTRY_POINTS, "entropy_of_entanglement"),),
    "entanglement.entropy_vs_negativity_curve": ((COUNTS, "points"),),
    "information.InformationReport": RECORD,
    "information.observable_information": (
        (ARRAY_ENTRY_POINTS, "probs observable_information"),
        test_observable_information_rejects_non_finite_probabilities,
        test_observable_information_rejects_a_float_k,
        test_observable_information_rejects_k_out_of_range,
    ),
    "information.total_information": ((MATRIX_ENTRY_POINTS, "total_information"),),
    "information.information_decomposition": (
        (MATRIX_ENTRY_POINTS, "information_decomposition"),
    ),
    "teleport.BobStrategy": (
        (UNITARY_ENTRY_POINTS, "BobStrategy"),
        (TYPE_GATES, "corrections BobStrategy"),
        test_one_unitary_entry_points_reject_a_stack,
    ),
    "teleport.optimal_strategy": "it takes no arguments",
    "teleport.TeleportationReport": RECORD,
    "teleport.GridReport": RECORD,
    "teleport.simulate": (
        (MATRIX_ENTRY_POINTS, "simulate"),
        (TYPE_GATES, "channel simulate"),
        (TYPE_GATES, "strategy simulate"),
        test_simulation_rejects_a_strategy_that_is_not_a_bob_strategy,
    ),
    "teleport.simulate_grid": (
        (ARRAY_ENTRY_POINTS, "e0 simulate_grid"),
        (ARRAY_ENTRY_POINTS, "phi simulate_grid"),
    ),
    "teleport.final_state_closed_form": (
        (FORM_ENTRY_POINTS, "form0 final_state_closed_form"),
        (TYPE_GATES, "channel final_state_closed_form"),
        test_final_state_closed_form_rejects_a_channel_that_is_not_a_werner_channel,
    ),
    "teleport.fidelity_general": (
        (TYPE_GATES, "channel fidelity_general"),
        (TYPE_GATES, "strategy fidelity_general"),
        test_simulation_rejects_a_strategy_that_is_not_a_bob_strategy,
    ),
    **{
        f"teleport.{f.__name__}": (
            (SCALAR_ENTRY_POINTS, f"{f.__name__}(first)"),
            (SCALAR_ENTRY_POINTS, f"{f.__name__}(second)"),
            test_closed_forms_reject_bad_arguments,
        )
        for f in CLOSED_FORMS
    },
    "axioms.LgmCcFamily": (
        (TYPE_GATES, "operators LgmCcFamily"),
        test_a_measurement_family_takes_pairs_of_qubit_operators,
    ),
    "axioms.AxiomReport": RECORD,
    "axioms.sample_lgm_cc": ((SAMPLERS, "sample_lgm_cc"), (COUNTS, "branches sample_lgm_cc")),
    "axioms.check_c1": ((AXIOM_CHECKS, "C1"), (COUNTS, "trials C1")),
    "axioms.check_c2": ((AXIOM_CHECKS, "C2"), (COUNTS, "trials C2")),
    "axioms.check_c3": ((AXIOM_CHECKS, "C3"), (COUNTS, "trials C3"), (COUNTS, "branches C3")),
    "cli.SweepGrid": (
        (ARRAY_ENTRY_POINTS, "e0 SweepGrid"),
        (ARRAY_ENTRY_POINTS, "phi SweepGrid"),
        test_sweep_grid_rejects_bad_e0,
        test_sweep_grid_rejects_bad_phi,
    ),
    "cli.parse_values": (
        test_cli_rejects_non_finite_values,
        test_cli_names_a_range_whose_width_overflows,
        test_cli_rejects_a_range_count_that_is_not_an_integer,
        test_cli_names_the_field_that_is_not_a_number,
    ),
    "cli.compare": ((TYPE_GATES, "grid compare"),),
    # tests/test_cli.py rejects a format other than csv or json.
    "cli.cmd_sweep": ((TYPE_GATES, "grid cmd_sweep"),),
    "cli.cmd_verify": "it hands its counts and seed to check_c3 before anything runs, "
    "whose rows are above",
    "cli.cmd_curve": "it hands its points to entropy_vs_negativity_curve, whose row is above, "
    "before it opens its output",
    "cli.main": (
        test_cli_rejects_non_finite_values,
        test_cli_rejects_a_negative_seed,
        test_cli_rejects_a_range_count_that_is_not_an_integer,
        test_cli_names_the_field_that_is_not_a_number,
    ),
}


def public_callables():
    """``module.name`` of every public function and class the seven modules define."""
    for name in ("matkernel", "states", "entanglement", "information", "teleport", "axioms", "cli"):
        module = importlib.import_module(f"entport.{name}")
        for attribute, value in vars(module).items():
            if not attribute.startswith("_") and callable(value):
                if getattr(value, "__module__", None) == module.__name__:
                    yield f"{name}.{attribute}"


def typed_arguments(names):
    """``argument callable`` of each parameter of ``names`` annotated with a package type.

    The annotations are strings: the modules use ``from __future__ import annotations``.
    """
    typed = re.compile(r"\b(SweepGrid|WernerChannel|BobStrategy|HilbertSchmidtForm)\b")
    for name in names:
        module, attribute = name.split(".")
        value = getattr(importlib.import_module(f"entport.{module}"), attribute)
        for parameter in inspect.signature(value).parameters.values():
            if typed.search(str(parameter.annotation)):
                yield f"{parameter.name} {attribute}"


def test_every_public_callable_has_bad_input_rows_or_a_reason():
    names = set(public_callables())
    # The scan sees what it should: a class, a kernel function and the CLI.
    assert {"states.HilbertSchmidtForm", "matkernel.adjoint", "cli.main"} <= names
    assert sorted(names - BOUNDARY.keys()) == []
    assert sorted(BOUNDARY.keys() - names) == []
    for name, rows in BOUNDARY.items():
        assert rows, name
        if isinstance(rows, str):
            continue
        for row in rows:
            if callable(row):
                assert row.__name__.startswith("test_"), (name, row)
            else:
                table, key = row
                assert key in table, (name, key)
    # A new argument of a package type cannot skip its type check unseen.
    typed = set(typed_arguments(names))
    assert {"grid compare", "strategy simulate", "form hs_compose"} <= typed  # the scan sees them
    assert sorted(typed - TYPE_GATES.keys() - FORM_ENTRY_POINTS.keys()) == []
