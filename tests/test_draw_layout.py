"""One layout for the C1-C3 trial draws, decided in one place.

A trial's ``draw(gen)`` returns a flat tuple of fields of one shape for every
trial, C1's mixture padded to 4 terms, and ``axioms._run_trials`` alone
stacks them: each field reaches ``violations`` as one array whose first axis
runs over the block's trials.
"""

import ast
import inspect
import tracemalloc

import numpy as np
import pytest

import entport.axioms as axioms
from entport.axioms import _draw_c1, _generator, check_c1, check_c2, check_c3
from entport.states import _draw_ball

#: Each check's run and the shape and dtype kind of each field of one trial.
FIELDS = {
    "C1": (
        lambda: check_c1(100, 7),
        [((10, 3), "f"), ((10,), "f"), ((4,), "f"), ((), "f"), ((8,), "f")],
    ),
    "C2": (
        lambda: check_c2(300, 7),
        [((), "f"), ((8,), "f"), ((), "b"), ((), "f"), ((), "f"), ((8,), "f")],
    ),
    "C3": (
        lambda: check_c3(120, 2, 7),
        [((), "f"), ((8,), "f"), ((), "b"), ((), "f"), ((), "f"), ((24,), "f"), ((), "b")],
    ),
}


@pytest.mark.parametrize("check", sorted(FIELDS))
def test_every_field_reaches_violations_as_one_trial_first_array(check, monkeypatch):
    run, expected = FIELDS[check]
    real, blocks = axioms._run_trials, []

    def recording(tag, trials, seed, matrices, draw, violations):
        def recorded(*fields):
            blocks.append(fields)
            return violations(*fields)

        return real(tag, trials, seed, matrices, draw, recorded)

    monkeypatch.setattr(axioms, "_run_trials", recording)
    report = run()
    assert len(blocks) > 1
    assert sum(len(fields[0]) for fields in blocks) == report.trials
    for fields in blocks:
        n = len(fields[0])
        assert [type(f) for f in fields] == [np.ndarray] * len(expected)
        assert [(f.shape, f.dtype.kind) for f in fields] == [((n, *s), k) for s, k in expected]


def ragged_c1(gen: np.random.Generator) -> tuple:
    """A C1 trial's draws in the order its stream gives them, unpadded."""
    balls = [_draw_ball(gen), _draw_ball(gen)]
    w = gen.random(int(gen.integers(2, 5)))
    balls += [_draw_ball(gen) for _ in range(2 * len(w))]
    return balls, w, gen.random(), gen.standard_normal(8)


def test_a_c1_trials_unused_balls_and_weights_are_zero():
    terms_seen = set()
    for t in range(1_000):
        r, radius, w, c0, z = _draw_c1(_generator(7, 1, t))
        balls, weights, c0_ref, z_ref = ragged_c1(_generator(7, 1, t))
        used, terms = len(balls), len(weights)
        terms_seen.add(terms)
        assert used == 2 + 2 * terms
        assert np.array_equal(r[:used], [b[0] for b in balls])
        assert radius[:used].tolist() == [b[1] for b in balls]
        assert np.array_equal(w[:terms], weights)
        assert not r[used:].any() and not radius[used:].any() and not w[terms:].any()
        assert (radius[:used] > 0).all() and (w[:terms] > 0).all()
        assert c0 == c0_ref and np.array_equal(z, z_ref)
    assert terms_seen == {2, 3, 4}


def test_c1_draws_hold_at_most_1_3_kb_per_trial():
    # Ragged draws, each ball its own 3-float array, held 2.1-2.3 KB per trial.
    _draw_c1(_generator(7, 1, 0))  # first-call set-up inside numpy is not part of the count
    tracemalloc.start()
    try:
        draws = [_draw_c1(_generator(7, 1, t)) for t in range(1_000)]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held / len(draws) <= 1_300, held / len(draws)


def is_array_call(node: ast.AST) -> bool:
    """Whether ``node`` is ``np.array`` or ``np.asarray``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr in ("array", "asarray")
        and isinstance(node.value, ast.Name)
        and node.value.id == "np"
    )


COMPREHENSIONS = (ast.GeneratorExp, ast.ListComp, ast.SetComp)


def column_stackings(tree: ast.AST) -> list[int]:
    """Lines where draws are turned into per-column arrays: ``zip(*...)``, ``map(np.array, ...)``,
    and ``np.array`` or ``np.asarray`` over a comprehension or inside one."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, COMPREHENSIONS):
            found.update(array_calls(node.elt))
        if not isinstance(node, ast.Call):
            continue
        name, args = getattr(node.func, "id", None), node.args
        if name == "zip" and any(isinstance(a, ast.Starred) for a in args):
            found.add(node.lineno)
        if name == "map" and args and is_array_call(args[0]):
            found.add(node.lineno)
        if is_array_call(node.func) and args and isinstance(args[0], COMPREHENSIONS):
            found.add(node.lineno)
    return sorted(found)


def array_calls(tree: ast.AST) -> list[int]:
    """Lines of every ``np.array`` or ``np.asarray`` call in ``tree``."""
    calls = (n for n in ast.walk(tree) if isinstance(n, ast.Call))
    return [call.lineno for call in calls if is_array_call(call.func)]


def test_the_scan_sees_the_ragged_idioms():
    ragged = """
def f(draws, balls, c0):
    a, b = (np.array(column) for column in zip(*draws))
    r = np.array([ball[0] for ball in balls])
    return map(np.array, pairs), a, b, r, np.asarray(c0)
"""
    assert column_stackings(ast.parse(ragged)) == [3, 4, 5]


def test_only_the_trial_driver_stacks_draws():
    tree = ast.parse(inspect.getsource(axioms))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    found = {name: column_stackings(node) for name, node in functions.items()}
    assert found.pop("_run_trials")  # the scan sees the one place that stacks
    assert {name: lines for name, lines in found.items() if lines} == {}
    # The functions _run_trials hands the stacked fields to convert nothing themselves.
    nested = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    handed = {
        node.args[5].id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_run_trials"
    }
    assert handed == {"_c1_violations", "_c2_violations", "violations"}
    assert {name: array_calls(nested[name]) for name in handed} == {name: [] for name in handed}
