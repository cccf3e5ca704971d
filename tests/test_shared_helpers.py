"""The suite's shared helpers live once, in ``conftest.py``, and do what the tests rely on.

A helper that two test modules need is defined in ``conftest.py`` and
imported from there: no test module imports another, and none defines a
top-level name that ``conftest.py`` defines.  The helpers' own contracts are
pinned here: ``identical`` tells signed zeros and shapes apart,
``ginibre_states`` draws the bytes the per-module generators it replaced
drew, and ``eigvalsh_shapes`` records every call in order.
"""

import ast
import hashlib

import numpy as np

from entport.matkernel import herm_eigvals
from entport.states import werner_states

from conftest import ROOT, ginibre_states, identical, platform_note

TEST_MODULES = sorted((ROOT / "tests").glob("test_*.py"))

#: sha256 of the draws in ``test_ginibre_states_draws_the_pinned_bytes``,
#: written down from the generators that ``ginibre_states`` replaced: one
#: Ginibre state a call, and 64 a call.
GINIBRE_SHA256 = "12226552cf732d1e10fe62420176c9c0149039898cd25149010ec8c948d9b443"


def defined_names(path) -> set[str]:
    """The names that a module's top-level ``def``, ``class`` and assignment statements bind."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_no_test_module_imports_another():
    imports = [
        (path.name, node.lineno)
        for path in TEST_MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Import) and any(a.name.startswith("test_") for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("test_"))
    ]
    assert imports == []


def test_no_test_module_defines_a_conftest_name_again():
    shared = defined_names(ROOT / "tests" / "conftest.py")
    assert {"ginibre_states", "identical", "eigvalsh_shapes", "GRID_BLOCK"} <= shared
    again = {path.name: shared & defined_names(path) for path in TEST_MODULES}
    assert {name: names for name, names in again.items() if names} == {}


def test_identical_tells_signed_zeros_and_shapes_apart():
    values = np.array([0.0, -0.0, 1.5, -2.0])
    assert identical(values, values.astype(complex)) and identical(values.astype(complex), values)
    assert not identical(0.0, -0.0)
    assert not identical(complex(1.0, 0.0), complex(1.0, -0.0))
    assert not identical(np.zeros(3), np.zeros((1, 3)))


def test_ginibre_states_draws_the_pinned_bytes():
    gen4, gen2 = np.random.default_rng(20240801), np.random.default_rng(20240801)
    draws = [ginibre_states(gen4, 1, 4) for _ in range(3)]
    draws += [ginibre_states(gen2, 1, 2, dim=2) for _ in range(3)]
    for rank in range(1, 5):
        draws += [ginibre_states(np.random.default_rng(rank), n, rank) for n in (1, 64)]
    digest = hashlib.sha256(b"".join(rho.tobytes() for rho in draws)).hexdigest()
    assert digest == GINIBRE_SHA256, platform_note()


def test_eigvalsh_shapes_records_every_call_in_order(eigvalsh_shapes):
    assert identical(np.linalg.eigvalsh(np.eye(3)), [1.0, 1.0, 1.0])
    np.linalg.eigvalsh(np.zeros((2, 4, 4)))
    herm_eigvals(werner_states([0.1, 0.2, 0.3]))
    assert eigvalsh_shapes == [(3, 3), (2, 4, 4), (3, 4, 4)]
