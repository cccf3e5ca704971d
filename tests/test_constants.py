"""Every public numeric constant of the package carries a ``#:`` comment that gives its reason,
and README's constants table is the one ``scripts/constants_table.py`` prints."""

import ast
import importlib
import inspect
import numbers
import pkgutil
import subprocess
import sys
from pathlib import Path

import entport

ROOT = Path(__file__).resolve().parent.parent


def public_numeric_constants():
    """``(module, name, line above)`` of each public module-level UPPER_CASE int or float."""
    for info in pkgutil.iter_modules(entport.__path__):
        module = importlib.import_module(f"entport.{info.name}")
        source = inspect.getsource(module)
        lines = source.splitlines()
        for node in ast.parse(source).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if not isinstance(target, ast.Name) or target.id.startswith("_"):
                    continue
                value = getattr(module, target.id)
                if (
                    target.id.isupper()
                    and isinstance(value, numbers.Real)
                    and not isinstance(value, bool)
                ):
                    yield info.name, target.id, lines[node.lineno - 2]


def test_every_public_numeric_constant_has_a_reason():
    constants = list(public_numeric_constants())
    # The scan sees the constants it should: a tolerance, a cap and a computed one.
    names = {(module, name) for module, name, _ in constants}
    assert {("axioms", "AXIOM_TOL"), ("cli", "MAX_GRID_POINTS")} <= names
    assert ("entanglement", "NEGATIVE_EIG_THRESHOLD") in names
    missing = [f"{module}.{name}" for module, name, above in constants if not above.startswith("#:")]
    assert missing == []


def test_readme_constants_table_is_the_scripts_output():
    # conftest.py puts src/ on PYTHONPATH, so the script reads this checkout.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "constants_table.py")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    readme = (ROOT / "README.md").read_text()
    start, end = "<!-- constants-table:start -->\n", "<!-- constants-table:end -->"
    assert readme[readme.index(start) + len(start) : readme.index(end)] == proc.stdout
    # One row per constant the scan above finds, in the same order.
    rows = [line.split(" | ")[:2] for line in proc.stdout.splitlines()[2:]]
    names = [(module.strip("| `"), name.strip("`")) for module, name in rows]
    assert names == [(module, name) for module, name, _ in public_numeric_constants()]
