"""README's references to the package resolve, and its module table is complete.

README says what each part does and points to the module whose docstrings
say how, so a renamed or deleted name must not leave a dangling reference.
"""

import importlib
import re

from conftest import ROOT

MODULES = ("axioms", "cli", "entanglement", "information", "matkernel", "states", "teleport")
REFERENCE = re.compile(rf"(?:entport\.)?({'|'.join(MODULES)})\.([A-Za-z_]\w*)")


def readme_spans():
    """The inline code spans of README, fenced code blocks left out."""
    text = re.sub(r"^```.*?^```", "", (ROOT / "README.md").read_text(), flags=re.M | re.S)
    return re.findall(r"`([^`\n]+)`", text)


def test_module_references_resolve():
    references = [m.groups() for span in readme_spans() if (m := REFERENCE.match(span))]
    # The scan sees the references it should: a cap, a function call and a table.
    assert {("cli", "MAX_GRID_POINTS"), ("cli", "compare"), ("cli", "VERIFY_CHECKS")} <= set(
        references
    )
    dangling = [
        f"{module}.{name}"
        for module, name in references
        if not hasattr(importlib.import_module(f"entport.{module}"), name)
    ]
    assert dangling == []


def test_module_table_lists_every_module():
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| module | contents |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(line.split("|")[1].strip().strip("`"))
    modules = sorted(
        f"entport.{path.stem}"
        for path in (ROOT / "src" / "entport").glob("*.py")
        if path.name != "__init__.py"
    )
    assert sorted(rows) == modules
    assert len(rows) == len(set(rows))
