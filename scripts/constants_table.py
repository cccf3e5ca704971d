#!/usr/bin/env python3
"""Print one Markdown table of the public numeric constants of ``entport``.

A row per public module-level UPPER_CASE int or float, in module order and
then source order: its module, its name, its live value and the first
sentence of the ``#:`` comment above it, which gives its reason.  README.md
holds this output between its ``constants-table`` markers, and
``tests/test_constants.py`` checks that the two agree.

    PYTHONPATH=src python scripts/constants_table.py
"""

import ast
import importlib
import inspect
import numbers
import pkgutil
import re

import entport


def _reason(comment: list[str]) -> str:
    """The first sentence of a ``#:`` comment block, as Markdown table text."""
    text = " ".join(line.removeprefix("#:").strip() for line in comment)
    sentence = re.split(r"(?<=\.)\s", text, maxsplit=1)[0]
    sentence = re.sub(r":\w+:`", "`", sentence).replace("``", "`")
    return sentence.replace("|", r"\|")


def constants():
    """``(module, name, value, reason)`` of each public numeric constant."""
    for info in pkgutil.iter_modules(entport.__path__):
        module = importlib.import_module(f"entport.{info.name}")
        source = inspect.getsource(module)
        lines = source.splitlines()
        for node in ast.parse(source).body:
            if not (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)):
                continue
            name = node.targets[0].id
            value = getattr(module, name)
            if name.startswith("_") or not name.isupper() or isinstance(value, bool):
                continue
            if isinstance(value, numbers.Real):
                above = node.lineno - 1
                while above > 0 and lines[above - 1].startswith("#:"):
                    above -= 1
                yield info.name, name, value, _reason(lines[above : node.lineno - 1])


def main() -> None:
    print("| module | name | value | reason |")
    print("| --- | --- | --- | --- |")
    for module, name, value, reason in constants():
        shown = repr(int(value) if isinstance(value, numbers.Integral) else float(value))
        print(f"| `{module}` | `{name}` | `{shown}` | {reason} |")


if __name__ == "__main__":
    main()
