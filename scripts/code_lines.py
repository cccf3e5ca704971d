#!/usr/bin/env python3
"""Print the total and the code lines of each ``src/entport`` module, of ``src/`` and of ``tests/``.

Code lines are the lines left after docstrings, comments and blank lines are
taken out.  Docstrings are found with ``ast`` (the first statement of a
module, class or function, when it is a string literal); a comment line is
one whose first non-blank character is ``#``.

    python scripts/code_lines.py
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """``(total, code)`` lines of one Python file."""
    text = path.read_text()
    lines = text.splitlines()
    skipped = _docstring_lines(ast.parse(text))
    code = sum(
        1
        for number, line in enumerate(lines, start=1)
        if number not in skipped and line.strip() and not line.lstrip().startswith("#")
    )
    return len(lines), code


def main() -> int:
    total = code = 0
    print(f"{'module':<28} {'total':>6} {'code':>6}")
    for path in sorted(SRC.rglob("*.py")):
        t, c = count(path)
        total, code = total + t, code + c
        print(f"{path.relative_to(SRC).as_posix():<28} {t:>6} {c:>6}")
    print(f"{'src/':<28} {total:>6} {code:>6}")
    tests = [count(path) for path in sorted(TESTS.rglob("*.py"))]
    print(f"{'tests/':<28} {sum(t for t, _ in tests):>6} {sum(c for _, c in tests):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
