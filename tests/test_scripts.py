"""The scripts under ``scripts/`` run from a checkout and print what they promise."""

import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_channel_tradeoff_table():
    # conftest.py puts src/ on PYTHONPATH, so the script imports this checkout.
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "channel_tradeoff_table.py")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    header = "   ew | e0=0.0  | e0=0.3  | e0=0.6  | e0=1.0 "
    for label in ("fidelity", "final entanglement", "correlation information"):
        at = lines.index(label)
        assert lines[at + 1] == header
        assert lines[at + 2] == "-" * len(header)
    fidelity_at_ew_zero = lines[lines.index("fidelity") + 3]
    assert fidelity_at_ew_zero == "  0.0 | 0.6667 | 0.6517 | 0.6067 | 0.5000"


def test_code_lines():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "code_lines.py")], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:-1]]  # the last is tests/
    src = SCRIPTS.parent / "src"
    modules = sorted(src.rglob("*.py"))
    assert [row[0] for row in rows] == [p.relative_to(src).as_posix() for p in modules] + ["src/"]
    for (_, total, code), path in zip(rows, modules):
        assert int(total) == len(path.read_text().splitlines()), path
        assert 0 < int(code) < int(total), path
    _, total, code = rows[-1]
    assert int(total) == sum(len(p.read_text().splitlines()) for p in modules)
    assert int(code) == sum(int(row[2]) for row in rows[:-1])


def test_code_lines_prints_a_tests_total():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPTS / "code_lines.py")
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "code_lines.py")], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    label, total, code = proc.stdout.splitlines()[-1].split()
    tests = sorted((SCRIPTS.parent / "tests").rglob("*.py"))
    assert label == "tests/"
    assert int(total) == sum(len(p.read_text().splitlines()) for p in tests)
    assert int(code) == sum(code_lines.count(p)[1] for p in tests)
    assert 0 < int(code) < int(total)


def test_code_lines_leaves_out_docstrings_comments_and_blank_lines(tmp_path):
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPTS / "code_lines.py")
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    source = tmp_path / "m.py"
    source.write_text(
        '"""Module\n\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "class A:\n"
        '    """One line."""\n'
        "\n"
        "    def f(self):  # code with a comment\n"
        '        """Two\n        lines."""\n'
        '        return """not a\n        docstring"""\n'
    )
    assert code_lines.count(source) == (13, 4)
