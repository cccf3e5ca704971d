"""The committed results/ must be what the current code writes, byte for byte.

This is the equivalence gate for changes that claim to leave every output
the same: ``scripts/reproduce_results.py``'s ``write_results``, the function
that writes ``results/``, writes the three artifacts again into a temporary
directory, and they are compared with the committed files.  Only the
"timestamp" line of verify.json may differ.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"


def without_timestamp(path: Path) -> list[bytes]:
    return [
        line
        for line in path.read_bytes().splitlines(keepends=True)
        if not line.lstrip().startswith(b'"timestamp":')
    ]


def test_results_reproduce_byte_for_byte(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "reproduce_results", ROOT / "scripts" / "reproduce_results.py"
    )
    reproduce = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reproduce)
    assert reproduce.write_results(tmp_path) == 0

    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "curve.csv",
        "sweep.csv",
        "verify.json",
    ]
    for name in ("sweep.csv", "curve.csv"):
        assert (tmp_path / name).read_bytes() == (RESULTS / name).read_bytes(), name
    assert without_timestamp(tmp_path / "verify.json") == without_timestamp(
        RESULTS / "verify.json"
    )
