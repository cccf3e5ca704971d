"""The committed results/ must be what the current code writes, byte for byte.

This is the equivalence gate for changes that claim to leave every output
the same: the three artifacts of scripts/reproduce_results.py are written
again and compared with the committed files.  Only the "timestamp" line of
verify.json may differ.
"""

from pathlib import Path

from entport.cli import (
    DEFAULT_E0_GRID,
    DEFAULT_PHI_GRID,
    SweepGrid,
    cmd_curve,
    cmd_sweep,
    cmd_verify,
)

RESULTS = Path(__file__).resolve().parent.parent / "results"


def without_timestamp(path: Path) -> list[bytes]:
    return [
        line
        for line in path.read_bytes().splitlines(keepends=True)
        if not line.lstrip().startswith(b'"timestamp":')
    ]


def test_results_reproduce_byte_for_byte(tmp_path):
    grid = SweepGrid(list(DEFAULT_E0_GRID), list(DEFAULT_PHI_GRID))
    assert cmd_sweep(grid, str(tmp_path / "sweep.csv"), "csv") == 0
    assert cmd_verify(1000, 20240801, str(tmp_path / "verify.json")) == 0
    assert cmd_curve(201, str(tmp_path / "curve.csv")) == 0

    for name in ("sweep.csv", "curve.csv"):
        assert (tmp_path / name).read_bytes() == (RESULTS / name).read_bytes(), name
    assert without_timestamp(tmp_path / "verify.json") == without_timestamp(
        RESULTS / "verify.json"
    )
