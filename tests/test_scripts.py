"""The scripts under ``scripts/`` run from a checkout and print what they promise."""

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
