"""The suite's own pytest configuration reports a failing property test and runs on.

``pyproject.toml`` turns every warning into an error.  When a hypothesis test
fails, hypothesis's pytest plugin imports ``libcst`` to suggest a patch, and
that import warns ``mypy_extensions.TypedDict is deprecated`` inside a pytest
hook; as an error it stopped the session with INTERNALERROR, so no later test
ran.  The configuration ignores that one third-party warning.
"""

import subprocess
import sys

from conftest import ROOT

PLANTED = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_a_failing_property_test_is_reported_and_the_session_runs_on(tmp_path):
    (tmp_path / "test_planted.py").write_text(PLANTED)
    config = ["-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *config, "test_planted.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), proc.stdout[-2000:]
