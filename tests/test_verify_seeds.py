"""``verify`` writes the same report at other seeds and branch counts.

``tests/test_reproduce.py`` pins the default 1,000-trial run.  These digests
pin 200-trial runs at seeds 1 and 7 with 1, 2 and 3 measurement branches:
the sha256 of each ``verify.json`` without its ``timestamp`` line, as the
code wrote it before the check table replaced the per-source check builders.
"""

import hashlib

import pytest

from entport.cli import cmd_verify

from conftest import platform_note, without_timestamp

TRIALS = 200

DIGESTS = {
    (1, 1): "f3612ee6be2f7e965b4cba649ce34f7f7b09e8acae69d0c6842e396c4fc7122c",
    (1, 2): "9a528fd380dd09e2f3ecc9ac2201ead564737b4db39c593a1cb8ec3633de8ab6",
    (1, 3): "5bef68c79c8340d714b2e17f8665dc4910fde3a36f6df15261dfa50c1ea10604",
    (7, 1): "16a7105ebbc51b590652f2c3342637ce69ac20fae3613cdf2b9c30e2d58b252c",
    (7, 2): "57c7b0f389613c78f2f7508edbdc5f248ad982a8d5463e353817482b02945769",
    (7, 3): "6f187db1051c63a17b9fba240a68fd30b345ff783dfcc2b56b768f551be95747",
}


@pytest.mark.parametrize(("seed", "branches"), DIGESTS, ids=lambda v: str(v))
def test_verify_report_is_pinned(seed, branches, tmp_path):
    out = tmp_path / "verify.json"
    assert cmd_verify(TRIALS, seed, str(out), branches=branches) == 0
    kept = b"".join(without_timestamp(out.read_bytes()))
    assert hashlib.sha256(kept).hexdigest() == DIGESTS[seed, branches], platform_note()
