"""The committed results/ must be what the current code writes, byte for byte.

This is the equivalence gate for changes that claim to leave every output
the same: ``scripts/reproduce_results.py``'s ``write_results``, the function
that writes ``results/``, writes the three artifacts again into a temporary
directory, and they are compared with the committed files.  Only the
"timestamp" line of verify.json may differ.
"""

from conftest import RESULTS, load_script, platform_note, without_timestamp


def test_results_reproduce_byte_for_byte(tmp_path, capsys):
    assert load_script("reproduce_results").write_results(tmp_path) == 0

    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "curve.csv",
        "sweep.csv",
        "verify.json",
    ]
    for name in ("sweep.csv", "curve.csv"):
        assert (tmp_path / name).read_bytes() == (RESULTS / name).read_bytes(), (
            f"{name}: {platform_note()}"
        )
    assert without_timestamp((tmp_path / "verify.json").read_bytes()) == without_timestamp(
        (RESULTS / "verify.json").read_bytes()
    ), platform_note()
