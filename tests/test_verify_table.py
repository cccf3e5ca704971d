"""``verify`` reports one check per row of ``cli.VERIFY_CHECKS``, in its order.

The gaps of ``compare`` that the table does not name are the ungated
``phi_negative_branch`` diagnostics, so a row added to the table moves its
gap from the diagnostics into the checks.
"""

import json

from entport import cli

GATED_ELSEWHERE = "fidelity_phi_substitution_max_delta"


def verify_report(tmp_path) -> dict:
    out = tmp_path / "verify.json"
    cli.cmd_verify(10, 7, str(out))
    return json.loads(out.read_text())


def default_gaps() -> dict:
    _, gaps = cli.compare(cli.SweepGrid(list(cli.DEFAULT_E0_GRID), list(cli.DEFAULT_PHI_GRID)))
    return gaps


def test_checks_are_the_table_rows_in_order(tmp_path):
    checks = verify_report(tmp_path)["checks"]
    assert [(c["name"], c["tolerance"]) for c in checks] == list(cli.VERIFY_CHECKS.items())


def test_diagnostics_are_the_gaps_the_table_does_not_name(tmp_path):
    diagnostics = verify_report(tmp_path)["diagnostics"]["phi_negative_branch"]
    assert set(diagnostics) == set(default_gaps()) - set(cli.VERIFY_CHECKS)


def test_a_new_row_becomes_a_check_and_leaves_the_diagnostics(tmp_path, monkeypatch):
    table = {**cli.VERIFY_CHECKS, GATED_ELSEWHERE: cli.DISCREPANCY_TOL}
    monkeypatch.setattr(cli, "VERIFY_CHECKS", table)
    report = verify_report(tmp_path)
    worst = float(default_gaps()[GATED_ELSEWHERE].max(initial=0.0))
    assert report["checks"][-1] == {
        "name": GATED_ELSEWHERE,
        "max_violation": worst,
        "tolerance": cli.DISCREPANCY_TOL,
        "passed": True,
    }
    assert [c["name"] for c in report["checks"]] == list(table)
    assert GATED_ELSEWHERE not in report["diagnostics"]["phi_negative_branch"]
