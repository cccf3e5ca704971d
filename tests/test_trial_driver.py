"""The C1-C3 suites share one trial driver: its gate order and its error labels."""

import numpy as np
import pytest

import entport.axioms as axioms
from entport.axioms import check_c3
from entport.cli import main


@pytest.mark.parametrize(
    "trials,branches,seed,named",
    [(0, 0, -1, "trials"), (1, 0, -1, "branches"), (1, 1, -1, "seed")],
)
def test_c3_gates_trials_then_branches_then_seed(trials, branches, seed, named):
    with pytest.raises(ValueError, match=f"^{named} must"):
        check_c3(trials, branches, seed)


def test_verify_names_trials_before_branches(tmp_path, capsys):
    out = tmp_path / "v.json"
    assert main(["verify", "--trials", "0", "--branches", "0", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: trials must lie in [1, 1000000], got 0\n"


@pytest.mark.parametrize("scale", [2.0, np.nan])
def test_incomplete_family_names_its_check_seed_and_trial(scale, monkeypatch):
    # Doubling one trial's A operators makes its completeness sum 4, not 1; a
    # NaN family has a NaN residual, which must fail the gate too.
    real = axioms._lgm_cc_operators
    seen = 0

    def planted(g, z, measuring_first):
        nonlocal seen
        a, b = real(g, z, measuring_first)
        if seen <= 61 < seen + len(a):
            a[61 - seen] *= scale
        seen += len(a)
        return a, b

    monkeypatch.setattr(axioms, "_lgm_cc_operators", planted)
    message = r"^C3, seed 7, trial 61: operator family does not satisfy completeness$"
    with pytest.raises(ValueError, match=message):
        check_c3(100, 2, 7)
