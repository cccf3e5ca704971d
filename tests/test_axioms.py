import numpy as np
import pytest

from entport.axioms import (
    AXIOM_TOL,
    MAX_BRANCHES,
    AxiomReport,
    LgmCcFamily,
    check_c1,
    check_c2,
    check_c3,
    sample_lgm_cc,
)
from entport.entanglement import negativity
from entport.matkernel import adjoint, tensor
from entport.states import ID2, bell_projector

TRIALS = 200
SEED = 424242


class TestSampleLgmCc:
    def test_completeness_over_many_seeds(self):
        for seed in range(100):
            for branches in (1, 2, 3, 4):
                family = sample_lgm_cc(seed, branches)
                assert family.completeness_residual() < 1e-10
                assert len(family.operators) == branches

    def test_deterministic(self):
        fam1 = sample_lgm_cc(99, 3)
        fam2 = sample_lgm_cc(99, 3)
        for (a1, b1), (a2, b2) in zip(fam1.operators, fam2.operators):
            np.testing.assert_array_equal(a1, a2)
            np.testing.assert_array_equal(b1, b2)

    def test_single_branch_is_unitary_pair(self):
        for seed in range(20):
            ((a, b),) = sample_lgm_cc(seed, 1).operators
            np.testing.assert_allclose(a @ adjoint(a), ID2, atol=1e-12)
            np.testing.assert_allclose(b @ adjoint(b), ID2, atol=1e-12)

    def test_rejects_bad_branch_count(self):
        with pytest.raises(ValueError):
            sample_lgm_cc(0, 0)

    def test_family_rejects_incomplete_operators(self):
        with pytest.raises(ValueError, match="completeness"):
            LgmCcFamily(operators=[(ID2 / 2, ID2)])
        with pytest.raises(ValueError):
            LgmCcFamily(operators=[])


class TestConditionChecks:
    def test_c1_passes(self):
        report = check_c1(TRIALS, SEED)
        assert isinstance(report, AxiomReport)
        assert report.condition == "C1"
        assert report.trials == TRIALS
        assert report.passed
        assert report.max_violation <= AXIOM_TOL

    def test_c2_passes(self):
        report = check_c2(TRIALS, SEED)
        assert report.condition == "C2"
        assert report.passed

    def test_c3_passes(self):
        report = check_c3(TRIALS, 2, SEED)
        assert report.condition == "C3"
        assert report.passed
        assert report.skip_rate < 0.05

    def test_c3_single_branch_reduces_to_unitary_invariance(self):
        report = check_c3(100, 1, SEED)
        assert report.passed
        assert report.max_violation < 1e-12

    def test_single_branch_average_equals_input_measure(self):
        from entport.states import seed_state

        rho = seed_state(0.8)
        ((a, b),) = sample_lgm_cc(3, 1).operators
        v = tensor(a, b)
        mapped = v @ rho @ adjoint(v)
        p = float(np.trace(mapped).real)
        assert p == pytest.approx(1.0, abs=1e-12)
        averaged = p * negativity(mapped / p).value
        assert averaged == pytest.approx(negativity(rho).value, abs=1e-9)

    def test_c3_more_branches(self):
        assert check_c3(100, 4, SEED).passed

    def test_checks_are_deterministic(self):
        assert check_c2(50, 7) == check_c2(50, 7)

    def test_reject_bad_trials(self):
        with pytest.raises(ValueError):
            check_c1(0, SEED)
        with pytest.raises(ValueError):
            check_c2(-5, SEED)
        with pytest.raises(ValueError):
            check_c3(0, 2, SEED)

    def test_reject_branches_over_the_cap(self):
        with pytest.raises(ValueError):
            sample_lgm_cc(SEED, MAX_BRANCHES + 1)
        with pytest.raises(ValueError):
            check_c3(1, MAX_BRANCHES + 1, SEED)


def test_projective_measurement_destroys_bell_entanglement():
    # Both sides measure in the computational basis, outcomes fully
    # correlated via the four cross pairings; the family is complete and
    # every branch leaves a product state.
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    family = LgmCcFamily(
        operators=[(p0, p0), (p0, p1), (p1, p0), (p1, p1)]
    )
    rho = bell_projector(0)
    base = negativity(rho).value
    assert base == pytest.approx(1.0, abs=1e-12)

    averaged = 0.0
    for a, b in family.operators:
        v = tensor(a, b)
        mapped = v @ rho @ adjoint(v)
        p = float(np.trace(mapped).real)
        if p < 1e-12:
            continue
        averaged += p * negativity(mapped / p).value
    assert averaged == pytest.approx(0.0, abs=1e-12)
    assert averaged <= base
