import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entport.information import (
    information_decomposition,
    observable_information,
    total_information,
)
from entport.matkernel import adjoint, herm_eigvals
from entport.states import (
    bell_projector,
    random_local_unitary,
    random_product_state,
    rotated_pure_state,
    seed_state,
    werner_state,
)

from conftest import ginibre_states, random_global_unitary

RHO_CC = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)


class TestObservableInformation:
    def test_sharp_outcome_gives_k_bits(self):
        assert observable_information([1.0, 0.0], k=1) == pytest.approx(1.0)
        assert observable_information([1.0, 0.0, 0.0, 0.0], k=2) == pytest.approx(2.0)

    def test_uniform_gives_zero(self):
        assert observable_information([0.5, 0.5], k=1) == 0.0
        assert observable_information([0.25] * 4, k=2) == 0.0

    def test_direct_formula(self):
        # N = 2^k k / (2^k - 1); k=2, probs (1,0,0,0): (8/3) * (9+3)/16 = 2.
        got = observable_information([1.0, 0.0, 0.0, 0.0], k=2)
        assert got == pytest.approx((8 / 3) * (9 / 16 + 3 / 16), abs=1e-15)

    def test_range(self):
        gen = np.random.default_rng(5)
        for _ in range(100):
            p = gen.random(4)
            p /= p.sum()
            assert 0.0 <= observable_information(p, k=2) <= 2.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            observable_information([0.5, 0.5], k=0)
        with pytest.raises(ValueError):
            observable_information([0.5, 0.5, 0.0], k=1)
        with pytest.raises(ValueError):
            observable_information([0.7, 0.7], k=1)
        with pytest.raises(ValueError):
            observable_information([1.5, -0.5], k=1)


class TestTotalInformation:
    def test_pure_two_qubit_states_carry_two_bits(self, rng):
        for c0 in (0.0, 0.5, 1.0):
            assert total_information(seed_state(c0)) == pytest.approx(2.0, abs=1e-12)
        rho = rotated_pure_state(0.3, random_local_unitary(rng), random_local_unitary(rng))
        assert total_information(rho) == pytest.approx(2.0, abs=1e-10)

    def test_maximally_mixed_carries_nothing(self):
        assert total_information(np.eye(4) / 4) == pytest.approx(0.0, abs=1e-12)
        assert total_information(np.eye(2) / 2) == pytest.approx(0.0, abs=1e-12)

    def test_single_qubit_pure(self):
        assert total_information(np.diag([1.0, 0.0])) == pytest.approx(1.0, abs=1e-15)

    def test_werner_from_eigenvalue_purity(self):
        for phi in np.linspace(-1, 1, 9):
            w = werner_state(phi)
            eigs = herm_eigvals(w)
            expected = (2 / 3) * (4 * float(np.sum(eigs**2)) - 1)
            assert total_information(w) == pytest.approx(expected, abs=1e-12)
            # same number from the known eigenvalue multiset
            f = (2 * phi + 1) / 3
            purity = 3 * ((1 - f) / 4) ** 2 + ((1 + 3 * f) / 4) ** 2
            assert total_information(w) == pytest.approx(
                (2 / 3) * (4 * purity - 1), abs=1e-12
            )

    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(min_value=0, max_value=10**9))
    def test_invariant_under_global_unitaries(self, seed):
        gen = np.random.default_rng(seed)
        rho = ginibre_states(gen, 1, 4)[0]
        u = random_global_unitary(gen, 4)
        rotated = u @ rho @ adjoint(u)
        assert abs(total_information(rotated) - total_information(rho)) < 1e-10

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            total_information(np.eye(3) / 3)


class TestInformationDecomposition:
    def test_product_states_have_no_correlation(self, rng):
        for _ in range(50):
            report = information_decomposition(random_product_state(rng))
            assert report.correlation == 0.0

    def test_bell_states_have_only_correlation(self):
        for alpha in range(4):
            report = information_decomposition(bell_projector(alpha))
            assert report.total == pytest.approx(2.0, abs=1e-12)
            assert report.individual_a == pytest.approx(0.0, abs=1e-12)
            assert report.individual_b == pytest.approx(0.0, abs=1e-12)
            assert report.correlation == pytest.approx(2.0, abs=1e-12)

    def test_classically_correlated_state(self):
        report = information_decomposition(RHO_CC)
        assert report.total == pytest.approx(2 / 3, abs=1e-12)
        assert report.individual_a == pytest.approx(0.0, abs=1e-12)
        assert report.individual_b == pytest.approx(0.0, abs=1e-12)
        assert report.correlation == pytest.approx(2 / 3, abs=1e-12)

    def test_seed_state_closed_forms(self):
        for e0 in np.linspace(0, 1, 11):
            report = information_decomposition(seed_state(e0))
            assert report.individual_a == pytest.approx(1 - e0**2, abs=1e-12)
            assert report.individual_b == pytest.approx(1 - e0**2, abs=1e-12)
            assert report.correlation == pytest.approx(
                2 * (4 - e0**2) * e0**2 / 3, abs=1e-12
            )

    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(min_value=0, max_value=10**9))
    def test_decomposition_identity(self, seed):
        rho = ginibre_states(np.random.default_rng(seed), 1, 4)[0]
        r = information_decomposition(rho)
        reconstructed = r.correlation + (2 / 3) * (
            r.individual_a + r.individual_b + r.individual_a * r.individual_b
        )
        assert abs(reconstructed - r.total) < 1e-12

    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(min_value=0, max_value=10**9))
    def test_ranges(self, seed):
        rho = ginibre_states(np.random.default_rng(seed), 1, 4)[0]
        r = information_decomposition(rho)
        assert -1e-10 <= r.total <= 2.0 + 1e-10
        assert -1e-10 <= r.individual_a <= 1.0 + 1e-10
        assert -1e-10 <= r.individual_b <= 1.0 + 1e-10
        # correlation = (2/3)(|C|_F^2 - |a|^2 |b|^2) can undershoot zero for
        # mixed states, but never below -2/3.
        assert -2 / 3 - 1e-10 <= r.correlation <= 2.0 + 1e-10

    def test_correlation_can_be_negative_for_mixed_states(self):
        # Strongly polarized marginals with the weakest correlation
        # positivity allows: rho = (1/4)(1 + 0.9 Z x 1 + 0.9 1 x Z + 0.8 Z x Z),
        # eigenvalues {0, 0.05, 0.05, 0.9}.
        from entport.states import HilbertSchmidtForm, hs_compose

        rho = hs_compose(
            HilbertSchmidtForm(a=[0, 0, 0.9], b=[0, 0, 0.9], c=np.diag([0, 0, 0.8]))
        )
        r = information_decomposition(rho)
        assert r.correlation == pytest.approx((2 / 3) * (0.8**2 - 0.81**2), abs=1e-12)
        assert r.correlation < 0

    def test_mixture_of_products_can_carry_correlation_without_entanglement(self, rng):
        from entport.entanglement import negativity

        assert negativity(RHO_CC).value == 0.0
        assert information_decomposition(RHO_CC).correlation > 0.5

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            information_decomposition(np.eye(2) / 2)
