import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entport.entanglement import (
    MAX_CURVE_POINTS,
    EntanglementReport,
    entropy_of_entanglement,
    entropy_vs_negativity_curve,
    negativity,
)
from entport.matkernel import adjoint, herm_eigvals, partial_trace, tensor
from entport.states import (
    bell_projector,
    random_local_unitary,
    random_product_state,
    rotated_pure_state,
    seed_state,
    werner_state,
)

# Binary entropy of the hand-derived reduced eigenvalues (1 +- 0.8)/2 of the
# c0 = 0.6 seed state.
H2_OF_09 = 0.4689955935892812

RHO_CC = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)  # (1x1 - ZZ)/4


def binary_entropy(p):
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


class TestNegativity:
    @pytest.mark.parametrize("c0", [1e-12, 1e-11, 5e-11, 1e-10, 1.9e-10])
    def test_tiny_entanglement_is_not_dropped(self, c0):
        # The partial transpose of seed_state(c0) has the eigenvalue -c0/2;
        # no entanglement, however small, may read as zero.
        assert abs(negativity(seed_state(c0)).value - c0) <= 1e-14

    def test_werner_singlet_is_maximal(self):
        assert negativity(werner_state(1.0)).value == pytest.approx(1.0, abs=1e-12)

    def test_werner_closed_form_above_threshold(self):
        for f in (0.4, 0.6, 0.8, 1.0):  # 3f > 1
            phi = (3 * f - 1) / 2
            got = negativity(werner_state(phi)).value
            assert got == pytest.approx((3 * f - 1) / 2, abs=1e-12)

    def test_product_states_report_zero(self, rng):
        for _ in range(200):
            assert negativity(random_product_state(rng)).value == 0.0

    def test_classically_correlated_state_reports_zero(self):
        assert negativity(RHO_CC).value == 0.0

    def test_seed_state_matches_c0(self):
        for c0 in np.linspace(0, 1, 11):
            assert negativity(seed_state(c0)).value == pytest.approx(c0, abs=1e-12)

    def test_bell_projectors_are_maximal(self):
        for alpha in range(4):
            assert negativity(bell_projector(alpha)).value == pytest.approx(1.0, abs=1e-12)

    def test_report_invariant(self, rng):
        for c0 in (0.0, 0.4, 1.0):
            report = negativity(seed_state(c0))
            assert isinstance(report, EntanglementReport)
            assert report.value == pytest.approx(-2 * sum(report.negative_eigs), abs=1e-12)
            assert 0.0 <= report.value <= 1.0
            assert all(w < 0 for w in report.negative_eigs)

    @settings(deadline=None, max_examples=100)
    @given(
        seed=st.integers(min_value=0, max_value=10**9),
        c0=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_local_unitary_invariance(self, seed, c0):
        gen = np.random.default_rng(seed)
        rho = seed_state(c0)
        u = tensor(random_local_unitary(gen), random_local_unitary(gen))
        rotated = u @ rho @ adjoint(u)
        assert abs(negativity(rotated).value - negativity(rho).value) < 1e-10

    def test_rejects_invalid_density_matrix(self):
        with pytest.raises(ValueError):
            negativity(np.diag([1.5, -0.5, 0.0, 0.0]))


class TestEntropyOfEntanglement:
    def test_maximally_entangled(self):
        assert entropy_of_entanglement(seed_state(1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_product(self):
        assert entropy_of_entanglement(seed_state(0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_binary_entropy_value(self):
        s = entropy_of_entanglement(seed_state(0.6))
        assert s == pytest.approx(H2_OF_09, abs=1e-12)
        assert s == pytest.approx(binary_entropy(0.9), abs=1e-12)

    def test_rejects_mixed_states(self):
        with pytest.raises(ValueError, match="pure"):
            entropy_of_entanglement(werner_state(0.5))

    @settings(deadline=None, max_examples=50)
    @given(
        seed=st.integers(min_value=0, max_value=10**9),
        c0=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_same_from_either_subsystem(self, seed, c0):
        gen = np.random.default_rng(seed)
        rho = rotated_pure_state(c0, random_local_unitary(gen), random_local_unitary(gen))
        entropies = []
        for keep in (0, 1):
            probs = herm_eigvals(partial_trace(rho, keep))
            probs = probs[probs > 1e-12]
            entropies.append(float(-np.sum(probs * np.log2(probs))))
        assert abs(entropies[0] - entropies[1]) < 1e-10
        assert entropy_of_entanglement(rho) == pytest.approx(entropies[0], abs=1e-10)


class TestCurve:
    def test_two_points_are_the_endpoints(self):
        assert entropy_vs_negativity_curve(2) == [(0.0, 0.0), (1.0, 1.0)]

    def test_endpoints_and_monotonicity(self):
        curve = entropy_vs_negativity_curve(101)
        assert curve[0] == (0.0, 0.0)
        assert curve[-1][0] == 1.0
        assert curve[-1][1] == pytest.approx(1.0, abs=1e-12)
        s_values = [s for _, s in curve]
        assert all(b > a for a, b in zip(s_values, s_values[1:]))

    def test_entropy_lies_below_the_diagonal(self):
        # S(E) = H2((1 + sqrt(1 - E^2))/2) <= E on (0, 1), equality only at
        # the endpoints.
        for e, s in entropy_vs_negativity_curve(101)[1:-1]:
            assert s < e
            assert s == pytest.approx(binary_entropy((1 + math.sqrt(1 - e * e)) / 2), abs=1e-12)

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            entropy_vs_negativity_curve(1)

    def test_rejects_too_many_points(self):
        with pytest.raises(ValueError):
            entropy_vs_negativity_curve(MAX_CURVE_POINTS + 1)
