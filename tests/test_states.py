import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from entport.entanglement import negativity
from entport.matkernel import adjoint, check_density_matrix, herm_eigvals, purity, tensor
from entport.states import (
    BELL_SIGN_MATRICES,
    BOB_CORRECTIONS,
    ID2,
    PAULI_A,
    PAULI_AB,
    PAULI_B,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    HilbertSchmidtForm,
    SeedParams,
    WernerChannel,
    bell_outcome,
    bell_projector,
    hs_compose,
    hs_decompose,
    random_local_unitary,
    random_product_state,
    rotated_pure_state,
    rotation_from_unitary,
    seed_state,
    werner_state,
)

from conftest import random_density_matrix

KET00_PROJECTOR = np.diag([1.0, 0, 0, 0]).astype(complex)

# (|00> + |11>)/sqrt(2) projector, expanded by hand from
# (1/4)(1x1 + XX - YY + ZZ).
PHI_PLUS_PROJECTOR = np.array(
    [[0.5, 0, 0, 0.5], [0, 0, 0, 0], [0, 0, 0, 0], [0.5, 0, 0, 0.5]], dtype=complex
)

# (|01> - |10>)/sqrt(2) projector.
SINGLET_PROJECTOR = np.array(
    [[0, 0, 0, 0], [0, 0.5, -0.5, 0], [0, -0.5, 0.5, 0], [0, 0, 0, 0]], dtype=complex
)

unit_interval = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


class TestHilbertSchmidtForm:
    def test_compose_basis_product(self):
        form = HilbertSchmidtForm(a=[0, 0, 1], b=[0, 0, 1], c=np.diag([0, 0, 1.0]))
        np.testing.assert_allclose(hs_compose(form), KET00_PROJECTOR, atol=0)

    def test_compose_werner_corners(self):
        for f in (0.0, 0.5, 1.0):
            form = HilbertSchmidtForm(a=np.zeros(3), b=np.zeros(3), c=-f * np.eye(3))
            rho = hs_compose(form)
            assert abs(rho[1, 2] - (-f / 2)) < 1e-15
            assert abs(rho[0, 0] - (1 - f) / 4) < 1e-15
            assert abs(rho[1, 1] - (1 + f) / 4) < 1e-15

    def test_compose_bell_state(self):
        form = HilbertSchmidtForm(a=np.zeros(3), b=np.zeros(3), c=np.diag([1.0, -1.0, 1.0]))
        np.testing.assert_allclose(hs_compose(form), PHI_PLUS_PROJECTOR, atol=0)

    @settings(deadline=None, max_examples=100)
    @given(
        a=arrays(float, 3, elements=unit_interval),
        b=arrays(float, 3, elements=unit_interval),
        c=arrays(float, (3, 3), elements=unit_interval),
    )
    def test_round_trip_from_coefficients(self, a, b, c):
        form = HilbertSchmidtForm(a=a, b=b, c=c)
        back = hs_decompose(hs_compose(form))
        np.testing.assert_allclose(back.a, form.a, atol=1e-12)
        np.testing.assert_allclose(back.b, form.b, atol=1e-12)
        np.testing.assert_allclose(back.c, form.c, atol=1e-12)

    def test_round_trip_from_state(self, rng):
        for _ in range(20):
            rho = random_density_matrix(rng, 4)
            np.testing.assert_allclose(hs_compose(hs_decompose(rho)), rho, atol=1e-12)

    def test_decompose_werner(self):
        for phi in (-1.0, -0.25, 0.5, 1.0):
            form = hs_decompose(werner_state(phi))
            f = (2 * phi + 1) / 3
            np.testing.assert_allclose(form.a, 0, atol=1e-12)
            np.testing.assert_allclose(form.b, 0, atol=1e-12)
            np.testing.assert_allclose(form.c, -f * np.eye(3), atol=1e-12)

    def test_decompose_rejects_bad_input(self):
        with pytest.raises(ValueError):
            hs_decompose(np.eye(4))  # trace 4
        skew = np.eye(4, dtype=complex) / 4
        skew[0, 1] = 1e-3
        with pytest.raises(ValueError):
            hs_decompose(skew)

    def test_rejects_non_finite_coefficients(self):
        with pytest.raises(ValueError):
            HilbertSchmidtForm(a=[np.inf, 0, 0], b=np.zeros(3), c=np.zeros((3, 3)))


class TestSeedState:
    def test_c0_zero_is_basis_product(self):
        np.testing.assert_allclose(seed_state(0.0), KET00_PROJECTOR, atol=0)

    def test_c0_one_is_maximally_entangled(self):
        np.testing.assert_allclose(seed_state(1.0), PHI_PLUS_PROJECTOR, atol=1e-15)

    def test_purity(self):
        for c0 in np.linspace(-1, 1, 21):
            assert abs(purity(seed_state(c0)) - 1.0) < 1e-12

    def test_decomposition(self):
        form = hs_decompose(seed_state(0.6))
        np.testing.assert_allclose(form.a, [0, 0, 0.8], atol=1e-12)
        np.testing.assert_allclose(form.b, [0, 0, 0.8], atol=1e-12)
        np.testing.assert_allclose(form.c, np.diag([0.6, -0.6, 1.0]), atol=1e-12)

    def test_entanglement_equals_c0(self):
        for c0 in (0.0, 0.3, 0.6, 1.0):
            assert abs(negativity(seed_state(c0)).value - c0) < 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            seed_state(1.2)
        with pytest.raises(ValueError):
            SeedParams(-1.01)

    def test_seed_params(self):
        p = SeedParams(0.6)
        assert abs(p.a0 - 0.8) < 1e-15
        assert p.a0**2 + p.c0**2 == pytest.approx(1.0, abs=1e-15)
        assert p.entanglement == 0.6


class TestRotatedPureState:
    def test_identity_unitaries(self):
        np.testing.assert_allclose(
            rotated_pure_state(0.7, ID2, ID2), seed_state(0.7), atol=0
        )

    @settings(deadline=None, max_examples=50)
    @given(
        seed=st.integers(min_value=0, max_value=10**9),
        c0=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_purity_and_entanglement_invariant(self, seed, c0):
        gen = np.random.default_rng(seed)
        rho = rotated_pure_state(c0, random_local_unitary(gen), random_local_unitary(gen))
        assert abs(purity(rho) - 1.0) < 1e-12
        assert abs(negativity(rho).value - c0) < 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            rotated_pure_state(0.5, 2 * ID2, ID2)


class TestRandomLocalUnitary:
    def test_deterministic_for_seed(self):
        np.testing.assert_array_equal(random_local_unitary(123), random_local_unitary(123))

    def test_unitary_and_special(self):
        for seed in range(50):
            u = random_local_unitary(seed)
            np.testing.assert_allclose(u @ adjoint(u), ID2, atol=1e-12)
            assert abs(np.linalg.det(u) - 1.0) < 1e-12

    def test_haar_first_entry_moment(self):
        gen = np.random.default_rng(7)
        samples = [abs(random_local_unitary(gen)[0, 0]) ** 2 for _ in range(10_000)]
        assert abs(np.mean(samples) - 0.5) < 0.02


class TestWernerState:
    def test_singlet_at_phi_one(self):
        np.testing.assert_allclose(werner_state(1.0), SINGLET_PROJECTOR, atol=1e-15)

    def test_maximally_mixed_at_f_zero(self):
        np.testing.assert_allclose(werner_state(-0.5), np.eye(4) / 4, atol=1e-15)

    def test_phi_half_fixture(self):
        rho = werner_state(0.5)
        np.testing.assert_allclose(
            np.diag(rho).real, [1 / 12, 5 / 12, 5 / 12, 1 / 12], atol=1e-15
        )
        assert abs(rho[1, 2] - (-1 / 3)) < 1e-15

    def test_eigenvalues(self):
        for phi in np.linspace(-1, 1, 9):
            f = (2 * phi + 1) / 3
            expected = np.sort([(1 - f) / 4] * 3 + [(1 + 3 * f) / 4])
            np.testing.assert_allclose(herm_eigvals(werner_state(phi)), expected, atol=1e-12)

    def test_negativity_is_clamped_phi(self):
        for phi in np.linspace(-1, 1, 17):
            assert abs(negativity(werner_state(phi)).value - max(0.0, phi)) < 1e-10

    def test_valid_density_matrix(self):
        for phi in (-1.0, 0.0, 1.0):
            check_density_matrix(werner_state(phi))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            werner_state(1.5)
        with pytest.raises(ValueError):
            WernerChannel(-2.0)

    def test_channel_derived_fields(self):
        ch = WernerChannel(0.5)
        assert ch.f == pytest.approx(2 / 3)
        assert ch.ew == 0.5
        assert WernerChannel(-0.7).ew == 0.0
        np.testing.assert_allclose(ch.state(), werner_state(0.5), atol=0)


class TestBellProjectors:
    def test_projector_properties(self):
        total = np.zeros((4, 4), dtype=complex)
        for alpha in range(4):
            p = bell_projector(alpha)
            np.testing.assert_allclose(p @ p, p, atol=1e-12)
            assert abs(np.trace(p) - 1.0) < 1e-12
            total += p
        np.testing.assert_allclose(total, np.eye(4), atol=1e-12)

    def test_singlet_is_alpha_zero(self):
        np.testing.assert_allclose(bell_projector(0), SINGLET_PROJECTOR, atol=1e-15)

    def test_hs_form_is_sign_matrix(self):
        for alpha in range(4):
            form = hs_decompose(bell_projector(alpha))
            np.testing.assert_allclose(form.a, 0, atol=1e-12)
            np.testing.assert_allclose(form.b, 0, atol=1e-12)
            np.testing.assert_allclose(form.c, BELL_SIGN_MATRICES[alpha], atol=1e-12)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            bell_projector(4)

    def test_bell_outcome_bundles(self):
        for alpha in range(4):
            outcome = bell_outcome(alpha)
            np.testing.assert_array_equal(outcome.p_matrix, BELL_SIGN_MATRICES[alpha])
            np.testing.assert_array_equal(outcome.correction, BOB_CORRECTIONS[alpha])
        with pytest.raises(ValueError):
            bell_outcome(-1)

    def test_bell_outcome_rejects_a_correction_for_another_outcome(self):
        from entport.states import BellOutcome

        for alpha in range(4):
            for other in set(range(4)) - {alpha}:
                with pytest.raises(ValueError, match="does not rotate by -P_alpha"):
                    BellOutcome(alpha, BELL_SIGN_MATRICES[alpha], BOB_CORRECTIONS[other])


class TestRotationFromUnitary:
    def test_identity(self):
        np.testing.assert_allclose(rotation_from_unitary(ID2), np.eye(3), atol=0)

    def test_pauli_rotations(self):
        np.testing.assert_allclose(
            rotation_from_unitary(SIGMA_X), np.diag([1.0, -1.0, -1.0]), atol=1e-15
        )
        np.testing.assert_allclose(
            rotation_from_unitary(SIGMA_Y), np.diag([-1.0, 1.0, -1.0]), atol=1e-15
        )
        np.testing.assert_allclose(
            rotation_from_unitary(SIGMA_Z), np.diag([-1.0, -1.0, 1.0]), atol=1e-15
        )

    def test_corrections_rotate_by_minus_sign_matrix(self):
        for alpha in range(4):
            got = rotation_from_unitary(BOB_CORRECTIONS[alpha])
            np.testing.assert_allclose(got, -BELL_SIGN_MATRICES[alpha], atol=1e-12)

    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(min_value=0, max_value=10**9))
    def test_orthogonal_with_unit_determinant(self, seed):
        o = rotation_from_unitary(random_local_unitary(seed))
        np.testing.assert_allclose(o @ o.T, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(o) - 1.0) < 1e-12

    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(min_value=0, max_value=10**9))
    def test_conjugation_identity(self, seed):
        gen = np.random.default_rng(seed)
        u = random_local_unitary(gen)
        a = gen.standard_normal(3)
        o = rotation_from_unitary(u)
        lhs = u @ sum(a[n] * PAULIS[n] for n in range(3)) @ adjoint(u)
        rotated = o.T @ a
        rhs = sum(rotated[n] * PAULIS[n] for n in range(3))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(min_value=0, max_value=10**9))
    def test_composition_convention(self, seed):
        gen = np.random.default_rng(seed)
        u1 = random_local_unitary(gen)
        u2 = random_local_unitary(gen)
        composed = rotation_from_unitary(u1 @ u2)
        chained = rotation_from_unitary(u2) @ rotation_from_unitary(u1)
        a = gen.standard_normal(3)
        np.testing.assert_allclose(composed.T @ a, chained.T @ a, atol=1e-10)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            rotation_from_unitary(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_random_product_state_is_separable_density_matrix(rng):
    for _ in range(20):
        rho = random_product_state(rng)
        check_density_matrix(rho, dim=4)
        assert negativity(rho).value == 0.0


def test_tensor_of_paulis_matches_kron():
    np.testing.assert_array_equal(tensor(SIGMA_X, SIGMA_Z), np.kron(SIGMA_X, SIGMA_Z))


# Pauli matrices written out by hand, for references that do not read the
# package's constants.
HAND_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def compose_with_call_time_kron(form):
    """hs_compose with every basis operator built by np.kron when it is used."""
    eye2 = np.eye(2, dtype=complex)
    rho = np.eye(4, dtype=complex)
    for n in range(3):
        rho += form.a[n] * np.kron(HAND_PAULIS[n], eye2)
        rho += form.b[n] * np.kron(eye2, HAND_PAULIS[n])
        for m in range(3):
            if form.c[n, m] != 0.0:
                rho += form.c[n, m] * np.kron(HAND_PAULIS[n], HAND_PAULIS[m])
    return rho / 4.0


class TestHoistedConstants:
    @settings(deadline=None, max_examples=100)
    @given(
        a=arrays(float, 3, elements=unit_interval),
        b=arrays(float, 3, elements=unit_interval),
        c=arrays(float, (3, 3), elements=unit_interval),
    )
    def test_compose_equals_call_time_kron_bit_for_bit(self, a, b, c):
        form = HilbertSchmidtForm(a=a, b=b, c=c)
        assert np.array_equal(hs_compose(form), compose_with_call_time_kron(form))

    def test_module_constants_are_read_only(self):
        constants = [
            ID2, *PAULIS, *PAULI_A, *PAULI_B, *(p for row in PAULI_AB for p in row),
            *BELL_SIGN_MATRICES, *BOB_CORRECTIONS,
        ]
        for m in constants:
            assert not m.flags.writeable
            with pytest.raises(ValueError):
                m[0, 0] = 7.0
            with pytest.raises(ValueError):
                m += 1.0

    def test_bell_projector_returns_a_fresh_copy(self):
        for alpha in range(4):
            before = bell_projector(alpha)
            mutated = bell_projector(alpha)
            mutated[:] = 7.0
            assert np.array_equal(bell_projector(alpha), before)
