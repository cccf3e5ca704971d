import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entport.matkernel import (
    adjoint,
    as_operator,
    check_density_matrix,
    herm_eigvals,
    partial_trace,
    partial_transpose,
    purity,
    tensor,
)

from conftest import ROOT, ginibre_states

# Pauli matrices written out by hand so the fixtures are independent of the
# package's own constants.
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def random_hermitian(gen, dim=4):
    g = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def explicit_werner_matrix(f):
    return np.array(
        [
            [(1 - f) / 4, 0, 0, 0],
            [0, (1 + f) / 4, -f / 2, 0],
            [0, -f / 2, (1 + f) / 4, 0],
            [0, 0, 0, (1 - f) / 4],
        ],
        dtype=complex,
    )


def explicit_werner_pt_matrix(f):
    return np.array(
        [
            [(1 - f) / 4, 0, 0, -f / 2],
            [0, (1 + f) / 4, 0, 0],
            [0, 0, (1 + f) / 4, 0],
            [-f / 2, 0, 0, (1 - f) / 4],
        ],
        dtype=complex,
    )


class TestTensor:
    def test_identity(self):
        np.testing.assert_array_equal(tensor(I2, I2), np.eye(4))

    def test_pauli_zz_fixture(self):
        np.testing.assert_allclose(tensor(SZ, SZ), np.diag([1, -1, -1, 1.0]), atol=0)

    def test_pauli_xx_fixture(self):
        expected = np.fliplr(np.eye(4))
        np.testing.assert_allclose(tensor(SX, SX), expected, atol=0)

    def test_entry_formula(self, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        t = tensor(a, b)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        assert abs(t[i * 2 + k, j * 2 + l] - a[i, j] * b[k, l]) < 1e-14

    def test_trace_multiplicative(self, rng):
        for _ in range(20):
            a = random_hermitian(rng, 2)
            b = random_hermitian(rng, 2)
            assert abs(np.trace(tensor(a, b)) - np.trace(a) * np.trace(b)) < 1e-12

    def test_bilinear(self, rng):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        c = random_hermitian(rng, 2)
        lhs = tensor(2.0 * a + c, b)
        rhs = 2.0 * tensor(a, b) + tensor(c, b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_associative_within_cap(self, rng):
        ops = [random_hermitian(rng, 2) for _ in range(4)]
        left = tensor(tensor(ops[0], ops[1]), tensor(ops[2], ops[3]))
        flat = np.kron(ops[0], np.kron(ops[1], np.kron(ops[2], ops[3])))
        np.testing.assert_allclose(left, flat, atol=1e-12)

    def test_equals_np_kron_bit_for_bit(self, rng):
        for dim in (2, 4):
            for _ in range(20):
                a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                assert np.array_equal(tensor(a, b), np.kron(a, b))
                assert np.array_equal(tensor(a.T, b.conj().T), np.kron(a.T, b.conj().T))

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            tensor(np.eye(16), np.eye(2))
        with pytest.raises(ValueError):
            tensor(np.eye(2), np.eye(4))
        with pytest.raises(ValueError):
            tensor(np.eye(4), np.eye(4).reshape(2, 8))

    def test_kron_is_the_one_kronecker_product(self):
        # A second Kronecker product would be a second copy of the formula and
        # of its bit reference; docstrings name ``np.kron`` without a call.
        pattern = re.compile(r"np\.kron\(")
        assert pattern.search("np.kron(a, b)")  # the scan sees what it looks for
        found = []
        for path in sorted((ROOT / "src" / "entport").glob("*.py")):
            for number, line in enumerate(path.read_text().splitlines(), 1):
                found += [f"{path.name}:{number}: {line.strip()}"] if pattern.search(line) else []
        assert found == []


class TestPartialTrace:
    def test_product_recovers_first_factor(self, rng):
        for _ in range(10):
            rho_a = ginibre_states(rng, 1, 2, dim=2)[0]
            rho_b = ginibre_states(rng, 1, 2, dim=2)[0]
            np.testing.assert_allclose(
                partial_trace(tensor(rho_a, rho_b), keep=0), rho_a, atol=1e-12
            )
            np.testing.assert_allclose(
                partial_trace(tensor(rho_a, rho_b), keep=1), rho_b, atol=1e-12
            )

    def test_werner_reduces_to_maximally_mixed(self):
        for f in (-1 / 3, 0.0, 0.5, 1.0):
            w = explicit_werner_matrix(f)
            np.testing.assert_allclose(partial_trace(w, keep=0), I2 / 2, atol=1e-12)
            np.testing.assert_allclose(partial_trace(w, keep=1), I2 / 2, atol=1e-12)

    def test_basis_projector(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0  # |00><00|
        expected = np.diag([1.0, 0.0]).astype(complex)
        np.testing.assert_array_equal(partial_trace(rho, keep=1), expected)

    def test_preserves_trace(self, rng):
        m = random_hermitian(rng, 4)
        for keep in (0, 1):
            assert abs(np.trace(partial_trace(m, keep)) - np.trace(m)) < 1e-12

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(2), keep=0)
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), keep=2)


class TestPartialTranspose:
    def test_werner_fixture(self):
        for f in (-1 / 3, 0.0, 2 / 3, 1.0):
            np.testing.assert_allclose(
                partial_transpose(explicit_werner_matrix(f)),
                explicit_werner_pt_matrix(f),
                atol=0,
            )

    @settings(deadline=None, max_examples=50)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_involution(self, seed):
        m = random_hermitian(np.random.default_rng(seed), 4)
        np.testing.assert_allclose(partial_transpose(partial_transpose(m)), m, atol=0)

    def test_product_with_real_symmetric_second_factor(self, rng):
        rho_a = ginibre_states(rng, 1, 2, dim=2)[0]
        rho_b = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
        m = tensor(rho_a, rho_b)
        np.testing.assert_allclose(partial_transpose(m), m, atol=1e-15)

    def test_preserves_hermiticity_and_trace(self, rng):
        m = random_hermitian(rng, 4)
        pt = partial_transpose(m)
        assert np.max(np.abs(pt - adjoint(pt))) < 1e-15
        assert abs(np.trace(pt) - np.trace(m)) < 1e-15


class TestHermEigvals:
    def test_werner_eigenvalues(self):
        for f in (-1 / 3, 0.0, 1 / 3, 2 / 3, 1.0):
            got = herm_eigvals(explicit_werner_matrix(f))
            expected = np.sort([(1 - f) / 4] * 3 + [(1 + 3 * f) / 4])
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_werner_pt_eigenvalues(self):
        for f in (-1 / 3, 0.0, 1 / 3, 2 / 3, 1.0):
            got = herm_eigvals(explicit_werner_pt_matrix(f))
            expected = np.sort([(1 + f) / 4] * 3 + [(1 - 3 * f) / 4])
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_maximally_mixed(self):
        np.testing.assert_allclose(herm_eigvals(np.eye(4) / 4), [0.25] * 4, atol=0)

    def test_ascending_and_sum_equals_trace(self, rng):
        for _ in range(20):
            m = random_hermitian(rng, 4)
            w = herm_eigvals(m)
            assert np.all(np.diff(w) >= 0)
            assert abs(w.sum() - np.trace(m).real) < 1e-10

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            herm_eigvals(m)


class TestDensityMatrixChecks:
    def test_density_eigs_psd_and_normalised(self, rng):
        for _ in range(30):
            rho = ginibre_states(rng, 1, 4)[0]
            w = herm_eigvals(rho)
            assert w[0] >= -1e-10
            assert abs(w.sum() - 1.0) < 1e-10

    def test_check_density_matrix_accepts(self, rng):
        rho = ginibre_states(rng, 1, 4)[0]
        check_density_matrix(rho)
        check_density_matrix(rho, dim=4)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            check_density_matrix(np.eye(4))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative"):
            check_density_matrix(np.diag([1.5, -0.5, 0.0, 0.0]))

    def test_rejects_non_hermitian(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = 1e-3
        with pytest.raises(ValueError, match="Hermitian"):
            check_density_matrix(rho)

    def test_as_operator_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            as_operator(np.eye(3))
        with pytest.raises(ValueError):
            as_operator(np.ones((2, 4)))
        bad = np.eye(2, dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            as_operator(bad)

    def test_purity_of_pure_and_mixed(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        assert abs(purity(rho) - 1.0) < 1e-15
        assert abs(purity(np.eye(4) / 4) - 0.25) < 1e-15
