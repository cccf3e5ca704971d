"""Stacked kernel, broadcast state builders and the stacked axiom suites.

Every stacked result must equal the per-matrix loop bit for bit: the axiom
suites evaluate their trial states as stacks, and ``results/`` must not
change.  The references below follow the scalar code, one matrix at a time.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entport.axioms import check_c1, check_c2, check_c3
from entport.entanglement import negativities, negativity
from entport.matkernel import (
    StackItemError,
    as_operator,
    check_density_matrix,
    herm_eigvals,
    partial_transpose,
    tensor,
)
from entport.states import (
    HilbertSchmidtForm,
    _check_unitary,
    _draw_bloch,
    _draw_su2,
    _su2_matrices,
    hs_compose,
    hs_compose_stack,
    hs_decompose,
    qubit_states,
    random_local_unitary,
    random_product_state,
    rotated_pure_state,
    seed_state,
    seed_states,
    su2_matrices,
    werner_state,
    werner_states,
)

from conftest import random_density_matrix
from test_states import HAND_PAULIS, compose_with_call_time_kron

I2 = np.eye(2, dtype=complex)


def mixed_stack(seed: int, size: int) -> np.ndarray:
    """Random Ginibre states, seed states, Werner states and product states."""
    gen = np.random.default_rng(seed)
    items = []
    for i in range(size):
        kind = i % 4
        if kind == 0:
            items.append(random_density_matrix(gen, 4))
        elif kind == 1:
            items.append(seed_state(gen.uniform(-1.0, 1.0)))
        elif kind == 2:
            items.append(werner_state(gen.uniform(-1.0, 1.0)))
        else:
            items.append(random_product_state(gen))
    return np.array(items)


def loop_partial_transpose(m: np.ndarray) -> np.ndarray:
    out = np.empty_like(m)
    for i in range(2):
        for k in range(2):
            for j in range(2):
                for l in range(2):
                    out[2 * i + l, 2 * j + k] = m[2 * i + k, 2 * j + l]
    return out


class TestStackedKernel:
    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 12))
    def test_stack_equals_per_matrix_loop(self, seed, size):
        stack = mixed_stack(seed, size)
        assert np.array_equal(check_density_matrix(stack), stack)
        assert np.array_equal(check_density_matrix(stack, dim=4), stack)

        eigs = herm_eigvals(stack)
        assert eigs.shape == (size, 4)
        assert np.array_equal(eigs, np.array([herm_eigvals(m) for m in stack]))
        assert np.array_equal(
            eigs, np.array([np.linalg.eigvalsh((m + m.conj().T) / 2) for m in stack])
        )

        pt = partial_transpose(stack)
        assert np.array_equal(pt, np.array([loop_partial_transpose(m) for m in stack]))

        assert np.array_equal(
            negativities(stack), np.array([negativity(m).value for m in stack])
        )

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_leading_dimensions_broadcast(self, seed):
        stack = mixed_stack(seed, 6).reshape(2, 3, 4, 4)
        flat = stack.reshape(6, 4, 4)
        assert np.array_equal(herm_eigvals(stack).reshape(6, 4), herm_eigvals(flat))
        assert np.array_equal(negativities(stack).reshape(6), negativities(flat))
        gen = np.random.default_rng(seed)
        a = gen.standard_normal((2, 3, 2, 2)) + 1j * gen.standard_normal((2, 3, 2, 2))
        b = gen.standard_normal((3, 2, 2)) + 1j * gen.standard_normal((3, 2, 2))
        product = tensor(a, b)
        assert product.shape == (2, 3, 4, 4)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(product[i, j], np.kron(a[i, j], b[j]))

    def test_negative_eigs_has_at_most_one_item(self):
        for m in mixed_stack(11, 40):
            report = negativity(m)
            assert len(report.negative_eigs) <= 1
            expected = -2.0 * sum(report.negative_eigs) if report.negative_eigs else 0.0
            assert report.value == expected


class TestBadItemIsNamed:
    def stack_with(self, bad: np.ndarray, index: int = 3, size: int = 6) -> np.ndarray:
        stack = mixed_stack(5, size)
        stack[index] = bad
        return stack

    def test_negative_eigenvalue(self):
        stack = self.stack_with(np.diag([1.5, -0.5, 0.0, 0.0]))
        with pytest.raises(ValueError, match=r"^stack item 3: .*negative eigenvalue: -0\.5"):
            check_density_matrix(stack)
        with pytest.raises(ValueError, match=r"^stack item 3: "):
            negativities(stack)

    def test_wrong_trace(self):
        with pytest.raises(ValueError, match=r"^stack item 3: .*unit trace"):
            check_density_matrix(self.stack_with(np.eye(4) / 2))

    def test_non_hermitian(self):
        bad = np.eye(4, dtype=complex) / 4
        bad[0, 1] = 1e-3
        with pytest.raises(ValueError, match=r"^stack item 3: .*Hermitian"):
            check_density_matrix(self.stack_with(bad))
        with pytest.raises(ValueError, match=r"^stack item 3: .*Hermitian"):
            herm_eigvals(self.stack_with(bad))

    def test_non_finite(self):
        bad = np.eye(4, dtype=complex) / 4
        bad[2, 2] = np.nan
        with pytest.raises(ValueError, match=r"^stack item 3: .*finite"):
            as_operator(self.stack_with(bad))

    def test_multi_dimensional_index(self):
        stack = self.stack_with(np.diag([1.5, -0.5, 0.0, 0.0]), index=5).reshape(2, 3, 4, 4)
        with pytest.raises(ValueError, match=r"^stack item \(1, 2\): "):
            check_density_matrix(stack)

    def test_first_bad_item_is_named(self):
        stack = self.stack_with(np.diag([1.5, -0.5, 0.0, 0.0]), index=4)
        stack[1] = np.diag([1.2, -0.2, 0.0, 0.0])
        with pytest.raises(ValueError, match=r"^stack item 1: "):
            check_density_matrix(stack)

    def test_non_unitary(self):
        u = _su2_matrices(np.array([[1.0, 0.0], [0.6, 0.8j], [1.0, 1.0]]))
        with pytest.raises(ValueError, match=r"^stack item 2: .*unitary"):
            _check_unitary(u)

    def test_out_of_range_parameters(self):
        with pytest.raises(ValueError, match=r"^stack item 1: c0 must lie in \[-1, 1\]"):
            seed_states([0.5, np.nan, 0.2])
        with pytest.raises(ValueError, match=r"^stack item 2: phi must lie in \[-1, 1\]"):
            werner_states([0.5, -1.0, 1.5])
        with pytest.raises(ValueError, match=r"^c0 must lie"):
            seed_state(1.01)

    def test_single_matrix_messages_name_no_item(self):
        with pytest.raises(ValueError, match=r"^density matrix has a negative eigenvalue"):
            check_density_matrix(np.diag([1.5, -0.5, 0.0, 0.0]))

    def test_error_keeps_the_index_and_the_reason(self):
        with pytest.raises(StackItemError) as excinfo:
            check_density_matrix(self.stack_with(np.eye(4) / 2, index=4))
        assert excinfo.value.index == (4,)
        assert excinfo.value.reason.startswith("density matrix must have unit trace")
        with pytest.raises(StackItemError) as excinfo:
            check_density_matrix(np.eye(4) / 2)
        assert excinfo.value.index == ()
        assert str(excinfo.value) == excinfo.value.reason


unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


class TestBroadcastBuilders:
    @settings(deadline=None, max_examples=50)
    @given(c0=st.lists(unit, min_size=1, max_size=8))
    def test_seed_states(self, c0):
        stack = seed_states(c0)
        for value, item in zip(c0, stack):
            a = [0.0, 0.0, math.sqrt(max(0.0, 1.0 - value * value))]
            form = HilbertSchmidtForm(a=a, b=a, c=np.diag([value, -value, 1.0]))
            assert np.array_equal(item, seed_state(value))
            assert np.array_equal(item, compose_with_call_time_kron(form))

    @settings(deadline=None, max_examples=50)
    @given(phi=st.lists(unit, min_size=1, max_size=8))
    def test_werner_states(self, phi):
        stack = werner_states(phi)
        for value, item in zip(phi, stack):
            f = (2.0 * value + 1.0) / 3.0
            form = HilbertSchmidtForm(a=np.zeros(3), b=np.zeros(3), c=-f * np.eye(3))
            assert np.array_equal(item, werner_state(value))
            assert np.array_equal(item, compose_with_call_time_kron(form))

    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 8))
    def test_hs_compose_stack(self, seed, size):
        gen = np.random.default_rng(seed)
        a, b = gen.uniform(-1, 1, (2, size, 3))
        c = gen.uniform(-1, 1, (size, 3, 3))
        c[gen.random((size, 3, 3)) < 0.3] = 0.0
        stack = hs_compose_stack(a, b, c)
        for i in range(size):
            form = HilbertSchmidtForm(a=a[i], b=b[i], c=c[i])
            assert np.array_equal(stack[i], hs_compose(form))
            assert np.array_equal(stack[i], compose_with_call_time_kron(form))

    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_qubit_states_and_product_states(self, seed):
        gen = np.random.default_rng(seed)
        r = np.array([_draw_bloch(gen) for _ in range(2)])
        stack = qubit_states(r)
        for ri, item in zip(r, stack):
            x, y, z = HAND_PAULIS
            assert np.array_equal(item, (I2 + ri[0] * x + ri[1] * y + ri[2] * z) / 2.0)
        assert np.array_equal(random_product_state(seed), np.kron(stack[0], stack[1]))

    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_su2_matrices(self, seed):
        gen = np.random.default_rng(seed)
        z = np.array([_draw_su2(gen) for _ in range(3)])
        stack = su2_matrices(z)
        for zi, item in zip(z, stack):
            expected = np.array([[zi[0], -np.conj(zi[1])], [zi[1], np.conj(zi[0])]])
            assert np.array_equal(item, expected)
        assert np.array_equal(stack[0], random_local_unitary(seed))

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 6))
    def test_rotated_pure_states(self, seed, size):
        gen = np.random.default_rng(seed)
        c0 = gen.random(size)
        u1 = np.array([random_local_unitary(gen) for _ in range(size)])
        u2 = np.array([random_local_unitary(gen) for _ in range(size)])
        stack = rotated_pure_state(c0, u1, u2)
        for i in range(size):
            u = np.kron(u1[i], u2[i])
            assert np.array_equal(stack[i], u @ seed_state(c0[i]) @ u.conj().T)
            assert np.array_equal(stack[i], rotated_pure_state(c0[i], u1[i], u2[i]))

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 5), branches=st.integers(1, 4))
    def test_stacked_qr_equals_loop(self, seed, size, branches):
        gen = np.random.default_rng(seed)
        shape = (size, 2 * branches, 2)
        g = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
        q, _ = np.linalg.qr(g)
        for i in range(size):
            assert np.array_equal(q[i], np.linalg.qr(g[i])[0])


def raw_bits(x: np.ndarray) -> np.ndarray:
    """The IEEE words of a float or complex array, so that 0.0 and -0.0 differ."""
    return np.ascontiguousarray(x).view(np.uint64)


def term_by_term(a, b, c) -> np.ndarray:
    """``(1/4) [1 + sum of coefficient * basis matrix]`` over all 15 Pauli
    products in ``hs_compose_stack``'s order, zero coefficients included,
    with every basis matrix built by ``np.kron`` when it is used."""
    eye2 = np.eye(2, dtype=complex)
    rho = np.eye(4, dtype=complex)
    for n in range(3):
        rho = rho + a[..., n, None, None] * np.kron(HAND_PAULIS[n], eye2)
        rho = rho + b[..., n, None, None] * np.kron(eye2, HAND_PAULIS[n])
        for m in range(3):
            rho = rho + c[..., n, m, None, None] * np.kron(HAND_PAULIS[n], HAND_PAULIS[m])
    return rho / 4.0


# Signed zeros, units, a tiny normal value, the smallest subnormal, the floats
# next to +-1, phi = -1/2 (where f = 0), then a fine grid over [-1, 1].
EDGE_VALUES = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 5e-324, -5e-324]
EDGE_VALUES += [1 - 2**-53, -(1 - 2**-53), -0.5]
PARAMETER_GRID = np.concatenate([EDGE_VALUES, np.linspace(-1.0, 1.0, 100_001)])


class TestBuilderRawBits:
    """The builders against the term-by-term sum, word for word: ``np.array_equal``
    treats 0.0 and -0.0 as equal, these comparisons do not."""

    def test_seed_states(self):
        c0 = PARAMETER_GRID
        a = np.zeros(c0.shape + (3,))
        a[:, 2] = np.sqrt(np.maximum(0.0, 1.0 - c0 * c0))
        c = np.zeros(c0.shape + (3, 3))
        c[:, 0, 0], c[:, 1, 1], c[:, 2, 2] = c0, -c0, 1.0
        assert np.array_equal(raw_bits(seed_states(c0)), raw_bits(term_by_term(a, a, c)))

    def test_werner_states(self):
        phi = PARAMETER_GRID
        zero = np.zeros(phi.shape + (3,))
        c = -((2.0 * phi + 1.0) / 3.0)[:, None, None] * np.eye(3)
        assert np.array_equal(raw_bits(werner_states(phi)), raw_bits(term_by_term(zero, zero, c)))

    @pytest.mark.parametrize("seed", range(5))
    def test_hs_compose_stack(self, seed):
        gen = np.random.default_rng(seed)
        values = np.array([0.0, -0.0, 0.5, -0.25, 1e-300])
        a, b = gen.choice(values, (2, 2000, 3))
        c = gen.choice(values, (2000, 3, 3))
        assert np.array_equal(raw_bits(hs_compose_stack(a, b, c)), raw_bits(term_by_term(a, b, c)))

    def test_hs_decompose(self):
        # Each coefficient is the real part of Tr[rho (basis matrix)], read one by one.
        states = np.concatenate([seed_states(EDGE_VALUES), werner_states(EDGE_VALUES)])
        for rho in states:
            form = hs_decompose(rho)
            a = [np.trace(rho @ np.kron(p, I2)).real for p in HAND_PAULIS]
            b = [np.trace(rho @ np.kron(I2, p)).real for p in HAND_PAULIS]
            c = [[np.trace(rho @ np.kron(p, q)).real for q in HAND_PAULIS] for p in HAND_PAULIS]
            for got, expected in zip((form.a, form.b, form.c), (a, b, c)):
                assert np.array_equal(raw_bits(got), raw_bits(np.array(expected)))


# max_violation (C1-C3) and skip_rate (C3) of the scalar per-trial loops
# these suites replaced, at 200 trials: seed -> value, and for C3
# (seed, branches) -> (max_violation, skip_rate).
PINNED_C1 = {1: 7.771561172376096e-16, 7: 9.992007221626409e-16, 20240801: 9.992007221626409e-16}
PINNED_C2 = {1: 1.3322676295501878e-15, 7: 9.992007221626409e-16, 20240801: 1.4432899320127035e-15}
PINNED_C3 = {
    (1, 1): (1.2212453270876722e-15, 0.0),
    (1, 2): (0.0, 0.0),
    (1, 3): (0.0, 0.0),
    (7, 1): (1.3322676295501878e-15, 0.0),
    (7, 2): (0.0, 0.0),
    (7, 3): (0.0, 0.0),
    (20240801, 1): (1.5543122344752192e-15, 0.0),
    (20240801, 2): (0.0, 0.0),
    (20240801, 3): (0.0, 0.0),
}


class TestPinnedAxiomValues:
    @pytest.mark.parametrize("seed", sorted(PINNED_C1))
    def test_c1_c2(self, seed):
        assert check_c1(200, seed).max_violation == PINNED_C1[seed]
        assert check_c2(200, seed).max_violation == PINNED_C2[seed]

    @pytest.mark.parametrize("seed,branches", sorted(PINNED_C3))
    def test_c3(self, seed, branches):
        report = check_c3(200, branches, seed)
        assert (report.max_violation, report.skip_rate) == PINNED_C3[(seed, branches)]

    def test_block_boundaries_change_nothing(self, monkeypatch):
        import entport.matkernel as matkernel

        reports = [check_c1(40, 3), check_c2(40, 3), check_c3(40, 3, 3)]
        monkeypatch.setattr(matkernel, "STACK_BLOCK", 7)
        assert [check_c1(40, 3), check_c2(40, 3), check_c3(40, 3, 3)] == reports

    @pytest.mark.parametrize(
        "trials,branches,seed,scale,pinned",
        [
            (100, 2, 7, 0.0, (4.440892098500626e-16, 0.01)),
            (100, 3, 11, 0.0, (0.0, 2 / 300)),
            (100, 2, 7, 1e-7, (0.0, 0.01)),
        ],
    )
    def test_c3_skipped_branches(self, monkeypatch, trials, branches, seed, scale, pinned):
        import entport.axioms as axioms

        # Kraus rows scaled to zero give branch 1 of trials 5 and 61 probability
        # 0, and rows scaled by 1e-7 a probability near 1e-14; both lie below
        # the default floor, so those branches are skipped, weigh nothing and
        # are never divided by their probability.
        real = axioms._draw_lgm_cc
        trial = 0

        def planted(gen, branches):
            nonlocal trial
            raw, measuring_first = real(gen, branches)
            if trial in (5, 61):
                raw.reshape(3, -1)[:2, 4:8] *= scale  # Kraus rows 2 and 3, re and im
            trial += 1
            return raw, measuring_first

        monkeypatch.setattr(axioms, "_draw_lgm_cc", planted)
        with np.errstate(divide="raise", invalid="raise"):
            report = check_c3(trials, branches, seed)
        assert (report.max_violation, report.skip_rate) == pinned


def plant_non_psd_state(monkeypatch, builder: str, trial: int) -> None:
    """Make ``axioms.<builder>``, which builds one state per trial of a block,
    give trial ``trial`` (an index over the whole run) a state with eigenvalue -0.5."""
    import entport.axioms as axioms

    real = getattr(axioms, builder)
    seen = 0

    def planted(*args):
        nonlocal seen
        states = real(*args)
        if seen <= trial < seen + len(states):
            states[trial - seen] = np.diag([1.5, -0.5, 0.0, 0.0])
        seen += len(states)
        return states

    monkeypatch.setattr(axioms, builder, planted)


class TestAxiomErrorsNameTheTrial:
    """A state that fails validation is reported by check, seed and trial, not by
    its position in a block's evaluation stack."""

    @pytest.mark.parametrize(
        "check,builder,run",
        [
            ("C1", "_rotated_pure_states", lambda: check_c1(100, 7)),
            ("C2", "_test_states", lambda: check_c2(100, 7)),
            ("C3", "_test_states", lambda: check_c3(100, 2, 7)),
        ],
    )
    def test_trial_89(self, monkeypatch, check, builder, run):
        plant_non_psd_state(monkeypatch, builder, 89)
        message = rf"^{check}, seed 7, trial 89: density matrix has a negative eigenvalue"
        with pytest.raises(ValueError, match=message):
            run()

    def test_invalid_branch_state_names_its_trial(self, monkeypatch):
        import entport.axioms as axioms

        # Zero Kraus rows give branch 1 of trial 61 probability 0.  With the
        # floor at 0 it is kept, and 0 / 0 makes its state non-finite; the bad
        # item is (61, 2) of the block's (trials, branches + 1, 4, 4) stack.
        real = axioms._draw_lgm_cc
        trial = 0

        def planted(gen, branches):
            nonlocal trial
            raw, measuring_first = real(gen, branches)
            if trial == 61:
                raw.reshape(3, -1)[:2, 4:8] = 0.0  # Kraus rows 2 and 3, re and im
            trial += 1
            return raw, measuring_first

        assert check_c3(100, 2, 7).skip_rate == 0.0
        monkeypatch.setattr(axioms, "_draw_lgm_cc", planted)
        monkeypatch.setattr(axioms, "BRANCH_PROB_FLOOR", 0.0)
        with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match=r"^C3, seed 7, trial 61: matrix entries must be finite"
        ):
            check_c3(100, 2, 7)


def plant_zero_gaussians(monkeypatch, trial: int, pick) -> None:
    """Zero the raw SU(2) Gaussians ``pick(draws)`` of trial ``trial`` (an index
    over the whole run), so its unitaries normalise 0 / 0 into NaN entries."""
    import entport.axioms as axioms

    real = axioms._run_trials

    def run(tag, trials, seed, matrices, draw, violations):
        seen = 0

        def planted(gen):
            nonlocal seen
            draws = draw(gen)
            if seen == trial:
                pick(draws)[...] = 0.0
            seen += 1
            return draws

        return real(tag, trials, seed, matrices, planted, violations)

    monkeypatch.setattr(axioms, "_run_trials", run)


class TestUnitaryErrorsNameTheTrial:
    """A trial whose local unitaries fail validation is reported by check, seed
    and trial, whichever axis of its stack runs over the trials."""

    @pytest.mark.parametrize(
        "check,pick,run",
        [
            ("C1", lambda d: d[4], lambda: check_c1(100, 7)),  # rotated seed state
            ("C2", lambda d: d[1], lambda: check_c2(100, 7)),  # trial state
            ("C2", lambda d: d[5], lambda: check_c2(100, 7)),  # the (2, n) rotation pair
            ("C3", lambda d: d[1], lambda: check_c3(100, 2, 7)),  # trial state
            # (n, branches) unitaries: the last third of the raw family block
            ("C3", lambda d: d[5].reshape(3, -1)[2], lambda: check_c3(100, 2, 7)),
        ],
        ids=["C1-state", "C2-state", "C2-rotation", "C3-state", "C3-family"],
    )
    def test_trial_89(self, monkeypatch, check, pick, run):
        plant_zero_gaussians(monkeypatch, 89, pick)
        message = rf"^{check}, seed 7, trial 89: matrix entries must be finite$"
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=message):
            run()


def test_single_state_entry_points_reject_stacks():
    from entport.entanglement import entropy_of_entanglement
    from entport.information import information_decomposition, total_information
    from entport.matkernel import partial_trace, purity
    from entport.states import WernerChannel, hs_decompose
    from entport.teleport import simulate

    stack = np.array([seed_state(0.5), seed_state(0.7)])
    for call in (
        negativity,
        entropy_of_entanglement,
        information_decomposition,
        total_information,
        purity,
        hs_decompose,
        lambda rho: partial_trace(rho, 0),
        lambda rho: simulate(rho, WernerChannel(0.5)),
    ):
        with pytest.raises(ValueError):
            call(stack)


def test_draws_equal_the_linalg_norm_form():
    """``_draw_su2`` and ``_draw_bloch`` normalise without ``np.linalg.norm``, to the same bits."""

    def su2_with_norm(gen):
        z = gen.standard_normal(2) + 1j * gen.standard_normal(2)
        return z / np.linalg.norm(z)

    def bloch_with_norm(gen):
        r = gen.standard_normal(3)
        norm = np.linalg.norm(r)
        return r * (gen.random() ** (1.0 / 3.0) / norm) if norm > 0 else r

    for seed in range(2_000):
        gen, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = np.concatenate([_draw_su2(gen), _draw_bloch(gen), _draw_su2(gen)])
        expected = np.concatenate([su2_with_norm(ref), bloch_with_norm(ref), su2_with_norm(ref)])
        assert np.array_equal(got.view(float), expected.view(float)), seed


def test_unit_trace_check_keeps_each_message():
    from entport.states import hs_decompose

    with pytest.raises(ValueError, match=r"^matrix must have unit trace, got"):
        hs_decompose(np.eye(4))
    with pytest.raises(ValueError, match=r"^density matrix must have unit trace, got"):
        check_density_matrix(np.eye(4))
    with pytest.raises(ValueError, match=r"^stack item 1: density matrix must have unit trace"):
        check_density_matrix(np.array([seed_state(0.1), 2 * seed_state(0.1)]))


def test_empty_stacks_give_empty_results():
    # seed_states([]) and simulate_grid([], []) return empty results; so does
    # every validated stacked entry point, rather than fail inside a reduction.
    empty = np.empty((0, 4, 4))
    assert negativities(empty).shape == (0,)
    assert herm_eigvals(empty).shape == (0, 4)
    assert check_density_matrix(empty).shape == (0, 4, 4)
    no_unitaries = np.empty((0, 2, 2))
    assert _check_unitary(no_unitaries).shape == (0, 2, 2)
    assert rotated_pure_state(np.empty(0), no_unitaries, no_unitaries).shape == (0, 4, 4)
