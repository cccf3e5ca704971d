"""The blocked brute-force engine behind ``simulate`` and ``sweep``, and the stacked curve core.

Both work on blocks of points, and every value must equal the one-point
computation bit for bit, sign of zero included: ``results/`` must not change.
The references below are written out one point at a time, as the protocol and
the entropy were computed before they were stacked.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entport.cli as cli
from entport.entanglement import (
    _pure_entropies,
    _seed_entropies,
    entropy_of_entanglement,
    entropy_vs_negativity_curve,
    negativity,
)
from entport.information import information_decomposition
from entport.matkernel import (
    STACK_BLOCK,
    _herm_eigvals,
    _partial_trace,
    herm_eigvals,
    partial_trace,
)
from entport.states import (
    BOB_CORRECTIONS,
    WernerChannel,
    bell_projector,
    rotated_pure_state,
    seed_state,
    seed_states,
    werner_state,
)
from entport.teleport import simulate, simulate_grid

from conftest import GRID_BLOCK, identical, traced_peak

I2 = np.eye(2, dtype=complex)

E0 = st.floats(min_value=0.0, max_value=1.0)
PHI = st.floats(min_value=-1.0, max_value=1.0)


def reference_point(e0: float, phi: float) -> list[float]:
    """Fidelity, negativity and the four information parts, one Bell outcome at a time."""
    rho12 = seed_state(e0)
    big = np.kron(rho12, werner_state(phi))
    outcomes = []
    for alpha, u in enumerate(BOB_CORRECTIONS):
        op = np.kron(np.kron(I2, bell_projector(alpha)), u)
        conditioned = op @ big @ op.conj().T
        p = float(np.trace(conditioned).real)
        state = np.einsum("abcdebcf->adef", (conditioned / p).reshape([2] * 8)).reshape(4, 4)
        outcomes.append((p, state))
    weight = sum(p for p, _ in outcomes)
    averaged = sum(p * s for p, s in outcomes) / weight
    averaged = (averaged + averaged.conj().T) / 2
    fidelity = float(sum(p * np.trace(rho12 @ s).real for p, s in outcomes))
    info = information_decomposition(averaged)
    return [fidelity, negativity(averaged).value, *vars(info).values()]


def engine_values(e0, phi) -> np.ndarray:
    """``simulate_grid`` outputs as rows of [fidelity, negativity, four information parts]."""
    out = simulate_grid(e0, phi)
    return np.column_stack([out.averaged_fidelity, out.final_entanglement, out.final_information])


def simulate_values(e0: float, phi: float) -> list[float]:
    report = simulate(seed_state(e0), WernerChannel(phi))
    info = report.final_information
    return [report.averaged_fidelity, report.final_entanglement, *vars(info).values()]


def reference_entropy(e: float) -> float:
    """Entropy of entanglement of ``seed_state(e)``, as computed one state at a time."""
    return eigensolve_entropy(seed_state(e))


def eigensolve_entropy(rho: np.ndarray) -> float:
    """Entropy of entanglement of one pure state, its reduced spectrum solved by ``eigvalsh``."""
    probs = herm_eigvals(partial_trace(rho, keep=0))
    probs = probs[probs > 1e-12]
    return float(max(0.0, -np.sum(probs * np.log2(probs))))


def peak_less_output(run, inputs, output_bytes: int) -> int:
    """Peak traced memory of ``run(*inputs)`` less the ``output_bytes`` it returns."""
    run(*(x[:10] for x in inputs))  # first-call set-up inside numpy is not part of the peak
    return traced_peak(lambda: run(*inputs)) - output_bytes


def random_points(n: int):
    gen = np.random.default_rng(n)
    return gen.random(n), gen.uniform(-1.0, 1.0, n)


class TestProtocolEngine:
    @settings(deadline=None, max_examples=40)
    @given(points=st.lists(st.tuples(E0, PHI), min_size=1, max_size=2 * GRID_BLOCK + 3))
    def test_equals_the_outcome_by_outcome_reference(self, points):
        e0, phi = (np.array(values) for values in zip(*points))
        got = engine_values(e0, phi)
        for row, (a, p) in zip(got, points):
            assert identical(row, reference_point(a, p)), (a, p)

    def test_paper_grid_equals_the_reference(self):
        e0 = np.repeat([round(0.1 * i, 10) for i in range(11)], 9)
        phi = np.tile([-1.0 + 0.25 * i for i in range(9)], 11)
        got = engine_values(e0, phi)
        for row, a, p in zip(got, e0.tolist(), phi.tolist()):
            assert identical(row, reference_point(a, p)), (a, p)

    @pytest.mark.parametrize(
        "n", [1, GRID_BLOCK - 1, GRID_BLOCK, GRID_BLOCK + 1, 2 * GRID_BLOCK + 1]
    )
    def test_block_boundaries_match_simulate(self, n):
        e0, phi = random_points(n)
        got = engine_values(e0, phi)
        assert got.shape == (n, 6)
        for row, a, p in zip(got, e0.tolist(), phi.tolist()):
            assert identical(row, simulate_values(a, p)), (a, p)

    def test_simulate_keeps_its_report_types(self):
        report = simulate(seed_state(0.3), WernerChannel(0.4))
        assert type(report.averaged_fidelity) is float
        assert type(report.final_entanglement) is float
        assert all(type(v) is float for v in vars(report.final_information).values())
        assert report.probabilities.shape == (4,) and report.final_state.shape == (4, 4)
        assert len(report.final_states) == 4

    def test_peak_memory_is_flat_in_points(self):
        # Outputs: fidelity, negativity and four information parts, float64 each.
        small = peak_less_output(simulate_grid, random_points(1_000), 6 * 8 * 1_000)
        large = peak_less_output(simulate_grid, random_points(10_000), 6 * 8 * 10_000)
        assert large <= 1.1 * small, (small, large)

    def test_rejects_bad_points(self):
        with pytest.raises(ValueError, match=r"^stack item 2: e0 must lie in \[0, 1\]"):
            simulate_grid([0.0, 0.5, 1.5], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=r"^stack item 1: phi must lie in \[-1, 1\]"):
            simulate_grid([0.0, 0.5], [0.0, np.nan])
        with pytest.raises(ValueError, match="equal length"):
            simulate_grid([0.0, 0.5], [0.0])
        with pytest.raises(ValueError, match="equal length"):
            simulate_grid([[0.0]], [[0.0]])


class TestCurveCore:
    @settings(deadline=None, max_examples=40)
    @given(e=st.lists(E0, min_size=1, max_size=2 * STACK_BLOCK + 3))
    def test_equals_the_one_state_reference(self, e):
        got = _seed_entropies(np.array(e))
        assert identical(got, [reference_entropy(x) for x in e])

    @pytest.mark.parametrize(
        "n", [1, STACK_BLOCK - 1, STACK_BLOCK, STACK_BLOCK + 1, 2 * STACK_BLOCK + 1]
    )
    def test_block_boundaries_match_entropy_of_entanglement(self, n):
        e = np.random.default_rng(n).random(n)
        got = _seed_entropies(e)
        assert identical(got, [entropy_of_entanglement(seed_state(x)) for x in e.tolist()])

    def test_curve_endpoints_have_no_negative_zero(self):
        curve = entropy_vs_negativity_curve(201)
        assert curve[0] == (0.0, 0.0) and curve[-1] == (1.0, 1.0)
        assert not np.signbit(curve[0][1])

    def test_peak_memory_is_flat_in_points(self):
        small = peak_less_output(_seed_entropies, [np.linspace(0.0, 1.0, 1_000)], 8 * 1_000)
        large = peak_less_output(_seed_entropies, [np.linspace(0.0, 1.0, 10_000)], 8 * 10_000)
        assert large <= 1.1 * small, (small, large)

    def test_curve_states_skip_the_purity_check_only_inside(self, monkeypatch):
        import entport.entanglement as entanglement

        checked = []
        real_purities = entanglement._purities

        def counted_purities(rho):
            checked.append(rho.shape)
            return real_purities(rho)

        monkeypatch.setattr(entanglement, "_purities", counted_purities)
        entropy_vs_negativity_curve(2 * STACK_BLOCK + 1)
        assert checked == []
        with pytest.raises(ValueError, match="pure states only"):
            entropy_of_entanglement(werner_state(0.5))
        assert checked == [(4, 4)]

    def test_curve_equals_the_checked_entropy_of_each_point(self):
        curve = entropy_vs_negativity_curve(2 * STACK_BLOCK + 1)
        e = [x for x, _ in curve]
        assert e == np.linspace(0.0, 1.0, 2 * STACK_BLOCK + 1).tolist()
        assert identical([s for _, s in curve], [entropy_of_entanglement(seed_state(x)) for x in e])

    def test_curve_solves_no_eigenvalues(self, tmp_path, eigvalsh_shapes):
        entropy_vs_negativity_curve(2 * STACK_BLOCK + 1)
        assert cli.cmd_curve(2 * STACK_BLOCK + 1, str(tmp_path / "curve.csv")) == 0
        assert eigvalsh_shapes == []

    def test_a_reduced_state_off_the_diagonal_takes_the_eigensolve(self, eigvalsh_shapes):
        c, s = np.cos(0.3), np.sin(0.3)
        rho = rotated_pure_state(0.4, np.array([[c, -s], [s, c]]), np.eye(2))
        assert partial_trace(rho, keep=0)[0, 1] != 0
        assert eigvalsh_shapes == []
        got = entropy_of_entanglement(rho)
        assert eigvalsh_shapes == [(2, 2)]
        assert identical(got, eigensolve_entropy(rho))

    @settings(deadline=None, max_examples=60)
    @given(
        e=st.lists(E0, min_size=1, max_size=40),
        phases=st.lists(st.floats(-np.pi, np.pi), min_size=4, max_size=4),
    )
    def test_the_sorted_diagonal_is_the_eigensolve_bit_for_bit(self, e, phases):
        # Seed states, and seed states conjugated by X (x) X and by diagonal
        # phase unitaries: each reduced state is diagonal, so the diagonal rule applies.
        e, x = np.array(e), np.array([[0.0, 1.0], [1.0, 0.0]])
        u1, u2 = (np.diag(np.exp(1j * np.array(p))) for p in (phases[:2], phases[2:]))
        for rho in (seed_states(e), rotated_pure_state(e, x, x), rotated_pure_state(e, u1, u2)):
            reduced = _partial_trace(rho, keep=0)
            assert np.all(reduced[..., 0, 1] == 0) and np.all(reduced[..., 1, 0] == 0)
            diagonal = np.sort(reduced.diagonal(0, -2, -1).real, axis=-1)
            assert identical(diagonal, _herm_eigvals(reduced))
            assert identical(_pure_entropies(rho), [eigensolve_entropy(r) for r in rho])
