"""The entry-by-entry engine behind ``simulate_grid`` equals the dense one bit for bit.

``teleport._pauli_protocol`` forms only the entries of ``op (rho12 (x) w34)
op^dagger`` that the trace over particles (2, 3) reads, from tables built
out of the optimal strategy's operators.  Its four arrays must equal those of
the dense ``teleport._protocol`` with the optimal strategy bit for bit, sign
of zero included in both the real and the imaginary part, so that
``results/`` cannot change.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entport.states import BOB_CORRECTIONS, random_local_unitary, seed_states, werner_states
from entport.teleport import (
    PROTOCOL_BLOCK,
    BobStrategy,
    _entry_tables,
    _pauli_protocol,
    _protocol,
    optimal_strategy,
)

#: Edge values of e0 and phi: zero and the smallest subnormal, a tiny normal
#: number, the float just below 1, the ends of the ranges, the boundary
#: phi = -1/2 of the optimal strategy's domain, and a negative zero.
E0_EDGES = (0.0, 5e-324, 1e-300, 1.0 - 2.0**-53, 1.0)
PHI_EDGES = (-1.0, -0.5, 1e-300, -1e-300, -0.0, 0.0, 1.0)

E0 = st.one_of(st.sampled_from(E0_EDGES), st.floats(0.0, 1.0))
PHI = st.one_of(st.sampled_from(PHI_EDGES), st.floats(-1.0, 1.0))


def identical(a, b) -> bool:
    """Equal shapes, values and sign bits, of the real and the imaginary parts apart."""
    a, b = np.asarray(a), np.asarray(b)
    parts = (np.real, np.imag) if np.iscomplexobj(a) or np.iscomplexobj(b) else (np.real,)
    return a.shape == b.shape and all(
        np.array_equal(part(a), part(b)) and np.array_equal(np.signbit(part(a)), np.signbit(part(b)))
        for part in parts
    )


def assert_engines_agree(rho12, channel_states):
    dense = _protocol(rho12, channel_states, optimal_strategy())
    entries = _pauli_protocol(rho12, channel_states)
    for name in dense._fields:
        assert identical(getattr(entries, name), getattr(dense, name)), name


def ginibre_states(gen: np.random.Generator, n: int, rank: int) -> np.ndarray:
    """``n`` density matrices ``g g^dagger / Tr`` of complex Gaussian 4 x rank ``g``."""
    g = gen.standard_normal((n, 4, rank)) + 1j * gen.standard_normal((n, 4, rank))
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


class TestSameBits:
    @settings(deadline=None, max_examples=60)
    @given(points=st.lists(st.tuples(E0, PHI), min_size=1, max_size=2 * PROTOCOL_BLOCK + 1))
    def test_seed_states_through_werner_channels(self, points):
        e0, phi = (np.array(values) for values in zip(*points))
        assert_engines_agree(seed_states(e0), werner_states(phi))

    @settings(deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rank=st.integers(1, 4),
        phi=st.lists(PHI, min_size=1, max_size=PROTOCOL_BLOCK),
    )
    def test_ginibre_inputs(self, seed, rank, phi):
        rho12 = ginibre_states(np.random.default_rng(seed), len(phi), rank)
        assert_engines_agree(rho12, werner_states(np.array(phi)))

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 2**32 - 1), ranks=st.tuples(st.integers(1, 4), st.integers(1, 4)))
    def test_ginibre_channel_states(self, seed, ranks):
        # A Werner state is zero at 10 of its 16 entries, so the products of
        # most table entries vanish; a full channel state reaches every one.
        gen = np.random.default_rng(seed)
        n = 1 + seed % (2 * PROTOCOL_BLOCK)
        assert_engines_agree(ginibre_states(gen, n, ranks[0]), ginibre_states(gen, n, ranks[1]))

    @pytest.mark.parametrize(
        "n", [1, PROTOCOL_BLOCK - 1, PROTOCOL_BLOCK, PROTOCOL_BLOCK + 1, 2 * PROTOCOL_BLOCK + 1]
    )
    def test_stack_sizes(self, n):
        gen = np.random.default_rng(n)
        e0 = np.where(gen.random(n) < 0.5, gen.choice(E0_EDGES, n), gen.random(n))
        phi = np.where(gen.random(n) < 0.5, gen.choice(PHI_EDGES, n), gen.uniform(-1.0, 1.0, n))
        assert_engines_agree(seed_states(e0), werner_states(phi))
        assert_engines_agree(ginibre_states(gen, n, 1 + n % 4), werner_states(phi))


class TestEntryTables:
    def test_accepts_the_optimal_strategy(self):
        big, op, adjoint, diagonal, trace = _entry_tables(optimal_strategy().operators)
        assert big.shape == (2, 2, 4, 32) and op.shape == (2, 1, 4, 32)
        assert adjoint.shape == (2, 4, 32) and diagonal.shape == trace.shape == (32,)

    def test_rejects_a_haar_random_correction(self):
        corrections = (*BOB_CORRECTIONS[:3], random_local_unitary(7))
        with pytest.raises(ValueError, match="rows of 1 \\(x\\) P \\(x\\) U"):
            _entry_tables(BobStrategy(corrections).operators)

    def test_rejects_an_operator_scaled_by_a_third(self):
        operators = optimal_strategy().operators.copy()
        operators[2] /= 3.0
        with pytest.raises(ValueError, match="rows of 1 \\(x\\) P \\(x\\) U"):
            _entry_tables(operators)
