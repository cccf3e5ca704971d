"""The block engine behind ``simulate`` and ``simulate_grid`` equals the dense one bit for bit.

``teleport._protocol`` forms each Bell outcome's ``op (rho12 (x) w34)
op^dagger`` on the 8x8 block of rows and columns where ``op`` can be nonzero.
Its four arrays must equal those of the dense computation on the full 16x16
operators, written out below as the reference, bit for bit, sign of zero
included in both the real and the imaginary part: with the optimal strategy,
so that ``results/`` cannot change, and with Haar-random corrections.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entport.matkernel import STACK_BLOCK, _kron, adjoint
from entport.states import random_local_unitary, seed_states, werner_states
from entport.teleport import BobStrategy, _protocol, _Protocol, optimal_strategy

#: Points per block of ``simulate_grid``: a point counts as 16 4x4 matrices.
GRID_BLOCK = STACK_BLOCK // 16

#: Edge values of e0 and phi: zero, the smallest subnormal, a subnormal with
#: most of its bits, the smallest and a tiny normal number, the float just
#: below 1, the ends of the ranges, the boundary phi = -1/2 of the optimal
#: strategy's domain, and a negative zero.
E0_EDGES = (0.0, 5e-324, 1e-310, 2.0**-1022, 1e-300, 1.0 - 2.0**-53, 1.0)
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


def dense_protocol(rho12, channel_states, strategy) -> _Protocol:
    """The protocol on the full 16x16 operators: one broadcast ``op @ big @ op^dagger``."""
    big = _kron(rho12, channel_states)[:, None]  # particle order (1, 2, 3, 4)
    ops = strategy.operators
    conditioned = ops @ big @ adjoint(ops)
    p = conditioned.trace(axis1=-2, axis2=-1).real
    conditioned /= p[..., None, None]
    t = conditioned.reshape(*conditioned.shape[:-2], *[2] * 8)
    final_states = np.einsum("...abcdebcf->...adef", t).reshape(*conditioned.shape[:-2], 4, 4)
    weight = sum(p[:, k] for k in range(4))
    averaged = sum(p[:, k, None, None] * final_states[:, k] for k in range(4))
    averaged = averaged / weight[:, None, None]
    averaged = (averaged + adjoint(averaged)) / 2
    overlaps = (rho12[:, None] @ final_states).trace(axis1=-2, axis2=-1).real
    fidelity = sum(p[:, k] * overlaps[:, k] for k in range(4))
    return _Protocol(p, final_states, averaged, fidelity)


def assert_engines_agree(rho12, channel_states, strategy=optimal_strategy()):
    dense = dense_protocol(rho12, channel_states, strategy)
    block = _protocol(rho12, channel_states, strategy)
    for name in dense._fields:
        assert identical(getattr(block, name), getattr(dense, name)), name


def ginibre_states(gen: np.random.Generator, n: int, rank: int) -> np.ndarray:
    """``n`` density matrices ``g g^dagger / Tr`` of complex Gaussian 4 x rank ``g``."""
    g = gen.standard_normal((n, 4, rank)) + 1j * gen.standard_normal((n, 4, rank))
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


class TestSameBits:
    @settings(deadline=None, max_examples=60)
    @given(points=st.lists(st.tuples(E0, PHI), min_size=1, max_size=2 * GRID_BLOCK + 1))
    def test_seed_states_through_werner_channels(self, points):
        e0, phi = (np.array(values) for values in zip(*points))
        assert_engines_agree(seed_states(e0), werner_states(phi))

    @settings(deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rank=st.integers(1, 4),
        phi=st.lists(PHI, min_size=1, max_size=GRID_BLOCK),
    )
    def test_ginibre_inputs(self, seed, rank, phi):
        rho12 = ginibre_states(np.random.default_rng(seed), len(phi), rank)
        assert_engines_agree(rho12, werner_states(np.array(phi)))

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 2**32 - 1), ranks=st.tuples(st.integers(1, 4), st.integers(1, 4)))
    def test_ginibre_channel_states(self, seed, ranks):
        # A Werner state is zero at 10 of its 16 entries, so most products in
        # each outcome's block vanish; a full channel state reaches every one.
        gen = np.random.default_rng(seed)
        n = 1 + seed % (2 * GRID_BLOCK)
        assert_engines_agree(ginibre_states(gen, n, ranks[0]), ginibre_states(gen, n, ranks[1]))

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), e0=st.lists(E0, min_size=1, max_size=GRID_BLOCK))
    def test_seed_states_through_ginibre_channel_states(self, seed, e0):
        # Unequal probabilities and subnormal entries make each division by p
        # round, so the bits tell whether the trace adds before or after it.
        channel_states = ginibre_states(np.random.default_rng(seed), len(e0), 4)
        assert_engines_agree(seed_states(np.array(e0)), channel_states)

    @pytest.mark.parametrize(
        "n", [1, GRID_BLOCK - 1, GRID_BLOCK, GRID_BLOCK + 1, 2 * GRID_BLOCK + 1]
    )
    def test_stack_sizes(self, n):
        gen = np.random.default_rng(n)
        e0 = np.where(gen.random(n) < 0.5, gen.choice(E0_EDGES, n), gen.random(n))
        phi = np.where(gen.random(n) < 0.5, gen.choice(PHI_EDGES, n), gen.uniform(-1.0, 1.0, n))
        assert_engines_agree(seed_states(e0), werner_states(phi))
        assert_engines_agree(ginibre_states(gen, n, 1 + n % 4), werner_states(phi))
        assert_engines_agree(seed_states(e0), ginibre_states(gen, n, 4))


class TestHaarRandomCorrections:
    @settings(deadline=None, max_examples=30)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rank=st.integers(1, 4),
        phi=st.lists(PHI, min_size=1, max_size=GRID_BLOCK),
    )
    def test_werner_channels(self, seed, rank, phi):
        gen = np.random.default_rng(seed)
        strategy = BobStrategy(tuple(random_local_unitary(gen) for _ in range(4)))
        rho12 = ginibre_states(gen, len(phi), rank)
        assert_engines_agree(rho12, werner_states(np.array(phi)), strategy)

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), ranks=st.tuples(st.integers(1, 4), st.integers(1, 4)))
    def test_ginibre_channel_states(self, seed, ranks):
        gen = np.random.default_rng(seed)
        strategy = BobStrategy(tuple(random_local_unitary(gen) for _ in range(4)))
        n = 1 + seed % (2 * GRID_BLOCK)
        rho12, channel_states = ginibre_states(gen, n, ranks[0]), ginibre_states(gen, n, ranks[1])
        assert_engines_agree(rho12, channel_states, strategy)
