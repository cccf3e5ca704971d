"""Each ``BobStrategy`` builds the support blocks that ``teleport._protocol`` applies once.

``_support_blocks`` holds each outcome's operator on the 8x8 block of rows
and columns ``_SUPPORT[alpha]``, and its adjoint: the arrays the engine
gathered on every call before, with the same bits and the same memory
layout, so that numpy multiplies them the same way.  The field is read-only
and stays out of ``repr`` and ``==``.
"""

import copy
import dataclasses

import numpy as np
import pytest

from entport.matkernel import adjoint
from entport.states import random_local_unitary, seed_states, werner_states
from entport.teleport import _SUPPORT, BobStrategy, _protocol, optimal_strategy

GEN = np.random.default_rng(3201)
STRATEGIES = [optimal_strategy()] + [
    BobStrategy(tuple(random_local_unitary(GEN) for _ in range(4))) for _ in range(50)
]


def same_array(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape, strides and bytes."""
    return (a.dtype, a.shape, a.strides, a.tobytes()) == (b.dtype, b.shape, b.strides, b.tobytes())


@pytest.mark.parametrize("index", range(len(STRATEGIES)))
def test_the_blocks_are_the_gathered_operators_and_their_adjoint(index):
    strategy = STRATEGIES[index]
    gathered = strategy.operators[
        np.arange(4)[:, None, None], _SUPPORT[:, :, None], _SUPPORT[:, None, :]
    ]
    ops, ops_h = strategy._support_blocks
    assert same_array(ops, gathered)
    assert same_array(ops_h, adjoint(gathered))


def test_the_blocks_are_read_only():
    strategy = optimal_strategy()
    assert isinstance(strategy._support_blocks, tuple)
    for block in strategy._support_blocks:
        assert not block.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        strategy._support_blocks = ()


def test_the_blocks_stay_out_of_repr_and_eq():
    (blocks,) = [f for f in dataclasses.fields(BobStrategy) if f.name == "_support_blocks"]
    assert (blocks.init, blocks.repr, blocks.compare) == (False, False, False)
    strategy = optimal_strategy()
    assert "_support_blocks" not in repr(strategy)
    twin = copy.copy(strategy)  # the same corrections, so only the blocks differ
    object.__setattr__(twin, "_support_blocks", STRATEGIES[1]._support_blocks)
    assert twin == strategy


def test_the_engine_applies_the_strategys_blocks():
    # A strategy carrying another strategy's blocks gives that strategy's
    # outputs: the engine reads the blocks, not the 16x16 operators.
    rho12, channel_states = seed_states([0.0, 0.6, 1.0]), werner_states([-0.5, 0.3, 1.0])
    other = STRATEGIES[1]
    hybrid = copy.copy(optimal_strategy())
    object.__setattr__(hybrid, "_support_blocks", other._support_blocks)
    got = _protocol(rho12, channel_states, hybrid)
    expected = _protocol(rho12, channel_states, other)
    for name in expected._fields:
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
    baseline = _protocol(rho12, channel_states, optimal_strategy())
    assert got.final_states.tobytes() != baseline.final_states.tobytes()
