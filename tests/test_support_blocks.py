"""``teleport._protocol`` applies each strategy's operators on their support blocks.

Outcome alpha's operator ``1 (x) P_alpha (x) U_alpha`` is zero outside the
rows and columns ``_SUPPORT[alpha]``, so the ``(4, 8, 8)`` blocks that
``_protocol`` gathers from ``operators`` carry all of it.  The engine reads
those blocks from the strategy's ``operators`` on every call, and a strategy
stores its corrections and its operators, and nothing derived from them.
"""

import copy
import dataclasses

import numpy as np
import pytest

from entport.matkernel import _kron, adjoint
from entport.states import ID2, random_local_unitary, seed_states, werner_states
from entport.teleport import _BELL_PROJECTORS, _SUPPORT, BobStrategy, _protocol, optimal_strategy

GEN = np.random.default_rng(3201)
STRATEGIES = [optimal_strategy()] + [
    BobStrategy(tuple(random_local_unitary(GEN) for _ in range(4))) for _ in range(50)
]

#: ``1 (x) P_alpha (x) 1`` for the four outcomes: what ``op^dagger op`` is for a unitary correction.
PROJECTORS = _kron(_kron(ID2, _BELL_PROJECTORS), ID2)


def gather(stack: np.ndarray) -> np.ndarray:
    """Each outcome's 8x8 block of a ``(4, 16, 16)`` stack, on the rows and columns ``_SUPPORT``."""
    return stack[np.arange(4)[:, None, None], _SUPPORT[:, :, None], _SUPPORT[:, None, :]]


@pytest.mark.parametrize("index", range(len(STRATEGIES)))
def test_each_operator_vanishes_off_its_support_block(index):
    operators = STRATEGIES[index].operators
    for alpha, op in enumerate(operators):
        outside = np.setdiff1d(np.arange(16), _SUPPORT[alpha])
        assert not op[outside].any() and not op[:, outside].any(), alpha
    blocks = gather(operators)
    np.testing.assert_allclose(adjoint(blocks) @ blocks, gather(PROJECTORS), rtol=0, atol=1e-14)


def test_the_engine_applies_the_strategys_operators():
    # A strategy carrying another strategy's operators gives that strategy's
    # outputs: the engine reads the operators, not the corrections.
    rho12, channel_states = seed_states([0.0, 0.6, 1.0]), werner_states([-0.5, 0.3, 1.0])
    other = STRATEGIES[1]
    hybrid = copy.copy(optimal_strategy())
    object.__setattr__(hybrid, "operators", other.operators)
    got = _protocol(rho12, channel_states, hybrid)
    expected = _protocol(rho12, channel_states, other)
    for name in expected._fields:
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
    baseline = _protocol(rho12, channel_states, optimal_strategy())
    assert got.final_states.tobytes() != baseline.final_states.tobytes()


def test_a_strategy_stores_its_corrections_and_operators_only():
    fields = {f.name: f for f in dataclasses.fields(BobStrategy)}
    assert list(fields) == ["corrections", "operators"]
    operators = fields["operators"]
    assert (operators.init, operators.repr, operators.compare) == (False, False, False)
    strategy = optimal_strategy()
    assert "operators" not in repr(strategy)
    twin = copy.copy(strategy)  # the same corrections, so only the operators differ
    object.__setattr__(twin, "operators", STRATEGIES[1].operators)
    assert twin == strategy
