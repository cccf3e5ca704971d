"""The protocol never raises the negativity on average, on any input and strategy.

The Bell measurement on particles (2, 3), the message of its outcome and the
correction on particle 4 are local operations and classical communication
across the cut 1 | 234, and again across 123 | 4.  The negativity does not
grow on average under such operations (Vidal & Werner, PRA 65, 032314, 2002),
and adding a state on one side of a cut keeps it: rho12 (x) w34 has
negativity N(rho12) across 1 | 234 and ew across 123 | 4.  So for every input
rho12, every channel phi and every correction strategy,

    sum_alpha p_alpha N(rho14_alpha) <= min(N(rho12), ew).

The closed forms cover only seed states and the optimal corrections; this
property checks the simulation where no closed form reaches.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entport.entanglement import negativity
from entport.states import WernerChannel, random_local_unitary
from entport.teleport import BobStrategy, simulate

from conftest import ginibre_states

#: Roundoff allowed above the bound.  Each negativity carries the backward
#: error of one eigensolve of a unit-norm 4x4 matrix, and the conditional
#: states that of the engine's 16x16 products; where the bound is reached (a
#: perfect channel with the optimal corrections) the excess measures 3.5 eps.
LOCC_ROUNDOFF = 256 * np.finfo(float).eps


@settings(deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(1, 4),
    phi=st.floats(-1.0, 1.0),
    optimal=st.booleans(),
)
def test_averaged_negativity_obeys_both_locc_bounds(seed, rank, phi, optimal):
    gen = np.random.default_rng(seed)
    rho12 = ginibre_states(gen, 1, rank)[0]
    channel = WernerChannel(phi)
    strategy = None if optimal else BobStrategy(tuple(random_local_unitary(gen) for _ in range(4)))
    report = simulate(rho12, channel, strategy)
    averaged = sum(
        p * negativity(state).value for p, state in zip(report.probabilities, report.final_states)
    )
    assert averaged <= min(negativity(rho12).value, channel.ew) + LOCC_ROUNDOFF
