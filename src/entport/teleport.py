"""Teleporting one half of an entangled pair through a Werner channel.

Particles (1, 2) carry a pure entangled state; particles (3, 4) carry the
channel state.  A Bell measurement acts on particles (2, 3) and, once the
two-bit outcome arrives, the receiver applies a correction unitary to
particle 4.  The state left on particles (1, 4) is then compared with the
initial (1, 2) state.

Two independent routes are implemented: a brute-force simulation of the
full four-particle protocol, and closed forms for the fidelity, the
transferred entanglement and the transferred information.  With the
standard corrections the conditional states of all four outcomes coincide,
and the closed forms reproduce the simulation to near machine precision
(the test suite enforces this).  The simulation is one engine,
:func:`_protocol`, which serves any strategy: :func:`simulate` runs it on
one input and :func:`simulate_grid` on many points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .entanglement import _negativities
from .information import InformationReport, _information_decompositions
from .matkernel import _blocks, _kron, _nonnegative, _single, adjoint, check_density_matrix
from .states import (
    BOB_CORRECTIONS,
    ID2,
    _BELL_PROJECTORS,
    HilbertSchmidtForm,
    WernerChannel,
    _check_number,
    _check_range,
    _check_unitary,
    _read_only,
    _seed_states,
    _werner_f,
    _werner_states,
)

#: Roundoff by which a final entanglement may exceed the channel entanglement.
#: The transferred entanglement grows with ``e0`` up to E(1, ew) = ew, so an
#: ``e`` above ``ew`` cannot occur; the computed E(1, ew) exceeds ``ew`` by at
#: most one eps, both from the closed form (10^6 linear and 10^6 log-spaced
#: ``ew`` in [1e-300, 1]) and from :func:`simulate_grid` (4,001 ``phi`` in [0, 1]).
FINAL_ENTANGLEMENT_ATOL = 4 * np.finfo(float).eps


#: For each Bell outcome, the 8 indices (a, b, c, d) of particles (1, 2, 3, 4),
#: ascending, with (b, c) in the support of its projector: the only rows and
#: columns where ``1 (x) P_alpha (x) U`` is nonzero, whatever the unitary U:
#: the nonzero diagonal indices of each item of the stack ``1 (x) P_alpha (x) 1``.
_SUPPORT = _read_only(
    np.nonzero(_kron(_kron(ID2, _BELL_PROJECTORS), ID2).diagonal(0, -2, -1))[1].reshape(4, 8)
)

#: Where each outcome's 8x8 block of ``rho12 (x) w34`` reads an ``(n, 4, 4)``
#: stack of ``rho12`` and of ``w34``: ``_SUPPORT``'s indices (a, b, c, d) are
#: 4 (a, b) + (c, d), so its rows and columns split into those of each factor.
_BLOCK_12, _BLOCK_34 = (
    (slice(None), i[:, :, None], i[:, None, :]) for i in map(_read_only, divmod(_SUPPORT, 4))
)


@dataclass(frozen=True)
class BobStrategy:
    """The receiver's correction unitary for each of the four Bell outcomes.

    The corrections are stored as read-only copies, and
    ``operators[alpha]`` is the 16x16 operator ``1 (x) P_alpha (x) U_alpha``
    on particles (1, 2, 3, 4).  ``operators`` is one read-only
    ``(4, 16, 16)`` stack, built once when the strategy is created as one
    stacked Kronecker product of the Bell projector stack and the stacked
    corrections.  ``_support_blocks`` is the pair that :func:`_protocol`
    applies: the ``(4, 8, 8)`` blocks ``operators[alpha]`` on the rows and
    columns ``_SUPPORT[alpha]``, and their adjoint, read-only and built
    once with ``operators``.
    """

    corrections: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    operators: np.ndarray = field(init=False, repr=False, compare=False)
    _support_blocks: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        corrections = tuple(self.corrections) if np.iterable(self.corrections) else ()
        if len(corrections) != 4:
            raise ValueError("corrections must be a sequence of 4 qubit unitaries")
        corrections = tuple(_read_only(_single(_check_unitary(u)).copy()) for u in corrections)
        operators = _read_only(_kron(_kron(ID2, _BELL_PROJECTORS), np.array(corrections)))
        ops = operators[np.arange(4)[:, None, None], _SUPPORT[:, :, None], _SUPPORT[:, None, :]]
        object.__setattr__(self, "corrections", corrections)
        object.__setattr__(self, "operators", operators)
        object.__setattr__(self, "_support_blocks", tuple(map(_read_only, (ops, adjoint(ops)))))


def optimal_strategy() -> BobStrategy:
    """The standard corrections: identity, sigma_x, sigma_y, sigma_z.

    They maximise the fidelity only for ``phi >= -1/2``, that is ``f >= 0``.
    The averaged fidelity is ``f`` times a term the corrections change, which
    these corrections maximise, plus a term no correction changes; so below
    ``phi = -1/2`` they minimise the fidelity instead.  The closed forms
    describe this strategy at every ``phi``.
    """
    return BobStrategy(corrections=BOB_CORRECTIONS)


#: The strategy :func:`simulate` uses when none is given.
_OPTIMAL_STRATEGY = optimal_strategy()


@dataclass
class TeleportationReport:
    """Everything the protocol produces for one initial state and channel.

    ``final_states[alpha]`` is the conditional state of particles (1, 4)
    after the correction for outcome ``alpha``; every outcome has
    probability 1/4, so all four are there.  ``final_state`` is the
    outcome-averaged state; with the optimal strategy it equals every
    conditional state.
    """

    probabilities: np.ndarray
    final_states: list[np.ndarray]
    final_state: np.ndarray
    averaged_fidelity: float
    final_entanglement: float
    final_information: InformationReport


@dataclass
class GridReport:
    """Simulated outputs at n (e0, phi) points, as arrays in point order.

    ``final_information[i]`` holds total, individual_a, individual_b and
    correlation, in the field order of :class:`InformationReport`.
    """

    averaged_fidelity: np.ndarray  # (n,)
    final_entanglement: np.ndarray  # (n,)
    final_information: np.ndarray  # (n, 4)


class _Protocol(NamedTuple):
    """:func:`_protocol`'s arrays for a stack of n inputs."""

    probabilities: np.ndarray  # (n, 4)
    final_states: np.ndarray  # (n, 4, 4, 4)
    final_state: np.ndarray  # (n, 4, 4), outcome-averaged
    averaged_fidelity: np.ndarray  # (n,)


def _protocol(rho12: np.ndarray, channel_states: np.ndarray, strategy: BobStrategy) -> _Protocol:
    """The brute-force protocol on ``(n, 4, 4)`` stacks of inputs and channel states.

    Each outcome's ``op @ (rho12 (x) w34) @ op^dagger`` is formed on the
    8x8 block of ``_SUPPORT``, whose rows and columns are (a, s, d) with s
    the support pair (b, c); ``op`` and ``op^dagger`` are the strategy's
    ``_support_blocks``.  Index (a, b, c, d) is ``4 (a, b) + (c, d)``, so
    the block of ``rho12 (x) w34`` is read straight from the entries of
    ``rho12`` and ``w34``, at ``_BLOCK_12`` and ``_BLOCK_34``.  Each
    probability is the block's trace, and the trace over particles (2, 3)
    adds its two terms s = 0, 1.  Every outcome has probability exactly 1/4,
    whatever the input and the corrections (the Werner channel's state on
    particle 3 is maximally mixed: Lee & Kim, PRL 84, 4236, 2000), so none
    is dropped.  The result is the dense 16x16 computation bit for bit,
    sign of zero included:

    - each block entry is the same one product of two numbers as in ``np.kron``;
    - the dropped rows and columns of ``op`` are zero, so they add only exact zeros;
    - with the Pauli corrections each row of ``op`` holds two entries of
      +-1/2 or +-i/2, so every kept entry is one rounding of two exact products;
    - every matmul accumulator starts from +0;
    - numpy's pairwise sum splits the dense 16-entry diagonal into four
      groups by index mod 4, each of two support entries and two exact
      zeros, and the 8-entry trace adds the same pairs.  Only the order of
      the last two partial sums can differ, and IEEE addition is commutative.

    For other corrections the test suite checks the same bits on Haar-random
    ones; ``tests/test_entry_engine.py`` guards all of this on the numpy in
    use.  Each item of the stack comes out as it would alone.  The inputs
    are not validated here.
    """
    n = len(rho12)
    ops, ops_h = strategy._support_blocks
    big = rho12[_BLOCK_12] * channel_states[_BLOCK_34]
    conditioned = ops @ big @ ops_h  # (n, 4, 8, 8)
    p = conditioned.trace(axis1=-2, axis2=-1).real
    conditioned /= p[..., None, None]
    t = conditioned.reshape(n, 4, 2, 2, 2, 2, 2, 2)
    final_states = (t[:, :, :, 0, :, :, 0] + t[:, :, :, 1, :, :, 1]).reshape(n, 4, 4, 4)
    weight = sum(p[:, k] for k in range(4))
    averaged = sum(p[:, k, None, None] * final_states[:, k] for k in range(4))
    averaged = averaged / weight[:, None, None]
    averaged = (averaged + adjoint(averaged)) / 2
    overlaps = (rho12[:, None] @ final_states).trace(axis1=-2, axis2=-1).real
    fidelity = sum(p[:, k] * overlaps[:, k] for k in range(4))
    return _Protocol(p, final_states, averaged, fidelity)


def simulate(
    rho12: np.ndarray,
    channel: WernerChannel,
    strategy: BobStrategy | None = None,
) -> TeleportationReport:
    """Run the protocol by brute force over all four Bell outcomes.

    This is :func:`_protocol` on one input; all four conditional states are
    kept in ``final_states``.  Entanglement and information of the final
    state are evaluated on the outcome-averaged state, which is not
    validated again: it is built from the validated ``rho12``.
    """
    rho12 = _single(check_density_matrix(rho12, dim=4))
    if not isinstance(channel, WernerChannel):
        raise ValueError("channel must be a WernerChannel")
    if strategy is None:
        strategy = _OPTIMAL_STRATEGY
    if not isinstance(strategy, BobStrategy):
        raise ValueError("strategy must be a BobStrategy")

    out = _protocol(rho12[None], channel.state()[None], strategy)
    averaged = out.final_state[0]
    return TeleportationReport(
        probabilities=out.probabilities[0],
        final_states=list(out.final_states[0]),
        final_state=averaged,
        averaged_fidelity=float(out.averaged_fidelity[0]),
        final_entanglement=float(_negativities(averaged)[0]),
        final_information=InformationReport(*map(float, _information_decompositions(averaged))),
    )


def simulate_grid(e0, phi) -> GridReport:
    """:func:`simulate` of ``seed_state(e0[i])`` through ``WernerChannel(phi[i])``, for each i.

    ``e0`` and ``phi`` are 1-D arrays of equal length, in [0, 1] and
    [-1, 1].  The points run through :func:`_protocol` with the optimal
    strategy in the blocks of ``matkernel._blocks``, so peak memory does not
    grow with the number of points beyond the returned arrays, and each value
    equals the matching :func:`simulate` output bit for bit.  The seed states are
    built here from the range-checked ``e0``, so they are not validated again.

    A point holds (4, 8, 8) outcome blocks of 256 entries, 16 times the
    entries of a 4x4 matrix, so it counts as 16 matrices and a block holds 32
    points.  Measured with :func:`_protocol` on 400 random points in a fresh
    process on a shared 2-CPU host, peak resident memory above one point per
    block (35.8 MiB): +0.1 MiB at 8 points per block, +0.3 MiB at 32,
    +1.7 MiB at 128 and +4.8 MiB for all 400 at once.  This function took
    24 ms for the 400 points at 8 points per block, 12 ms at 32, 12 ms at
    128 and 11 ms at 400, and about 150 ms at one point per block (each the
    median of five processes' medians of 14).  After one warm-up call it made
    no minor page fault at 8 or 32 points per block, and about 1,000 per call
    at 128 and at 400.  Larger blocks save no time for more peak memory.
    """
    e0, phi = _check_range("e0", e0, 0.0, 1.0), _check_range("phi", phi, -1.0, 1.0)
    if e0.ndim != 1 or e0.shape != phi.shape:
        raise ValueError(f"e0 and phi must be 1-D of equal length, got {e0.shape}, {phi.shape}")
    out = GridReport(np.empty(len(e0)), np.empty(len(e0)), np.empty((len(e0), 4)))
    for block in _blocks(len(e0), 16):
        result = _protocol(_seed_states(e0[block]), _werner_states(phi[block]), _OPTIMAL_STRATEGY)
        out.averaged_fidelity[block] = result.averaged_fidelity
        out.final_entanglement[block] = _negativities(result.final_state)[0]
        out.final_information[block] = _information_decompositions(result.final_state)
    return out


def final_state_closed_form(
    form0: HilbertSchmidtForm, channel: WernerChannel
) -> HilbertSchmidtForm:
    """Pauli coefficients of the final state, without simulating.

    The first qubit's Bloch vector is untouched.  The measurement sign
    matrix and the optimal correction rotation compose to -1, and the
    channel carries isotropic correlation -f, so the second Bloch vector
    and the correlation matrix are both scaled by ``+f = (2 phi + 1) / 3``,
    independent of the outcome.
    """
    if not isinstance(form0, HilbertSchmidtForm):
        raise ValueError("form0 must be a HilbertSchmidtForm")
    if not isinstance(channel, WernerChannel):
        raise ValueError("channel must be a WernerChannel")
    return HilbertSchmidtForm(a=form0.a.copy(), b=channel.f * form0.b, c=channel.f * form0.c)


def fidelity_general(
    rho12: np.ndarray,
    channel: WernerChannel,
    strategy: BobStrategy | None = None,
) -> float:
    """Outcome-averaged overlap of the final state with the initial state.

    ``sum_alpha p_alpha Tr(rho12 rho14_alpha)``, from the brute-force
    simulation.  :func:`optimal_strategy` maximises it over strategies only
    for ``phi >= -1/2`` (``f >= 0``), and minimises it below.
    """
    return simulate(rho12, channel, strategy).averaged_fidelity


# Each closed form once, elementwise over numbers or arrays, for any w in [-1, 1];
# ``verify`` also reads them at w = phi < 0, where the entanglement radicand can
# round below zero (it vanishes at w = -1/2, e0 = 1).
def _fidelity(e0, w):
    return (w + 2.0) / 3.0 + (w - 1.0) / 6.0 * e0 * e0


def _entanglement(e0, w):
    u = 1.0 - w
    return (np.sqrt(_nonnegative(u * u + 3.0 * w * (2.0 + w) * e0 * e0)) - u) / 3.0


def _correlation_info(e, w):
    """Correlation information of the final state, read off its entanglement ``e`` (``w != 0``)."""
    e0sq = e * (3.0 * e + 2.0 * (1.0 - w)) / (w * (2.0 + w))
    g = _werner_f(w)
    return g * g * (2.0 / 3.0) * e0sq * (4.0 - e0sq)


def _information(e0, w):
    """Total, individual_a, individual_b and correlation, in :class:`InformationReport` order."""
    g = _werner_f(w)
    e0sq = e0 * e0
    return (
        (2.0 / 3.0) * (1.0 + 2.0 * g * g + (g * g - 1.0) * e0sq),
        1.0 - e0sq,
        g * g * (1.0 - e0sq),
        g * g * (2.0 / 3.0) * (4.0 - e0sq) * e0sq,
    )


def fidelity_closed_form(e0: float, ew: float) -> float:
    """Fidelity of the optimal protocol as a function of the entanglements.

    ``(ew + 2) / 3 + (ew - 1) / 6 * e0**2``; ``e0`` is the initial-state
    entanglement, ``ew`` the channel entanglement.  Lies in [1/2, 1]:
    1 for a perfect channel, down to 2/3 at ``e0 = ew = 0`` and 1/2 at
    ``e0 = 1, ew = 0``.
    """
    e0, ew = _check_number("e0", e0, 0.0, 1.0), _check_number("ew", ew, 0.0, 1.0)
    return float(_fidelity(e0, ew))


def final_entanglement_closed_form(e0: float, ew: float) -> float:
    """Entanglement of the final state for initial ``e0`` and channel ``ew``.

    ``(sqrt((1 - ew)^2 + 3 ew (2 + ew) e0^2) - (1 - ew)) / 3``.  Zero when
    either argument is zero, equal to ``e0`` for a perfect channel, and
    strictly positive whenever both arguments are.
    """
    e0, ew = _check_number("e0", e0, 0.0, 1.0), _check_number("ew", ew, 0.0, 1.0)
    return float(_entanglement(e0, ew))


def final_information_closed_form(e0: float, ew: float) -> InformationReport:
    """Information content of the final state, split as total/individual/correlation.

    With ``g = (2 ew + 1) / 3``: the untouched qubit keeps its individual
    information ``1 - e0^2``, the teleported qubit's is damped by ``g^2``,
    and so is the correlation information ``2 (4 - e0^2) e0^2 / 3`` of the
    initial state.
    """
    e0, ew = _check_number("e0", e0, 0.0, 1.0), _check_number("ew", ew, 0.0, 1.0)
    return InformationReport(*map(float, _information(e0, ew)))


def correlation_info_from_entanglement(e: float, ew: float) -> float:
    """Correlation information of the final state in terms of its entanglement.

    Inverts the entanglement transfer to recover the initial entanglement,
    ``e0^2 = e (3 e + 2 (1 - ew)) / (ew (2 + ew))``, then applies the
    damped correlation-information form.  Requires ``ew > 0`` (the
    inversion divides by ``ew``); with an unentangled channel the final
    entanglement is identically zero and carries no information about
    ``e0``.  Requires ``e <= ew`` within ``FINAL_ENTANGLEMENT_ATOL``: no
    final entanglement exceeds the channel's.  Zero if and only if ``e`` is zero.
    """
    e, ew = _check_number("e", e, 0.0, 1.0), _check_number("ew", ew, 0.0, 1.0)
    if ew == 0.0:
        raise ValueError(f"ew must be positive, got {ew}")
    if e > ew + FINAL_ENTANGLEMENT_ATOL:
        raise ValueError(f"e must not exceed ew, got e = {e}, ew = {ew}")
    return float(_correlation_info(e, ew))
