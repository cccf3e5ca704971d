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
(the test suite enforces this).  The simulation has two engines, each
docstring giving its steps: :func:`simulate` runs the dense
:func:`_protocol`, which serves any strategy and is the reference, on one
input, and :func:`simulate_grid` runs :func:`_pauli_protocol`, the same
computation entry by entry for the optimal strategy, on many points, with
the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .entanglement import _negativities
from .information import InformationReport, _information_decompositions
from .matkernel import STACK_BLOCK, _kron, _nonnegative, _single, adjoint, check_density_matrix
from .states import (
    BOB_CORRECTIONS,
    ID2,
    HilbertSchmidtForm,
    WernerChannel,
    _check_number,
    _check_range,
    _check_unitary,
    _read_only,
    _werner_f,
    bell_projector,
    seed_states,
    werner_states,
)

#: Points per block of :func:`simulate_grid`.  A point holds a 16x16
#: ``rho12 (x) w34`` and 512 gathered entries, 16 to 32 times the entries of
#: a 4x4 matrix, so a block holds about as much as a ``STACK_BLOCK`` of 4x4
#: matrices.  Measured with :func:`_pauli_protocol` on 400 random points in
#: a fresh process on a shared 2-CPU host, peak resident memory above one
#: point per block (36.1 MiB): +0.0 MiB at 8 points per block, +0.6 MiB at
#: 32, +3.4 MiB at 128 and +8.4 MiB for all 400 at once.
#: :func:`simulate_grid` took 22 ms for the 400 points at 8 points per
#: block, 17 ms at 32, 11 ms at 128 and 12 ms at 400, and 122 ms at one
#: point per block (each the middle of three processes' medians of 14).
#: Blocks of 128 would save about 6 ms per 400 points for 2.8 MiB more peak
#: memory.
PROTOCOL_BLOCK = STACK_BLOCK // 16

#: Roundoff by which a final entanglement may exceed the channel entanglement.
#: The transferred entanglement grows with ``e0`` up to E(1, ew) = ew, so an
#: ``e`` above ``ew`` cannot occur; the computed E(1, ew) exceeds ``ew`` by at
#: most one eps, both from the closed form (10^6 linear and 10^6 log-spaced
#: ``ew`` in [1e-300, 1]) and from :func:`simulate_grid` (4,001 ``phi`` in [0, 1]).
FINAL_ENTANGLEMENT_ATOL = 4 * np.finfo(float).eps


@dataclass(frozen=True)
class BobStrategy:
    """The receiver's correction unitary for each of the four Bell outcomes.

    The corrections are stored as read-only copies, and
    ``operators[alpha]`` is the 16x16 operator ``1 (x) P_alpha (x) U_alpha``
    on particles (1, 2, 3, 4).  ``operators`` is one read-only
    ``(4, 16, 16)`` stack, built once from the corrections when the
    strategy is created.
    """

    corrections: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    operators: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.corrections) != 4:
            raise ValueError("a strategy needs exactly 4 correction unitaries")
        corrections = tuple(_read_only(_check_unitary(u).copy()) for u in self.corrections)
        operators = _read_only(
            np.array(
                [
                    np.kron(np.kron(ID2, bell_projector(alpha)), u)
                    for alpha, u in enumerate(corrections)
                ]
            )
        )
        object.__setattr__(self, "corrections", corrections)
        object.__setattr__(self, "operators", operators)


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
    """An engine's arrays for a stack of n inputs."""

    probabilities: np.ndarray  # (n, 4)
    final_states: np.ndarray  # (n, 4, 4, 4)
    final_state: np.ndarray  # (n, 4, 4), outcome-averaged
    averaged_fidelity: np.ndarray  # (n,)


def _protocol(rho12: np.ndarray, channel_states: np.ndarray, strategy: BobStrategy) -> _Protocol:
    """The brute-force protocol on ``(n, 4, 4)`` stacks of inputs and channel states.

    Builds ``rho12 (x) w34`` as an ``(n, 16, 16)`` stack, applies the four
    operators of ``strategy`` in one broadcast ``op @ big @ op^dagger``,
    reads each outcome probability off the trace and traces out particles
    (2, 3) with one einsum.  Each outcome's state is divided by its
    probability and weighted with it, with no floor: the Werner channel's
    reduced state on particle 3 is maximally mixed (Lee & Kim, PRL 84, 4236,
    2000), so every outcome has probability exactly 1/4, whatever the input
    and the corrections, and none is dropped.  The weighted sums add the
    outcomes in order (``sum``).  Every step gives each item of the stack bit
    for bit what it gives one input alone.  The inputs are not validated here.
    """
    big = _kron(rho12, channel_states)[..., None, :, :]  # particle order (1, 2, 3, 4)
    ops = strategy.operators
    conditioned = ops @ big @ adjoint(ops)
    p = conditioned.trace(axis1=-2, axis2=-1).real
    conditioned /= p[..., None, None]
    t = conditioned.reshape(*conditioned.shape[:-2], *[2] * 8)
    final_states = np.einsum("...abcdebcf->...adef", t).reshape(*conditioned.shape[:-2], 4, 4)
    return _averaged(rho12, p, final_states)


def _averaged(rho12: np.ndarray, p: np.ndarray, final_states: np.ndarray) -> _Protocol:
    """The engines' common last step: weigh the ``(n, 4)`` outcomes into averages."""
    weight = sum(p[:, k] for k in range(4))
    averaged = sum(p[:, k, None, None] * final_states[:, k] for k in range(4))
    averaged = averaged / weight[:, None, None]
    averaged = (averaged + adjoint(averaged)) / 2
    overlaps = (rho12[:, None] @ final_states).trace(axis1=-2, axis2=-1).real
    fidelity = sum(p[:, k] * overlaps[:, k] for k in range(4))
    return _Protocol(p, final_states, averaged, fidelity)


def _entry_tables(operators: np.ndarray) -> tuple[np.ndarray, ...]:
    """Where :func:`_pauli_protocol` reads, for a ``(4, 16, 16)`` stack of operators.

    The engine forms 32 entries ``q = (s, a, d, e, f)`` per outcome: entry
    ``q`` is ``C[i, j]`` of ``C = op @ big @ op^dagger`` at ``i = (a, b, c,
    d)`` and ``j = (e, b, c, f)``, where ``(b, c)`` is the ``s``-th pair on
    which ``op`` has nonzero rows.  With ``l_u`` and ``k_t`` the two nonzero
    columns of rows ``i`` and ``j``, the tables are: the flat index of
    ``big[l_u, k_t]`` as ``(u, t, 4, 32)``; ``op[i, l_u]`` as ``(u, 1, 4,
    32)``; ``conj(op[j, k_t])`` as ``(t, 4, 32)``; the flat ``(alpha, q)`` of
    the entries with ``i == j``; and the flat ``(alpha, i)`` of each of them
    on the ``(4, 16)`` diagonals.

    Raises ``ValueError`` unless every row of every operator is zero or
    holds two entries of +-1/2 or +-i/2, and the nonzero rows of each are
    those of ``1 (x) P (x) U`` with ``P`` supported on two (b, c) pairs.
    """
    nonzero = operators != 0
    counts = nonzero.sum(axis=-1).reshape(4, 2, 4, 2)  # (alpha, a, (b, c), d)
    pairs = counts[:, 0, :, 0] == 2
    if not (
        (counts == 2 * pairs[:, None, :, None]).all()
        and (pairs.sum(axis=-1) == 2).all()
        and (operators[nonzero][:, None] == [0.5, -0.5, 0.5j, -0.5j]).any(axis=-1).all()
    ):
        raise ValueError("operators must have the rows of 1 (x) P (x) U with Pauli corrections")
    columns = np.argsort(~nonzero, axis=-1, kind="stable")[..., :2]
    entries = np.take_along_axis(operators, columns, axis=-1)
    alpha = np.arange(4)[:, None]
    s, a, d, e, f = np.indices((2,) * 5).reshape(5, 1, 32)
    bc = np.flatnonzero(pairs).reshape(4, 2)[alpha, s] % 4
    i, j = 8 * a + 2 * bc + d, 8 * e + 2 * bc + f
    l, k = (np.moveaxis(columns[alpha, rows], -1, 0) for rows in (i, j))  # (u | t, 4, 32)
    return (
        16 * l[:, None] + k,
        np.moveaxis(entries[alpha, i], -1, 0)[:, None],
        np.moveaxis(entries[alpha, j], -1, 0).conj(),
        np.flatnonzero(i == j),
        (16 * alpha + i)[i == j],
    )


_BIG, _OP, _ADJOINT, _DIAGONAL, _TRACE = map(_read_only, _entry_tables(_OPTIMAL_STRATEGY.operators))


def _pauli_protocol(rho12: np.ndarray, channel_states: np.ndarray) -> _Protocol:
    """:func:`_protocol` with the optimal strategy, entry by entry, bit for bit.

    It forms only the 32 entries per outcome of ``C = op @ big @ op^dagger``
    that the trace over particles (2, 3) reads as nonzero, through the tables
    of :func:`_entry_tables`, and gives the same bits, sign of zero included:

    - each row of ``op`` is zero or holds two entries of +-1/2 or +-i/2, so
      each entry of ``op @ big`` and of ``(op @ big) @ op^dagger`` sums two
      exact products (scalings by 1/2) and zeros: it is one rounding of the
      sum of the two, whatever order the dense matrix product adds in;
    - each entry of ``C`` starts from ``0 +``, as the matrix product's
      accumulator does, so an exact zero is +0, never -0; the sign of a zero
      in ``op @ big`` reaches only that sum, so it needs no ``0 +``;
    - each probability is the numpy sum of a C-contiguous 16-entry diagonal
      with its zeros in place, which adds in the order ``trace`` does (a
      sum over a non-contiguous diagonal adds in another order);
    - ``big`` comes from the same :func:`_kron`, the division by ``p`` is the
      same complex-by-real broadcast, the trace adds the two nonzero terms
      of its four, and :func:`_averaged` is shared.

    It is still the brute-force four-particle computation, not a channel
    map.  The inputs are not validated here.
    """
    n = len(rho12)
    terms = _OP * _kron(rho12, channel_states).reshape(n, 256)[:, _BIG]
    products = terms[:, 0] + terms[:, 1]  # (n, t, 4, 32): (op @ big)[i, k_t]
    terms = products * _ADJOINT
    conditioned = 0 + terms[:, 0] + terms[:, 1]  # (n, 4, 32): C[i, j]
    diagonal = np.zeros((n, 64), dtype=complex)
    diagonal[:, _TRACE] = conditioned.reshape(n, 128)[:, _DIAGONAL]
    p = diagonal.reshape(n, 4, 16).sum(axis=-1).real
    conditioned /= p[..., None]
    pairs = conditioned.reshape(n, 4, 2, 16)
    return _averaged(rho12, p, (pairs[:, :, 0] + pairs[:, :, 1]).reshape(n, 4, 4, 4))


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
    [-1, 1].  The points run through :func:`_pauli_protocol` in blocks of
    ``PROTOCOL_BLOCK``, so peak memory does not grow with the number of
    points beyond the returned arrays; that engine gives the bits of
    :func:`_protocol` with the optimal strategy, so each value equals the
    matching :func:`simulate` output bit for bit.  The seed states are
    built here from the range-checked ``e0``, so they are not validated again.
    """
    e0, phi = np.asarray(e0, dtype=float), np.asarray(phi, dtype=float)
    if e0.ndim != 1 or e0.shape != phi.shape:
        raise ValueError(f"e0 and phi must be 1-D of equal length, got {e0.shape}, {phi.shape}")
    _check_range("e0", e0, 0.0, 1.0)
    _check_range("phi", phi, -1.0, 1.0)
    out = GridReport(np.empty(len(e0)), np.empty(len(e0)), np.empty((len(e0), 4)))
    for start in range(0, len(e0), PROTOCOL_BLOCK):
        block = slice(start, start + PROTOCOL_BLOCK)
        result = _pauli_protocol(seed_states(e0[block]), werner_states(phi[block]))
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
