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
every outcome has probability 1/4, and the closed forms reproduce the
simulation to near machine precision (the test suite enforces this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .entanglement import _negativity
from .information import InformationReport, _information_decomposition
from .matkernel import _kron, _single, adjoint, check_density_matrix
from .states import (
    BOB_CORRECTIONS,
    ID2,
    HilbertSchmidtForm,
    WernerChannel,
    _check_unitary,
    _read_only,
    _werner_f,
    bell_projector,
)

#: Outcomes with probability below this leave no conditional state to
#: normalise; they are flagged (final state ``None``) instead of divided.
OUTCOME_PROB_FLOOR = 1e-14


@dataclass(frozen=True)
class BobStrategy:
    """The receiver's correction unitary for each of the four Bell outcomes.

    The corrections are stored as read-only copies, and
    ``operators[alpha]`` is the read-only 16x16 operator
    ``1 (x) P_alpha (x) U_alpha`` on particles (1, 2, 3, 4), built once from
    them when the strategy is created.
    """

    corrections: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    operators: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.corrections) != 4:
            raise ValueError("a strategy needs exactly 4 correction unitaries")
        corrections = tuple(_read_only(_check_unitary(u).copy()) for u in self.corrections)
        operators = tuple(
            _read_only(np.kron(np.kron(ID2, bell_projector(alpha)), u))
            for alpha, u in enumerate(corrections)
        )
        object.__setattr__(self, "corrections", corrections)
        object.__setattr__(self, "operators", operators)


def optimal_strategy() -> BobStrategy:
    """The fidelity-maximising strategy: identity, sigma_x, sigma_y, sigma_z."""
    return BobStrategy(corrections=BOB_CORRECTIONS)


#: The strategy :func:`simulate` uses when none is given.
_OPTIMAL_STRATEGY = optimal_strategy()


@dataclass
class TeleportationReport:
    """Everything the protocol produces for one initial state and channel.

    ``final_states[alpha]`` is the conditional state of particles (1, 4)
    after the correction for outcome ``alpha``, or ``None`` if that outcome
    has negligible probability.  ``final_state`` is the outcome-averaged
    state; with the optimal strategy it equals every conditional state.
    """

    probabilities: np.ndarray
    final_states: list[np.ndarray | None]
    final_state: np.ndarray
    averaged_fidelity: float
    final_entanglement: float
    final_information: InformationReport


def _trace_out_middle(m16: np.ndarray) -> np.ndarray:
    """Partial trace over particles 2 and 3 of a (1,2,3,4) operator."""
    t = m16.reshape([2] * 8)
    return np.einsum("abcdebcf->adef", t).reshape(4, 4)


def _run_protocol(
    rho12: np.ndarray, channel_state: np.ndarray, strategy: BobStrategy
) -> tuple[np.ndarray, list[np.ndarray | None]]:
    """Outcome probabilities and conditional (1, 4) states for any channel state.

    Outcomes with probability below ``OUTCOME_PROB_FLOOR`` get ``None``
    instead of a normalised conditional state (cannot happen with a Werner
    channel, whose outcomes are all equally likely).
    """
    big = _kron(rho12, channel_state)  # particle order (1, 2, 3, 4)
    probabilities = np.empty(4)
    final_states: list[np.ndarray | None] = []
    for alpha, op in enumerate(strategy.operators):
        conditioned = op @ big @ adjoint(op)
        p = float(np.trace(conditioned).real)
        probabilities[alpha] = p
        if p < OUTCOME_PROB_FLOOR:
            final_states.append(None)
        else:
            final_states.append(_trace_out_middle(conditioned / p))
    return probabilities, final_states


def simulate(
    rho12: np.ndarray,
    channel: WernerChannel,
    strategy: BobStrategy | None = None,
) -> TeleportationReport:
    """Run the protocol by brute force over all four Bell outcomes.

    Builds the four-particle state ``rho12 (x) w34``, conjugates with the
    Bell projector on particles (2, 3) and the correction on particle 4,
    reads each outcome probability off the trace, and traces out particles
    (2, 3).  Entanglement and information of the final state are evaluated
    on the outcome-averaged state, which is not validated again: it is built
    from the validated ``rho12``.
    """
    rho12 = _single(check_density_matrix(rho12, dim=4))
    if not isinstance(channel, WernerChannel):
        raise ValueError("channel must be a WernerChannel")
    if strategy is None:
        strategy = _OPTIMAL_STRATEGY

    probabilities, final_states = _run_protocol(rho12, channel.state(), strategy)
    kept = [(p, s) for p, s in zip(probabilities, final_states) if s is not None]
    weight = sum(p for p, _ in kept)
    averaged = sum(p * s for p, s in kept) / weight
    averaged = (averaged + adjoint(averaged)) / 2
    fidelity = float(sum(p * np.trace(rho12 @ s).real for p, s in kept))

    return TeleportationReport(
        probabilities=probabilities,
        final_states=final_states,
        final_state=averaged,
        averaged_fidelity=fidelity,
        final_entanglement=_negativity(averaged).value,
        final_information=_information_decomposition(averaged),
    )


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
    return HilbertSchmidtForm(
        a=form0.a.copy(), b=channel.f * form0.b, c=channel.f * form0.c
    )


def fidelity_general(
    rho12: np.ndarray,
    channel: WernerChannel,
    strategy: BobStrategy | None = None,
) -> float:
    """Outcome-averaged overlap of the final state with the initial state.

    ``sum_alpha p_alpha Tr(rho12 rho14_alpha)``, from the brute-force
    simulation.  Maximised over strategies by :func:`optimal_strategy`.
    """
    return simulate(rho12, channel, strategy).averaged_fidelity


def _check_unit_interval(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")


# Each closed form once, for any w in [-1, 1]; ``verify`` also reads them at w = phi < 0,
# where the entanglement radicand can round below zero (it vanishes at w = -1/2, e0 = 1).
def _fidelity(e0: float, w: float) -> float:
    return (w + 2.0) / 3.0 + (w - 1.0) / 6.0 * e0 * e0


def _entanglement(e0: float, w: float) -> float:
    u = 1.0 - w
    return (math.sqrt(max(0.0, u * u + 3.0 * w * (2.0 + w) * e0 * e0)) - u) / 3.0


def _information(e0: float, w: float) -> InformationReport:
    g = _werner_f(w)
    e0sq = e0 * e0
    return InformationReport(
        total=(2.0 / 3.0) * (1.0 + 2.0 * g * g + (g * g - 1.0) * e0sq),
        individual_a=1.0 - e0sq,
        individual_b=g * g * (1.0 - e0sq),
        correlation=g * g * (2.0 / 3.0) * (4.0 - e0sq) * e0sq,
    )


def fidelity_closed_form(e0: float, ew: float) -> float:
    """Fidelity of the optimal protocol as a function of the entanglements.

    ``(ew + 2) / 3 + (ew - 1) / 6 * e0**2``; ``e0`` is the initial-state
    entanglement, ``ew`` the channel entanglement.  Lies in [1/2, 1]:
    1 for a perfect channel, down to 2/3 at ``e0 = ew = 0`` and 1/2 at
    ``e0 = 1, ew = 0``.
    """
    _check_unit_interval(e0=e0, ew=ew)
    return _fidelity(e0, ew)


def final_entanglement_closed_form(e0: float, ew: float) -> float:
    """Entanglement of the final state for initial ``e0`` and channel ``ew``.

    ``(sqrt((1 - ew)^2 + 3 ew (2 + ew) e0^2) - (1 - ew)) / 3``.  Zero when
    either argument is zero, equal to ``e0`` for a perfect channel, and
    strictly positive whenever both arguments are.
    """
    _check_unit_interval(e0=e0, ew=ew)
    return _entanglement(e0, ew)


def final_information_closed_form(e0: float, ew: float) -> InformationReport:
    """Information content of the final state, split as total/individual/correlation.

    With ``g = (2 ew + 1) / 3``: the untouched qubit keeps its individual
    information ``1 - e0^2``, the teleported qubit's is damped by ``g^2``,
    and so is the correlation information ``2 (4 - e0^2) e0^2 / 3`` of the
    initial state.
    """
    _check_unit_interval(e0=e0, ew=ew)
    return _information(e0, ew)


def correlation_info_from_entanglement(e: float, ew: float) -> float:
    """Correlation information of the final state in terms of its entanglement.

    Inverts the entanglement transfer to recover the initial entanglement,
    ``e0^2 = e (3 e + 2 (1 - ew)) / (ew (2 + ew))``, then applies the
    damped correlation-information form.  Requires ``ew > 0`` (the
    inversion divides by ``ew``); with an unentangled channel the final
    entanglement is identically zero and carries no information about
    ``e0``.  Zero if and only if ``e`` is zero.
    """
    if ew <= 0.0:
        raise ValueError(f"ew must be positive, got {ew}")
    _check_unit_interval(e=e, ew=ew)
    e0sq = e * (3.0 * e + 2.0 * (1.0 - ew)) / (ew * (2.0 + ew))
    g = _werner_f(ew)
    return g * g * (2.0 / 3.0) * e0sq * (4.0 - e0sq)
