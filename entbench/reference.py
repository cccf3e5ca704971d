"""Reference values for the benchmark's output checks, written apart from entport.

Nothing here imports the package under test.  The sweep reference uses the
depolarizing-map form of the protocol: with the standard corrections the
Werner channel leaves the first qubit alone and shrinks the second qubit's
Bloch vector and the correlations by ``f = (2 phi + 1) / 3``, which is

    rho14 = f rho12 + (1 - f) rho1 (x) 1/2.

Fidelity, partial-transpose negativity and the purity-based information are
then evaluated on that state with plain numpy.  The closed forms are the
paper's formulas (Lee & Kim, PRL 84, 4236), written out again here.
"""

from __future__ import annotations

import math

import numpy as np


def canonical_pure_state(c0: float) -> np.ndarray:
    """alpha|00> + beta|11> with 2 alpha beta = c0: Bloch vectors (0, 0, a0), correlations diag(c0, -c0, 1)."""
    a0 = math.sqrt(max(0.0, 1.0 - c0 * c0))
    alpha = math.sqrt((1.0 + a0) / 2.0)
    beta = math.copysign(math.sqrt((1.0 - a0) / 2.0), c0)
    psi = np.array([alpha, 0.0, 0.0, beta], dtype=complex)
    return np.outer(psi, psi.conj())


def reduced(rho: np.ndarray, keep: int) -> np.ndarray:
    r = rho.reshape(2, 2, 2, 2)
    return np.einsum("ikjk->ij", r) if keep == 0 else np.einsum("kikj->ij", r)


def depolarized(rho12: np.ndarray, phi: float) -> np.ndarray:
    f = (2.0 * phi + 1.0) / 3.0
    return f * rho12 + (1.0 - f) * np.kron(reduced(rho12, 0), np.eye(2) / 2.0)


def negativity(rho: np.ndarray) -> float:
    """Minus twice the sum of all negative partial-transpose eigenvalues."""
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    eigs = np.linalg.eigvalsh(pt)
    return float(-2.0 * eigs[eigs < 0.0].sum())


def _purity(rho: np.ndarray) -> float:
    return float(np.trace(rho @ rho).real)


def information(rho: np.ndarray) -> tuple[float, float, float, float]:
    """(total, individual_a, individual_b, correlation) from purities."""
    total = (2.0 / 3.0) * (4.0 * _purity(rho) - 1.0)
    ia = 2.0 * _purity(reduced(rho, 0)) - 1.0
    ib = 2.0 * _purity(reduced(rho, 1)) - 1.0
    return total, ia, ib, total - (2.0 / 3.0) * (ia + ib + ia * ib)


def sweep_reference(e0: float, phi: float) -> dict[str, float]:
    """Fidelity, negativity and information of the teleported state."""
    rho12 = canonical_pure_state(e0)
    rho14 = depolarized(rho12, phi)
    total, ia, ib, ic = information(rho14)
    return {
        "fidelity": float(np.trace(rho12 @ rho14).real),
        "negativity": negativity(rho14),
        "info_total": total,
        "info_i1": ia,
        "info_i4": ib,
        "info_ic": ic,
    }


def paper_closed_forms(e0: float, phi: float) -> dict[str, float]:
    """The paper's closed forms at ew = max(0, phi)."""
    ew = max(0.0, phi)
    u = 1.0 - ew
    g2 = ((2.0 * ew + 1.0) / 3.0) ** 2
    e0sq = e0 * e0
    return {
        "ew": ew,
        "fidelity_closed": (ew + 2.0) / 3.0 + (ew - 1.0) / 6.0 * e0sq,
        "ent_final_closed": (math.sqrt(u * u + 3.0 * ew * (2.0 + ew) * e0sq) - u) / 3.0,
        "info_total": (2.0 / 3.0) * (1.0 + 2.0 * g2 + (g2 - 1.0) * e0sq),
        "info_i1": 1.0 - e0sq,
        "info_i4": g2 * (1.0 - e0sq),
        "info_ic": g2 * (2.0 / 3.0) * (4.0 - e0sq) * e0sq,
    }


def entropy_of_negativity(e: float) -> float:
    """S(E) = H2((1 + sqrt(1 - E^2)) / 2), with the small root taken without cancellation."""
    small = e * e / (2.0 * (1.0 + math.sqrt(max(0.0, 1.0 - e * e))))
    large = 1.0 - small
    return -sum(p * math.log2(p) for p in (small, large) if p > 0.0)
