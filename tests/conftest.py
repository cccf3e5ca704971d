import os
from pathlib import Path

import numpy as np
import pytest

# pyproject.toml puts src/ on this process's path; subprocesses the tests start
# (``python -m entport.cli``) import the package from the same checkout.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)


def random_density_matrix(gen: np.random.Generator, dim: int = 4) -> np.ndarray:
    """Ginibre-induced random density matrix."""
    g = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_global_unitary(gen: np.random.Generator, dim: int = 4) -> np.ndarray:
    """Haar-ish random unitary from the QR decomposition of a Ginibre matrix."""
    g = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))
