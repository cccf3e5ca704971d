import ctypes
import json
import os
from pathlib import Path

import numpy as np
import pytest

# pyproject.toml puts src/ on this process's path; subprocesses the tests start
# (``python -m entport.cli``) import the package from the same checkout.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

#: The platform signature that the pinned bits of ``results/``,
#: ``TestPinnedAxiomValues`` and ``test_verify_seeds.py`` were made on.
PINNED_PLATFORM = Path(__file__).with_name("pinned_platform.json")


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


def platform_signature() -> dict[str, str]:
    """What the bits of a BLAS product, an eigensolve or a SIMD loop depend on here.

    The numpy version; the version and the core name of the OpenBLAS that
    numpy loaded, which picks its kernel when it loads (``OPENBLAS_CORETYPE``
    overrides it); and the SIMD targets numpy dispatches to, with
    ``NPY_DISABLE_CPU_FEATURES``, which turns some of them off.  The OpenBLAS
    fields read "unknown" when numpy does not ship ``scipy_openblas64``.
    """
    from numpy._core import _multiarray_umath as umath

    openblas = core = "unknown"
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"))
    if libs:
        lib = ctypes.CDLL(str(libs[0]))  # the copy numpy loaded, not a second one
        for function in (lib.scipy_openblas_get_config64_, lib.scipy_openblas_get_corename64_):
            function.argtypes, function.restype = [], ctypes.c_char_p
        openblas = " ".join(lib.scipy_openblas_get_config64_().decode().split()[:2])
        core = lib.scipy_openblas_get_corename64_().decode()
    return {
        "numpy": np.__version__,
        "openblas": openblas,
        "openblas_core": core,
        "simd": " ".join(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)),
        "npy_disable_cpu_features": os.environ.get("NPY_DISABLE_CPU_FEATURES", ""),
    }


def platform_note() -> str:
    """A pinned test's failure message: the signature its pins were made on, and this one."""
    recorded = json.loads(PINNED_PLATFORM.read_text())
    return f"pinned on {recorded}; this run is on {platform_signature()}"
