"""Fixtures and helpers that more than one test module uses, each defined once here.

- ``ROOT``, ``RESULTS``: the checkout's root directory and its ``results/``.
- ``GRID_BLOCK``: the points in one block of ``simulate_grid``.
- ``HAND_PAULIS``: the Pauli matrices written out, for references that skip the package's.
- ``rng``: a fixture, a ``numpy.random.Generator`` seeded with 20240801.
- ``eigvalsh_shapes``: a fixture, the shape of every ``np.linalg.eigvalsh`` call in order.
- ``ginibre_states``: ``n`` random density matrices ``g g^dagger / Tr`` of Ginibre ``g``.
- ``random_global_unitary``: a unitary from the QR decomposition of a Ginibre matrix.
- ``platform_signature``: what the bits of a BLAS product or an eigensolve depend on.
- ``platform_note``: a pinned test's failure message, with the pinned and this signature.
- ``identical``: equal shapes, values and sign bits of the real and the imaginary parts.
- ``without_timestamp``: the lines of an output file, less verify's timestamp line.
- ``load_script``: a module of ``scripts/``, loaded from its file.
- ``traced_peak``: the peak of the memory ``tracemalloc`` traces while a call runs.
- ``term_by_term``: the Pauli-expansion sum from ``HAND_PAULIS``, one term at a time.

A test module imports them with ``from conftest import ...`` and defines none
of them again; no test module imports another (``tests/test_shared_helpers.py``).
"""

import ctypes
import importlib.util
import json
import os
import tracemalloc
from collections.abc import Callable
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

from entport.matkernel import STACK_BLOCK

#: The checkout: ``src/``, ``tests/``, ``scripts/``, ``results/`` and README.md.
ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"

# pyproject.toml puts src/ on this process's path; subprocesses the tests start
# (``python -m entport.cli``) import the package from the same checkout.
_SRC = str(ROOT / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

#: The platform signature that the pinned bits of ``results/``,
#: ``TestPinnedAxiomValues`` and ``test_verify_seeds.py`` were made on.
PINNED_PLATFORM = Path(__file__).with_name("pinned_platform.json")


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)


#: Points per block of ``simulate_grid``: a point counts as 16 4x4 matrices.
GRID_BLOCK = STACK_BLOCK // 16

#: The Pauli matrices x, y, z.
HAND_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@pytest.fixture
def eigvalsh_shapes(monkeypatch) -> list[tuple[int, ...]]:
    """The shape of every ``np.linalg.eigvalsh`` call, in call order.

    The patch is where ``matkernel`` looks the function up, so its calls count.
    """
    shapes = []
    real = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return shapes


def ginibre_states(gen: np.random.Generator, n: int, rank: int, dim: int = 4) -> np.ndarray:
    """``n`` density matrices ``g g^dagger / Tr`` of complex Gaussian dim x rank ``g``."""
    g = gen.standard_normal((n, dim, rank)) + 1j * gen.standard_normal((n, dim, rank))
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


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


def identical(a, b) -> bool:
    """Equal shapes, values and sign bits, of the real and the imaginary parts apart.

    ``np.array_equal`` alone takes -0.0 == 0.0.
    """
    a, b = np.asarray(a), np.asarray(b)
    parts = (np.real, np.imag) if np.iscomplexobj(a) or np.iscomplexobj(b) else (np.real,)
    return a.shape == b.shape and all(
        np.array_equal(part(a), part(b))
        and np.array_equal(np.signbit(part(a)), np.signbit(part(b)))
        for part in parts
    )


def without_timestamp(data: bytes) -> list[bytes]:
    """The lines of an output file, less verify's ``"timestamp":`` line."""
    return [
        line
        for line in data.splitlines(keepends=True)
        if not line.lstrip().startswith(b'"timestamp":')
    ]


def load_script(name: str) -> ModuleType:
    """``scripts/<name>.py``, loaded as a module (the scripts are not a package)."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_peak(run: Callable[[], object]) -> int:
    """The peak of the memory ``tracemalloc`` traces while ``run()`` runs, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def term_by_term(a, b, c) -> np.ndarray:
    """``(1/4) [1 + sum of coefficient * basis matrix]`` over all 15 Pauli
    products in ``hs_compose_stack``'s order, zero coefficients included,
    with every basis matrix built by ``np.kron`` when it is used."""
    eye2 = np.eye(2, dtype=complex)
    rho = np.eye(4, dtype=complex)
    for n in range(3):
        rho = rho + a[..., n, None, None] * np.kron(HAND_PAULIS[n], eye2)
        rho = rho + b[..., n, None, None] * np.kron(eye2, HAND_PAULIS[n])
        for m in range(3):
            rho = rho + c[..., n, m, None, None] * np.kron(HAND_PAULIS[n], HAND_PAULIS[m])
    return rho / 4.0
