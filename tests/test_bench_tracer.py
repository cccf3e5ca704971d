"""The benchmark's tracer names only functions the package still has.

``entbench/tracing.py`` wraps each ``(module, attribute)`` of its ``TRACED``
table; a traced benchmark run fails if one of them is renamed or deleted.  The
table is read with ``runpy``, which compiles the file without writing a
bytecode cache next to it.
"""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "entbench" / "tracing.py"


def test_every_traced_function_resolves():
    traced = runpy.run_path(str(TRACING))["TRACED"]
    assert traced
    for span, (module, attribute) in traced.items():
        assert callable(getattr(importlib.import_module(module), attribute, None)), span
