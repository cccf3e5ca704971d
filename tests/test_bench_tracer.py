"""The benchmark's tracer names only functions the package still has.

``entbench/tracing.py`` wraps each ``(module, attribute)`` of its ``TRACED``
table; a traced benchmark run fails if one of them is renamed or deleted.  The
tracer imports nothing: ``Tracer.install`` reads each module from
``sys.modules`` after the benchmark worker has run ``from entport import cli``,
so a traced run also fails if that import stops loading a traced module.  The
table is read with ``runpy``, which compiles the file without writing a
bytecode cache next to it.
"""

import importlib
import json
import runpy
import subprocess
import sys

from conftest import ROOT

TRACING = ROOT / "entbench" / "tracing.py"


def test_every_traced_function_resolves():
    traced = runpy.run_path(str(TRACING))["TRACED"]
    assert traced
    for span, (module, attribute) in traced.items():
        assert callable(getattr(importlib.import_module(module), attribute, None)), span


def test_importing_the_cli_loads_every_traced_module():
    # A fresh interpreter, as the benchmark worker is: only the import of the
    # CLI may load the modules, not this test's own imports.
    traced = runpy.run_path(str(TRACING))["TRACED"]
    code = (
        "import json, sys\n"
        "import entport.cli\n"
        f"traced = json.loads({json.dumps(traced)!r})\n"
        "print(json.dumps(sorted(span for span, (module, attribute) in traced.items()\n"
        "    if not callable(getattr(sys.modules.get(module), attribute, None)))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == []
