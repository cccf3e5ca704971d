"""Spans around entport's public functions, recorded from outside the package.

``Tracer.install`` wraps each function in ``TRACED`` and rebinds the wrapper
under every name that holds the original in any loaded ``entport`` module,
because the modules import each other's functions by name.  ``numpy.linalg
.eigvalsh`` is rebound on ``numpy.linalg`` itself, which is where entport
looks it up.  Spans (name, start, end, parent) are kept in memory while the
tracer is active and summarised per pass.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

#: Span name -> (module, attribute) of each traced function.
TRACED = {
    "cli.main": ("entport.cli", "main"),
    "matkernel.check_density_matrix": ("entport.matkernel", "check_density_matrix"),
    "matkernel.herm_eigvals": ("entport.matkernel", "herm_eigvals"),
    "matkernel.partial_transpose": ("entport.matkernel", "partial_transpose"),
    "matkernel.partial_trace": ("entport.matkernel", "partial_trace"),
    "matkernel.tensor": ("entport.matkernel", "tensor"),
    "states.hs_compose": ("entport.states", "hs_compose"),
    "states.bell_projector": ("entport.states", "bell_projector"),
    "states.werner_state": ("entport.states", "werner_state"),
    "states.seed_state": ("entport.states", "seed_state"),
    "states.rotated_pure_state": ("entport.states", "rotated_pure_state"),
    "entanglement.negativity": ("entport.entanglement", "negativity"),
    "entanglement.entropy_of_entanglement": ("entport.entanglement", "entropy_of_entanglement"),
    "information.information_decomposition": ("entport.information", "information_decomposition"),
    "teleport.simulate": ("entport.teleport", "simulate"),
    "axioms.check_c1": ("entport.axioms", "check_c1"),
    "axioms.check_c2": ("entport.axioms", "check_c2"),
    "axioms.check_c3": ("entport.axioms", "check_c3"),
    "axioms.sample_lgm_cc": ("entport.axioms", "sample_lgm_cc"),
    "numpy.eigvalsh": ("numpy.linalg", "eigvalsh"),
}

#: Reported call counts and self times; layer self times sum a module's spans.
CALLS = [name for name in TRACED if name != "cli.main" and not name.startswith("axioms.check_")]
SELF_TIMES = [
    "matkernel.check_density_matrix", "numpy.eigvalsh", "states.hs_compose",
    "entanglement.negativity", "entanglement.entropy_of_entanglement",
    "information.information_decomposition", "teleport.simulate",
    "axioms.check_c1", "axioms.check_c2", "axioms.check_c3",
]
LAYER_SELF_TIMES = ["matkernel", "states", "cli"]


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.matrices = 0
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            if name == "numpy.eigvalsh":
                shape = np.shape(args[0])
                self.matrices += int(np.prod(shape[:-2], dtype=int))
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self) -> None:
        holders = [m for key, m in sys.modules.items()
                   if key == "entport" or key.startswith("entport.")]
        holders.append(np.linalg)
        for name, (module, attr) in TRACED.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)

    def start(self) -> None:
        self.spans, self.matrices, self._stack = [], 0, []
        self.active = True

    def stop(self) -> dict:
        """Deactivate and return this pass's call counts and self times."""
        self.active = False
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += end - start - inner
        return {"calls": dict(calls), "self_s": dict(self_s), "matrices": self.matrices}


def layer_metrics(passes: list[dict], items: int, output_bytes: int, overhead_s: float) -> dict:
    """Per-layer metrics from the summaries of several traced passes of one input.

    Counts must repeat exactly from pass to pass; times are medians.
    """
    first = passes[0]
    for other in passes[1:]:
        if other["calls"] != first["calls"] or other["matrices"] != first["matrices"]:
            raise RuntimeError("call counts differ between traced passes of the same input")

    def median_self(select) -> float:
        return statistics.median(
            sum((t for name, t in p["self_s"].items() if select(name)), 0.0) for p in passes
        )

    metrics = {f"{name}.calls": (first["calls"].get(name, 0), "count") for name in CALLS}
    metrics.update(
        {f"{name}.self_s": (median_self(lambda n, name=name: n == name), "s") for name in SELF_TIMES}
    )
    metrics.update(
        {f"{layer}.self_s": (median_self(lambda n, layer=layer: n.split(".")[0] == layer), "s")
         for layer in LAYER_SELF_TIMES}
    )
    metrics["matkernel.validations_per_item"] = (
        first["calls"].get("matkernel.check_density_matrix", 0) / items, "count/item")
    metrics["numpy.eigvalsh.matrices"] = (first["matrices"], "count")
    metrics["cli.output_bytes"] = (output_bytes, "B")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
