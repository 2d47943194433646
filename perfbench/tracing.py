"""In-memory span recorder attached to memwave's layer boundaries from outside.

No memwave source is changed: each layer function is replaced, under every
name it is looked up by, with a wrapper that records a span (name, start,
end, parent, run id) and the layer's work counts.  A function imported by
name into another module (``moving.solve_cubic``, ``control.hermitian_solve``)
is a separate binding, so patching only the defining module would miss the
calls made through it.  Spans stay in memory and are written out by the
caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np


def _compensator_counts(tracer, args, kwargs):
    comp, z = args[0], args[1] if len(args) > 1 else kwargs["z"]
    points = int(np.size(z))
    zeros = len(comp.t)
    tracer.counts["product.GrowthCompensator.log_eval.points"] += points
    tracer.counts["product.compensator.pair_evals"] += points * zeros
    tracer.counts["product.compensator.zeros"] = max(tracer.counts["product.compensator.zeros"], zeros)


def _product_points(tracer, args, kwargs):
    z = args[1] if len(args) > 1 else kwargs["z"]
    tracer.counts["product.ProductFunction.log_eval.points"] += int(np.size(z))


def _window_attempt(tracer, args, kwargs):
    if "biorthogonal.build_biorthogonal" in tracer.active_names():
        tracer.counts["biorthogonal.window_attempts"] += 1


# span name -> (bindings as (module, attribute path), hook run before the call)
LAYERS = {
    "fractional.build_eigenvalue_table": ([("memwave.fractional", "build_eigenvalue_table")], None),
    "cubic.solve_cubic": ([("memwave.cubic", "solve_cubic"), ("memwave.moving", "solve_cubic"),
                           ("memwave.product", "solve_cubic")], None),
    "moving.build_moving_spectrum": ([("memwave.moving", "build_moving_spectrum")], None),
    "moving.gap_diagnostics": ([("memwave.moving", "gap_diagnostics")], None),
    "moving.frame_bounds": ([("memwave.moving", "frame_bounds")], None),
    "product.ProductFunction.log_eval": ([("memwave.product", "ProductFunction.log_eval")], _product_points),
    "product.GrowthCompensator.log_eval": ([("memwave.product", "GrowthCompensator.log_eval")],
                                           _compensator_counts),
    "product.growth_compensator": ([("memwave.product", "growth_compensator"),
                                    ("memwave.biorthogonal", "growth_compensator")], _window_attempt),
    "biorthogonal.build_biorthogonal": ([("memwave.biorthogonal", "build_biorthogonal")], None),
    "biorthogonal.verify_lower_summation": ([("memwave.biorthogonal", "verify_lower_summation")], None),
    "control.assemble_gram": ([("memwave.control", "assemble_gram")], None),
    "control.assemble_gram_mp": ([("memwave.control", "_assemble_gram_mp")], None),
    "control.synthesize_control": ([("memwave.control", "synthesize_control")], None),
    "control.certify_observability": ([("memwave.control", "certify_observability")], None),
    "hp.MpSpectrum": ([("memwave.hp", "MpSpectrum.__init__")], None),
    "hp.hermitian_solve": ([("memwave.hp", "hermitian_solve"), ("memwave.control", "hermitian_solve")], None),
    "hp.lu_solve": ([("mpmath", "lu_solve")], None),
    "simulate.run_to_T": ([("memwave.simulate", "GalerkinSimulator.run_to_T")], None),
    "simulate.terminal_norms_mp": ([("memwave.simulate", "GalerkinSimulator._terminal_norms_mp")], None),
    "simulate.verify_duality": ([("memwave.simulate", "verify_duality")], None),
}
ROOT = "runner.run_pipeline"


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []

    def active_names(self):
        return [self.spans[i][0] for i in self.stack]

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, time.perf_counter(), None, self.stack[-1] if self.stack else None]
        self.spans.append(record)
        self.stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(self, args, kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def instrument(self) -> None:
        """Patch every binding in LAYERS; a layer with no binding left is missing."""
        for name, (bindings, hook) in LAYERS.items():
            found = False
            for module_name, path in bindings:
                *owner_path, attr = path.split(".")
                try:
                    owner = importlib.import_module(module_name)
                    for part in owner_path:
                        owner = getattr(owner, part)
                    fn = getattr(owner, attr)
                except (ImportError, AttributeError):
                    continue
                setattr(owner, attr, self.wrap(name, fn, hook))
                found = True
            if not found:
                self.missing.append(name)

    def layer_totals(self) -> dict:
        """Per span name: calls and self time (duration minus direct children)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return {"calls": dict(calls), "self_s": dict(self_s)}

    def export(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [{"name": n, "start": s, "end": e, "parent": p, "run_id": self.run_id}
                      for n, s, e, p in self.spans],
            "counts": dict(self.counts),
            "missing": list(self.missing),
            **self.layer_totals(),
        }
