"""Outside-in spans around the public functions of each ``dhn`` module.

The library is not edited: ``install`` replaces each listed function, in every
``dhn`` module that holds a reference to it, by a wrapper that records a span
(name, start, end, parent).  Callers inside the library look these names up in
their own module globals at call time, so patching every reference covers the
calls the library makes to itself.  Classes are traced through their
``__init__``.  ``restore`` puts the originals back.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import scipy.sparse as sp

# Layer (dhn module) -> public names whose calls are timed.  A name that the
# library no longer has is reported as absent, not as a failure.
LAYERS = {
    "cli": ("main", "cluster_command"),
    "io": ("load_edge_list", "result_document", "write_result"),
    "clustering": ("WeightedGraph", "d_cut_value", "clustering_from_matrix"),
    "modularity": (
        "modularity_matrix",
        "build_lms_network",
        "modularity_score",
        "run_lms",
        "run_plms",
    ),
    "core": (
        "DhnNetwork",
        "run_serial",
        "run_parallel",
        "parallel_step",
        "energy",
        "serial_step",
        "stiefel_project",
    ),
    "stiefel": ("run_gnm", "run_gnm_plus_lms"),
    "embedding": ("run_cleora", "l2_normalize_rows", "write_embedding"),
}

SPAN_NAMES = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)

# Per-layer metrics besides <span>.s, <span>.self_s and <span>.calls, with units.
EXTRA_METRICS = (
    ("core.run_serial.sweeps", "count"),
    ("core.run_serial.s_per_sweep", "s/sweep"),
    ("core.run_parallel.steps", "count"),
    ("core.run_parallel.budget_exhausted", "count"),
    ("core.parallel_step.s_per_call", "s/call"),
    ("core.weights_stored", "count"),
    ("core.weights_bytes", "B"),
    ("io.input_bytes", "B"),
    ("io.result_bytes", "B"),
    ("embedding.emb_bytes", "B"),
    ("cli.import_s", "s"),
    ("trace.cluster_s", "s"),
    ("trace.overhead_frac", "1"),
    ("quality.modularity", "1"),
    ("quality.nmi", "1"),
    ("quality.nn_block_share", "1"),
)


def per_layer_metrics() -> list:
    """Every metric a traced run reports, as (name, unit)."""
    out = []
    for span in SPAN_NAMES:
        out += [(f"{span}.s", "s"), (f"{span}.self_s", "s"), (f"{span}.calls", "count")]
    return out + list(EXTRA_METRICS)


# Counters read off arguments or results at a span's end, by span name.
# Each takes (counts, args, result).
def _count_run_serial(counts, args, result):
    counts["core.run_serial.sweeps"] += getattr(result, "iterations", 0)


def _count_run_parallel(counts, args, result):
    counts["core.run_parallel.steps"] += getattr(result, "iterations", 0)
    outcome = getattr(getattr(result, "outcome", None), "value", None)
    counts["core.run_parallel.budget_exhausted"] += outcome == "budget_exhausted"


def _count_network(counts, args, result):
    weights = getattr(args[0], "weights", None)  # args[0] is the instance __init__ built
    if sp.issparse(weights):
        counts["core.weights_stored"] += weights.nnz
        counts["core.weights_bytes"] += weights.data.nbytes + weights.indices.nbytes + weights.indptr.nbytes
    elif weights is not None:
        counts["core.weights_stored"] += weights.size
        counts["core.weights_bytes"] += weights.nbytes


COUNTERS = {
    "core.run_serial": _count_run_serial,
    "core.run_parallel": _count_run_parallel,
    "core.DhnNetwork": _count_network,
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]; -1 is no parent."""

    def __init__(self):
        self.spans: list = []
        self.counts: defaultdict = defaultdict(float)
        self._stack: list = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1] = start
                self.spans[index][2] = end
            if counter is not None:
                counter(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def totals(self) -> dict:
        """Per span name: total seconds ``s``, ``self_s`` (children excluded), ``calls``."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for (name, start, end, _), children in zip(self.spans, child_time):
            entry = out[name]
            entry["s"] += end - start
            entry["self_s"] += end - start - children
            entry["calls"] += 1
        return dict(out)


def install(tracer: Tracer):
    """Wrap every listed name; return (undo list, absent span names)."""
    homes = {}
    for layer in LAYERS:
        try:
            homes[layer] = importlib.import_module(f"dhn.{layer}")
        except ModuleNotFoundError:
            homes[layer] = None
    modules = [importlib.import_module("dhn")] + [m for m in homes.values() if m is not None]
    undo, absent = [], []
    for layer, names in LAYERS.items():
        for name in names:
            span = f"{layer}.{name}"
            original = getattr(homes[layer], name, None)
            if isinstance(original, type):
                init = vars(original).get("__init__")
                if init is None:
                    absent.append(span)
                    continue
                undo.append((original, "__init__", init))
                original.__init__ = tracer.wrap(span, init)
            elif original is None:
                absent.append(span)
            else:
                traced = tracer.wrap(span, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, attr, original))
                            setattr(module, attr, traced)
    return undo, absent


def restore(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
