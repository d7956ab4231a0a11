"""Spans around calls into the program's public functions.

The tracer wraps public functions of ``braidosc.weightspace`` and
``braidosc.braid`` wherever the package binds them, so calls made by the
benchmark and calls between the program's own modules are both timed.
Spans (name, start, end, parent) stay in memory and are written once at
the end of the run.  A layer's self time is its spans' durations minus
the time of their child spans.  Sizes and health values are read off the
returned objects after each span has closed.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

import numpy as np

import braidosc
from braidosc import braid, weightspace

MODULES = (braidosc, weightspace, braid)


def _exact(mats):
    return not isinstance(mats[0].entries, np.ndarray)


def _build_layer(args, kwargs):
    route = kwargs.get("route", "rewrite")
    backend = kwargs.get("backend") or ("numeric" if kwargs.get("ctx") is not None else "laurent")
    if route == "direct":
        return "braid.direct"
    return "braid.rewrite_exact" if backend == "laurent" else "braid.rewrite_numeric"


# function name -> span name, or a function of (args, kwargs) giving it
LAYERS = {
    (weightspace, "weight_basis"): "weightspace.weight_basis",
    (weightspace, "lowest_weight_kernel"): "weightspace.kernel_svd",
    (weightspace, "lowest_weight_kernel_exact"): "weightspace.kernel_exact",
    (weightspace, "lowest_weight_monomials"): "weightspace.monomials",
    (weightspace, "span_residual"): "weightspace.span_residual",
    (weightspace, "verify_decomposition"): "weightspace.decomposition",
    (braid, "build_matrices"): _build_layer,
    (braid, "braid_relation_defect"):
        lambda a, k: "braid.relations_exact" if _exact(a[0]) else "braid.relations_numeric",
    (braid, "inverse_defect"):
        lambda a, k: "braid.inverse_exact" if _exact(a[0]) else "braid.inverse_numeric",
    (braid, "evaluate_word"): "braid.word",
    (braid, "family_to_json"): "braid.to_json",
}

TIMED_LAYERS = (
    "weightspace.weight_basis", "weightspace.kernel_svd", "weightspace.monomials",
    "weightspace.span_residual", "weightspace.decomposition", "weightspace.kernel_exact",
    "braid.direct", "braid.rewrite_exact", "braid.relations_exact", "braid.inverse_exact",
    "braid.rewrite_numeric", "braid.relations_numeric", "braid.inverse_numeric",
    "braid.word", "braid.to_json",
    "cli.import", "cli.dims", "cli.matrix", "cli.word", "cli.verify",
)


SIZES = ("weightspace.weight_dim", "weightspace.lowest_dim", "braid.sectors", "braid.nnz")
HEALTH = ("braid.nnz_ratio", "weightspace.gram_cond", "braid.solve_residual")

# Every per-layer metric with its unit, in report order.
PER_LAYER = dict(
    [(name + "_s", "s") for name in TIMED_LAYERS]
    + [(name, "count") for name in SIZES]
    + [(name, "ratio") for name in HEALTH]
    + [("trace.wall_s", "s"), ("trace.coverage", "ratio")]
)


def _nnz(entries):
    if isinstance(entries, np.ndarray):
        return int(np.count_nonzero(entries)), entries.size
    return sum(1 for row in entries for e in row if e.terms), len(entries) ** 2


class Recorder:
    """In-memory span list plus running size and health maxima."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.sizes = {
            "weightspace.weight_dim": 0, "weightspace.lowest_dim": 0, "braid.sectors": 0,
            "braid.nnz": 0, "braid.entries": 0, "weightspace.gram_cond": 0.0,
            "braid.solve_residual": 0.0,
        }

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def observe(self, name, result):
        s = self.sizes
        if name == "weightspace.weight_basis":
            s["weightspace.weight_dim"] = max(s["weightspace.weight_dim"], len(result))
        elif name in ("weightspace.kernel_svd", "weightspace.monomials"):
            s["weightspace.lowest_dim"] = max(s["weightspace.lowest_dim"], len(result.vectors))
            if name == "weightspace.monomials" and len(result.vectors):
                s["weightspace.gram_cond"] = max(s["weightspace.gram_cond"], float(np.linalg.cond(result.gram)))
        elif name.startswith("braid.rewrite") or name == "braid.direct":
            s["braid.sectors"] = max(s["braid.sectors"], len({el.sector for el in result[0].basis}))
            for m in result:
                nnz, size = _nnz(m.entries)
                s["braid.nnz"] += nnz
                s["braid.entries"] += size
                if m.solve_residual is not None:
                    s["braid.solve_residual"] = max(s["braid.solve_residual"], m.solve_residual)

    def self_times(self):
        """Self time per span name: duration minus that of child spans."""
        out = {}
        for name, start, end, parent in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
            if parent is not None:
                pname = self.spans[parent][0]
                out[pname] = out.get(pname, 0.0) - (end - start)
        return out

    def covered(self, since=0):
        """Time inside top-level spans opened at index >= since."""
        return sum(e - s for _, s, e, p in self.spans[since:] if p is None)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": [{"name": n, "start": s, "end": e, "parent": p}
                                 for n, s, e, p in self.spans]}, fh)
            fh.write("\n")


def wrap(fn, layer, recorder):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        name = layer(args, kwargs) if callable(layer) else layer
        with recorder.span(name):
            result = fn(*args, **kwargs)
        recorder.observe(name, result)
        return result

    return traced


@contextlib.contextmanager
def tracing(recorder):
    """Wrap every listed function wherever the package binds it."""
    patched = []
    for (module, attr), layer in LAYERS.items():
        fn = getattr(module, attr)
        traced = wrap(fn, layer, recorder)
        for mod in MODULES:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, name, traced)
                    patched.append((mod, name, fn))
    try:
        yield recorder
    finally:
        for mod, name, fn in patched:
            setattr(mod, name, fn)
