"""Spans around the package's public functions, and the per-layer reducer.

:class:`Tracer` wraps every public function and public method of the
``dihedral_lab`` modules, in every module namespace that binds it (``cli``
and ``comparison`` import their callees by name), plus the
``numpy.linalg`` / ``scipy.linalg`` entry points the package calls.  A
layer is the module that defines the function; linalg calls form the
``linalg`` layer.  Each span records name, layer, parent span, job id,
start, end and a few shape-derived attributes; spans stay in memory until
the run writes them out.

``Expr.eval`` is not spanned (it runs about a million times per
Gauss-Bonnet job); :class:`EvalCounter` counts it in a separate pass.

:func:`reduce_spans` turns the spans of one pass into the per-layer
metrics: calls and self time per layer, linalg time attributed to the
nearest enclosing package span, work counts, bytes computed from array
shapes (not measured), and per-call baseline rows (curvature per point,
Gauss-Bonnet per resolution, certificate per trial, Hardy per grid, index
per resolution, deficiency at lambda = 0.49).
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from collections import defaultdict

import numpy as np

MODULES = ("expressions", "curvature", "clifford", "comparison",
           "sector_spectra", "bessel", "corner_smoothing", "index_lab", "cli")
# private functions traced anyway: the bessel layer is reached only here
EXTRA = {"bessel._bessel_k"}
LINALG = ("svd", "eigvalsh", "eigh", "inv", "solve", "det", "matrix_rank",
          "lstsq", "qr", "norm")
EXPR_CLASSES = ("Expr", "Num", "Var", "Neg", "BinOp", "Call")

# span, name, layer, parent, job, start, end, attrs
NAME, LAYER, PARENT, JOB, START, END, ATTRS = range(7)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _operand_bytes(args, kwargs, result):
    """Bytes of the first operand, from its shape and dtype."""
    return {"bytes": int(np.asarray(args[0]).nbytes)}


# Attributes recorded for a few functions, all derived from arguments/results.
HOOKS = {
    "curvature.curvature_tensors": lambda a, k, r: {"n": a[0].dim},
    "curvature.gauss_bonnet_defect":
        lambda a, k, r: {"resolution": _arg(a, k, 2, "resolution", 12)},
    "comparison.curvature_certificate": lambda a, k, r: {"n": len(a[1])},
    "comparison.boundary_certificate": lambda a, k, r: {"n": len(a[1]) + 1},
    "comparison.sample_stratum": lambda a, k, r: {"samples": len(r)},
    "sector_spectra.hardy_norm":
        lambda a, k, r: {"grid": _arg(a, k, 2, "grid", 1200)},
    "sector_spectra.deficiency_test": lambda a, k, r: {"lam": a[0]},
    "sector_spectra.p_spectrum_numeric":
        lambda a, k, r: {"grid": _arg(a, k, 1, "grid", 4096)},
    "index_lab.index_experiment":
        lambda a, k, r: {"resolution": int(a[0].get("resolution", 8))},
    "index_lab.harmonic_dims": lambda a, k, r: {
        "cells": a[0].vertex_count + a[0].edge_count + a[0].face_count},
    **{f"linalg.{attr}": _operand_bytes for attr in LINALG},
}


def _package_modules():
    import importlib

    return {m: importlib.import_module(f"dihedral_lab.{m}") for m in MODULES}


class _Patcher:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` undoes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None
        self._patcher = _Patcher()

    # -- spans ---------------------------------------------------------------

    def call(self, name, layer, fn, args, kwargs, hook=None):
        spans = self.spans
        rec = [name, layer, self.stack[-1] if self.stack else -1, self.job,
               0.0, 0.0, None]
        self.stack.append(len(spans))
        spans.append(rec)
        rec[START] = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[END] = self.clock()
            self.stack.pop()
        if hook is not None:
            rec[ATTRS] = hook(args, kwargs, result)
        return result

    def _wrap(self, fn, name, layer):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, layer, fn, args, kwargs, hook)

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self):
        import numpy.linalg

        mods = _package_modules()
        wrapped = {}  # id(original) -> wrapper, shared by every namespace

        def wrapper_for(fn, name, layer):
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(fn, name, layer)
            return wrapped[id(fn)]

        for attr in LINALG:
            fn = getattr(numpy.linalg, attr)
            self._patcher.set(numpy.linalg, attr,
                              wrapper_for(fn, f"linalg.{attr}", "linalg"))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if home.startswith("scipy.linalg"):
                    self._patcher.set(mod, attr, wrapper_for(
                        obj, f"linalg.{obj.__name__}", "linalg"))
                elif home.startswith("dihedral_lab."):
                    layer = home.split(".")[-1]
                    name = f"{layer}.{obj.__name__}"
                    if not obj.__name__.startswith("_") or name in EXTRA:
                        self._patcher.set(mod, attr, wrapper_for(obj, name, layer))
        for layer, mod in mods.items():
            for cname, cls in list(vars(mod).items()):
                if (inspect.isclass(cls) and cls.__module__ == mod.__name__
                        and not cname.startswith("_") and cname not in EXPR_CLASSES
                        and not issubclass(cls, Exception)):
                    self._wrap_class(cls, f"{layer}.{cname}", layer)

    def _wrap_class(self, cls, prefix, layer):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{prefix}.{attr}"
            if inspect.isfunction(obj):
                self._patcher.set(cls, attr, self._wrap(obj, name, layer))
            elif isinstance(obj, classmethod):
                self._patcher.set(cls, attr,
                                  classmethod(self._wrap(obj.__func__, name, layer)))

    def uninstall(self):
        self._patcher.restore()


class EvalCounter:
    """Counts ``Expr.eval`` calls (every node of every expression tree)."""

    def __init__(self):
        self.count = 0
        self._patcher = _Patcher()

    def install(self):
        expressions = _package_modules()["expressions"]
        for cname in EXPR_CLASSES:
            cls = getattr(expressions, cname)
            if "eval" in vars(cls):
                self._patcher.set(cls, "eval", self._counting(vars(cls)["eval"]))

    def _counting(self, fn):
        @functools.wraps(fn)
        def wrapper(node, x):
            self.count += 1
            return fn(node, x)

        return wrapper

    def uninstall(self):
        self._patcher.restore()


# ---------------------------------------------------------------------------
# Reducer
# ---------------------------------------------------------------------------

LAYERS = ("cli", "expressions", "curvature", "clifford", "comparison",
          "sector_spectra", "bessel", "corner_smoothing", "index_lab", "linalg")

# baseline rows: (metric, span name, attribute, value, unit scale)
ROWS = (
    [(f"curvature.point_ms.n{n}", "curvature.curvature_tensors", "n", n, 1e3)
     for n in (2, 3, 4, 6)]
    + [(f"curvature.gaussbonnet_s.res{r}", "curvature.gauss_bonnet_defect",
        "resolution", r, 1.0) for r in (12, 24)]
    + [(f"comparison.cert_trial_ms.n{n}", "comparison.curvature_certificate",
        "n", n, 1e3) for n in (2, 4, 6)]
    + [(f"comparison.boundary_trial_ms.n{n}", "comparison.boundary_certificate",
        "n", n, 1e3) for n in (2, 4, 6)]
    + [(f"sector_spectra.hardy_s.grid{g}", "sector_spectra.hardy_norm",
        "grid", g, 1.0) for g in (1200, 2400)]
    + [(f"index_lab.index_s.k{k}", "index_lab.index_experiment",
        "resolution", k, 1.0) for k in (16, 24, 32)]
    + [("sector_spectra.deficiency_ms.lambda0.49", "sector_spectra.deficiency_test",
        "lam", 0.49, 1e3),
       ("sector_spectra.numeric_ms.grid4096", "sector_spectra.p_spectrum_numeric",
        "grid", 4096, 1e3)]
)
ROW_SPANS = frozenset(row[1] for row in ROWS)
COMPARE_SPANS = ("comparison.check_hypotheses", "comparison.check_conclusions")


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its child spans cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _enclosing_layer(spans, idx):
    parent = spans[idx][PARENT]
    while parent >= 0 and spans[parent][LAYER] == "linalg":
        parent = spans[parent][PARENT]
    return spans[parent][LAYER] if parent >= 0 else "cli"


def reduce_spans(spans) -> dict:
    """Per-layer metrics of one traced pass (every key always present)."""
    own = self_times(spans)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    for layer in ("curvature", "comparison", "sector_spectra", "index_lab"):
        out[f"{layer}.linalg_s"] = 0.0
    out.update({"curvature.points": 0, "comparison.samples": 0,
                "comparison.cert_trials": 0, "comparison.eig_bytes": 0,
                "sector_spectra.kernel_bytes": 0, "index_lab.cells": 0,
                "index_lab.rank_bytes": 0})
    groups = defaultdict(list)
    compare = []
    for idx, s in enumerate(spans):
        name, layer, attrs = s[NAME], s[LAYER], s[ATTRS] or {}
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += own[idx]
        dur = s[END] - s[START]
        if layer == "linalg":
            home = _enclosing_layer(spans, idx)
            if f"{home}.linalg_s" in out:
                out[f"{home}.linalg_s"] += dur
            if home == "comparison" and name in ("linalg.eigvalsh", "linalg.eigh"):
                out["comparison.eig_bytes"] += attrs["bytes"]
            if home == "index_lab" and name == "linalg.matrix_rank":
                out["index_lab.rank_bytes"] += attrs["bytes"]
            continue
        if name == "curvature.curvature_tensors":
            out["curvature.points"] += 1
        elif name == "comparison.sample_stratum":
            out["comparison.samples"] += attrs["samples"]
        elif name == "comparison.curvature_certificate":
            out["comparison.cert_trials"] += 1
        elif name == "sector_spectra.hardy_norm":
            out["sector_spectra.kernel_bytes"] += 8 * attrs["grid"] ** 2
        elif name == "index_lab.harmonic_dims":
            out["index_lab.cells"] += attrs["cells"]
        elif name in COMPARE_SPANS:
            compare.append(dur)
        if name in ROW_SPANS:
            for key, value in attrs.items():
                groups[(name, key, value)].append(dur)
    for metric, name, key, value, scale in ROWS:
        durs = groups.get((name, key, value))
        out[metric] = scale * statistics.fmean(durs) if durs else 0.0
    out["comparison.compare_s"] = statistics.fmean(compare) if compare else 0.0
    return out
