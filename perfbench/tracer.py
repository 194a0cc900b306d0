"""Outside-in span tracer for the nilcollapse benchmark.

The tracer records spans from outside the package: it replaces public
functions of `lab`, `superconnection`, `numerics`, `spectral` and `lie`, and
selected methods at class level, with wrappers that open and close a span.
A function that another module imported by name (``from .numerics import
rank_exact``) is replaced in that module too, so every call site is seen.
Spans stay in memory; `uninstall` puts every original back.

A span is ``[name, start, end, parent, pass_id]``. A layer's self time is a
span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# Public module-level functions wrapped per module. Cheap helpers that run in
# inner loops (multi_indices, sort_with_sign, _to_fraction) are left out: a
# span around them would cost more than the work it measures.
FUNCTIONS = {
    "lab": ["run"],
    "superconnection": ["spectrum", "check_flatness", "from_affine_bundle",
                        "circle_bundle_model"],
    "numerics": ["rank_exact", "nullspace_exact", "solve_exact",
                 "quotient_dim", "sym_eig", "gen_sym_eig"],
    "spectral": ["page", "stabilization_index", "e_infinity",
                 "verify_page_recursion", "predict_small_count",
                 "classify_obstruction", "compound_exact", "form_action",
                 "inverse_exact", "flat_bundle_complex", "contraction_blocks",
                 "cohomology_action", "unipotent_factor",
                 "minimal_polynomial", "generalized_one_eigenspace_dim",
                 "joint_generalized_one_eigenspace_dim"],
    "lie": ["rescaled_spectrum", "compound_matrix", "ce_differential",
            "ce_matrix", "betti_numbers", "lower_central_grading", "validate",
            "invariant_basis"],
}

# Methods wrapped at class level, as (module, class) -> names.
METHODS = {
    ("superconnection", "DiscreteComplex"): ["differential", "mass",
                                             "mass_powers", "stiffness",
                                             "laplacian"],
    ("superconnection", "MetricField"): ["check_equivariance", "equivariant"],
    ("numerics", "RationalMatrix"): ["__matmul__"],
    ("spectral", "BigradedComplex"): ["check_complex", "total_cohomology"],
}

LAYERS = ("lab", "superconnection", "numerics", "spectral", "lie")

# Used when the package has no `_DENSE_LIMIT`: up to this many unknowns
# `superconnection.spectrum` solves densely, above it with ARPACK.
DEFAULT_DENSE_LIMIT = 2200


class Tracer:
    """Span recorder that patches the package while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.pass_id = 0
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._pages: dict[tuple, object] = {}
        self._last_dof: int | None = None
        self._dense_limit = DEFAULT_DENSE_LIMIT

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.pass_id])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value=1) -> None:
        self.counts[self.pass_id][key] += value

    def new_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self._pages.clear()

    # -- patching ------------------------------------------------------------

    def install(self, package) -> "Tracer":
        """Wrap the targets in `package` (the imported nilcollapse); use as
        ``with tracer.install(nilcollapse): ...`` to restore them after."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {name: getattr(package, name) for name in LAYERS}
        self._dense_limit = getattr(mods["superconnection"], "_DENSE_LIMIT",
                                    DEFAULT_DENSE_LIMIT)
        siblings = [m for name, m in sorted(sys.modules.items())
                    if name == package.__name__
                    or name.startswith(package.__name__ + ".")]
        for layer, names in FUNCTIONS.items():
            for fname in names:
                orig = getattr(mods[layer], fname, None)
                if orig is None:
                    continue  # the package no longer has it
                wrapped = self._wrap(f"{layer}.{fname}", orig)
                for mod in siblings:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._set(mod, attr, wrapped)
        for (layer, cname), names in METHODS.items():
            cls = getattr(mods[layer], cname, None)
            if cls is None:
                continue
            for mname in names:
                raw = cls.__dict__.get(mname)
                if raw is None:
                    continue
                span = f"{layer}.{cname}.{mname}"
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(span, raw.__func__))
                else:
                    wrapped = self._wrap(span, raw)
                self._set(cls, mname, wrapped)
        return self

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        self._pages.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, idx, args, out)
            return out

        return traced


# ---------------------------------------------------------------------------
# facts recorded at span boundaries
# ---------------------------------------------------------------------------

def _exact_input(tracer, args):
    A = args[0]
    tracer.count("exact_cells", A.rows * A.cols)
    if A.rows and A.cols:
        tracer.count("exact_nonzero", int(np.count_nonzero(A.to_numpy())))


def _page_input(tracer, args):
    cx, r = args[0], args[1]
    # holding cx keeps its id from being reused by a later complex
    tracer._pages.setdefault((id(cx), r), cx)
    tracer.counts[tracer.pass_id]["page_distinct"] = len(tracer._pages)


def _spectrum_start(tracer, args):
    tracer._last_dof = None


def _laplacian_done(tracer, idx, args, L):
    tracer._last_dof = L.shape[0]
    tracer.count("dof", L.shape[0])
    tracer.count("nnz_L", L.nnz)


def _spectrum_done(tracer, idx, args, out):
    dense = tracer._last_dof is None or tracer._last_dof <= tracer._dense_limit
    tracer.spans[idx][0] += ".dense" if dense else ".arpack"


def _run_done(tracer, idx, args, report):
    tracer.count("spectra", sum(len(d.spectra) for d in report.degrees))


_BEFORE = {
    "numerics.rank_exact": _exact_input,
    "numerics.nullspace_exact": _exact_input,
    "spectral.page": _page_input,
    "superconnection.spectrum": _spectrum_start,
}
_AFTER = {
    "superconnection.DiscreteComplex.laplacian": _laplacian_done,
    "superconnection.spectrum": _spectrum_done,
    "lab.run": _run_done,
}


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals
    (clipped to the span)."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def inclusive_times(spans) -> list[float]:
    """Duration of each span that has no ancestor of the same name, else 0,
    so that summing by name never counts recursion twice."""
    out = []
    for name, start, end, parent, _ in spans:
        nested = False
        while parent >= 0:
            if spans[parent][0] == name:
                nested = True
                break
            parent = spans[parent][3]
        out.append(0.0 if nested else end - start)
    return out


def layer_metrics(tracer: Tracer, pass_ids) -> dict[str, float]:
    """Per-layer metrics, each the median over the given passes."""
    selfs = self_times(tracer.spans)
    incls = inclusive_times(tracer.spans)
    per_pass = {p: {"self": Counter(), "incl": Counter(), "calls": Counter()}
                for p in pass_ids}
    for span, s, inc in zip(tracer.spans, selfs, incls):
        acc = per_pass.get(span[4])
        if acc is None:
            continue
        acc["self"][span[0]] += s
        acc["incl"][span[0]] += inc
        acc["calls"][span[0]] += 1
    rows = [_pass_metrics(acc, tracer.counts[p]) for p, acc in per_pass.items()]
    return {key: statistics.median(r[key] for r in rows) for key in rows[0]}


def _pass_metrics(acc, counts) -> dict[str, float]:
    own, incl, calls = acc["self"], acc["incl"], acc["calls"]
    sc = "superconnection."
    dc = sc + "DiscreteComplex."
    out = {
        "lab.run_s": incl["lab.run"],
        "lab.spectra": counts["spectra"],
        "superconnection.differential_s": own[dc + "differential"],
        "superconnection.differential_calls": calls[dc + "differential"],
        "superconnection.stiffness_s": own[dc + "stiffness"],
        "superconnection.mass_s": own[dc + "mass"] + own[dc + "mass_powers"],
        "superconnection.laplacian_s": own[dc + "laplacian"],
        "superconnection.solve_dense_s": own[sc + "spectrum.dense"],
        "superconnection.solve_dense_calls": calls[sc + "spectrum.dense"],
        "superconnection.solve_arpack_s": own[sc + "spectrum.arpack"],
        "superconnection.solve_arpack_calls": calls[sc + "spectrum.arpack"],
        "superconnection.dof": counts["dof"],
        "superconnection.nnz_L": counts["nnz_L"],
        "superconnection.flatness_s": own[sc + "check_flatness"],
        "superconnection.metric_check_s":
            own[sc + "MetricField.check_equivariance"],
        "numerics.matmul_s": own["numerics.RationalMatrix.__matmul__"],
        "numerics.matmul_calls": calls["numerics.RationalMatrix.__matmul__"],
        "numerics.rank_s": own["numerics.rank_exact"],
        "numerics.rank_calls": calls["numerics.rank_exact"],
        "numerics.nullspace_s": own["numerics.nullspace_exact"],
        "numerics.nullspace_calls": calls["numerics.nullspace_exact"],
        "numerics.quotient_dim_s": incl["numerics.quotient_dim"],
        "numerics.exact_cells": counts["exact_cells"],
        "numerics.exact_density": (counts["exact_nonzero"]
                                   / counts["exact_cells"]
                                   if counts["exact_cells"] else 0.0),
        "numerics.sym_eig_s": own["numerics.sym_eig"],
        "spectral.page_s": incl["spectral.page"],
        "spectral.page_self_s": own["spectral.page"],
        "spectral.page_calls": calls["spectral.page"],
        "spectral.page_distinct": counts["page_distinct"],
        "spectral.page_useful_ratio": (counts["page_distinct"]
                                       / calls["spectral.page"]
                                       if calls["spectral.page"] else 0.0),
        "spectral.complex_check_s": own["spectral.BigradedComplex.check_complex"],
        "spectral.e_infinity_s": own["spectral.e_infinity"],
        "spectral.total_cohomology_s":
            own["spectral.BigradedComplex.total_cohomology"],
        "spectral.predict_s": own["spectral.predict_small_count"],
        "spectral.compound_s": own["spectral.compound_exact"],
        "lie.rescaled_spectrum_s": own["lie.rescaled_spectrum"],
        "lie.compound_matrix_s": own["lie.compound_matrix"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in own.items()
                                     if k.startswith(layer + "."))
    return out
