"""Scenario runner for collapsing experiments.

A scenario sweeps a collapse parameter (fiber rescaling, monodromy gauge
degeneration, or adiabatic coupling), records the low spectrum at every sweep
point, fits decay rates for the vanishing eigenvalues, and compares the
observed count of collapsing eigenvalues against the exact prediction from
the spectral-sequence side.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import asdict, dataclass, field, fields
from math import prod

import numpy as np

from . import lie, spectral, superconnection as sconn
from .numerics import (REQUIRED, InputError, RationalMatrix, integer, real,
                       read_fields, read_json)
from .report import ZERO_TOL

DECAY_FACTOR = 0.5        # an eigenvalue "vanishes" if it drops below half
SLOPE_RESIDUAL_TOL = 0.05


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str
    model: dict = field(default_factory=dict)
    sweep_parameter: str = "eps"
    sweep_values: tuple = ()
    degrees: tuple = (1,)
    resolution: int = 32
    count: int = 12
    name: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown scenario kind {self.kind!r}")
        try:
            vals = tuple(real(v, "each sweep value") for v in self.sweep_values)
            degrees = tuple(integer(p, "each degree") for p in self.degrees)
        except (TypeError, ValueError) as exc:
            raise InputError(f"sweep values and degrees must be numbers: "
                             f"{exc}") from exc
        object.__setattr__(self, "sweep_values", vals)
        object.__setattr__(self, "degrees", degrees)
        for name in ("resolution", "count"):
            object.__setattr__(self, name, integer(getattr(self, name), name))
        for name in ("name", "sweep_parameter"):
            if not isinstance(getattr(self, name), str):
                raise InputError(f"{name} must be a string, "
                                 f"got {getattr(self, name)!r}")
        # `run --out` writes <name>.<ext> into the output directory
        if self.name in (".", "..") or {"/", "\\"} & set(self.name):
            raise InputError(f"name must be a file stem, without '/' or '\\' "
                             f"and not '.' or '..', got {self.name!r}")
        if self.kind != "spectral_sequence_report":
            # a decay is judged between sweep points, in at least one degree
            if len(vals) < 2 or any(v <= 0 for v in vals):
                raise InputError(f"sweep_values must be two or more positive "
                                 f"values, got {list(vals)}")
            if not degrees:
                raise InputError("degrees must hold at least one degree")
            diffs = np.diff(vals)
            if not (np.all(diffs > 0) or np.all(diffs < 0)):
                raise InputError("sweep values must be strictly monotone")
        if self.resolution < 8:
            raise InputError("resolution must be >= 8")
        if any(p < 0 for p in self.degrees):
            raise InputError("degrees must be nonnegative")
        if self.count < 1:
            raise InputError("count must be >= 1")

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioConfig":
        # a missing or null field but `kind` takes the dataclass default
        given = read_fields(payload, {
            f.name: (lambda x: x, None) for f in fields(cls)} | {
            "kind": (str, REQUIRED)}, "scenario")
        return cls(**{k: v for k, v in given.items() if v is not None})


# ---------------------------------------------------------------------------
# preset scenarios
# ---------------------------------------------------------------------------

PRESETS: dict[str, dict] = {
    # 3-dim Heisenberg fiber over a point, fiber rescaling sweep
    "example1_heisenberg_point": {
        "kind": "nil_rescale",
        "model": {"algebra": "heisenberg:3"},
        "sweep_parameter": "eps",
        "sweep_values": (1e-1, 1e-2, 1e-3, 1e-4),
        "degrees": (1,),
        "count": 8,
    },
    # oriented circle bundle over the 2-torus, adiabatic coupling sweep
    "example3_circle_bundle": {
        "kind": "circle_bundle_adiabatic",
        "model": {},
        "sweep_parameter": "delta",
        "sweep_values": (1.0, 0.3, 0.1, 0.03),
        "degrees": (1,),
        "resolution": 24,
        "count": 8,
    },
    # torus fiber over the circle, unipotent holonomy degenerating in gauge
    "example7_heisenberg_circle": {
        "kind": "monodromy_degeneration",
        "model": {"algebra": "abelian:2",
                  "monodromy": [["1", "1"], ["0", "1"]],
                  "gauge_weights": [1, 0]},
        "sweep_parameter": "t",
        "sweep_values": (1.0, 0.1, 0.01, 0.001),
        "degrees": (1,),
        "resolution": 48,
        "count": 6,
    },
    # torus fiber over the circle with hyperbolic holonomy: nothing collapses
    "example9_sol_circle": {
        "kind": "monodromy_degeneration",
        "model": {"algebra": "abelian:2",
                  "monodromy": [["2", "1"], ["1", "1"]],
                  "gauge_weights": [0, 0]},
        "sweep_parameter": "t",
        "sweep_values": (1.0, 0.5, 0.25),
        "degrees": (1,),
        "resolution": 48,
        "count": 6,
    },
    # same circle bundle, the resolution used for the count-vs-pages check
    "cor7_heisenberg_T2": {
        "kind": "circle_bundle_adiabatic",
        "model": {},
        "sweep_parameter": "delta",
        "sweep_values": (1.0, 0.3, 0.1, 0.03),
        "degrees": (1,),
        "resolution": 32,
        "count": 8,
    },
}


def load_scenario(source) -> ScenarioConfig:
    """Preset name, JSON file path, or parsed dict."""
    if isinstance(source, str) and source in PRESETS:
        source = dict(PRESETS[source], name=source)
    return ScenarioConfig.from_dict(read_json(source, "scenario"))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlopeFit:
    index: int
    slope: float
    residual: float
    undetermined: bool

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class DegreeReport:
    degree: int
    spectra: tuple            # SpectrumReport per sweep point, in sweep order
    predicted_small_count: int | None
    obstruction_case: int | None   # copied from the prediction
    observed_small_count: int | None
    zero_counts: tuple
    slopes: tuple             # SlopeFit per decaying positive eigenvalue
    prediction_matches: bool | None
    kernel_stable: bool | None

    def to_dict(self):
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "spectra": [s.to_dict() for s in self.spectra],
                "zero_counts": list(self.zero_counts),
                "slopes": [s.to_dict() for s in self.slopes]}


@dataclass(frozen=True)
class ScenarioReport:
    config: ScenarioConfig
    degrees: tuple            # DegreeReport per requested degree
    pages: dict | None = None  # spectral_sequence_report payload

    def to_dict(self):
        cfg = self.config
        return {
            "scenario": {**{f.name: getattr(cfg, f.name) for f in fields(cfg)},
                         "sweep_values": list(cfg.sweep_values),
                         "degrees": list(cfg.degrees)},
            "degrees": [d.to_dict() for d in self.degrees],
            "pages": self.pages,
        }

    def passed(self) -> bool:
        return not any(d.prediction_matches is False or d.kernel_stable is False
                       for d in self.degrees)


def _fit_slopes(vals, lam, decays) -> list[SlopeFit]:
    """Log-log decay rate of each decaying column of the sweep x index table
    `lam`, over the three smallest sweep values; a column that reads zero at
    one of them has no rate."""
    take = np.argsort(vals)[::-1][-3:]  # the three smallest, large to small
    x = np.log(vals[take])
    A = np.column_stack([x, np.ones_like(x)])
    out = []
    for j in np.flatnonzero(decays):
        if np.any(lam[take, j] <= ZERO_TOL):
            continue
        y = np.log(lam[take, j])
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        resid = float(np.sqrt(np.mean((A @ coef - y) ** 2)))
        out.append(SlopeFit(int(j), float(coef[0]), resid,
                            resid > SLOPE_RESIDUAL_TOL))
    return out


def _degree_report(p, values, spectra, pred, count) -> DegreeReport:
    vals = np.asarray(values, dtype=float)
    n_eigs = min(count, min(len(s.eigenvalues) for s in spectra))
    lam = np.array([s.eigenvalues[:n_eigs] for s in spectra])  # sweep x index
    # an index collapses if it is zero at the smallest sweep value or has
    # dropped below DECAY_FACTOR of its value at the largest
    small, big = lam[np.argmin(vals)], lam[np.argmax(vals)]
    decays = (small <= ZERO_TOL) | (
        small <= DECAY_FACTOR * np.maximum(big, ZERO_TOL))
    # the spectrum is sorted: the bulk starts at the first index that
    # does not collapse
    observed = n_eigs if decays.all() else int(np.argmin(decays))
    zeros = tuple(int(np.sum(s.eigenvalues <= ZERO_TOL)) for s in spectra)
    return DegreeReport(
        degree=p, spectra=tuple(spectra), predicted_small_count=pred.count,
        obstruction_case=pred.obstruction_case, observed_small_count=observed,
        zero_counts=zeros, slopes=tuple(_fit_slopes(vals, lam, decays)),
        prediction_matches=observed == pred.count,
        kernel_stable=len(set(zeros)) == 1)


# ---------------------------------------------------------------------------
# scenario kinds: the model fields each reads, and what `prepare` builds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sweep:
    """The solve step of a sweep scenario: `points[i]` is the
    (superconnection, metric) that sweep value i solves in each degree by
    `superconnection.spectra`. Every point shares the one flat
    superconnection, and its metric differs only in the constant fiber
    block."""

    config: ScenarioConfig
    predictions: list     # SmallCountPrediction per requested degree
    points: list

    def __call__(self) -> ScenarioReport:
        cfg = self.config
        per_point = [sconn.spectra(sc, h, cfg.degrees, count=cfg.count)
                     for sc, h in self.points]
        return ScenarioReport(cfg, tuple(
            _degree_report(p, cfg.sweep_values, s, pred, cfg.count)
            for p, s, pred in zip(cfg.degrees, zip(*per_point),
                                  self.predictions)))


def _float_range(span: float, power: float, values, what: str) -> None:
    """InputError unless s^(power w) stays a positive finite float for every
    sweep value s and |w| <= span; `what` names the metric and its
    weights."""
    for s in values:
        if s != 1 and span >= np.log(np.finfo(float).max) / abs(
                power * np.log(s)):
            raise InputError(f"{what} out of the float range at sweep "
                             f"value {s}")


def _nil_rescale(cfg: ScenarioConfig, model: dict) -> Sweep:
    algebra = model["algebra"]
    grading = lie.lower_central_grading(algebra)
    # the form f^I of the adapted basis has weight w_I and squared length
    # 1 / g_I, g_I the product of the Gram over I: the metric eps^(-w_I) /
    # g_I gauges d to eps^(-N/2) d eps^(N/2) in orthonormal forms
    forms = [lie.multi_indices(algebra.n, b) for b in range(algebra.n + 1)]
    w = [np.array([grading.form_weight(I) for I in f], dtype=float)
         for f in forms]
    g = [np.array([float(prod(grading.gram[i] for i in I)) for I in f])
         for f in forms]
    # the top form, of the largest weight, bounds every exponent
    _float_range(w[-1][0], 1, cfg.sweep_values, f"the form weights of "
                 f"{algebra.name or 'the algebra'}, up to {w[-1][0]:g}, take "
                 f"the fiber metric eps^(-w_I)")
    preds = spectral.predict_small_counts(algebra, "point", cfg.degrees)
    base = sconn.BaseModel("point", cfg.resolution)
    sc = sconn.from_affine_bundle(grading.algebra, base)
    h = sconn.MetricField.identity(sc.bundle, base)
    return Sweep(cfg, preds, [
        (sc, h.with_fiber([np.diag(eps ** -wb / gb) for wb, gb in zip(w, g)]))
        for eps in cfg.sweep_values])


def _circle_bundle_adiabatic(cfg: ScenarioConfig, model: dict) -> Sweep:
    base = sconn.BaseModel("torus2", cfg.resolution, model["circumferences"])
    fiber, one = lie.abelian(1), RationalMatrix.identity(1)
    sc = sconn.from_affine_bundle(fiber, base, T=[1])
    # identity holonomies: the identity metric is equivariant, and the fiber
    # metric delta^-2b on b-forms gauges a2 to delta * a2
    h = sconn.MetricField.identity(sc.bundle, base)
    preds = spectral.predict_small_counts(
        fiber, "torus2", cfg.degrees, monodromy_action=[one, one], T=[1])
    return Sweep(cfg, preds, [
        (sc, h.with_fiber([np.eye(r) * delta ** (-2 * b)
                           for b, r in enumerate(sc.bundle.ranks)]))
        for delta in cfg.sweep_values])


def _monodromy_degeneration(cfg: ScenarioConfig, model: dict) -> Sweep:
    algebra, phi, w = (model[k] for k in ("algebra", "monodromy",
                                          "gauge_weights"))
    w = [0] * algebra.n if w is None else w
    if (phi.rows, phi.cols) != (algebra.n, algebra.n):
        raise InputError(f"monodromy must be {algebra.n}x{algebra.n}")
    if len(w) != algebra.n:
        raise InputError("need one integer gauge weight per fiber dimension")
    # D(t) = diag(t^w) must be an automorphism for the gauge change below
    for i, j, k in itertools.product(range(algebra.n), repeat=3):
        if algebra.c[i][j][k] and w[k] != w[i] + w[j]:
            raise InputError(
                f"gauge_weights must grade the algebra: the bracket "
                f"[e{i}, e{j}] has an e{k} term, but w[{k}] = {w[k]} is not "
                f"w[{i}] + w[{j}] = {w[i] + w[j]}")
    # the fiber metric t^(-2 w_I) below must neither overflow nor underflow
    # to 0: |w_I| is at most the larger of the summed positive and negative w
    _float_range(max(sum(x for x in w if x > 0), -sum(x for x in w if x < 0)),
                 2, cfg.sweep_values,
                 f"gauge_weights {w} take the fiber metric t^(-2 w_I)")
    base = sconn.BaseModel("circle", cfg.resolution, model["circumferences"])
    try:  # with a0 the fiber differential, only parallel_a0 can fail
        sc = sconn.from_affine_bundle(algebra, base, monodromy_action=[phi])
    except sconn.FlatnessError as exc:
        raise InputError("monodromy is not an automorphism of the algebra: "
                         f"{exc}") from None
    preds = spectral.predict_small_counts(algebra, "circle", cfg.degrees,
                                          monodromy_action=[phi])
    # the holonomy D(t) phi D(t)^-1 is D(t)'s gauge change of phi, which
    # moves diag(t^-2w_I) on b-forms into the metric, w_I = sum of w over I
    h = sconn.MetricField.equivariant(sc.bundle, base)
    w_forms = [np.array([float(sum(w[i] for i in I))
                         for I in lie.multi_indices(algebra.n, b)])
               for b in range(algebra.n + 1)]
    return Sweep(cfg, preds, [
        (sc, h.with_fiber([np.diag(t ** (-2 * wb)) for wb in w_forms]))
        for t in cfg.sweep_values])


def _spectral_sequence_report(cfg: ScenarioConfig, model: dict):
    given = [cx for cx in (model["complex"], model["payload"]) if cx is not None]
    if len(given) != 1:
        raise InputError("spectral_sequence_report needs one of 'complex' "
                         "(a path) or 'payload' (inline)")

    def solve() -> ScenarioReport:
        seq = spectral.spectral_sequence(given[0])
        return ScenarioReport(cfg, (), pages={
            "stabilizes_at": seq.stabilizes_at,
            "pages": {str(pg.r): {"dims": _spots(pg.dims),
                                  "d_ranks": _spots(pg.d_ranks)}
                      for pg in seq.pages[:seq.stabilizes_at]},
            "e_infinity": _spots(seq.stable.dims),
            "total_cohomology": seq.betti})
    return solve


def _spots(per_spot: dict) -> list:
    return [[a, b, d] for (a, b), d in sorted(per_spot.items())]


# kind -> (builder of everything exact, model fields as name -> (reader,
# default), read by numerics.read_fields); None is left to the builder
KINDS = {
    "nil_rescale": (_nil_rescale, {"algebra": (lie.load_algebra, REQUIRED)}),
    "monodromy_degeneration": (_monodromy_degeneration, {
        "algebra": (lie.load_algebra, "abelian:2"),
        "monodromy": (RationalMatrix, REQUIRED),
        "gauge_weights": (lambda ws: [integer(x, "each gauge weight")
                                      for x in ws], None),
        "circumferences": (tuple, None)}),  # each read by sconn.BaseModel
    "circle_bundle_adiabatic": (_circle_bundle_adiabatic,
                                {"circumferences": (tuple, None)}),
    "spectral_sequence_report": (_spectral_sequence_report, {
        "complex": (lambda path: spectral.BigradedComplex.from_dict(
            read_json(path, "complex")), None),
        "payload": (spectral.BigradedComplex.from_dict, None)}),
}


def _read_model(cfg: ScenarioConfig) -> dict:
    return read_fields(cfg.model, KINDS[cfg.kind][1], f"model for {cfg.kind}")


def prepare(config: ScenarioConfig | str | dict):
    """Build and check everything exact of a scenario: the model that
    `_read_model` reads, the predictions, a bundle kind's one flat
    superconnection, and each sweep point's metric, which takes that bundle
    and base and is checked for equivariance once, when it is built. Bad
    input raises InputError here, never later. Returns the step that only
    solves (for a spectral_sequence_report, builds the pages) and returns
    the report."""
    cfg = config if isinstance(config, ScenarioConfig) else \
        load_scenario(config)
    return KINDS[cfg.kind][0](cfg, _read_model(cfg))


def run(config: ScenarioConfig | str | dict) -> ScenarioReport:
    return prepare(config)()


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("scenario", "sweep_param", "sweep_value", "p", "j", "lambda")


def emit(report: ScenarioReport, fmt: str, path) -> None:
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump(report.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
    elif fmt == "csv":
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(CSV_COLUMNS)
            w.writerows(_rows(report))
    elif fmt == "plotdata":
        with open(path, "w") as fh:
            fh.write("# " + " ".join(CSV_COLUMNS) + "\n")
            for row in _rows(report):
                fh.write(" ".join(str(x) for x in row) + "\n")
    else:
        raise InputError(f"unknown emission format {fmt!r}")


def _rows(report: ScenarioReport):
    name = report.config.name or report.config.kind
    for d in report.degrees:
        for v, spec in zip(report.config.sweep_values, d.spectra):
            for j, lam in enumerate(spec.eigenvalues):
                yield (name, report.config.sweep_parameter, v,
                       d.degree, j, float(lam))
