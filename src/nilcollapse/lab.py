"""Scenario runner for collapsing experiments.

A scenario sweeps a collapse parameter (fiber rescaling, monodromy gauge
degeneration, or adiabatic coupling), records the low spectrum at every sweep
point, fits decay rates for the vanishing eigenvalues, and compares the
observed count of collapsing eigenvalues against the exact prediction from
the spectral-sequence side. Each bundle kind is one flat affine bundle
whose fiber metric at sweep value s is s^(-u_I) / g_I (`_affine_sweep`).
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

    def failures(self) -> list[str]:
        """One line per degree whose prediction or kernel check failed,
        with its predicted and observed counts, and its zero counts when
        they change along the sweep."""
        return [f"degree {d.degree}: predicted {d.predicted_small_count} "
                f"small eigenvalues, observed {d.observed_small_count}"
                + ("" if d.kernel_stable is not False else
                   f", zero counts {', '.join(map(str, d.zero_counts))} "
                   "change along the sweep")
                for d in self.degrees
                if d.prediction_matches is False or d.kernel_stable is False]

    def passed(self) -> bool:
        return not self.failures()


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
    """The solve step that `_affine_sweep` builds: one flat superconnection
    `sc` and the `predictions`, both read off one exact
    `spectral.AffineModel`, the `equivariant` metric `h` of `sc`, and
    `weights[i]`, the log fiber root per degree that sweep value i solves
    with (`spectrum`), all on one `DiscreteComplex`. Building the sweep
    checks each degree's weights once, as one stack of every point, for a
    finite scaled Laplacian (InputError naming the first point and degree
    to fail, points outer), then that `count` covers each prediction and
    one eigenvalue more, or the whole degree. A degree's first `spectrum`
    solves its whole stack, and the other points read their rows."""

    config: ScenarioConfig
    predictions: list     # SmallCountPrediction per requested degree
    sc: sconn.Superconnection
    h: sconn.MetricField
    weights: list
    dc: sconn.DiscreteComplex = field(init=False, repr=False)

    def __post_init__(self):
        dc = sconn.DiscreteComplex(self.sc, self.h)
        refused = []  # (point, degree index, reason): the least is named
        for k, p in enumerate(self.config.degrees):
            try:
                dc.check_weights(p, self.weights)
            except sconn.WeightsError as exc:
                refused.append((exc.point, k, str(exc)))
        if refused:
            i, _, reason = min(refused)
            raise InputError(f"at sweep value {self.config.sweep_values[i]}: "
                             f"{reason}")
        for p, pred in zip(self.config.degrees, self.predictions):
            need = min(pred.count + 1, dc.dim(p))
            if self.config.count < need:
                raise InputError(
                    f"degree {p} predicts {pred.count} small eigenvalues, so "
                    f"it needs count >= {need} to show them, got count "
                    f"{self.config.count}")
        object.__setattr__(self, "dc", dc)

    def __call__(self) -> ScenarioReport:
        cfg = self.config
        return ScenarioReport(cfg, tuple(
            _degree_report(p, cfg.sweep_values, [
                sconn.spectrum(self.sc, self.h, p, cfg.count, dc=self.dc,
                               weights=lam) for lam in self.weights],
                pred, cfg.count)
            for p, pred in zip(cfg.degrees, self.predictions)))


def _affine_sweep(cfg: ScenarioConfig, algebra, base_kind: str, circumferences,
                  u, g=None, holonomies=None, T=None) -> Sweep:
    """The sweep of one flat affine bundle: the fiber `algebra` over the
    `base_kind` torus, with `holonomies` (identities when None) and
    curvature coefficient `T` in one exact `spectral.AffineModel`, which
    the superconnection and the predictions both read, and its
    `equivariant` metric. Sweep value s solves with the fiber metric
    s^(-u_I) / g_I on the form f^I, u_I the sum of the integer weights `u`
    over I and g_I the product of the Gram `g` (1 when None): the log roots
    (-u_I log s - log g_I) / 2."""
    base = sconn.BaseModel(base_kind, cfg.resolution, circumferences)
    if holonomies is None:
        holonomies = [RationalMatrix.identity(algebra.n)] * base.dim
    model = spectral.AffineModel(algebra, holonomies, T)
    try:  # with a0 the fiber differential, only parallel_a0 can fail
        sc = sconn.from_affine_bundle(model, base)
    except sconn.FlatnessError as exc:
        raise InputError("monodromy is not an automorphism of the algebra: "
                         f"{exc}") from None
    preds = spectral.predict_small_counts(model, base_kind, cfg.degrees)
    g = [1] * algebra.n if g is None else g
    forms = [lie.multi_indices(algebra.n, b) for b in range(algebra.n + 1)]
    u_I = [np.array([float(sum(u[i] for i in I)) for I in f]) for f in forms]
    g_I = [np.array([float(prod(g[i] for i in I)) for I in f]) for f in forms]
    h = sconn.MetricField.equivariant(sc.bundle, base)
    return Sweep(cfg, preds, sc, h, [
        [(-ub * np.log(s) - np.log(gb)) / 2 for ub, gb in zip(u_I, g_I)]
        for s in cfg.sweep_values])


def _nil_rescale(cfg: ScenarioConfig, model: dict) -> Sweep:
    # the form f^I of the adapted basis has weight u_I, a sum of 3^k, and
    # squared length 1 / g_I: the fiber metric eps^(-u_I) / g_I gauges d
    # to eps^(-N/2) d eps^(N/2) in orthonormal forms
    grading = lie.lower_central_grading(model["algebra"])
    u = list(map(grading.vector_weight, range(grading.algebra.n)))
    return _affine_sweep(cfg, grading.algebra, "point", None, u, grading.gram)


def _circle_bundle_adiabatic(cfg: ScenarioConfig, model: dict) -> Sweep:
    # the fiber metric delta^-2b on b-forms gauges a2 to delta * a2
    return _affine_sweep(cfg, lie.abelian(1), "torus2",
                         model["circumferences"], [2], T=[1])


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
    # the holonomy D(t) phi D(t)^-1 is D(t)'s gauge change of phi, which
    # moves diag(t^-2w_I) on b-forms, t^(-u_I) for u = 2w, into the metric
    return _affine_sweep(cfg, algebra, "circle", model["circumferences"],
                         [2 * x for x in w], holonomies=[phi])


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
    `_read_model` reads, and for a bundle kind the base, the exact
    `spectral.AffineModel`, the flat superconnection and the predictions
    that both read it, and the `equivariant` metric, each built once by
    `_affine_sweep` (the metric checked for equivariance when it is
    built), and the weights of every sweep point, checked to keep each
    scaled Laplacian finite, and a `count` that can show each prediction.
    Bad input raises InputError here, never later.
    Returns the step that only solves (for a spectral_sequence_report,
    builds the pages) and returns the report."""
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
