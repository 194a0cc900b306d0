"""Scenario runner for collapsing experiments.

A scenario sweeps a collapse parameter (fiber rescaling, monodromy gauge
degeneration, or adiabatic coupling), records the low spectrum at every sweep
point, fits decay rates for the vanishing eigenvalues, and compares the
observed count of collapsing eigenvalues against the exact prediction from
the spectral-sequence side.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from . import lie, spectral, superconnection as sconn
from .numerics import InputError, RationalMatrix, integer, real

ZERO_TOL = 1e-10
DECAY_FACTOR = 0.5        # an eigenvalue "vanishes" if it drops below half
SLOPE_RESIDUAL_TOL = 0.05

KINDS = ("nil_rescale", "monodromy_degeneration",
         "circle_bundle_adiabatic", "spectral_sequence_report")


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
        if self.kind != "spectral_sequence_report":
            if not vals or any(v <= 0 for v in vals):
                raise InputError("sweep values must be positive")
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
        extra = set(payload) - {f.name for f in fields(cls)}
        if extra:
            raise InputError(f"unknown scenario fields {sorted(extra)}")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise InputError(f"malformed scenario: {exc}") from exc


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
        cfg = dict(PRESETS[source])
        cfg["name"] = source
        return ScenarioConfig.from_dict(cfg)
    if isinstance(source, dict):
        return ScenarioConfig.from_dict(source)
    try:
        with open(source) as fh:
            return ScenarioConfig.from_dict(json.load(fh))
    except OSError as exc:
        raise InputError(f"no such scenario file or preset: {source!r}") from exc


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
        return {"index": self.index, "slope": self.slope,
                "residual": self.residual, "undetermined": self.undetermined}


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
        return {
            "degree": self.degree,
            "spectra": [s.to_dict() for s in self.spectra],
            "predicted_small_count": self.predicted_small_count,
            "obstruction_case": self.obstruction_case,
            "observed_small_count": self.observed_small_count,
            "zero_counts": list(self.zero_counts),
            "slopes": [s.to_dict() for s in self.slopes],
            "prediction_matches": self.prediction_matches,
            "kernel_stable": self.kernel_stable,
        }


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
        for d in self.degrees:
            if d.prediction_matches is False or d.kernel_stable is False:
                return False
        return True


def _fit_slopes(values, spectra, count) -> list[SlopeFit]:
    """Log-log decay rate per eigenvalue index, over the three smallest
    sweep values; only indices that actually decay are reported."""
    vals = np.asarray(values, dtype=float)
    order = np.argsort(vals)[::-1]  # large to small
    take = order[-3:] if len(order) >= 3 else order
    out = []
    n_eigs = min(count, min(len(s.eigenvalues) for s in spectra))
    for j in range(n_eigs):
        lam = np.array([spectra[i].eigenvalues[j] for i in range(len(spectra))])
        if not _decays(vals, lam) or np.any(lam[take] <= ZERO_TOL):
            continue
        x = np.log(vals[take])
        y = np.log(lam[take])
        A = np.column_stack([x, np.ones_like(x)])
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        resid = float(np.sqrt(np.mean((A @ coef - y) ** 2)))
        out.append(SlopeFit(j, float(coef[0]), resid,
                            resid > SLOPE_RESIDUAL_TOL))
    return out


def _decays(vals, lam) -> bool:
    i_big = int(np.argmax(vals))
    i_small = int(np.argmin(vals))
    if lam[i_small] <= ZERO_TOL:
        return True
    return lam[i_small] <= DECAY_FACTOR * max(lam[i_big], ZERO_TOL)


def _observed_count(values, spectra, count) -> int:
    """Eigenvalues that collapse across the sweep: exact zeros everywhere
    plus positive modes that decay with the parameter."""
    vals = np.asarray(values, dtype=float)
    n_eigs = min(count, min(len(s.eigenvalues) for s in spectra))
    obs = 0
    for j in range(n_eigs):
        lam = np.array([spectra[i].eigenvalues[j] for i in range(len(spectra))])
        if _decays(vals, lam):
            obs += 1
        else:
            break  # spectrum is sorted; the bulk starts here
    return obs


def _degree_report(p, values, spectra, pred, count) -> DegreeReport:
    observed = _observed_count(values, spectra, count)
    zeros = tuple(int(np.sum(s.eigenvalues < ZERO_TOL)) for s in spectra)
    slopes = tuple(_fit_slopes(values, spectra, count))
    return DegreeReport(
        degree=p, spectra=tuple(spectra),
        predicted_small_count=pred.count,
        obstruction_case=pred.obstruction_case,
        observed_small_count=observed,
        zero_counts=zeros,
        slopes=slopes,
        prediction_matches=observed == pred.count,
        kernel_stable=len(set(zeros)) == 1,
    )


# ---------------------------------------------------------------------------
# scenario kinds
# ---------------------------------------------------------------------------

def _sweep(cfg: ScenarioConfig, preds, solver) -> ScenarioReport:
    """Spectra of every requested degree at every sweep point. `solver(v)`
    sets sweep point v up once and returns p -> its degree-p spectrum."""
    spectra = [[] for _ in cfg.degrees]
    for v in cfg.sweep_values:
        solve = solver(v)
        for p, out in zip(cfg.degrees, spectra):
            out.append(solve(p))
    return ScenarioReport(cfg, tuple(
        _degree_report(p, cfg.sweep_values, s, pred, cfg.count)
        for p, s, pred in zip(cfg.degrees, spectra, preds)))


def _run_nil_rescale(cfg: ScenarioConfig) -> ScenarioReport:
    algebra = lie.load_algebra(cfg.model.get("algebra", cfg.model))
    grading = lie.lower_central_grading(algebra)
    preds = spectral.predict_small_counts(algebra, "point", cfg.degrees)
    return _sweep(cfg, preds, lambda eps: lambda p: lie.rescaled_spectrum(
        algebra, grading, p, eps))


def bundle_sweep(cfg: ScenarioConfig):
    """Read the model of a `monodromy_degeneration` or
    `circle_bundle_adiabatic` scenario once. Returns (predictions, at): the
    exact prediction for each of `cfg.degrees`, and at(v), the
    superconnection and metric (its equivariance checked) at sweep value v."""
    if cfg.kind == "circle_bundle_adiabatic":
        base = sconn.BaseModel("torus2", cfg.resolution,
                               cfg.model.get("circumferences"))
        fiber, one = lie.abelian(1), RationalMatrix.identity(1)
        # identity holonomies: the identity metric is equivariant; the
        # flatness identities are linear in a2, so checking T = 1 once
        # covers the a2 = delta * a2(1) of every sweep point
        unit = sconn.from_affine_bundle(fiber, base, T=[1])
        h = sconn.MetricField.identity(unit.bundle)

        def circle_bundle(delta):
            return sconn.Superconnection(
                unit.bundle, base, a0=unit.a0,
                a2=[delta * x for x in unit.a2]), h

        return spectral.predict_small_counts(
            fiber, "torus2", cfg.degrees, monodromy_action=[one, one],
            T=[Fraction(1)]), circle_bundle
    if cfg.kind != "monodromy_degeneration":
        raise InputError(f"{cfg.kind} scenarios sweep no bundle")
    algebra = lie.load_algebra(cfg.model.get("algebra", "abelian:2"))
    phi_rows = cfg.model.get("monodromy")
    if phi_rows is None:
        raise InputError("monodromy_degeneration needs a 'monodromy' matrix")
    phi = RationalMatrix(phi_rows)
    w = cfg.model.get("gauge_weights", [0] * algebra.n)
    if not isinstance(w, (list, tuple)) or len(w) != algebra.n:
        raise InputError("need one integer gauge weight per fiber dimension")
    w = [integer(x, "each gauge weight") for x in w]
    base = sconn.BaseModel("circle", cfg.resolution,
                           cfg.model.get("circumferences"))
    preds = spectral.predict_small_counts(algebra, "circle", cfg.degrees,
                                          monodromy_action=[phi])

    def build(t):
        # G phi G^-1 for G = diag(t^w), exact for the float t as read
        conj = RationalMatrix.from_entries(phi.rows, phi.cols, {
            (i, j): v * Fraction(t) ** (w[i] - w[j])
            for (i, j), v in phi.entries()})
        return sconn.from_affine_bundle(algebra, base, monodromy_action=[conj])

    # on b-forms the holonomy at t is D(t) A D(t)^-1, D(t) = diag(t^-w_I):
    # its logarithm, taken once at the first point t0, is carried to t by
    # the exact diagonal D(t) D(t0)^-1 = diag((t0 / t)^w_I)
    t0 = cfg.sweep_values[0]
    first = build(t0)
    logs0 = sconn.MetricField.equivariant(first.bundle, base).logs[0]
    w_forms = [[sum(w[i] for i in I) for I in lie.multi_indices(algebra.n, b)]
               for b in range(algebra.n + 1)]

    def gauged(t):
        sc = first if t == t0 else build(t)
        r = Fraction(t0) / Fraction(t)
        logs = [X * np.array([[float(r ** (i - j)) for j in wb] for i in wb])
                for X, wb in zip(logs0, w_forms)]
        h = sconn.MetricField.from_logs(sc.bundle, base, [logs])
        h.check_equivariance(base)
        return sc, h

    return preds, gauged


def _run_bundle(cfg: ScenarioConfig) -> ScenarioReport:
    preds, at = bundle_sweep(cfg)

    def solver(v):
        sc, h = at(v)
        return lambda p: sconn.spectrum(sc, h, p, count=cfg.count,
                                        check_metric=False)

    return _sweep(cfg, preds, solver)


def _run_spectral_sequence_report(cfg: ScenarioConfig) -> ScenarioReport:
    if "complex" in cfg.model:
        cx = spectral.load_complex(cfg.model["complex"])
    elif "payload" in cfg.model:
        cx = spectral.BigradedComplex.from_dict(cfg.model["payload"])
    else:
        raise InputError("spectral_sequence_report needs 'complex' "
                         "(a path) or 'payload' (inline)")
    seq = spectral.spectral_sequence(cx)
    pages = {}
    for pg in seq.pages[:seq.stabilizes_at]:
        pages[str(pg.r)] = {
            "dims": [[a, b, d] for (a, b), d in sorted(pg.dims.items())],
            "d_ranks": [[a, b, d] for (a, b), d in sorted(pg.d_ranks.items())],
        }
    payload = {
        "stabilizes_at": seq.stabilizes_at,
        "pages": pages,
        "e_infinity": [[a, b, d]
                       for (a, b), d in sorted(seq.stable.dims.items())],
        "total_cohomology": seq.betti,
    }
    return ScenarioReport(cfg, (), pages=payload)


_RUNNERS = {
    "nil_rescale": _run_nil_rescale,
    "monodromy_degeneration": _run_bundle,
    "circle_bundle_adiabatic": _run_bundle,
    "spectral_sequence_report": _run_spectral_sequence_report,
}


def run(config: ScenarioConfig | str | dict) -> ScenarioReport:
    if not isinstance(config, ScenarioConfig):
        config = load_scenario(config)
    return _RUNNERS[config.kind](config)


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
            for row in _rows(report):
                w.writerow(row)
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
        for i, spec in enumerate(d.spectra):
            v = report.config.sweep_values[i]
            for j, lam in enumerate(spec.eigenvalues):
                yield (name, report.config.sweep_parameter, v,
                       d.degree, j, float(lam))


def load_report(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
