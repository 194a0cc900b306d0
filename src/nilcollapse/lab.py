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
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import lie, spectral, superconnection as sconn
from .numerics import InputError, RationalMatrix
from .report import SpectrumReport

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
        vals = tuple(float(v) for v in self.sweep_values)
        object.__setattr__(self, "sweep_values", vals)
        object.__setattr__(self, "degrees", tuple(int(p) for p in self.degrees))
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

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioConfig":
        known = {"kind", "model", "sweep_parameter", "sweep_values",
                 "degrees", "resolution", "count", "name"}
        extra = set(payload) - known
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
        return {
            "scenario": {
                "kind": self.config.kind,
                "name": self.config.name,
                "model": self.config.model,
                "sweep_parameter": self.config.sweep_parameter,
                "sweep_values": list(self.config.sweep_values),
                "degrees": list(self.config.degrees),
                "resolution": self.config.resolution,
                "count": self.config.count,
            },
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


def _zero_count(spec: SpectrumReport) -> int:
    return int(np.sum(spec.eigenvalues < ZERO_TOL))


def _degree_report(p, values, spectra, predicted, count) -> DegreeReport:
    observed = _observed_count(values, spectra, count)
    zeros = tuple(_zero_count(s) for s in spectra)
    slopes = tuple(_fit_slopes(values, spectra, count))
    return DegreeReport(
        degree=p, spectra=tuple(spectra),
        predicted_small_count=predicted,
        observed_small_count=observed,
        zero_counts=zeros,
        slopes=slopes,
        prediction_matches=(observed == predicted) if predicted is not None else None,
        kernel_stable=len(set(zeros)) == 1,
    )


# ---------------------------------------------------------------------------
# scenario kinds
# ---------------------------------------------------------------------------

def _run_nil_rescale(cfg: ScenarioConfig) -> ScenarioReport:
    algebra = lie.load_algebra(cfg.model.get("algebra", cfg.model))
    rep = lie.validate(algebra)
    if not rep.ok():
        raise InputError(f"algebra invalid: {rep}")
    grading = lie.lower_central_grading(algebra)
    preds = spectral.predict_small_counts(algebra, "point", cfg.degrees)
    degs = []
    for p, pred in zip(cfg.degrees, preds):
        spectra = [lie.rescaled_spectrum(algebra, grading, None, p, eps)
                   for eps in cfg.sweep_values]
        degs.append(_degree_report(p, cfg.sweep_values, spectra,
                                   pred.count, cfg.count))
    return ScenarioReport(cfg, tuple(degs))


def _run_monodromy_degeneration(cfg: ScenarioConfig) -> ScenarioReport:
    algebra = lie.load_algebra(cfg.model.get("algebra", "abelian:2"))
    phi_rows = cfg.model.get("monodromy")
    if phi_rows is None:
        raise InputError("monodromy_degeneration needs a 'monodromy' matrix")
    phi_exact = RationalMatrix(phi_rows)
    phi = phi_exact.to_numpy()
    weights = np.array(cfg.model.get("gauge_weights", [0] * algebra.n),
                       dtype=float)
    if len(weights) != algebra.n:
        raise InputError("one gauge weight per fiber dimension")
    circ = tuple(cfg.model.get("circumferences", [1.0]))
    preds = spectral.predict_small_counts(algebra, "circle", cfg.degrees,
                                          monodromy_action=[phi_exact])
    degs = []
    for p, pred in zip(cfg.degrees, preds):
        spectra = []
        for t in cfg.sweep_values:
            G = np.diag(t ** weights)
            base = sconn.BaseModel("circle", cfg.resolution, circ)
            sc = sconn.from_affine_bundle(
                algebra, base,
                monodromy_action=[G @ phi @ np.linalg.inv(G)])
            h = sconn.MetricField.equivariant(sc.bundle, base)
            spectra.append(sconn.spectrum(sc, h, p, count=cfg.count))
        degs.append(_degree_report(p, cfg.sweep_values, spectra,
                                   pred.count, cfg.count))
    return ScenarioReport(cfg, tuple(degs))


def _run_circle_bundle(cfg: ScenarioConfig) -> ScenarioReport:
    circ = tuple(cfg.model.get("circumferences", [1.0, 1.0]))
    base = sconn.BaseModel("torus2", cfg.resolution, circ)
    fiber = lie.abelian(1)
    one = RationalMatrix.identity(1)
    preds = spectral.predict_small_counts(fiber, "torus2", cfg.degrees,
                                          monodromy_action=[one, one],
                                          T=[Fraction(1)])
    degs = []
    for p, pred in zip(cfg.degrees, preds):
        spectra = []
        for delta in cfg.sweep_values:
            sc = sconn.circle_bundle_model(base, delta)
            h = sconn.MetricField.identity(sc.bundle)
            spectra.append(sconn.spectrum(sc, h, p, count=cfg.count,
                                          check_metric=False))
        degs.append(_degree_report(p, cfg.sweep_values, spectra,
                                   pred.count, cfg.count))
    return ScenarioReport(cfg, tuple(degs))


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
    "monodromy_degeneration": _run_monodromy_degeneration,
    "circle_bundle_adiabatic": _run_circle_bundle,
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
