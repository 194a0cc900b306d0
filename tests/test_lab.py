"""Scenario runner: configuration validation, preset behavior, report
emission, and determinism."""

import csv
import dataclasses
import json
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from nilcollapse import lab, spectral, lie
from nilcollapse import superconnection as sconn
from nilcollapse.numerics import InputError, RationalMatrix
from nilcollapse.report import ZERO_TOL
from tests import oracles
from tests.conftest import (HEIS3_SKEW, filiform_torus_complex,
                            rescaled_spectra, spy)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_validation_errors():
    with pytest.raises(InputError):
        lab.ScenarioConfig(kind="frobnicate")
    with pytest.raises(InputError):
        lab.ScenarioConfig(kind="nil_rescale", sweep_values=())
    with pytest.raises(InputError):
        lab.ScenarioConfig(kind="nil_rescale", sweep_values=(1.0, -0.1))
    with pytest.raises(InputError):
        lab.ScenarioConfig(kind="nil_rescale", sweep_values=(1.0, 0.1, 0.5))
    with pytest.raises(InputError):
        lab.ScenarioConfig(kind="nil_rescale", sweep_values=(1.0, 0.1),
                           resolution=4)


def test_config_rejects_non_numeric_sweep_and_degrees():
    for bad in ({"sweep_values": ["big", "small"]},
                {"sweep_values": [1.0, 0.1], "degrees": ["one"]},
                {"sweep_values": [1.0, None]}):
        with pytest.raises(InputError, match="must be numbers"):
            lab.ScenarioConfig.from_dict({"kind": "nil_rescale", **bad})


def test_config_from_dict_rejects_unknown_fields():
    with pytest.raises(InputError):
        lab.ScenarioConfig.from_dict({"kind": "nil_rescale",
                                      "sweep_values": [1.0, 0.1],
                                      "color": "red"})


def test_load_scenario_sources(tmp_path):
    cfg = lab.load_scenario("example1_heisenberg_point")
    assert cfg.kind == "nil_rescale"
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"kind": "nil_rescale",
                                "model": {"algebra": "heisenberg:3"},
                                "sweep_values": [1.0, 0.1]}))
    assert lab.load_scenario(str(path)).sweep_values == (1.0, 0.1)
    with pytest.raises(InputError):
        lab.load_scenario("nonexistent_preset")


def test_presets_are_well_formed():
    assert set(lab.PRESETS) == {
        "example1_heisenberg_point", "example3_circle_bundle",
        "example7_heisenberg_circle", "example9_sol_circle",
        "cor7_heisenberg_T2"}
    for name in lab.PRESETS:
        cfg = lab.load_scenario(name)
        assert cfg.kind in lab.KINDS


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def test_nil_rescale_scenario():
    rep = lab.run("example1_heisenberg_point")
    assert rep.passed()
    d = rep.degrees[0]
    assert d.predicted_small_count == 3
    assert d.observed_small_count == 3
    assert d.kernel_stable
    # the one decaying positive eigenvalue tracks the sweep parameter linearly
    decaying = [s for s in d.slopes if not s.undetermined]
    assert decaying and decaying[0].slope == pytest.approx(1.0, abs=0.05)
    # in a basis not adapted to the filtration the decaying mode is 4 eps
    eps = (1e-1, 1e-2, 1e-3)
    rep = lab.run({"kind": "nil_rescale", "model": {"algebra": HEIS3_SKEW},
                   "sweep_values": eps, "degrees": [1, 2]})
    assert rep.passed()
    for d in rep.degrees:
        assert d.predicted_small_count == d.observed_small_count == 3
        for e, s in zip(eps, d.spectra):
            assert np.allclose(s.eigenvalues, [0.0, 0.0, 4 * e],
                               rtol=1e-12, atol=0.0)


# [e1, e2] = 2 e3, [e1, e3] = 3 e4, [e2, e3] = e4: a three-step algebra
# whose brackets are not all 1
STEP3 = {"dim": 4, "name": "step3", "brackets": [
    {"i": 1, "j": 2, "k": 3, "c": 2}, {"i": 1, "j": 3, "k": 4, "c": 3},
    {"i": 2, "j": 3, "k": 4, "c": 1}]}


@pytest.mark.parametrize("algebra", [
    "heisenberg:3", "filiform:4", "filiform:5", STEP3, HEIS3_SKEW],
    ids=["heisenberg:3", "filiform:4", "filiform:5", "step3",
         "heisenberg:3-skew"])
def test_nil_rescale_matches_the_float_formula(algebra):
    # the point-base route against the number-operator formula it replaced,
    # in every degree: each eigenvalue to 1e-9 relative, or to 1e-14 of the
    # largest for one at rounding level
    grading = lie.lower_central_grading(lie.load_algebra(algebra))
    sweep = (1.0, 1e-1, 1e-2, 1e-3)
    for p in range(grading.algebra.n + 1):
        for eps, got in zip(sweep, rescaled_spectra(algebra, p, sweep)):
            want = oracles.rescaled_spectrum(grading, p, eps).eigenvalues
            assert got.eigenvalues.shape == want.shape
            bound = 1e-9 * want + 1e-14 * want.max(initial=0.0)
            assert np.all(np.abs(got.eigenvalues - want) <= bound), (p, eps)


def test_nil_rescale_reports_count_eigenvalues():
    # heisenberg:5 has 10 two-forms: like every kind, the scenario reports
    # the lowest `count` of them at each sweep point
    rep = lab.run({"kind": "nil_rescale", "model": {"algebra": "heisenberg:5"},
                   "sweep_values": [0.1, 0.01], "degrees": [1, 2],
                   "count": 4})
    assert [[len(s.eigenvalues) for s in d.spectra] for d in rep.degrees] \
        == [[4, 4], [4, 4]]


def test_monodromy_degeneration_sol_scenario():
    rep = lab.run("example9_sol_circle")
    d = rep.degrees[0]
    assert d.predicted_small_count == 1
    assert d.observed_small_count == 1
    assert d.prediction_matches
    # the spectral gap stays put: first positive eigenvalue near (ln mu)^2
    mu = (3.0 + np.sqrt(5.0)) / 2.0
    for spec in d.spectra:
        positive = spec.eigenvalues[spec.eigenvalues > 1e-10]
        assert positive[0] == pytest.approx(np.log(mu) ** 2, rel=5e-3)


def test_prediction_builds_the_twisted_pages_once_per_scenario(monkeypatch):
    calls = []
    real = spectral.spectral_sequence

    def counted(cx):
        calls.append(cx)
        return real(cx)

    def degree_reports(degrees):
        cfg = dict(lab.PRESETS["example9_sol_circle"], degrees=degrees)
        return json.dumps(lab.run(cfg).to_dict()["degrees"], sort_keys=True)

    monkeypatch.setattr(spectral, "spectral_sequence", counted)
    together = degree_reports((0, 1, 2))
    assert len(calls) == 1
    # asking for one degree at a time gives the same report per degree
    apart = [json.loads(degree_reports((p,)))[0] for p in (0, 1, 2)]
    assert len(calls) == 4
    assert together == json.dumps(apart, sort_keys=True)


def test_bundle_scenarios_build_each_sweep_point_once(monkeypatch):
    models, supers = [], []
    real, init = sconn.from_affine_bundle, sconn.Superconnection.__init__
    monkeypatch.setattr(sconn, "from_affine_bundle",
                        lambda *a, **kw: models.append(1) or real(*a, **kw))
    monkeypatch.setattr(sconn.Superconnection, "__init__",
                        lambda *a, **kw: supers.append(1) or init(*a, **kw))
    # a sweep point changes only the constant fiber metric, so each
    # scenario builds its one flat superconnection once, over a point for
    # nil_rescale
    for name in lab.PRESETS:
        models.clear()
        supers.clear()
        cfg = dict(lab.PRESETS[name], degrees=(0, 1, 2))
        rep = lab.run(cfg)
        assert len(models) == len(supers) == 1, name
        assert [len(d.spectra) for d in rep.degrees] == [
            len(cfg["sweep_values"])] * 3


def test_rescaling_sweep_builds_each_differential_once(monkeypatch):
    # the exact differentials do not depend on eps: heisenberg:3 needs d on
    # the 0-, 1- and 2-forms for the prediction and d on the 0-, 1- and
    # 2-forms of the adapted algebra for its one superconnection over a
    # point, each built once for the 4 sweep points
    calls = []
    real = lie.ce_differential
    plain = json.dumps(lab.run("example1_heisenberg_point").to_dict(),
                       sort_keys=True)
    monkeypatch.setattr(lie, "ce_differential",
                        lambda alg, q: calls.append(q) or real(alg, q))
    rep = lab.run("example1_heisenberg_point")
    assert json.dumps(rep.to_dict(), sort_keys=True) == plain
    assert len(rep.degrees[0].spectra) == 4
    assert sorted(calls) == [0, 0, 1, 1, 2, 2]


def test_sweep_builds_each_bloch_symbol_once(monkeypatch):
    # degrees 0, 1, 2 solve on the symbols of degrees -1 .. 2: 4 per point,
    # 16 over the 4 points, each built once although two degrees read it
    calls = []  # holding each complex keeps its id from being reused
    real = sconn.DiscreteComplex._bloch_symbol

    def counted(dc, p, phase):
        calls.append((dc, p))
        return real(dc, p, phase)

    cfg = dict(lab.PRESETS["example7_heisenberg_circle"], degrees=(0, 1, 2))
    plain = json.dumps(lab.run(cfg).to_dict(), sort_keys=True)
    monkeypatch.setattr(sconn.DiscreteComplex, "_bloch_symbol", counted)
    assert json.dumps(lab.run(cfg).to_dict(), sort_keys=True) == plain
    assert len(calls) == len({(id(dc), p) for dc, p in calls}) == 16


def test_prediction_builds_each_holonomy_action_once(monkeypatch):
    inversions, compounds = [], []
    inverse, compound = spectral.inverse_exact, lie.compound_matrix
    monkeypatch.setattr(spectral, "inverse_exact",
                        lambda g: inversions.append(g) or inverse(g))
    monkeypatch.setattr(lie, "compound_matrix",
                        lambda rows, b: compounds.append(b) or compound(rows, b))
    predict = spectral.predict_small_counts
    counts = []

    def counted(*args, **kw):
        before = len(inversions), len(compounds)
        out = predict(*args, **kw)
        counts.append((len(inversions) - before[0], len(compounds) - before[1]))
        return out

    monkeypatch.setattr(spectral, "predict_small_counts", counted)
    rep = lab.run(dict(lab.PRESETS["example3_circle_bundle"],
                       degrees=(0, 1, 2)))
    # two torus generators, each inverted once for all degrees and cases,
    # and acting on the 0- and 1-forms of the circle fiber: 2 x 2 compounds
    assert counts == [(2, 4)]
    assert [d.predicted_small_count for d in rep.degrees] == [1, 3, 3]


def test_obstruction_case_two_decided_once_per_fiber_degree(monkeypatch):
    calls = []
    real = spectral.unipotent_factor
    monkeypatch.setattr(spectral, "unipotent_factor",
                        lambda phi: calls.append(phi) or real(phi))
    rep = lab.run(dict(lab.PRESETS["example7_heisenberg_circle"],
                       degrees=(0, 1, 2)))
    # one generator acting on fiber cohomology in degrees 0 and 1; degree 1
    # is already non-semisimple, so degree 2 is never reached
    assert len(calls) == 2
    assert [d.predicted_small_count for d in rep.degrees] == [1, 3, 3]


@pytest.mark.parametrize("name, want", [("example7_heisenberg_circle", 3),
                                        ("example9_sol_circle", 3)])
def test_monodromy_sweep_takes_each_logarithm_once(monkeypatch, name, want):
    # one logarithm per fiber degree (abelian:2 has 0-, 1- and 2-forms),
    # all taken before the first sweep point solves; only example7's
    # degree-1 Jordan block has no well-conditioned eigenbasis, so only it
    # goes to logm
    events = []
    spy(monkeypatch, sconn, "_principal_log", events, "log")
    spy(monkeypatch, sconn.scipy.linalg, "logm", events, "logm")
    spy(monkeypatch, sconn, "spectra", events, "solve")
    cfg = dict(lab.PRESETS[name], degrees=(0, 1, 2))
    rep = lab.run(cfg)
    steps = [e for e in events if e != "logm"]
    assert steps == ["log"] * want + ["solve"] * len(cfg["sweep_values"])
    assert events.count("logm") == {"example7_heisenberg_circle": 1,
                                    "example9_sol_circle": 0}[name]
    assert rep.passed()


@pytest.mark.parametrize("name", ["example7_heisenberg_circle",
                                  "example9_sol_circle"])
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
def test_carried_logarithms_match_logm(name, reverse):
    # every point solves the one bundle, and its metric shares the
    # logarithms logm took of that bundle's monodromies
    cfg = lab.load_scenario(name)
    values = cfg.sweep_values[::-1] if reverse else cfg.sweep_values
    cfg = dataclasses.replace(cfg, sweep_values=values)
    (sc, h), *rest = lab.prepare(cfg).points
    assert all(other is sc and g.logs is h.logs for other, g in rest)
    for b in range(len(sc.bundle.ranks)):
        want = scipy.linalg.logm(sc.bundle.monodromy(0, b))
        assert np.abs(np.imag(want)).max() <= 1e-12
        err = np.abs(h.logs[0][b] - np.real(want)).max()
        assert err <= 1e-12 * np.abs(want).max()


UNIPOTENT_H3 = {"kind": "monodromy_degeneration",
                "model": {"algebra": "heisenberg:3",
                          "monodromy": [[1, 0, 0], [1, 1, 0], [0, 0, 1]],
                          "gauge_weights": [1, 0, 1]},
                "sweep_values": (1.0, 0.1, 0.01, 0.001), "resolution": 16,
                "count": 8}


@pytest.mark.parametrize("scenario", [
    lab.PRESETS["example7_heisenberg_circle"],
    lab.PRESETS["example9_sol_circle"],
    dict(lab.PRESETS["cor7_heisenberg_T2"], resolution=16),
    UNIPOTENT_H3], ids=["example7", "example9", "cor7@16", "heisenberg3"])
def test_sweep_points_match_their_own_bundles(scenario):
    # conjugating the holonomy by D(t) = diag(t^w), or scaling a2 by delta,
    # is a constant gauge change that moves diag(t^-2w_I), or delta^-2b on
    # b-forms, into the fiber metric of the one bundle the sweep builds
    cfg = lab.load_scenario(dict(scenario, degrees=(0, 1, 2, 3)))
    model = scenario["model"]
    for t, (sc, h) in zip(cfg.sweep_values, lab.prepare(cfg).points):
        if cfg.kind == "circle_bundle_adiabatic":
            oracle = oracles.adiabatic_point(sc.base, t)
        else:
            oracle = oracles.degeneration_point(
                lie.load_algebra(model["algebra"]), sc.base,
                RationalMatrix(model["monodromy"]), model["gauge_weights"], t)
        got = sconn.spectra(sc, h, cfg.degrees, count=cfg.count)
        want = sconn.spectra(*oracle, cfg.degrees, count=cfg.count)
        for s, o in zip(got, want):
            zero = o.eigenvalues <= ZERO_TOL
            assert np.array_equal(s.eigenvalues <= ZERO_TOL, zero)
            assert np.all(np.abs(s.eigenvalues - o.eigenvalues)[~zero]
                          <= 1e-9 * o.eigenvalues[~zero])


@pytest.mark.parametrize("name", [n for n, cfg in lab.PRESETS.items()
                                  if cfg["kind"] != "nil_rescale"])
def test_prepare_checks_each_metric_once(monkeypatch, name):
    # each metric is checked when it is built: one per sweep point, and the
    # one metric the points take their logarithms from
    checked = []
    check = sconn.MetricField.check_equivariance
    monkeypatch.setattr(sconn.MetricField, "check_equivariance",
                        lambda h: checked.append(h) or check(h))
    points = lab.prepare(name).points
    metrics = {id(h) for _, h in points}
    assert len({id(h) for h in checked}) == len(checked) == len(metrics) + 1
    [source] = [h for h in checked if id(h) not in metrics]
    assert all(h.logs is source.logs for _, h in points)


@pytest.mark.parametrize("name, case", [
    ("example1_heisenberg_point", 1), ("example3_circle_bundle", 3),
    ("example7_heisenberg_circle", 2), ("example9_sol_circle", None),
    ("cor7_heisenberg_T2", 3)])
def test_reports_carry_the_obstruction_case(name, case):
    # the case depends on the model only: two sweep points at the coarsest
    # grid are enough
    cfg = dict(lab.PRESETS[name], resolution=8)
    cfg["sweep_values"] = cfg["sweep_values"][:2]
    d = lab.run(cfg).degrees[0]
    assert d.obstruction_case == case
    assert d.to_dict()["obstruction_case"] == case


def test_gauge_weights_must_be_integers():
    for weights in ([0.5, 0], ["1/2", 0], [1], [True, 0], 1):
        cfg = dict(lab.PRESETS["example7_heisenberg_circle"])
        cfg["model"] = dict(cfg["model"], gauge_weights=weights)
        with pytest.raises(InputError):
            lab.run(cfg)


def test_spectral_sequence_report_scenario():
    cx = oracles.from_algebra(lie.heisenberg(3))
    cfg = lab.ScenarioConfig(kind="spectral_sequence_report",
                             model={"payload": cx.to_dict()})
    rep = lab.run(cfg)
    assert rep.pages["total_cohomology"] == [1, 2, 2, 1]
    assert rep.pages["stabilizes_at"] >= 1
    assert rep.passed()


def test_spectral_sequence_report_builds_each_page_once(monkeypatch):
    cx = filiform_torus_complex(5)
    calls = Counter()
    real = spectral.page

    def counted(cx, r):
        calls[r] += 1
        return real(cx, r)

    monkeypatch.setattr(spectral, "page", counted)
    rep = lab.run(lab.ScenarioConfig(kind="spectral_sequence_report",
                                     model={"payload": cx.to_dict()}))
    assert rep.pages["stabilizes_at"] == 3
    assert calls == {r: 1 for r in range(1, cx.a_max + 2)}


def test_spectral_sequence_report_needs_a_complex():
    cfg = lab.ScenarioConfig(kind="spectral_sequence_report", model={})
    with pytest.raises(InputError):
        lab.run(cfg)


def test_prepare_builds_everything_and_solves_nothing(monkeypatch):
    def forbidden(*args, **kw):
        raise AssertionError("prepare solved")

    # the eigensolves, and the pages of a spectral_sequence_report, are the
    # step that prepare returns
    monkeypatch.setattr(sconn, "spectrum", forbidden)
    monkeypatch.setattr(sconn, "spectra", forbidden)
    for name in lab.PRESETS:
        step = lab.prepare(name)
        assert len(step.points) == len(step.config.sweep_values)
        assert len(step.predictions) == len(step.config.degrees)
    monkeypatch.setattr(spectral, "spectral_sequence", forbidden)
    cx = oracles.from_algebra(lie.heisenberg(3))
    lab.prepare({"kind": "spectral_sequence_report",
                 "model": {"payload": cx.to_dict()}})


def test_run_is_deterministic():
    a = json.dumps(lab.run("example1_heisenberg_point").to_dict(), sort_keys=True)
    b = json.dumps(lab.run("example1_heisenberg_point").to_dict(), sort_keys=True)
    assert a == b


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_report():
    cfg = lab.ScenarioConfig(kind="nil_rescale",
                             model={"algebra": "heisenberg:3"},
                             sweep_values=(1e-1, 1e-2), count=3,
                             name="tiny")
    return lab.run(cfg)


def test_emit_json_round_trip(small_report, tmp_path):
    path = tmp_path / "r.json"
    lab.emit(small_report, "json", path)
    loaded = json.loads(path.read_text())
    assert loaded == small_report.to_dict()


def test_emit_csv_layout(small_report, tmp_path):
    path = tmp_path / "r.csv"
    lab.emit(small_report, "csv", path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == lab.CSV_COLUMNS
    # one row per (sweep value, eigenvalue index)
    assert len(rows) - 1 == sum(len(s.eigenvalues)
                                for d in small_report.degrees
                                for s in d.spectra)
    assert rows[1][0] == "tiny" and rows[1][3] == "1"


def test_emit_plotdata_layout(small_report, tmp_path):
    path = tmp_path / "r.dat"
    lab.emit(small_report, "plotdata", path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) - 1 == sum(len(s.eigenvalues)
                                 for d in small_report.degrees
                                 for s in d.spectra)


def test_emit_unknown_format(small_report, tmp_path):
    with pytest.raises(InputError):
        lab.emit(small_report, "xml", tmp_path / "r.xml")


# ---------------------------------------------------------------------------
# internal statistics
# ---------------------------------------------------------------------------

def test_observed_count_decay_rule():
    from nilcollapse.report import SpectrumReport
    mk = lambda lam: SpectrumReport.from_eigenvalues(1, lam)
    pred = spectral.SmallCountPrediction(1, 2, {}, None)
    values = (1.0, 0.1, 0.01)
    # index 0 exactly zero, index 1 decays, index 2 flat
    spectra = [mk([0.0, 1.0, 5.0]), mk([0.0, 0.1, 5.0]), mk([0.0, 0.01, 5.0])]
    d = lab._degree_report(1, values, spectra, pred, 3)
    assert d.observed_small_count == 2
    assert [(s.index, round(s.slope, 12)) for s in d.slopes] == [(1, 1.0)]
    # stop at the first non-collapsing index even if later ones decay; the
    # later one still gets its rate
    spectra = [mk([0.0, 1.0, 5.0]), mk([0.0, 1.0, 3.0]), mk([0.0, 1.0, 2.0])]
    d = lab._degree_report(1, values, spectra, pred, 3)
    assert d.observed_small_count == 1
    assert [s.index for s in d.slopes] == [2]


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_decay_rule_matches_per_index_loop(seed):
    # the one sweep x index table against the rule read one index at a time
    from nilcollapse.report import ZERO_TOL, SpectrumReport
    rng = np.random.default_rng(seed)
    values = sorted(rng.uniform(0.01, 1.0, rng.integers(2, 5)), reverse=True)
    spectra = [SpectrumReport.from_eigenvalues(1, rng.choice(
        [0.0, 1e-11, 1e-3, 0.1, 1.0, 5.0], rng.integers(1, 6)))
        for _ in values]
    count = int(rng.integers(1, 6))
    n = min(count, min(len(s.eigenvalues) for s in spectra))
    column = [np.array([s.eigenvalues[j] for s in spectra]) for j in range(n)]
    decays = [lam[-1] <= ZERO_TOL
              or lam[-1] <= lab.DECAY_FACTOR * max(lam[0], ZERO_TOL)
              for lam in column]
    pred = spectral.SmallCountPrediction(1, 0, {}, None)
    d = lab._degree_report(1, values, spectra, pred, count)
    assert d.observed_small_count == (decays + [False]).index(False)
    # a decaying index gets a rate unless it is zero at a fitted value
    assert [s.index for s in d.slopes] == [
        j for j in range(n) if decays[j] and min(column[j][-3:]) > ZERO_TOL]
