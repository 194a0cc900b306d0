"""Scenario runner: configuration validation, preset behavior, report
emission, and determinism."""

import csv
import dataclasses
import json
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from nilcollapse import lab, spectral, lie
from nilcollapse import superconnection as sconn
from nilcollapse.numerics import InputError, RationalMatrix
from tests.conftest import filiform_torus_complex


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
    calls = []
    real = lab.sconn.from_affine_bundle
    monkeypatch.setattr(lab.sconn, "from_affine_bundle",
                        lambda *args, **kw: calls.append(1) or real(*args, **kw))
    # the holonomy of example7 changes at each point; along example3 only
    # a2 = delta * a2(1) does, so its model is built once
    for name, builds in [("example7_heisenberg_circle", 4),
                         ("example3_circle_bundle", 1)]:
        calls.clear()
        cfg = dict(lab.PRESETS[name], degrees=(0, 1, 2))
        rep = lab.run(cfg)
        assert len(cfg["sweep_values"]) == 4
        assert len(calls) == builds, name
        assert [len(d.spectra) for d in rep.degrees] == [4, 4, 4]


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


def logm_calls(monkeypatch):
    calls = []
    real = scipy.linalg.logm
    monkeypatch.setattr(sconn.scipy.linalg, "logm",
                        lambda A, *a, **kw: calls.append(A) or real(A, *a, **kw))
    return calls


@pytest.mark.parametrize("name, want", [("example7_heisenberg_circle", 3),
                                        ("example9_sol_circle", 3)])
def test_monodromy_sweep_takes_each_logarithm_once(monkeypatch, name, want):
    # one logarithm per fiber degree (abelian:2 has 0-, 1- and 2-forms),
    # taken at the first sweep point only
    calls = logm_calls(monkeypatch)
    rep = lab.run(dict(lab.PRESETS[name], degrees=(0, 1, 2)))
    assert len(calls) == want
    assert rep.passed()


@pytest.mark.parametrize("name", ["example7_heisenberg_circle",
                                  "example9_sol_circle"])
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
def test_carried_logarithms_match_logm(name, reverse):
    cfg = lab.load_scenario(name)
    values = cfg.sweep_values[::-1] if reverse else cfg.sweep_values
    cfg = dataclasses.replace(cfg, sweep_values=values)
    _, at = lab.bundle_sweep(cfg)
    for v in values:
        sc, h = at(v)
        for b in range(len(sc.bundle.ranks)):
            want = scipy.linalg.logm(sc.bundle.monodromy(0, b))
            assert np.abs(np.imag(want)).max() <= 1e-12
            err = np.abs(h.logs[0][b] - np.real(want)).max()
            assert err <= 1e-12 * np.abs(want).max()


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
    cx = spectral.from_algebra(lie.heisenberg(3))
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
    loaded = lab.load_report(path)
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
    values = (1.0, 0.1, 0.01)
    # index 0 exactly zero, index 1 decays, index 2 flat
    spectra = [mk([0.0, 1.0, 5.0]), mk([0.0, 0.1, 5.0]), mk([0.0, 0.01, 5.0])]
    assert lab._observed_count(values, spectra, 3) == 2
    # stop at the first non-collapsing index even if later ones decay
    spectra = [mk([0.0, 1.0, 5.0]), mk([0.0, 1.0, 3.0]), mk([0.0, 1.0, 2.0])]
    assert lab._observed_count(values, spectra, 3) == 1
