"""Command-line interface: subcommands, output shapes, and exit codes
(0 success, 1 invalid input, 2 numerical inconsistency, 3 failed check)."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from nilcollapse import lab, lie, spectral, superconnection as sconn
from nilcollapse.cli import main
from nilcollapse.numerics import RationalMatrix
from tests.conftest import HEIS3_SKEW, filiform_torus_complex
from tests.oracles import from_algebra


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def algebra_file(tmp_path):
    path = tmp_path / "h3.json"
    path.write_text(json.dumps(
        {"dim": 3, "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1"}]}))
    return str(path)


@pytest.fixture
def bundle_file(tmp_path):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps({
        "base": {"kind": "circle", "resolution": 16},
        "fiber": "abelian:2",
        "monodromy_action": [[["1", "1"], ["0", "1"]]],
        "metric": "equivariant",
    }))
    return str(path)


@pytest.fixture
def complex_file(tmp_path):
    path = tmp_path / "cx.json"
    cx = from_algebra(lie.heisenberg(3))
    path.write_text(json.dumps(cx.to_dict()))
    return str(path)


def test_validate_algebra(runner, algebra_file):
    res = runner.invoke(main, ["validate", algebra_file])
    assert res.exit_code == 0
    assert "algebra: ok" in res.output


def test_validate_rejects_bad_algebra(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"dim": 2, "brackets": [{"i": 1, "j": 2, "k": 2, "c": "1"}]}))
    res = runner.invoke(main, ["validate", str(path)])
    assert res.exit_code == 1


def test_validate_bundle_and_complex(runner, bundle_file, complex_file):
    res = runner.invoke(main, ["validate", bundle_file])
    assert res.exit_code == 0 and "bundle: ok" in res.output
    res = runner.invoke(main, ["validate", complex_file])
    assert res.exit_code == 0 and "complex: ok" in res.output


def test_validate_scenario(runner, tmp_path):
    path = tmp_path / "s.json"
    for algebra in ("heisenberg:3", HEIS3_SKEW):
        path.write_text(json.dumps({"kind": "nil_rescale",
                                    "model": {"algebra": algebra},
                                    "sweep_values": [1.0, 0.1]}))
        res = runner.invoke(main, ["validate", str(path)])
        assert res.exit_code == 0 and "scenario: ok" in res.output
    path.write_text(json.dumps({"kind": "nil_rescale", "sweep_values": []}))
    res = runner.invoke(main, ["validate", str(path)])
    assert res.exit_code == 1


def test_lie_betti(runner, algebra_file):
    res = runner.invoke(main, ["lie", "betti", algebra_file])
    assert res.exit_code == 0
    assert res.output.split() == ["1", "2", "2", "1"]
    res = runner.invoke(main, ["lie", "betti", "heisenberg:3"])
    assert res.output.split() == ["1", "2", "2", "1"]


def test_lie_curvature(runner):
    res = runner.invoke(main, ["lie", "curvature", "heisenberg:3"])
    assert res.exit_code == 0
    assert res.output.startswith("-0.5")
    assert "cross-check -0.5" in res.output


def test_lie_rejects_unknown_preset(runner):
    res = runner.invoke(main, ["lie", "betti", "octonion:8"])
    assert res.exit_code == 1


def test_spectrum_command(runner, bundle_file):
    res = runner.invoke(main, ["spectrum", bundle_file, "--p", "1",
                               "--modes", "6"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["degree"] == 1
    assert len(payload["eigenvalues"]) == 6
    assert payload["eigenvalues"] == sorted(payload["eigenvalues"])


def test_spectrum_rejects_wrong_monodromy_count(runner, tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({
        "base": {"kind": "torus2", "resolution": 8},
        "ranks": [1],
        "monodromy": [[[["1"]]]],
    }))
    res = runner.invoke(main, ["spectrum", str(path)])
    assert res.exit_code == 1
    assert "torus2 base needs 2 monodromy generators" in res.output


def test_ss_command(runner, complex_file):
    res = runner.invoke(main, ["ss", complex_file])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["total_cohomology"] == [1, 2, 2, 1]


def test_ss_exits_two_on_inconsistent_pages(runner, complex_file, monkeypatch):
    real = spectral.page
    monkeypatch.setattr(spectral, "page", lambda cx, r: spectral.Page(
        r, {**real(cx, r).dims, (0, 0): 2}, {}))
    res = runner.invoke(main, ["ss", complex_file])
    assert res.exit_code == 2
    assert "total cohomology 1 in degree 0" in res.output


def test_validate_rejects_inexact_float_complex(runner, tmp_path):
    path = tmp_path / "float.json"
    path.write_text(json.dumps({
        "dims": [[0, 0, 1], [0, 1, 1]],
        "maps": [{"shift": 0, "a": 0, "b": 0, "matrix": [[0.1]]}],
    }))
    res = runner.invoke(main, ["validate", str(path)])
    assert res.exit_code == 1
    assert "non-integral float 0.1" in res.output


def test_validate_rejects_zero_denominator_complex(runner, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({
        "dims": [[0, 0, 1], [0, 1, 1]],
        "maps": [{"shift": 0, "a": 0, "b": 0, "matrix": [["1/0"]]}],
    }))
    res = runner.invoke(main, ["validate", str(path)])
    assert res.exit_code == 1
    assert "'1/0'" in res.output


def test_run_preset_with_check_and_outputs(runner, tmp_path):
    out = tmp_path / "out"
    res = runner.invoke(main, ["run", "example1_heisenberg_point",
                               "--check", "--out", str(out),
                               "--fmt", "json", "--fmt", "csv"])
    assert res.exit_code == 0
    summary = json.loads(res.output)
    assert summary["degrees"][0]["predicted"] == 3
    assert summary["degrees"][0]["observed"] == 3
    assert (out / "example1_heisenberg_point.json").exists()
    assert (out / "example1_heisenberg_point.csv").exists()


def test_run_unknown_scenario(runner):
    res = runner.invoke(main, ["run", "no_such_scenario"])
    assert res.exit_code == 1


def test_run_check_failure_exits_three(runner, tmp_path):
    # a sweep too short for the predicted collapse to be observed
    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        "kind": "nil_rescale",
        "model": {"algebra": "heisenberg:3"},
        "sweep_values": [1.0, 0.99],
        "count": 4,
    }))
    res = runner.invoke(main, ["run", str(path), "--check"])
    assert res.exit_code == 3
    # stdout is the summary alone, and stderr names the failing degree
    # with its predicted and observed counts
    assert json.loads(res.stdout)["degrees"][0]["prediction_matches"] is False
    assert res.stderr == ("error: scenario acceptance check failed; degree 1: "
                          "predicted 3 small eigenvalues, observed 2\n")


@pytest.mark.parametrize("payload, reason", [
    ({"base": {"kind": "torus2", "resolution": 8}, "fiber": "abelian:1",
      "a2": {"interior": [0.1]}}, "non-integral float 0.1"),
    ({"base": {"kind": "circle", "resolution": "high"}, "ranks": [1]},
     "malformed base description"),
    ({"base": {"kind": "circle", "resolution": 8, "circumferences": ["a"]},
      "ranks": [1]}, "bad circumference list"),
    ({"base": {"kind": "circle", "resolution": 8}, "ranks": [1, 1],
      "monodromy": [[[[2]], [[1]]]], "a0_blocks": [[[1]]]},
     "flatness identity 'parallel_a0' fails in degree 0 of generator 0"),
    ({"base": {"kind": "circle", "resolution": 8}, "ranks": [1, 1, 1],
      "a0_blocks": [[[1]], [[1]]]},
     "flatness identity 'squares' fails in degree 0"),
    ({"base": {"kind": "torus2", "resolution": 8}, "ranks": [1, 1],
      "monodromy": [[[[1]], [[2]]], [[[1]], [[1]]]], "a2_blocks": [[[1]]]},
     "flatness identity 'parallel_a2' fails in degree 1 of generator 0"),
    ({"base": {"kind": "torus2", "resolution": 8}, "ranks": [2],
      "monodromy": [[[[1, 1], [0, 1]]], [[[1, 0], [1, 1]]]]},
     "flatness identity 'curvature' fails in degree 0"),
    ({"base": {"kind": "torus2", "resolution": 8}, "ranks": [1, 1],
      "a0_blocks": [[[1]]], "a2_blocks": [[[1]]]},
     "flatness identity 'curvature' fails in degree 0"),
    ({"base": {"kind": "circle", "resolution": 8}, "ranks": [1],
      "monodromy": [[[[2]]]], "metric": "identity"},
     "metric violates monodromy equivariance (degree 0)"),
    ({"base": {"kind": "circle", "resolution": 8}, "fiber": "heisenberg:3",
      "monodromy_action": [[[2, 0, 0], [0, 1, 0], [0, 0, 1]]]},
     "flatness identity 'parallel_a0' fails in degree 1 of generator 0"),
    ({"base": {"kind": "circle", "resolution": 8}, "ranks": [1, 1],
      "monodromy": [[[2], [1]]]}, "a matrix must be a list of rows"),
    ({"base": {"kind": "circle", "resolution": 8}, "ranks": [1.5]},
     "each rank must be an integer, got 1.5"),
    ({"base": {"kind": "circle", "resolution": 8}, "ranks": [True]},
     "each rank must be an integer, got True"),
    ({"base": {"kind": "circle", "resolution": 8,
               "circumferences": [float("nan")]}, "ranks": [1]},
     "each circumference must be a finite number, got nan"),
    ({"base": {"kind": "circle", "resolution": 8}, "ranks": [2],
      "monodromy": [[[[1, 1], [1, 1]]]]}, "monodromy must be invertible"),
    # det 1 exactly, but of rank 1 in floats: refused before its logarithm
    ({"base": {"kind": "circle", "resolution": 8}, "ranks": [2],
      "monodromy": [[[["100000000000000000001", "1"],
                      ["100000000000000000000", "1"]]]],
      "metric": "equivariant"},
     "monodromy is singular in floats; supply a metric explicitly"),
    ({"base": {"kind": "point", "resolution": 8}, "ranks": [1, 1],
      "a0_blocks": [[["2"]]], "a2_blocks": [[[1]]]},
     "a2 needs a 2-dimensional base"),
    ({"base": {"kind": "point", "resolution": 8}, "ranks": [1],
      "monodromy": [[[[1]]]]},
     "a point base needs 0 monodromy generators, got 1"),
], ids=["inexact-interior", "resolution", "circumferences", "not-flat",
        "not-squaring-to-zero", "a2-not-parallel", "non-commuting-holonomies",
        "a0-a2-anticommutator", "metric-not-equivariant", "holonomy-not-automorphism", "row-not-list",
        "fractional-rank", "bool-rank", "nan-circumference",
        "singular-monodromy", "monodromy-singular-in-floats",
        "a2-over-a-point", "monodromy-over-a-point"])
def test_validate_rejects_bad_bundle_entries(runner, tmp_path, payload, reason):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(payload))
    res = runner.invoke(main, ["validate", str(path)])
    assert res.exit_code == 1
    assert "error:" in res.output and reason in res.output


def test_explicit_bundle_over_a_point(runner, tmp_path):
    # a point is the 0-torus: one fiber vector per degree, no monodromy,
    # and the Laplacian a0^T a0 + a0 a0^T, here |a0|^2 = 4 in both degrees
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"base": {"kind": "point", "resolution": 8},
                                "ranks": [1, 1], "a0_blocks": [[["2"]]]}))
    res = runner.invoke(main, ["validate", str(path)])
    assert res.exit_code == 0 and "bundle: ok" in res.output, res.output
    for p in ("0", "1"):
        res = runner.invoke(main, ["spectrum", str(path), "--p", p])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["eigenvalues"] == [pytest.approx(4.0)]


# entries near 20 with denominators: the float products of exactly flat
# blocks built from M miss their identities by about 1e-12
M = RationalMatrix([["61/3", "2/7", "-1/5"], ["4/9", "131/7", "3/2"],
                    ["-5/6", "1/3", "22"]])


def _rows(A):
    return [[str(x) for x in row] for row in A.tolist()]


@pytest.mark.parametrize("payload", [
    {"base": {"kind": "circle", "resolution": 16}, "ranks": [3, 3],
     "monodromy": [[_rows(M), _rows(M)]],
     "a0_blocks": [_rows(M @ M @ M + M.scale(Fraction(5, 7)))]},
    {"base": {"kind": "torus2", "resolution": 8}, "ranks": [3],
     "monodromy": [[_rows(M)], [_rows(M @ M + M.scale(Fraction(5, 7)))]]},
], ids=["circle", "torus2"])
def test_validate_accepts_exactly_flat_bundles(runner, tmp_path, payload):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(dict(payload, metric="equivariant")))
    res = runner.invoke(main, ["validate", str(path)])
    assert res.exit_code == 0 and "bundle: ok" in res.output, res.output
    res = runner.invoke(main, ["spectrum", str(path), "--p", "0"])
    assert res.exit_code == 0, res.output
    assert len(json.loads(res.output)["eigenvalues"]) == 12


@pytest.mark.parametrize("command", [["validate"], ["spectrum", "--p", "0"]],
                         ids=["validate", "spectrum"])
@pytest.mark.parametrize("phi", [[[-1, 0], [0, -1]], [[-1, 1], [0, -1]]],
                         ids=["minus-identity", "minus-jordan"])
def test_monodromy_without_real_logarithm_exits_one(runner, tmp_path, command,
                                                    phi):
    # -I has a well-conditioned eigenbasis and -J none: both logarithm
    # paths refuse a monodromy whose principal logarithm is not real
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps({
        "base": {"kind": "circle", "resolution": 16}, "ranks": [2],
        "monodromy": [[phi]], "metric": "equivariant"}))
    res = runner.invoke(main, [command[0], str(path), *command[1:]])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert ("error: monodromy has no real logarithm; supply a metric "
            "explicitly") in res.output


def test_validate_accepts_rational_interior(runner, tmp_path):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps({"base": {"kind": "torus2", "resolution": 8},
                                "fiber": "abelian:1",
                                "a2": {"interior": ["1/10"]}}))
    res = runner.invoke(main, ["validate", str(path)])
    assert res.exit_code == 0 and "bundle: ok" in res.output


@pytest.mark.parametrize("command", ["validate", "run"])
def test_non_numeric_sweep_values_exit_one(runner, tmp_path, command):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"kind": "nil_rescale",
                                "model": {"algebra": "heisenberg:3"},
                                "sweep_values": ["big", "small"]}))
    res = runner.invoke(main, [command, str(path)])
    assert res.exit_code == 1
    assert "error: sweep values and degrees must be numbers" in res.output


def test_run_rejects_fractional_gauge_weights(runner, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        "kind": "monodromy_degeneration",
        "model": {"algebra": "abelian:2", "monodromy": [["1", "1"], ["0", "1"]],
                  "gauge_weights": [0.5, 0]},
        "sweep_values": [1.0, 0.1]}))
    res = runner.invoke(main, ["run", str(path)])
    assert res.exit_code == 1
    assert "error: each gauge weight must be an integer, got 0.5" in res.output


def test_run_rejects_monodromy_rows_that_are_not_lists(runner, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        "kind": "monodromy_degeneration",
        "model": {"algebra": "abelian:2", "monodromy": [1, 2]},
        "sweep_values": [1.0, 0.1]}))
    res = runner.invoke(main, ["run", str(path)])
    assert res.exit_code == 1
    assert "error: a matrix must be a list of rows" in res.output


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("field, value, reason", [
    ("degrees", [1.5], "each degree must be an integer, got 1.5"),
    ("resolution", 16.5, "resolution must be an integer, got 16.5"),
    ("count", 2.5, "count must be an integer, got 2.5"),
    ("count", 0, "count must be >= 1"),
    ("sweep_values", [True, 0.1],
     "each sweep value must be a finite number, got True"),
    ("sweep_values", [float("inf"), 0.1],
     "each sweep value must be a finite number, got inf"),
], ids=["fractional-degree", "fractional-resolution", "fractional-count",
        "zero-count", "bool-sweep-value", "infinite-sweep-value"])
def test_non_integer_scenario_entries_exit_one(runner, tmp_path, command,
                                               field, value, reason):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"kind": "nil_rescale",
                                "model": {"algebra": "heisenberg:3"},
                                "sweep_values": [1.0, 0.1], field: value}))
    res = runner.invoke(main, [command, str(path)])
    assert res.exit_code == 1
    assert "error:" in res.output and reason in res.output


@pytest.mark.parametrize("command", ["validate", "run"])
def test_integral_float_scenario_entries_accepted(runner, tmp_path, command):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"kind": "nil_rescale",
                                "model": {"algebra": "heisenberg:3"},
                                "sweep_values": [1.0, 0.1], "degrees": [1.0],
                                "resolution": 16.0, "count": 3.0}))
    res = runner.invoke(main, [command, str(path)])
    assert res.exit_code == 0


def test_validate_rejects_fractional_bundle_resolution(runner, tmp_path):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps({"base": {"kind": "circle", "resolution": 8.9},
                                "ranks": [1]}))
    res = runner.invoke(main, ["validate", str(path)])
    assert res.exit_code == 1
    assert "resolution must be an integer, got 8.9" in res.output
    path.write_text(json.dumps({"base": {"kind": "circle", "resolution": 8.0},
                                "ranks": [1]}))
    res = runner.invoke(main, ["validate", str(path)])
    assert res.exit_code == 0 and "bundle: ok" in res.output


def test_run_rejects_nan_circumference(runner, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        "kind": "monodromy_degeneration",
        "model": {"algebra": "abelian:2", "monodromy": [["1", "1"], ["0", "1"]],
                  "gauge_weights": [1, 0], "circumferences": [float("nan")]},
        "sweep_values": [1.0, 0.1], "resolution": 8}))
    res = runner.invoke(main, ["run", str(path)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert "error: bad circumference list: each circumference must be a " \
           "finite number, got nan" in res.output


H3_BRACKET = {"i": 1, "j": 2, "k": 3, "c": "1"}


@pytest.mark.parametrize("command", [["validate"], ["lie", "betti"]],
                         ids=["validate", "lie-betti"])
@pytest.mark.parametrize("payload, reason", [
    ({"dim": 3.7, "brackets": [H3_BRACKET]}, "dim must be an integer, got 3.7"),
    ({"dim": 3, "brackets": [dict(H3_BRACKET, k=0)]},
     "bracket (i, j, k) = (1, 2, 0) needs"),
    ({"dim": 3, "brackets": [dict(H3_BRACKET, k=4)]},
     "bracket (i, j, k) = (1, 2, 4) needs"),
    ({"dim": 3, "brackets": [dict(H3_BRACKET, c=0.1)]},
     "bracket coefficient c: non-integral float 0.1"),
    ({"dim": 3, "brackets": [dict(H3_BRACKET, j=True)]},
     "bracket index j must be an integer, got True"),
], ids=["fractional-dim", "k-zero", "k-above-dim", "inexact-c", "bool-index"])
def test_bad_algebra_entries_exit_one(runner, tmp_path, command, payload,
                                      reason):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(payload))
    res = runner.invoke(main, command + [str(path)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert "error:" in res.output and reason in res.output


def test_integral_float_bracket_index_accepted(runner, tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"dim": 3, "brackets": [dict(H3_BRACKET,
                                                            i=1.0)]}))
    res = runner.invoke(main, ["lie", "betti", str(path)])
    assert res.exit_code == 0 and res.output.split() == ["1", "2", "2", "1"]


def test_lie_rejects_fractional_preset_dimension(runner):
    res = runner.invoke(main, ["lie", "betti", "heisenberg:3.5"])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert "error: the dimension of heisenberg must be an integer, got '3.5'" \
        in res.output


def test_validate_rejects_fractional_complex_dims(runner, tmp_path):
    path = tmp_path / "cx.json"
    path.write_text(json.dumps({"dims": [[0, 0, 1.5]]}))
    res = runner.invoke(main, ["validate", str(path)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert "spot dimension must be an integer, got 1.5" in res.output


@pytest.fixture
def flip_bundle_file(tmp_path):
    # identity metric over the flip monodromy: spectrum solves every Bloch
    # mode in the gauge of the flip's complex logarithm
    path = tmp_path / "flip.json"
    path.write_text(json.dumps({
        "base": {"kind": "circle", "resolution": 16}, "ranks": [2],
        "monodromy": [[[[0, 1], [1, 0]]]], "metric": "identity"}))
    return str(path)


@pytest.mark.parametrize("path", ["bundle_file", "flip_bundle_file"],
                         ids=["bloch", "flip"])
def test_spectrum_rejects_negative_degree(runner, request, path):
    res = runner.invoke(main, ["spectrum", request.getfixturevalue(path),
                               "--p", "-1"])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert "error: degree must be >= 0, got -1" in res.output


@pytest.mark.parametrize("modes", ["0", "-1"])
def test_spectrum_rejects_nonpositive_modes(runner, bundle_file, modes):
    res = runner.invoke(main, ["spectrum", bundle_file, "--modes", modes])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert "error: count must be >= 1" in res.output


# ---------------------------------------------------------------------------
# scenario models: `validate` builds what `run` builds, without the solves
# ---------------------------------------------------------------------------

MODELS = {  # one good model of each kind
    "nil_rescale": {"algebra": "heisenberg:3"},
    "monodromy_degeneration": {"algebra": "abelian:2",
                               "monodromy": [["1", "1"], ["0", "1"]],
                               "gauge_weights": [1, 0]},
    "circle_bundle_adiabatic": {},
    "spectral_sequence_report": {
        "payload": from_algebra(lie.heisenberg(3)).to_dict()},
}
MONO = MODELS["monodromy_degeneration"]
NAN_CIRCUMFERENCE = ("bad circumference list: each circumference must be a "
                     "finite number, got nan")

# (kind, model, the error; it names the field)
BAD_MODELS = [
    pytest.param("monodromy_degeneration",
                 {"algebra": "abelian:2", "monodromy": MONO["monodromy"],
                  "gauge_weight": [1, 0]},
                 "unknown model fields ['gauge_weight'] for "
                 "monodromy_degeneration", id="misspelled-field"),
    *[pytest.param(kind, [1], f"model for {kind} must be an object, got [1]",
                   id=f"list-model-{kind}") for kind in MODELS],
    pytest.param("monodromy_degeneration", {"algebra": "abelian:2"},
                 "model for monodromy_degeneration needs 'monodromy'",
                 id="missing-monodromy"),
    pytest.param("nil_rescale", {}, "model for nil_rescale needs 'algebra'",
                 id="missing-algebra"),
    pytest.param("spectral_sequence_report", {},
                 "spectral_sequence_report needs one of 'complex' (a path) "
                 "or 'payload'", id="no-complex"),
    pytest.param("spectral_sequence_report", {"complex": "no_such_cx.json"},
                 "cannot read complex file 'no_such_cx.json': No such file "
                 "or directory",
                 id="missing-complex-file"),
    pytest.param("monodromy_degeneration",
                 dict(MONO, circumferences=[float("nan")]), NAN_CIRCUMFERENCE,
                 id="nan-circumference"),
    pytest.param("circle_bundle_adiabatic",
                 {"circumferences": [1.0, float("nan")]}, NAN_CIRCUMFERENCE,
                 id="nan-torus-circumference"),
    pytest.param("monodromy_degeneration", dict(MONO, gauge_weights=[0.5, 0]),
                 "each gauge weight must be an integer, got 0.5",
                 id="fractional-gauge-weight"),
    pytest.param("monodromy_degeneration", dict(MONO, gauge_weights=1),
                 "model field 'gauge_weights': 'int' object is not iterable",
                 id="gauge-weights-not-a-list"),
    pytest.param("monodromy_degeneration",
                 {"algebra": "heisenberg:3",
                  "monodromy": [[2, 0, 0], [0, 1, 0], [0, 0, 1]]},
                 "monodromy is not an automorphism of the algebra: flatness "
                 "identity 'parallel_a0' fails in degree 1 of generator 0",
                 id="not-an-automorphism"),
    pytest.param("monodromy_degeneration",
                 {"algebra": "heisenberg:3", "gauge_weights": [1, 0, 0],
                  "monodromy": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
                 "gauge_weights must grade the algebra: the bracket [e0, e1] "
                 "has an e2 term, but w[2] = 0 is not w[0] + w[1] = 1",
                 id="weights-that-do-not-grade"),
    # the fiber metric 0.1^(-2 w_I) overflows for w = [0, 200] and
    # underflows for [-200, 0], and the holonomy's nilpotent part, from e1
    # to e2, is scaled by 0.1^(w_1 - w_2) = 10^200: its square leaves the
    # float range, and the sweep is refused before anything is solved
    *[pytest.param("monodromy_degeneration", dict(MONO, gauge_weights=w),
                   "at sweep value 0.1: the weights take the degree-1 "
                   "Laplacian out of the float range", id=f"metric-{way}")
      for w, way in (([0, 200], "overflow"), ([-200, 0], "underflow"))],
    pytest.param("monodromy_degeneration",
                 dict(MONO, monodromy=[[1, 1], [1, 1]]),
                 "holonomy is not invertible", id="singular-holonomy"),
    pytest.param("monodromy_degeneration",
                 dict(MONO, monodromy=[[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                 "monodromy must be 2x2", id="holonomy-of-another-dimension"),
    pytest.param("circle_bundle_adiabatic",
                 {"fiber": "heisenberg:3", "T": [0, 0, 1]},
                 "unknown model fields ['T', 'fiber'] for "
                 "circle_bundle_adiabatic", id="adiabatic-fiber-and-T"),
    pytest.param("nil_rescal", MODELS["nil_rescale"],
                 "unknown scenario kind 'nil_rescal'", id="misspelled-kind"),
]


def scenario_file(tmp_path, kind, model, **fields):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"kind": kind, "model": model,
                                "sweep_values": [1.0, 0.1], "resolution": 8,
                                "count": 4, **fields}))
    return str(path)


@pytest.mark.parametrize("kind, model, reason", BAD_MODELS)
def test_bad_scenario_models_exit_one(runner, tmp_path, kind, model, reason):
    path = scenario_file(tmp_path, kind, model)
    validated, ran = (runner.invoke(main, [cmd, path])
                      for cmd in ("validate", "run"))
    for res in (validated, ran):
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert f"error: {reason}" in res.output
    assert validated.output == ran.output


def test_gauge_weights_that_scale_no_entry_up_solve():
    # w = [200, 0] and [0, -200] take the fiber metric out of the float
    # range too, but they scale the nilpotent part down, by 10^-200: the
    # sweep solves, with three zeros in degree 1 at t = 0.1. At [400, 0]
    # the factor 10^400 of the symbol's zero entries would overflow: only
    # nonzero entries are scaled
    for w in ([200, 0], [0, -200], [400, 0]):
        rep = lab.run({"kind": "monodromy_degeneration",
                       "model": dict(MONO, gauge_weights=w),
                       "sweep_values": [1.0, 0.1], "resolution": 8,
                       "count": 4})
        lam = rep.degrees[0].spectra[1].eigenvalues
        assert [round(float(x), 2) for x in lam] == [0, 0, 0, 37.49]


def test_nil_rescale_runs_while_its_laplacian_is_finite(runner, tmp_path):
    # filiform:6 has form weights up to 122, so its fiber metric eps^(-w_I)
    # leaves the float range at eps = 0.001, but the differential never
    # raises a weight: at eps < 1 every scaled entry shrinks, and the sweep
    # runs. At eps = 1000 filiform:7's entries grow past the float range,
    # and validate and run refuse it alike
    path = scenario_file(tmp_path, "nil_rescale", {"algebra": "filiform:6"},
                         sweep_values=[0.01, 0.001], count=6)
    res = runner.invoke(main, ["run", path])
    assert res.exit_code == 0, res.output
    path = scenario_file(tmp_path, "nil_rescale", {"algebra": "filiform:7"},
                         sweep_values=[1000.0, 1.0])
    validated, ran = (runner.invoke(main, [cmd, path])
                      for cmd in ("validate", "run"))
    for res in (validated, ran):
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert ("error: at sweep value 1000.0: the weights take the degree-1 "
                "Laplacian out of the float range") in res.output
    assert validated.output == ran.output


@pytest.mark.parametrize("sweep, degrees, named", [
    ([79.0, 100.0], [1, 2], "79.0: the weights take the degree-2"),
    ([79.0, 100.0], [2, 1], "79.0: the weights take the degree-2"),
    ([100.0, 79.0], [1, 2], "100.0: the weights take the degree-1"),
    ([100.0, 1000.0], [2, 1], "100.0: the weights take the degree-2"),
])
def test_sweep_refusal_names_the_first_point_then_degree(
        runner, tmp_path, sweep, degrees, named):
    # filiform:7's degree-2 Laplacian leaves the float range at
    # eps ~ 78.8, its degree-1 one at ~ 79.6: each degree is checked once
    # over the whole sweep, yet the refusal names the first sweep value
    # that fails and, there, the first degree in the config's order. Count
    # 4 shows no prediction either, but the float range is checked first
    path = scenario_file(tmp_path, "nil_rescale", {"algebra": "filiform:7"},
                         sweep_values=sweep, degrees=degrees)
    validated, ran = (runner.invoke(main, [cmd, path])
                      for cmd in ("validate", "run"))
    for res in (validated, ran):
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert (f"error: at sweep value {named} Laplacian out of the float "
                "range\n") == res.output
    assert validated.output == ran.output


@pytest.mark.parametrize("algebra, fields, reason", [
    # 10 two-forms, all predicted to collapse over a point: with count 8
    # the check read "predicted 10 small eigenvalues, observed 8"
    ("heisenberg:5", {"degrees": [2], "count": 8},
     "degree 2 predicts 10 small eigenvalues, so it needs count >= 10 to "
     "show them, got count 8"),
    # 20 three-forms, under the default count 12
    ("filiform:6", {"degrees": [3], "count": None,
                    "sweep_values": [0.01, 0.001]},
     "degree 3 predicts 20 small eigenvalues, so it needs count >= 20 to "
     "show them, got count 12"),
], ids=["heisenberg5-degree2", "filiform6-default-count"])
def test_count_that_cannot_show_the_prediction_exits_one(
        runner, tmp_path, algebra, fields, reason):
    path = scenario_file(tmp_path, "nil_rescale", {"algebra": algebra},
                         **fields)
    validated, ran = (runner.invoke(main, [cmd, path])
                      for cmd in ("validate", "run"))
    for res in (validated, ran):
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert f"error: {reason}" in res.output
    assert validated.output == ran.output


def test_pages_scenario_takes_one_complex(runner, tmp_path, complex_file):
    path = scenario_file(tmp_path, "spectral_sequence_report", {
        **MODELS["spectral_sequence_report"], "complex": complex_file})
    for cmd in ("validate", "run"):
        res = runner.invoke(main, [cmd, path])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert "error: spectral_sequence_report needs one of" in res.output


# (kind, model, scenario fields): corners of each kind that validate accepts
ACCEPTED = [
    ("nil_rescale", MODELS["nil_rescale"], {"degrees": [0, 1, 2, 3, 4]}),
    ("nil_rescale", {"algebra": {"dim": 3, "brackets": [H3_BRACKET]}}, {}),
    ("monodromy_degeneration", MONO, {"degrees": [0, 1, 2, 3]}),
    ("monodromy_degeneration", dict(MONO, gauge_weights=None), {}),
    ("monodromy_degeneration",
     {"monodromy": [[2, 1], [1, 1]], "circumferences": [2.0]}, {}),
    ("monodromy_degeneration",
     dict(MONO, algebra="heisenberg:3",
          monodromy=[[1, 0, 0], [0, 1, 0], [0, 0, 1]], gauge_weights=[0, 1, 1]),
     {"count": 5}),
    ("circle_bundle_adiabatic", {}, {"degrees": [0, 1, 2, 3, 4]}),
    ("circle_bundle_adiabatic", {"circumferences": [1.0, 2.0]},
     {"sweep_values": [0.1, 1.0]}),
    ("spectral_sequence_report", MODELS["spectral_sequence_report"],
     {"sweep_values": []}),
    ("spectral_sequence_report", {"payload": {"dims": [[0, 0, 1]]}}, {}),
]


@pytest.mark.parametrize("kind, model, fields", ACCEPTED,
                         ids=[f"{k}-{i}" for i, (k, _, _) in enumerate(ACCEPTED)])
def test_what_validate_accepts_run_accepts(runner, tmp_path, kind, model,
                                           fields):
    # degrees above the fiber dimension and a null field (its default)
    # included: once `validate` says ok, `run` does not exit 1
    path = scenario_file(tmp_path, kind, model, **fields)
    res = runner.invoke(main, ["validate", path])
    assert res.exit_code == 0 and "scenario: ok" in res.output
    res = runner.invoke(main, ["run", path])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("name", [*lab.PRESETS, "filiform5_T2"])
def test_presets_and_the_pages_payload_validate_and_run(runner, tmp_path,
                                                        name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(lab.PRESETS.get(name) or {
        "kind": "spectral_sequence_report",
        "model": {"payload": filiform_torus_complex(5).to_dict()}}))
    res = runner.invoke(main, ["validate", str(path)])
    assert res.exit_code == 0 and "scenario: ok" in res.output
    res = runner.invoke(main, ["run", str(path), "--check"])
    assert res.exit_code == 0, res.output


def test_lie_rejects_missing_algebra_file(runner):
    res = runner.invoke(main, ["lie", "betti", "nosuchfile"])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert "error: cannot read algebra file 'nosuchfile': No such file" \
        in res.output


# ---------------------------------------------------------------------------
# input files: one reader opens and parses them, one rule reads their fields
# ---------------------------------------------------------------------------

COMMANDS = [["validate"], ["run"], ["spectrum"], ["ss"], ["lie", "betti"],
            ["lie", "curvature"]]


def unreadable(tmp_path, case):
    path = tmp_path / "in.json"
    if case == "not-json":
        path.write_text('{"kind": "nil_rescale",')
    elif case == "directory":
        path.mkdir()
    return str(path)


@pytest.mark.parametrize("case", ["not-json", "directory", "missing"])
@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_unreadable_files_exit_one(runner, tmp_path, command, case):
    path = unreadable(tmp_path, case)
    res = runner.invoke(main, command + [path])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert "error: cannot read " in res.output and repr(path) in res.output


CIRCLE = {"kind": "circle", "resolution": 16}
TORUS = {"kind": "torus2", "resolution": 8}


@pytest.mark.parametrize("payload, command, key", [
    ({"base": CIRCLE, "fiber": "abelian:2",
      "monodromy_actions": [[["1", "1"], ["0", "1"]]]}, "spectrum",
     "monodromy_actions"),
    ({"base": dict(CIRCLE, circumference=[2.0]), "ranks": [1]}, "spectrum",
     "circumference"),
    ({"base": TORUS, "ranks": [1, 1], "a2_block": [[[1]]]}, "spectrum",
     "a2_block"),
    ({"base": CIRCLE, "fiber": "abelian:2", "a0": "ce_differential"},
     "spectrum", "a0"),
    ({"base": CIRCLE, "fiber": "abelian:2", "a0": None}, "spectrum", "a0"),
    ({"dims": [[0, 0, 1], [0, 1, 1]],
      "map": [{"shift": 0, "a": 0, "b": 0, "matrix": [["1"]]}]}, "ss", "map"),
    ({"dims": [[0, 0, 1]], "maps": [{"shift": 0, "a": 0, "b": 0,
                                      "matrix": [], "mat": []}]}, "ss", "mat"),
    ({"dim": 3, "brackets": [dict(H3_BRACKET, coeff="1")]}, "lie betti",
     "coeff"),
], ids=["monodromy_actions", "circumference", "a2_block", "a0", "a0-null",
        "map", "map-mat", "bracket-coeff"])
@pytest.mark.parametrize("reader", ["validate", "command"])
def test_misspelled_file_fields_exit_one(runner, tmp_path, payload, command,
                                         key, reader):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    args = ["validate"] if reader == "validate" else command.split()
    res = runner.invoke(main, args + [str(path)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert f"fields [{key!r}]" in res.output


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("kind", [k for k in MODELS
                                  if k != "spectral_sequence_report"])
@pytest.mark.parametrize("fields, reason", [
    ({"degrees": []}, "error: degrees must hold at least one degree"),
    ({"sweep_values": [0.001]},
     "error: sweep_values must be two or more positive values, got [0.001]"),
], ids=["no-degree", "one-sweep-value"])
def test_sweeps_that_cannot_be_judged_exit_one(runner, tmp_path, command,
                                               kind, fields, reason):
    # with no degree `run --check` would pass having checked nothing, and
    # one sweep value shows no decay (example7 at 0.001 alone observes 2
    # collapsing eigenvalues of the 3 predicted)
    path = scenario_file(tmp_path, kind, MODELS[kind], **fields)
    res = runner.invoke(main, [command, path])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert reason in res.output


@pytest.mark.parametrize("command", ["validate", "ss"])
def test_filtration_lowering_map_exits_one(runner, tmp_path, command):
    # D_-1 fits the shapes of its spots, but no page differential lowers the
    # filtration: unread, the map would leave the pages of the map-free
    # complex
    path = tmp_path / "cx.json"
    path.write_text(json.dumps({
        "dims": [[1, 0, 1], [0, 2, 1]],
        "maps": [{"shift": -1, "a": 1, "b": 0, "matrix": [[1]]}]}))
    res = runner.invoke(main, [command, str(path)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert "error: D_-1 at (1, 0) lowers the filtration" in res.output


@pytest.mark.parametrize("command", ["validate", "ss"])
@pytest.mark.parametrize("payload, reason", [
    # read last-wins, the zero map would replace the isomorphism D_0 and
    # give total cohomology [1, 1] in place of [0, 0]
    ({"dims": [[0, 0, 1], [0, 1, 1]],
      "maps": [{"shift": 0, "a": 0, "b": 0, "matrix": [["1"]]},
               {"shift": 0, "a": 0, "b": 0, "matrix": [["0"]]}]},
     "error: D_0 at (0, 0) is listed twice"),
    ({"dims": [[0, 0, 1], [0, 1, 1], [0, 0, 2]]},
     "error: spot (0, 0) is listed twice"),
], ids=["map", "spot"])
def test_repeated_spot_or_map_exits_one(runner, tmp_path, command, payload,
                                        reason):
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(payload))
    res = runner.invoke(main, [command, str(path)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert reason in res.output


STEM_RULE = "name must be a file stem, without '/' or '\\' and not '.' or '..'"


@pytest.mark.parametrize("command", [["validate"], ["run", "--out", "out"]],
                         ids=" ".join)
@pytest.mark.parametrize("fields, reason", [
    ({"name": "sub/x"}, f"{STEM_RULE}, got 'sub/x'"),
    ({"name": "sub\\x"}, f"{STEM_RULE}, got 'sub\\\\x'"),
    ({"name": ".."}, f"{STEM_RULE}, got '..'"),
    ({"name": ["a"]}, "name must be a string, got ['a']"),
    ({"sweep_parameter": 7}, "sweep_parameter must be a string, got 7"),
], ids=["slash", "backslash", "dot-dot", "list-name", "number-parameter"])
def test_names_that_are_not_file_stems_exit_one(runner, tmp_path, monkeypatch,
                                                command, fields, reason):
    # `run --out` writes <name>.<ext>: a name that is not a file stem is
    # refused before any solve
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sconn, "spectrum", None)
    path = scenario_file(tmp_path, "nil_rescale", MODELS["nil_rescale"],
                         **fields)
    res = runner.invoke(main, command + [path])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert f"error: {reason}" in res.output
    assert not (tmp_path / "out").exists()


def _loads(module, script):
    """Whether `script`, run in a fresh interpreter, leaves `module` in
    sys.modules."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(lie.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", f"{script}; import sys; "
         f"print({module!r} in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    return out.strip() == "True"


def test_importing_the_cli_loads_no_arpack():
    # every spectrum solves on the Bloch path: the package imports neither
    # ARPACK nor scipy.sparse, which would raise the peak RSS of every run
    assert not _loads("scipy.sparse", "import nilcollapse.cli")


def test_twisted_circle_solve_loads_no_scipy_special():
    # scipy's logm would import scipy.special for its quadrature nodes, some
    # 7 MB of peak RSS; the equivariant metric of a hyperbolic holonomy takes
    # its logarithm on numpy alone
    assert not _loads("scipy.special", (
        "import numpy as np; from nilcollapse import superconnection as s; "
        "b = s.GradedBundle([2], [[np.array([[2, 1], [1, 1]])]]); "
        "base = s.BaseModel('circle', 16); "
        "s.spectrum(s.Superconnection(b, base), "
        "s.MetricField.equivariant(b, base), 0)"))


def test_presets_and_flip_spectrum_load_no_scipy(flip_bundle_file):
    # the package runs on numpy alone: importing the CLI, every preset (the
    # equivariant Sol metric of example9 and the Jordan block of example7,
    # the logarithm's fallback, included) and the complex logarithm of the
    # flip under `nilcollapse spectrum` load no scipy module, so neither
    # ARPACK nor scipy.sparse nor scipy.special adds to the peak RSS
    assert not _loads("scipy", (
        "from nilcollapse import lab; from nilcollapse.cli import main; "
        "[lab.run(name) for name in lab.PRESETS]; "
        f"main(['spectrum', {flip_bundle_file!r}], standalone_mode=False)"))
