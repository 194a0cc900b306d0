"""Command-line interface: subcommands, output shapes, and exit codes
(0 success, 1 invalid input, 2 numerical inconsistency, 3 failed check)."""

import json

import pytest
from click.testing import CliRunner

from nilcollapse import lie, spectral
from nilcollapse.cli import main


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
    cx = spectral.from_algebra(lie.heisenberg(3))
    spectral.save_complex(cx, path)
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
    path.write_text(json.dumps({"kind": "nil_rescale",
                                "model": {"algebra": "heisenberg:3"},
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


@pytest.mark.parametrize("payload, reason", [
    ({"base": {"kind": "torus2", "resolution": 8}, "fiber": "abelian:1",
      "a2": {"interior": [0.1]}}, "non-integral float 0.1"),
    ({"base": {"kind": "circle", "resolution": "high"}, "ranks": [1]},
     "malformed base description"),
    ({"base": {"kind": "circle", "resolution": 8, "circumferences": ["a"]},
      "ranks": [1]}, "bad circumference list"),
    ({"base": {"kind": "circle", "resolution": 8}, "ranks": [1, 1],
      "monodromy": [[[[2]], [[1]]]], "a0_blocks": [[[1]]]},
     "flatness identity 'parallel_a0' violated by 1.000e+00"),
    ({"base": {"kind": "circle", "resolution": 8}, "ranks": [1],
      "monodromy": [[[[2]]]], "metric": "identity"},
     "metric violates monodromy equivariance (degree 0)"),
    ({"base": {"kind": "circle", "resolution": 8}, "fiber": "heisenberg:3",
      "monodromy_action": [[[2, 0, 0], [0, 1, 0], [0, 0, 1]]]},
     "flatness identity 'parallel_a0' violated by 5.000e-01"),
    ({"base": {"kind": "circle", "resolution": 8}, "ranks": [1, 1],
      "monodromy": [[[2], [1]]]}, "a matrix must be a list of rows"),
], ids=["inexact-interior", "resolution", "circumferences", "not-flat",
        "metric-not-equivariant", "holonomy-not-automorphism", "row-not-list"])
def test_validate_rejects_bad_bundle_entries(runner, tmp_path, payload, reason):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(payload))
    res = runner.invoke(main, ["validate", str(path)])
    assert res.exit_code == 1
    assert "error:" in res.output and reason in res.output


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
    assert "error: non-integral float 0.5" in res.output


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
], ids=["fractional-degree", "fractional-resolution", "fractional-count",
        "zero-count"])
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
