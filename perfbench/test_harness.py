"""Self-tests of the benchmark harness.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import nilcollapse  # noqa: E402
from nilcollapse import lab, numerics, spectral  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_on_synthetic_span_tree():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.leaf", 2.0, 3.0, 1),
        _span("b", 3.5, 6.0, 0),      # overlaps a: covered once
        _span("c", 9.0, 12.0, 0),     # runs past root: clipped at 10
        _span("root", 20.0, 21.0, -1),
    ]
    assert tracer.self_times(spans) == [10.0 - (6.0 - 1.0) - 1.0,
                                        3.0 - 1.0, 1.0, 2.5, 3.0, 1.0]


def test_inclusive_time_counts_recursion_once():
    spans = [
        _span("f", 0.0, 5.0, -1),
        _span("f", 1.0, 2.0, 0),
        _span("g", 2.0, 3.0, 0),
        _span("f", 6.0, 7.0, -1),
    ]
    assert tracer.inclusive_times(spans) == [5.0, 0.0, 1.0, 1.0]


def test_tracer_leaves_reports_unchanged_and_restores_originals():
    originals = (numerics.rank_exact, spectral.rank_exact,
                 spectral.page, numerics.RationalMatrix.__matmul__)
    name = "example7_heisenberg_circle"
    plain = json.dumps(lab.run(name).to_dict(), sort_keys=True)
    tr = tracer.Tracer()
    with tr.install(nilcollapse):
        # a name imported by another module is patched there too
        assert spectral.rank_exact is not originals[1]
        traced = json.dumps(lab.run(name).to_dict(), sort_keys=True)
    assert traced == plain
    assert (numerics.rank_exact, spectral.rank_exact, spectral.page,
            numerics.RationalMatrix.__matmul__) == originals
    metrics = tracer.layer_metrics(tr, [0])
    assert metrics["lab.spectra"] == 4
    assert metrics["superconnection.solve_dense_calls"] == 4
    assert metrics["superconnection.solve_arpack_calls"] == 0
    assert metrics["lab.run_s"] >= metrics["lab.self_s"] > 0


def test_seeded_inputs_repeat_and_default_seed_is_canonical():
    canonical = workloads._filiform_payload(random.Random(0), 0)
    varied = workloads._filiform_payload(random.Random(4), 4)
    assert varied == workloads._filiform_payload(random.Random(4), 4)
    assert varied != canonical and varied["dims"] == canonical["dims"]
    assert [op.label for op in workloads.build("presets_check", 0)] == \
        list(lab.PRESETS)


def test_op_cost_is_its_time_over_the_bracketing_references(monkeypatch):
    refs = iter([1.0, 3.0])
    monkeypatch.setattr(run, "reference_s", lambda kind: next(refs))
    op = workloads.Op("x", lambda: 1, lambda out: None)
    times, costs, outcomes = run.run_pass([op])
    assert costs == [times[0] / 2.0] and outcomes[0][2] is None
    assert run.pass_cost([[3.0, 1.0, 2.0], [5.0]]) == 7.0
    for name in workloads.WORKLOADS:
        for op in workloads.build(name, 0):
            assert op.reference in run.REFERENCES
