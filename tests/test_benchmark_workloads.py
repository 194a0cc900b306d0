"""One seed-0 pass of each workload that BENCHMARK.json names, with the
checks the benchmark applies to its outputs, so that a change to the
package API the benchmark calls fails here and not only in a benchmark
run."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

NAMES = [w["name"] for w in
         json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", NAMES)
def test_benchmark_workload_passes_its_checks(name):
    ops = workloads.build(name, 0)
    assert ops
    for op in ops:
        assert op.check(op.call()) is None, op.label
