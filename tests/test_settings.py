"""The pytest settings in pyproject.toml: every warning is an error, and a
failing property test still fails alone, with the session's summary."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x != 0


def test_runs_after_it():
    pass
'''


def test_a_failing_hypothesis_test_fails_alone(tmp_path):
    # reporting a falsifying example imports libcst, whose deprecation
    # warning must not end the session before the next test runs
    (tmp_path / "test_probe.py").write_text(PROBE)
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in res.stdout + res.stderr
    assert "1 failed, 1 passed" in res.stdout.splitlines()[-1]
