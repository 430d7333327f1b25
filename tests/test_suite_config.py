"""The suite's own pytest settings, exercised on a throwaway suite."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # on a failure hypothesis imports its patching helpers, and their libcst import
    # warns; under filterwarnings = error that warning must not abort the session
    (tmp_path / "test_probe.py").write_text(PROBE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr, result.stdout
    assert "1 failed, 1 passed" in result.stdout, result.stdout
