"""The mutation runner's list, checked against the sources without running a mutant."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUNNER = ROOT / "tools" / "mutants.py"


# the runner copies only src, tests and pyproject.toml, so this test skips in its copy
@pytest.mark.skipif(not RUNNER.exists(), reason="no tools/mutants.py beside the tests")
def test_every_mutant_changes_exactly_one_line():
    spec = importlib.util.spec_from_file_location("mutants", RUNNER)
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    mutants = runner.read_mutants(ROOT / "tools" / "mutants.txt")
    assert mutants
    for name, old, new, _ in mutants:
        text = (ROOT / name).read_text(encoding="utf-8")
        mutated = runner.mutate(text, old, new)
        assert mutated is not None, f"{name}: no single line {old!r}"
        assert mutated != text, f"{name}: {old!r} -> {new!r} changes nothing"
