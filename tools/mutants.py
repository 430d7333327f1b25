"""Run one-line mutants of the engine through the Tier-1 suite and report survivors.

Usage, from the repository root:

    python3 tools/mutants.py [LIST]

LIST (default ``tools/mutants.txt``) holds one mutant per line,

    file | old line | new line | why it must fail

with the two lines given without their indentation; blank lines and lines
starting with ``#`` are skipped.  The repository's ``src``, ``tests`` and
``pyproject.toml`` are copied once to a temporary directory.  Each mutant
replaces the one line of its file that equals ``old line`` (keeping the
indentation), runs ``python -m pytest -q -x --continue-on-collection-errors``
there, and puts the file back.  A mutant is killed when the suite fails, and
the report names the first failing test; it survives when the suite passes.
A mutant whose old line is missing or repeated is stale and is reported as
such; ``tests/test_mutants.py`` checks that in Tier-1, without running any
mutant.  The exit code is 1 if any mutant survived or is stale, else 0.
Only the standard library is used; the suite needs pytest and hypothesis.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900  # a mutant that loops forever counts as killed, by timeout
FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def read_mutants(path: Path) -> list[tuple[str, str, str, str]]:
    mutants = []
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = [field.strip() for field in line.split(" | ")]
        if len(fields) != 4:
            raise SystemExit(f"{path}:{number}: expected 'file | old | new | why', got {line!r}")
        mutants.append(tuple(fields))
    return mutants


def mutate(text: str, old: str, new: str) -> str | None:
    """``text`` with the one line equal to ``old`` (indentation aside) replaced, else None."""
    lines = text.split("\n")
    found = [i for i, line in enumerate(lines) if line.strip() == old]
    if len(found) != 1:
        return None
    i = found[0]
    lines[i] = lines[i][: len(lines[i]) - len(lines[i].lstrip())] + new
    return "\n".join(lines)


def run_suite(copy: Path) -> tuple[bool, str]:
    """(passed, first failing test or a note) for the suite in ``copy``."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
               "-p", "no:cacheprovider"]
    try:
        result = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True,
                                timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    if result.returncode == 0:
        return True, ""
    match = FAILED.search(result.stdout)
    return False, match.group(1) if match else f"exit {result.returncode}"


def main(argv: list[str]) -> int:
    listing = Path(argv[0]) if argv else ROOT / "tools" / "mutants.txt"
    mutants = read_mutants(listing)
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copy = Path(scratch)
        shutil.copytree(ROOT / "src", copy / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", copy / "tests",
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        for number, (name, old, new, why) in enumerate(mutants, 1):
            target = copy / name
            original = target.read_text(encoding="utf-8")
            mutated = mutate(original, old, new)
            label = f"[{number}] {name}: {old!r} -> {new!r}"
            if mutated is None:
                bad += 1
                print(f"STALE     {label}: the old line is missing or repeated", flush=True)
                continue
            target.write_text(mutated, encoding="utf-8")
            start = time.perf_counter()
            try:
                passed, note = run_suite(copy)
            finally:
                target.write_text(original, encoding="utf-8")
            seconds = time.perf_counter() - start
            if passed:
                bad += 1
                print(f"SURVIVED  {label} ({seconds:.0f} s); it must fail because {why}",
                      flush=True)
            else:
                print(f"killed    {label} ({seconds:.0f} s) by {note}", flush=True)
    print(f"{len(mutants)} mutants, {bad} survived or stale")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
