"""The command line front end, exercised through real subprocesses."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from equindex import (
    DifferenceLine,
    QQ,
    QSeries,
    SchemaError,
    WeightError,
    cplane_spec,
    localized_index,
    parse_problem,
    preset_spec,
)

LS2_DOC = {
    "manifold": "s2",
    "tangent": {"plus": [2], "minus": []},
    "normal": "loop",
    "F": [{"weight": 0, "plus": [0], "minus": []}],
    "L": {"sign": 1, "weight": 0},
    "order": 10,
}


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """Run what the ``equindex`` script runs, importing this checkout's sources."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", "from equindex.cli import main; main()", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_preset_text_goldens():
    result = run_cli("--preset", "ls2", "--order", "4")
    assert result.returncode == 0
    assert result.stdout == "1 + 2q + 5q^2 + 10q^3 + 20q^4\n"

    result = run_cli("--preset", "cplane:1", "--order", "3")
    assert result.stdout == "1 + q + q^2 + q^3\n"

    result = run_cli("--preset", "cplane:-2", "--order", "6")
    assert result.stdout == "-q^2 - q^4 - q^6\n"

    result = run_cli("--preset", "lsigma:1", "--order", "5")
    assert result.stdout == "0\n"


def test_preset_json_golden():
    result = run_cli("--preset", "ls2", "--order", "4", "--format", "json")
    assert result.returncode == 0
    assert json.loads(result.stdout) == {
        "lowest": 0,
        "order": 4,
        "coeffs": ["1", "2", "5", "10", "20"],
    }


def test_json_output_round_trips():
    result = run_cli("--preset", "lsigma:2", "--order", "7", "--format", "json")
    parsed = QSeries.from_json(QQ, json.loads(result.stdout))
    assert parsed == localized_index(preset_spec("lsigma:2", 7))


def test_documents_reproduce_presets_byte_for_byte(tmp_path):
    documents = {
        "ls2": LS2_DOC,
        "cplane:2": {
            "manifold": "point",
            "tangent": {"plus": [], "minus": []},
            "normal": [{"weight": 2, "plus": [0], "minus": []}],
            "F": [{"weight": 0, "plus": [0], "minus": []}],
        },
        "cplane:-2": {
            "manifold": "point",
            "tangent": {"plus": [], "minus": []},
            "normal": [{"weight": 2, "plus": [0], "minus": []}],
            "F": [{"weight": 0, "plus": [0], "minus": []}],
            "L": {"sign": -1, "weight": 2},
        },
        "lsigma:3": {
            "manifold": "sigma:3",
            "tangent": {"plus": [-4]},
            "normal": "loop",
            "F": [{"weight": 0, "plus": [0]}],
        },
    }
    for preset, document in documents.items():
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(document))
        for fmt in ("text", "json"):
            via_preset = run_cli("--preset", preset, "--order", "8", "--format", fmt)
            via_document = run_cli("--input", str(path), "--order", "8", "--format", fmt)
            assert via_preset.returncode == 0
            assert via_document.returncode == 0
            assert via_preset.stdout == via_document.stdout, preset


def test_order_resolution(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**LS2_DOC, "order": 2}))
    # the document's order wins when the flag is absent
    result = run_cli("--input", str(path))
    assert result.stdout == "1 + 2q + 5q^2\n"
    # the flag overrides the document
    result = run_cli("--input", str(path), "--order", "3")
    assert result.stdout == "1 + 2q + 5q^2 + 10q^3\n"
    # without either, the default order is 10
    spec = parse_problem(json.dumps({k: v for k, v in LS2_DOC.items() if k != "order"}))
    assert spec.order == 10


def test_output_file(tmp_path):
    target = tmp_path / "out.txt"
    result = run_cli("--preset", "cplane:1", "--order", "2", "--output", str(target))
    assert result.returncode == 0
    assert result.stdout == ""
    assert target.read_text() == "1 + q + q^2\n"


def test_schema_violations_exit_one(tmp_path):
    bad_documents = [
        ("not json at all", "invalid JSON"),
        (json.dumps({"manifold": "s2"}), "missing required field"),
        (json.dumps({**LS2_DOC, "extra": 1}), "unexpected field"),
        (json.dumps({**LS2_DOC, "manifold": "torus"}), "manifold"),
        (json.dumps({**LS2_DOC, "tangent": {"plus": [0.5]}}), "floats are inexact"),
        (json.dumps({**LS2_DOC, "tangent": {"plus": ["x"]}}), "not a rational"),
        (json.dumps({**LS2_DOC, "normal": 5}), "normal"),
        (
            json.dumps(
                {**LS2_DOC, "normal": [{"weight": 1, "plus": [], "minus": [1]}]}
            ),
            "must be empty",
        ),
        (
            json.dumps({**LS2_DOC, "normal": [{"weight": 0, "plus": [0]}]}),
            "positive",
            "normal[0].weight",
        ),
        (json.dumps({**LS2_DOC, "F": {"weight": 0}}), "array"),
        (json.dumps({**LS2_DOC, "F": [{"plus": [0]}]}), "missing required field"),
        (json.dumps({**LS2_DOC, "L": {"sign": 2, "weight": 0}}), "L.sign"),
        (json.dumps({**LS2_DOC, "L": {"sign": 1}}), "missing required field"),
        (json.dumps({**LS2_DOC, "order": -3}), "order"),
        (json.dumps({**LS2_DOC, "order": "many"}), "integer"),
        (
            '{"manifold": "s2", ' + json.dumps({**LS2_DOC, "manifold": "point"})[1:],
            "duplicate field 'manifold'",
        ),
    ]
    for text, *needles in bad_documents:
        path = tmp_path / "bad.json"
        path.write_text(text)
        result = run_cli("--input", str(path))
        assert result.returncode == 1, text
        for needle in needles:
            assert needle in result.stderr, (text, result.stderr)


def test_parse_problem_error_types():
    with pytest.raises(SchemaError):
        parse_problem(json.dumps({**LS2_DOC, "tangent": []}))
    with pytest.raises(WeightError):
        parse_problem(json.dumps({**LS2_DOC, "normal": [{"weight": -1, "plus": []}]}))


def test_parse_problem_defaults_and_equivalence():
    minimal = {
        "manifold": "point",
        "tangent": {"plus": []},
        "normal": [{"weight": 1, "plus": [0]}],
        "F": [{"weight": 0, "plus": [0]}],
    }
    spec = parse_problem(json.dumps(minimal))
    assert spec.L == DifferenceLine()
    assert spec.order == 10
    assert spec == cplane_spec(1, (1,), 10)


def test_bad_preset_exits_one():
    for bad in ("waffles", "cplane:0", "lsigma:-2"):
        result = run_cli("--preset", bad)
        assert result.returncode == 1
        assert "equindex:" in result.stderr


def test_missing_input_file_exits_two(tmp_path):
    result = run_cli("--input", str(tmp_path / "nope.json"))
    assert result.returncode == 2
    assert "cannot read" in result.stderr


def test_unwritable_output_exits_two(tmp_path):
    result = run_cli(
        "--preset", "ls2", "--output", str(tmp_path / "no" / "such" / "dir" / "o.txt")
    )
    assert result.returncode == 2
    assert "cannot write" in result.stderr


def test_source_flags_are_mutually_exclusive(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(LS2_DOC))
    result = run_cli("--preset", "ls2", "--input", str(path))
    assert result.returncode == 2  # argparse usage error
    result = run_cli()
    assert result.returncode == 2


def test_negative_order_flag_is_rejected():
    result = run_cli("--preset", "ls2", "--order", "-1")
    assert result.returncode == 1
