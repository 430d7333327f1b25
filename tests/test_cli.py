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


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's sources."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """Run what the ``equindex`` script runs."""
    return run_python("from equindex.cli import main; main()", *args)


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
            json.dumps({**LS2_DOC, "tangent": {"plus": [2], "minus": [1]}}),
            "tangent.minus: must be empty here",
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
        # a kernel window past the work bound, from the order or from a low F-weight
        (json.dumps({**LS2_DOC, "order": 10**15}), "equindex: order: "),
        (
            json.dumps({**LS2_DOC, "F": [{"weight": -(10**15), "plus": [0]}], "order": 0}),
            "equindex: order: ",
        ),
        (
            '{"manifold": "s2", ' + json.dumps({**LS2_DOC, "manifold": "point"})[1:],
            "$: duplicate field 'manifold'",
        ),
        (
            '{"manifold": "s2", "tangent": {"plus": [2], "plus": [0]}, "normal": "loop", '
            '"F": [{"weight": 0, "plus": [0]}]}',
            "tangent: duplicate field 'plus'",
        ),
        (
            '{"manifold": "s2", "tangent": {"plus": [2]}, '
            '"normal": [{"weight": 1, "plus": [0], "weight": 2}], '
            '"F": [{"weight": 0, "plus": [0]}]}',
            "normal[0]: duplicate field 'weight'",
        ),
        (
            '{"manifold": "s2", "tangent": {"plus": [2]}, "normal": "loop", '
            '"F": [{"weight": 0, "plus": [0]}, {"weight": 1, "minus": [1], "minus": []}]}',
            "F[1]: duplicate field 'minus'",
        ),
        (
            '{"manifold": "s2", "tangent": {"plus": [2]}, "normal": "loop", '
            '"F": [{"weight": 0, "plus": [0]}], "L": {"sign": 1, "sign": -1, "weight": 0}}',
            "L: duplicate field 'sign'",
        ),
        # integers past Python's limit on the digits of an integer read from text
        (
            json.dumps(LS2_DOC).replace('"order": 10', '"order": ' + "9" * 5000),
            "equindex: $: invalid JSON (Exceeds the limit",
        ),
        (
            json.dumps(LS2_DOC).replace('"plus": [2]', '"plus": [1' + "0" * 4999 + "]"),
            "equindex: $: invalid JSON (Exceeds the limit",
        ),
    ]
    for text, *needles in bad_documents:
        path = tmp_path / "bad.json"
        path.write_text(text)
        result = run_cli("--input", str(path))
        assert result.returncode == 1, text
        for needle in needles:
            assert needle in result.stderr, (text, result.stderr)


def test_a_result_too_long_for_text_exits_one(tmp_path):
    # a root of 10^-5000 gives coefficients with 5001-digit denominators, past
    # Python's limit on the digits of an integer converted to text
    documents = [
        {"manifold": "s2", "tangent": {"plus": [2]},
         "normal": [{"weight": 1, "plus": ["1e-5000"]}],
         "F": [{"weight": 0, "plus": [0]}], "order": 1},
        {**LS2_DOC, "F": [{"weight": 0, "plus": ["1e-5000"]}], "order": 1},
    ]
    path = tmp_path / "long.json"
    for document in documents:
        path.write_text(json.dumps(document))
        for fmt in ("text", "json"):
            result = run_cli("--input", str(path), "--format", fmt)
            assert (result.returncode, result.stdout) == (1, ""), (document, fmt)
            assert result.stderr.startswith("equindex: output: "), result.stderr
            assert result.stderr.count("\n") == 1, result.stderr


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


# Modules that importing the package must not load: ``dataclasses`` brings in
# ``inspect``, ``ast`` and more, and every CLI start pays for what the import loads.
IMPORT_PROBE = """
import sys
before = set(sys.modules)
import equindex
print(sorted({"dataclasses", "inspect", "argparse", "json", "equindex.cli", "equindex.oracles"}
             & (set(sys.modules) - before)))
print(" ".join(equindex.__all__))
equindex.cli.run(["--preset", "cplane:1", "--order", "3"])
print("json" in set(sys.modules) - before)
equindex.cli.run(["--preset", "cplane:1", "--order", "3", "--format", "json"])
print("json" in set(sys.modules) - before)
moved = {"exponential_class", "chern_character", "lambda_minus_t_factor", "euler_class",
         "loop_normal_decomposition"}
print(sorted(key for key, module in sys.modules.items()
             if key.split(".")[0] == "equindex" and moved & set(vars(module))))
print("equindex.oracles" in sys.modules, equindex.partition_numbers(4).values)
print(equindex.euler_class is equindex.oracles.euler_class)
"""

PUBLIC_NAMES = (
    "CoefficientRing IntegerRing RationalRing ZZ QQ QSeries NotInvertible render_series "
    "ManifoldModel model_from_name CohClass CohRing coh_integrate scalar_class unit_class "
    "ModelMismatch UnsupportedModel RootBundle VirtualBundle chern_character todd_class "
    "lambda_minus_t_factor exponential_class NormalDecomposition WeightError "
    "loop_normal_decomposition euler_class inverse_euler_class ProblemSpec EquivariantBundle "
    "DifferenceLine LOOP localized_index loop_space_index compact_trivial_index cplane_spec "
    "preset_spec PartitionTable partition_numbers naive_inverse direct_cplane_index "
    "SchemaError parse_problem __version__"
)


def test_import_loads_json_only_for_json_output():
    result = run_python(IMPORT_PROBE)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "[]",
        PUBLIC_NAMES,
        "1 + q + q^2 + q^3",
        "False",
        '{"lowest": 0, "order": 3, "coeffs": ["1", "1", "1", "1"]}',
        "True",
        "[]",
        "False (1, 1, 2, 3, 5)",
        "True",
    ]


def test_module_run_meets_no_import_warning():
    # `python -m equindex.cli` runs a fresh copy of the module: the package must not
    # have imported it already, or runpy warns, and under -W error ends the run
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "equindex.cli", "--preset", "ls2", "--order", "3"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "1 + 2q + 5q^2 + 10q^3\n", "")


def test_negative_order_flag_is_rejected():
    result = run_cli("--preset", "ls2", "--order", "-1")
    assert result.returncode == 1


def test_oversized_orders_exit_one():
    # the window would need more than 10^15 integers: only the work estimate,
    # which runs before any allocation, lets these runs end at once
    for preset in ("ls2", "cplane:-3"):
        result = run_cli("--preset", preset, "--order", str(10**15))
        assert result.returncode == 1, preset
        assert result.stderr.startswith("equindex: order: "), result.stderr
