"""The command line front end, exercised through real subprocesses."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equindex import (
    LOOP,
    DifferenceLine,
    EquivariantBundle,
    NormalDecomposition,
    ProblemSpec,
    QQ,
    QSeries,
    RootBundle,
    SchemaError,
    WeightError,
    ZZ,
    cplane_spec,
    localized_index,
    model_from_name,
    parse_problem,
    preset_spec,
)
from equindex.series import parse_int, shorten

LS2_DOC = {
    "manifold": "s2",
    "tangent": {"plus": [2], "minus": []},
    "normal": "loop",
    "F": [{"weight": 0, "plus": [0], "minus": []}],
    "L": {"sign": 1, "weight": 0},
    "order": 10,
}


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(code: str, *args: str, **env: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter on this checkout's sources, with ``env`` set."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **env},
    )


def run_cli(*args: str, **env: str) -> subprocess.CompletedProcess:
    """Run what the ``equindex`` script runs."""
    return run_python("from equindex.cli import main; main()", *args, **env)


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
        (json.dumps({**LS2_DOC, "a\nb\nc": 1}), "$: unexpected field 'a\\nb\\nc'"),
        (json.dumps({**LS2_DOC, "manifold": "torus"}), "manifold"),
        (json.dumps({**LS2_DOC, "tangent": {"plus": [0.5]}}), "floats are inexact"),
        (json.dumps({**LS2_DOC, "tangent": {"plus": ["x"]}}), "not a rational"),
        # a zero denominator is refused by as_fraction, not raised as ZeroDivisionError
        (
            json.dumps({**LS2_DOC, "tangent": {"plus": ["1/0"]}}),
            "equindex: tangent.plus[0]: not a rational: '1/0'\n",
        ),
        (
            json.dumps({**LS2_DOC, "tangent": {"plus": ["0/0"]}}),
            "equindex: tangent.plus[0]: not a rational: '0/0'\n",
        ),
        (json.dumps({**LS2_DOC, "normal": 5}), "normal"),
        (
            json.dumps(
                {**LS2_DOC, "normal": [{"weight": 1, "plus": [], "minus": [1]}]}
            ),
            "normal[0].minus: must be empty",
        ),
        (
            json.dumps({**LS2_DOC, "tangent": {"plus": [2], "minus": [1]}}),
            "equindex: tangent: must have rank 1, the manifold's dimension, got 0",
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
        # an oversized value is quoted cut short, after its JSON path
        (json.dumps({**LS2_DOC, "order": [0] * 200_000}), "equindex: order: "),
        (
            json.dumps({**LS2_DOC, "tangent": {"plus": ["9" * 1_000_000]}}),
            "equindex: tangent.plus[0]: not a rational: ",
        ),
        # arrays nested past the interpreter's stack, alone or inside a valid field
        ("[" * 100_000 + "]" * 100_000, "equindex: $: invalid JSON (nested too deeply)"),
        (
            json.dumps(LS2_DOC).replace('"F": [', '"F": [' + "[" * 100_000 + "]" * 100_000 + ", "),
            "equindex: $: invalid JSON (nested too deeply)",
        ),
    ]
    for text, *needles in bad_documents:
        path = tmp_path / "bad.json"
        path.write_text(text)
        result = run_cli("--input", str(path))
        assert result.returncode == 1, text
        for needle in needles:
            assert needle in result.stderr, (text, result.stderr)
        # one line, whatever the size of the input
        assert result.stderr.count("\n") == 1 and len(result.stderr.encode()) < 300, text[:80]


S2 = model_from_name("s2")


def _ls2_spec(**change) -> ProblemSpec:
    return ProblemSpec(**{"model": S2, "tangent": RootBundle(S2, (2,)), "normal": LOOP,
                          "F": EquivariantBundle.trivial(S2), **change})


# each rule a record holds: the record built directly, and LS2_DOC changed to give
# the parser the same value, which it must pass to that record unchecked
RECORD_RULES = {
    "normal[0].weight=0": (
        lambda: NormalDecomposition(S2, ((0, RootBundle(S2, (0,))),)),
        {"normal": [{"weight": 0, "plus": [0]}]}),
    "normal[0].minus=[1]": (
        lambda: NormalDecomposition(S2, ((1, RootBundle(S2, (), (1,))),)),
        {"normal": [{"weight": 1, "minus": [1]}]}),
    "tangent=plus[2]minus[1]": (
        lambda: _ls2_spec(tangent=RootBundle(S2, (2,), (1,))),
        {"tangent": {"plus": [2], "minus": [1]}}),
    "tangent=plus[2,0]": (
        lambda: _ls2_spec(tangent=RootBundle(S2, (2, 0))),
        {"tangent": {"plus": [2, 0]}}),
    "F[0].weight=0.5": (
        lambda: EquivariantBundle(S2, ((0.5, RootBundle(S2, (0,))),)),
        {"F": [{"weight": 0.5, "plus": [0]}]}),
    "normal=5": (lambda: _ls2_spec(normal=5), {"normal": 5}),
    "manifold='torus'": (lambda: model_from_name("torus"), {"manifold": "torus"}),
    "manifold=5": (lambda: model_from_name(5), {"manifold": 5}),
    "L.sign=2": (lambda: DifferenceLine(2, 0), {"L": {"sign": 2, "weight": 0}}),
    "L.weight='3'": (lambda: DifferenceLine(1, "3"), {"L": {"sign": 1, "weight": "3"}}),
    "order=-3": (lambda: _ls2_spec(order=-3), {"order": -3}),
    "order='many'": (lambda: _ls2_spec(order="many"), {"order": "many"}),
}


@pytest.mark.parametrize("rule", RECORD_RULES)
def test_one_rule_one_message(rule):
    build, change = RECORD_RULES[rule]
    with pytest.raises(SchemaError) as from_record:
        build()
    with pytest.raises(SchemaError) as from_document:
        parse_problem(json.dumps({**LS2_DOC, **change}))
    assert str(from_document.value) == str(from_record.value)
    assert type(from_document.value) is type(from_record.value)
    path = rule.partition("=")[0]
    assert from_record.value.path == from_document.value.path == path
    assert str(from_record.value).startswith(path + ": ")


@pytest.mark.parametrize("path", ["tangent", "normal[0]", "F[0]"])
def test_a_bundle_refusal_is_prefixed_with_the_bundle_path(path):
    # RootBundle alone reads roots: the document's refusal is the bundle's path, ".", and
    # the record's own refusal, whatever side or root it names
    field = path.partition("[")[0]
    for plus, minus in ((["x"], []), ("12", []), ([1], ["1/0"]), ([1], 5), ([0.5], "x")):
        with pytest.raises(SchemaError) as from_record:
            RootBundle(S2, plus, minus)
        bundle = {"plus": plus, "minus": minus}
        value = bundle if field == "tangent" else [{"weight": 1, **bundle}]
        with pytest.raises(SchemaError) as from_document:
            parse_problem(json.dumps({**LS2_DOC, field: value}))
        assert from_document.value.path == f"{path}.{from_record.value.path}"
        assert str(from_document.value) == f"{path}.{from_record.value}"
        assert type(from_document.value) is type(from_record.value)


def test_a_large_projective_space_exits_one_at_once(tmp_path):
    # whatever the order, the Todd class of cpn:200 takes about 0.7 s and the power sums of
    # the root 7 on cpn:50000 about 26 s: the dimension bound refuses before either starts;
    # the tangent is the Euler sequence's, of rank n
    path = tmp_path / "large.json"
    for n, root in ((101, 1), (1000, 1), (50_000, 7)):
        path.write_text(json.dumps({
            "manifold": f"cpn:{n}", "tangent": {"plus": [1] * (n + 1), "minus": [0]},
            "normal": [{"weight": 1, "plus": [1]}], "F": [{"weight": 0, "plus": [root]}],
            "order": 0,
        }))
        start = time.perf_counter()
        result = run_cli("--input", str(path))
        assert time.perf_counter() - start < 1, n
        assert (result.returncode, result.stdout) == (1, ""), n
        assert result.stderr.startswith(f"equindex: manifold: 'cpn:{n}' "), result.stderr
        assert result.stderr.count("\n") == 1, result.stderr


def test_wide_roots_exit_one_at_once(tmp_path):
    # the kernel (cpn:30, D = 77...7) and the Todd recurrence (cpn:100, the root 10^4000)
    # ran 31 s and 51 s on integers of about m log2 |rD| bits before failing to print;
    # each wide root sits in a tangent of rank m
    documents = [
        {"manifold": "cpn:30", "tangent": {"plus": ["1/" + "7" * 4000] + [1] * 29},
         "normal": [{"weight": 1, "plus": [1]}], "F": [{"weight": 0, "plus": [0]}], "order": 10},
        {"manifold": "cpn:100", "tangent": {"plus": ["1e4000"] + [1] * 99},
         "normal": [{"weight": 1, "plus": [1]}], "F": [{"weight": 0, "plus": [0]}], "order": 0},
    ]
    path = tmp_path / "wide.json"
    for document in documents:
        path.write_text(json.dumps(document))
        start = time.perf_counter()
        result = run_cli("--input", str(path))
        assert time.perf_counter() - start < 1, document["manifold"]
        assert (result.returncode, result.stdout) == (1, ""), document["manifold"]
        assert result.stderr.startswith("equindex: order: "), result.stderr
        assert result.stderr.count("\n") == 1, result.stderr


def test_a_result_too_long_for_text_exits_one(tmp_path):
    # a root of 10^-4000 on cpn:2 gives coefficients with 8001-digit numerators and
    # denominators, past Python's limit on the digits of an integer converted to text
    documents = [
        {"manifold": "cpn:2", "tangent": {"plus": [1, 2]},
         "normal": [{"weight": 1, "plus": ["1e-4000"]}],
         "F": [{"weight": 0, "plus": [0]}], "order": 1},
        {"manifold": "cpn:2", "tangent": {"plus": [1, 2]}, "normal": "loop",
         "F": [{"weight": 0, "plus": ["1e-4000"]}], "order": 1},
    ]
    path = tmp_path / "long.json"
    for document in documents:
        path.write_text(json.dumps(document))
        for fmt in ("text", "json"):
            result = run_cli("--input", str(path), "--format", fmt)
            assert (result.returncode, result.stdout) == (1, ""), (document, fmt)
            assert result.stderr.startswith("equindex: output: "), result.stderr
            assert result.stderr.count("\n") == 1, result.stderr


def test_a_root_with_a_huge_decimal_exponent_exits_one_at_once(tmp_path):
    # Fraction would build 10^(10^7) here, for seconds, before any cost guard
    path = tmp_path / "exponent.json"
    for root in ("1e10000000", "1e-10000000", "1e30000000"):
        path.write_text(json.dumps({**LS2_DOC, "tangent": {"plus": [root]}}))
        result = run_cli("--input", str(path))
        assert (result.returncode, result.stdout) == (1, ""), root
        assert result.stderr.startswith(
            f"equindex: tangent.plus[0]: not a rational: '{root}'"
        ), result.stderr
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
    for bad in ("waffles", "cplane:0", "lsigma:-2", "cplane:" + "x" * 2000):
        result = run_cli("--preset", bad)
        assert result.returncode == 1
        assert "equindex:" in result.stderr
        assert result.stderr.count("\n") == 1 and len(result.stderr.encode()) < 300


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


def test_flag_values_are_quoted_cut_short(tmp_path):
    deep = "/".join(["d" * 99] * 5)  # 499 characters, no component past a name's limit
    for args in (("--preset", "ls2", "--order", "9" * 5000),
                 ("--preset", "ls2", "--format", "x" * 3000),
                 ("--preset", "ls2", "x" * 3000),
                 ("--input", str(tmp_path / deep / "in.json")),
                 ("--preset", "ls2", "--output", str(tmp_path / deep / "out.txt"))):
        result = run_cli(*args)
        assert result.returncode == 2, args[-1][:80]
        assert len(result.stderr.encode()) < 400, result.stderr


def test_source_flags_are_mutually_exclusive(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(LS2_DOC))
    result = run_cli("--preset", "ls2", "--input", str(path))
    assert result.returncode == 2  # argparse usage error
    result = run_cli()
    assert result.returncode == 2


# Modules that importing the package must not load: ``dataclasses`` brings in
# ``inspect``, ``ast`` and more, and every CLI start pays for what the import loads.
# No solve loads ``equindex.algebra``, from a preset or from a document.
IMPORT_PROBE = """
import sys
ALGEBRA_NAMES = ("CohClass", "CohRing", "coh_integrate", "scalar_class", "unit_class",
                 "todd_class", "inverse_euler_class")
before = set(sys.modules)
import equindex
print(sorted({"dataclasses", "inspect", "argparse", "json", "equindex.cli", "equindex.oracles",
              "equindex.algebra"} & (set(sys.modules) - before)))
print(" ".join(equindex.__all__))
equindex.cli.run(["--preset", "cplane:1", "--order", "3"])
print("json" in set(sys.modules) - before, "equindex.algebra" in sys.modules)
equindex.cli.run(["--input", sys.argv[1], "--format", "json"])
print("json" in set(sys.modules) - before, "equindex.algebra" in sys.modules)
moved = {"exponential_class", "chern_character", "lambda_minus_t_factor", "euler_class",
         "loop_normal_decomposition", "todd_product", *ALGEBRA_NAMES}
print(sorted(key for key, module in sys.modules.items()
             if key.split(".")[0] == "equindex" and moved & set(vars(module))))
print("equindex.oracles" in sys.modules, equindex.partition_numbers(4).values)
print(equindex.euler_class is equindex.oracles.euler_class)
print(equindex.SchemaError is equindex.cli.SchemaError)
print(all(getattr(equindex, name) is getattr(equindex.algebra, name) for name in ALGEBRA_NAMES),
      [name for name in equindex.__all__ if not hasattr(equindex, name)])
"""
CPLANE_DOC = {"manifold": "point", "tangent": {"plus": []}, "normal": [{"weight": 1, "plus": [0]}],
              "F": [{"weight": 0, "plus": [0]}], "order": 3}

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


def test_import_loads_json_only_for_json_output(tmp_path):
    path = tmp_path / "cplane.json"
    path.write_text(json.dumps(CPLANE_DOC))
    result = run_python(IMPORT_PROBE, str(path))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "[]",
        PUBLIC_NAMES,
        "1 + q + q^2 + q^3",
        "False False",
        '{"lowest": 0, "order": 3, "coeffs": ["1", "1", "1", "1"]}',
        "True False",
        "[]",
        "False (1, 1, 2, 3, 5)",
        "True",
        "True",
        "True []",
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


def test_integers_in_text_are_plain_ascii_decimals(tmp_path):
    # int() alone takes "1_0" as 10, strips whitespace and reads non-ASCII digits
    for order in ("1_0", " 5", "５"):
        result = run_cli("--preset", "cplane:1", "--order", order)
        assert result.returncode == 2
        assert result.stderr.endswith(f"argument --order: invalid int value: {order!r}\n")
    for preset, message in (("cplane:1_0", "preset parameter must be an integer"),
                            ("lsigma:1_0", "genus must be a nonnegative integer")):
        result = run_cli("--preset", preset)
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == f"equindex: {message}: {preset!r}\n"
    path = tmp_path / "problem.json"
    for name in ("cpn:1_0", "cpn: 3", "cpn:２"):
        path.write_text(json.dumps({**LS2_DOC, "manifold": name}))
        result = run_cli("--input", str(path))
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == (
            f"equindex: manifold: manifold parameter must be an integer: {name!r}\n")
    # Fraction() alone takes the same, and whitespace around a root
    for root in ("1_0", " 1/2 ", "１/２", "٣"):
        path.write_text(json.dumps({**LS2_DOC, "tangent": {"plus": [root]}}))
        result = run_cli("--input", str(path))
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == f"equindex: tangent.plus[0]: not a rational: {root!r}\n"
    for coefficient in ("1_0", " 2 ", "３"):
        with pytest.raises(ValueError, match="not a decimal integer"):
            QSeries.from_json(ZZ, {"lowest": 0, "order": 2, "coeffs": ["1", coefficient]})
    # a valid integer past the interpreter's digit limit is named as such, not as malformed
    limit = sys.get_int_max_str_digits()
    nines = "9" * (limit + 700)
    past = f"{shorten(repr(nines))} has more than {limit} digits\n"
    path.write_text(json.dumps({**LS2_DOC, "manifold": "cpn:" + nines}))
    for args, code, text in (
        (("--preset", "lsigma:" + nines), 1, "equindex: manifold: manifold parameter " + past),
        (("--preset", "cplane:" + nines), 1, "equindex: preset parameter " + past),
        (("--input", str(path)), 1, "equindex: manifold: manifold parameter " + past),
        (("--preset", "cplane:1", "--order", nines), 2,
         "equindex: error: argument --order: " + past),
    ):
        result = run_cli(*args)
        assert (result.returncode, result.stdout) == (code, "")
        assert result.stderr.splitlines(keepends=True)[-1] == text
    with pytest.raises(ValueError, match=f" has more than {limit} digits$"):
        QSeries.from_json(ZZ, {"lowest": 0, "order": 2, "coeffs": [nines]})
    assert parse_int("-" + "0" * (limit - 1) + "7") == -7  # the limit itself is read


def test_negative_order_flag_is_rejected(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(LS2_DOC))
    for args in (("--preset", "ls2", "--order", "-1"), ("--preset", "cplane:-3", "--order", "-1"),
                 ("--preset", "lsigma:2", "--order", "-1"),
                 ("--input", str(path), "--order", "-2")):
        result = run_cli(*args)
        assert result.returncode == 1
        assert result.stderr == ("equindex: order: must be a nonnegative integer, "
                                 f"got {args[-1]}\n")


def test_oversized_orders_exit_one(tmp_path):
    # the window would need more than 10^15 integers: only the work estimate,
    # which runs before any allocation, lets these runs end at once
    for preset in ("ls2", "cplane:-3"):
        result = run_cli("--preset", preset, "--order", str(10**15))
        assert result.returncode == 1, preset
        assert result.stderr.startswith("equindex: order: "), result.stderr
    # an estimate past the range of a float is written out all the same
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"manifold": "s2", "tangent": {"plus": [2]}, "normal": "loop",
                                "F": [{"weight": -(10**400), "plus": [0]}], "order": 0}))
    result = run_cli("--input", str(path))
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == ("equindex: order: the solve would take about 1.3e+601 steps, over "
                             "the bound 1e+08; ask for a lower order or smaller roots\n")


def test_a_missing_field_is_named_the_same_under_every_hash_seed(tmp_path):
    # the first missing field in schema order, whatever order a set of names would take
    path = tmp_path / "missing.json"
    cases = [
        ({"manifold": "s2", "normal": "loop"}, "$: missing required field 'tangent'"),
        ({**LS2_DOC, "L": {}}, "L: missing required field 'sign'"),
    ]
    for document, message in cases:
        path.write_text(json.dumps(document))
        for seed in ("1", "2"):
            result = run_cli("--input", str(path), PYTHONHASHSEED=seed)
            assert (result.returncode, result.stderr) == (1, f"equindex: {message}\n"), seed


# -- generated documents ---------------------------------------------------


def _nested_arrays(depth: int) -> str:
    return "[" * depth + "]" * depth


def _nested_objects(depth: int) -> str:
    return '{"a": ' * depth + "0" + "}" * depth


def _sometimes(usual: st.SearchStrategy, rare: st.SearchStrategy) -> st.SearchStrategy:
    """Nine draws in ten from ``usual``, the tenth from ``rare``."""
    return st.integers(0, 9).flatmap(lambda k: usual if k else rare)


_integers = _sometimes(
    st.one_of(st.integers(-10, 10), st.integers()).map(str),
    # around Python's limit of 4300 digits for an integer read from text
    st.integers(4200, 4400).map(lambda digits: "9" * digits),
)
_rational_strings = st.one_of(
    st.builds("{}/{}".format, st.integers(-50, 50), st.integers(-5, 50)),
    st.builds("{}.{}".format, st.integers(-50, 50), st.integers(0, 10**6)),
    st.builds(
        "{}e{}".format,
        st.integers(-9, 9),
        st.one_of(st.integers(-30, 30), st.integers(4290, 4310), st.integers(-(10**8), 10**8)),
    ),
    st.text(max_size=6),
).map(json.dumps)
_wrong_types = st.one_of(
    st.sampled_from(["null", "true", "false", "0.5", "1e400", '"loop"', "{}", "[]", '"x"']),
    st.integers(1, 3000).map(_nested_arrays),
    st.integers(1, 3000).map(_nested_objects),
)


def _or_wrong(valid: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    """Mostly ``valid``, now and then a value of a wrong type or deeply nested."""
    return _sometimes(valid, _wrong_types)


@st.composite
def _objects(draw, fields: dict, optional: frozenset = frozenset()) -> str:
    """An object's text with the keys that ``fields`` maps to value strategies.

    Optional keys may be left out; now and then a key is dropped, repeated or
    joined by a stray one, and the keys come in any order.
    """
    pairs = [(key, draw(value)) for key, value in fields.items()
             if key not in optional or draw(st.booleans())]
    change = draw(st.sampled_from((None,) * 9 + ("drop", "repeat", "stray")))
    if change == "drop" and pairs:
        pairs.pop(draw(st.integers(0, len(pairs) - 1)))
    elif change == "repeat" and pairs:
        key = draw(st.sampled_from(pairs))[0]
        pairs.append((key, draw(fields[key])))
    elif change == "stray":
        pairs.append(("extra", draw(_wrong_types)))
    pairs = draw(st.permutations(pairs))
    return "{" + ", ".join(f"{json.dumps(key)}: {text}" for key, text in pairs) + "}"


_roots = _or_wrong(
    st.lists(_or_wrong(st.one_of(_integers, _rational_strings)), max_size=3)
    .map(lambda texts: "[" + ", ".join(texts) + "]")
)
_weighted_bundles = st.lists(
    _objects({"weight": _or_wrong(_integers), "plus": _roots, "minus": _roots},
             frozenset({"plus", "minus"})),
    max_size=3,
).map(lambda texts: "[" + ", ".join(texts) + "]")
_documents = _objects(
    {
        "manifold": _or_wrong(st.sampled_from(
            ["point", "s2", "sigma:0", "sigma:3", "cpn:2", "cpn:4", "torus", "sigma:-1"]
        ).map(json.dumps)),
        "tangent": _or_wrong(_objects({"plus": _roots, "minus": _roots}, frozenset({"minus"}))),
        "normal": _or_wrong(st.one_of(st.just('"loop"'), _weighted_bundles)),
        "F": _or_wrong(_weighted_bundles),
        "L": _or_wrong(_objects({"sign": _or_wrong(st.sampled_from(["1", "-1", "2"])),
                                 "weight": _or_wrong(_integers)})),
        "order": _or_wrong(_integers),
    },
    frozenset({"L", "order"}),
)


@settings(max_examples=300, deadline=None)
@given(_or_wrong(_documents))
@example("[" * 100_000 + "]" * 100_000)
@example(json.dumps({**LS2_DOC, "tangent": {"plus": ["1e10000000"]}}))
def test_parse_problem_fails_only_in_documented_ways(text):
    try:
        spec = parse_problem(text)
    except SchemaError:
        return
    assert isinstance(spec, ProblemSpec)
