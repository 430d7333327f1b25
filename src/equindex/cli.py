"""Command line front end: evaluate index problems from JSON or presets.

Exit status: 0 on success, 1 for problems with the input itself (schema,
weights, models) or a result too long to write as text, 2 for I/O failures.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from .charclasses import RootBundle
from .cohomology import ManifoldModel, UnsupportedModel, model_from_name
from .index import (
    LOOP,
    DifferenceLine,
    EquivariantBundle,
    ProblemSpec,
    localized_index,
    preset_spec,
)
from .localization import NormalDecomposition, WeightError
from .series import as_fraction, render_series, shorten

if TYPE_CHECKING:
    import argparse

DEFAULT_ORDER = 10


class SchemaError(ValueError):
    """A problem document that does not match the input schema."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


_REPEATED = object()  # key under which _unique_keys marks a repeated field


def _expect_object(value: Any, path: str, allowed: set[str], required: set[str]) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, "expected a JSON object")
    if _REPEATED in value:
        raise SchemaError(path, f"duplicate field {shorten(repr(value[_REPEATED]))}")
    for key in value:
        if key not in allowed:
            raise SchemaError(path, f"unexpected field {shorten(repr(key))}")
    for key in required:
        if key not in value:
            raise SchemaError(path, f"missing required field {key!r}")
    return value


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {shorten(repr(value))}")
    return value


def _root_list(value: Any, path: str) -> tuple[Fraction, ...]:
    if not isinstance(value, list):
        raise SchemaError(path, "expected an array of rationals")
    roots = []
    for i, entry in enumerate(value):
        try:
            roots.append(as_fraction(entry))
        except ValueError as exc:
            raise SchemaError(f"{path}[{i}]", str(exc)) from None
    return tuple(roots)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """JSON object hook: a repeated key is an error, not a silent overwrite.

    The hook does not know where the object sits, so it marks the first
    repeated key, and ``_expect_object`` reports it at the object's path.
    """
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            obj.setdefault(_REPEATED, key)
        obj[key] = value
    return obj


def _bundle(value: Any, path: str, model: ManifoldModel, *, allow_minus: bool = True,
            extra_keys: set[str] = frozenset()) -> tuple[dict, RootBundle]:
    allowed = {"plus", "minus"} | set(extra_keys)
    obj = _expect_object(value, path, allowed, set(extra_keys))
    plus = _root_list(obj.get("plus", []), f"{path}.plus")
    minus = _root_list(obj.get("minus", []), f"{path}.minus")
    if minus and not allow_minus:
        raise SchemaError(f"{path}.minus", "must be empty here")
    return obj, RootBundle(model, plus, minus)


def parse_problem(text: str) -> ProblemSpec:
    """Parse and validate a JSON problem document into a ProblemSpec."""
    import json

    try:
        document = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise SchemaError("$", f"invalid JSON ({exc})") from None
    except RecursionError:  # arrays or objects nested past the interpreter's stack
        raise SchemaError("$", "invalid JSON (nested too deeply)") from None
    top = _expect_object(
        document, "$",
        {"manifold", "tangent", "normal", "F", "L", "order"},
        {"manifold", "tangent", "normal", "F"},
    )

    name = top["manifold"]
    if not isinstance(name, str):
        raise SchemaError("manifold", "expected a manifold name string")
    try:
        model = model_from_name(name)
    except UnsupportedModel as exc:
        raise SchemaError("manifold", str(exc)) from None

    _, tangent = _bundle(top["tangent"], "tangent", model, allow_minus=False)

    normal_value = top["normal"]
    if normal_value == LOOP:
        normal: Any = LOOP
    elif isinstance(normal_value, list):
        components = []
        for i, entry in enumerate(normal_value):
            path = f"normal[{i}]"
            obj, bundle = _bundle(entry, path, model, allow_minus=False,
                                  extra_keys={"weight"})
            weight = _integer(obj["weight"], f"{path}.weight")
            if weight < 1:
                raise WeightError(
                    f"{path}.weight: normal weight must be a positive integer, got {weight}"
                )
            components.append((weight, bundle))
        normal = NormalDecomposition(model, components)
    else:
        raise SchemaError("normal", 'expected "loop" or an array of weighted bundles')

    f_value = top["F"]
    if not isinstance(f_value, list):
        raise SchemaError("F", "expected an array of weighted bundles")
    f_terms = []
    for i, entry in enumerate(f_value):
        path = f"F[{i}]"
        obj, bundle = _bundle(entry, path, model, extra_keys={"weight"})
        f_terms.append((_integer(obj["weight"], f"{path}.weight"), bundle))

    line = DifferenceLine()
    if "L" in top:
        obj = _expect_object(top["L"], "L", {"sign", "weight"}, {"sign", "weight"})
        sign = _integer(obj["sign"], "L.sign")
        if sign not in (1, -1):
            raise SchemaError("L.sign", f"must be 1 or -1, got {sign}")
        line = DifferenceLine(sign, _integer(obj["weight"], "L.weight"))

    order = DEFAULT_ORDER
    if "order" in top:
        order = _integer(top["order"], "order")
        if order < 0:
            raise SchemaError("order", f"must be nonnegative, got {order}")

    return ProblemSpec(
        model=model,
        tangent=tangent,
        normal=normal,
        F=EquivariantBundle(model, f_terms),
        L=line,
        order=order,
    )


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="equindex",
        description="Evaluate equivariant localized indices as exact q-series.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", metavar="FILE", help="JSON problem document")
    source.add_argument(
        "--preset",
        metavar="NAME",
        help="built-in problem: cplane:<k>, ls2, or lsigma:<g>",
    )
    parser.add_argument(
        "--order",
        type=int,
        default=None,
        metavar="N",
        help="truncation order (default: the document's, else 10)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    parser.add_argument("--output", metavar="FILE", help="write here instead of stdout")
    return parser


def run(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.preset is not None:
            order = args.order if args.order is not None else DEFAULT_ORDER
            series = localized_index(preset_spec(args.preset, order))
        else:
            try:
                with open(args.input, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as exc:
                print(f"equindex: cannot read {args.input}: {exc}", file=sys.stderr)
                return 2
            spec = parse_problem(text)
            if args.order is not None:
                spec = ProblemSpec(model=spec.model, tangent=spec.tangent, normal=spec.normal,
                                   F=spec.F, L=spec.L, order=args.order)
            series = localized_index(spec)
    except ValueError as exc:
        print(f"equindex: {exc}", file=sys.stderr)
        return 1

    try:
        if args.format == "json":
            import json

            rendered = json.dumps(series.to_json())
        else:
            rendered = render_series(series)
    except ValueError as exc:  # a coefficient past Python's limit on digits in text
        print(f"equindex: output: cannot write the result as text: {exc}", file=sys.stderr)
        return 1

    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(rendered + "\n")
        except OSError as exc:
            print(f"equindex: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    else:
        print(rendered)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
