"""Command line front end: evaluate index problems from JSON or presets.

``parse_problem`` checks only what the records cannot know: that the text is
JSON, and that objects and arrays sit where the schema puts them with no
unknown, repeated or missing field.  It passes every value (the manifold
name, roots, weights, the difference line, the order) as it is to the
function or record that reads it, whose refusal names the same JSON path.

Exit status: 0 on success, 1 for problems with the input itself (schema,
weights, models, a problem past the cost bounds) or a result too long to
write as text, 2 for I/O failures and usage errors.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Any, Sequence

from .charclasses import RootBundle
from .cohomology import ManifoldModel, model_from_name
from .index import (
    DEFAULT_ORDER,
    DifferenceLine,
    EquivariantBundle,
    ProblemSpec,
    localized_index,
    preset_spec,
)
from .localization import NormalDecomposition
from .series import DigitLimit, SchemaError, parse_int, render_series, shorten

if TYPE_CHECKING:
    import argparse

_REPEATED = object()  # key under which _unique_keys marks a repeated field


def _expect_object(value: Any, path: str, allowed: Sequence[str], required: Sequence[str]) -> dict:
    """``value`` as an object of ``allowed`` fields; names the first ``required`` field missing."""
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


def _bundle(value: Any, path: str, model: ManifoldModel,
            extra_keys: tuple[str, ...] = ()) -> tuple[dict, RootBundle]:
    """The object at ``path`` and its bundle; the bundle's refusals are prefixed with ``path``."""
    obj = _expect_object(value, path, ("plus", "minus", *extra_keys), extra_keys)
    try:
        return obj, RootBundle(model, obj.get("plus", []), obj.get("minus", []))
    except SchemaError as exc:
        raise type(exc)(f"{path}.{exc.path}", exc.message) from None


def _weighted_bundles(value: Any, path: str, model: ManifoldModel) -> list[tuple[Any, RootBundle]]:
    """The (weight, bundle) summands of an array, each weight as the document gives it."""
    if not isinstance(value, list):
        raise SchemaError(path, "expected an array of weighted bundles")
    summands = []
    for i, entry in enumerate(value):
        obj, bundle = _bundle(entry, f"{path}[{i}]", model, ("weight",))
        summands.append((obj["weight"], bundle))
    return summands


def parse_problem(text: str) -> ProblemSpec:
    """Parse a JSON problem document into a ProblemSpec, which validates its values."""
    import json

    try:
        document = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise SchemaError("$", f"invalid JSON ({exc})") from None
    except RecursionError:  # arrays or objects nested past the interpreter's stack
        raise SchemaError("$", "invalid JSON (nested too deeply)") from None
    fields = ("manifold", "tangent", "normal", "F", "L", "order")  # the required ones first
    top = _expect_object(document, "$", fields, fields[:4])

    model = model_from_name(top["manifold"])
    _, tangent = _bundle(top["tangent"], "tangent", model)

    normal = top["normal"]
    if isinstance(normal, list):
        normal = NormalDecomposition(model, _weighted_bundles(normal, "normal", model))

    F = EquivariantBundle(model, _weighted_bundles(top["F"], "F", model))

    line = DifferenceLine()
    if "L" in top:
        fields = ("sign", "weight")
        line = DifferenceLine(**_expect_object(top["L"], "L", fields, fields))

    return ProblemSpec(model=model, tangent=tangent, normal=normal, F=F, L=line,
                       order=top.get("order", DEFAULT_ORDER))


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    def order(text: str) -> int:
        """parse_int(text), with a refusal that quotes a bad value cut short, unlike argparse."""
        try:
            return parse_int(text)
        except DigitLimit as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {shorten(repr(text))}") from None

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
        type=order,
        metavar="N",
        help="truncation order (default: the document's, else 10)",
    )
    parser.add_argument(  # argparse quotes a bad choice as type=shorten left it, cut short
        "--format", choices=("text", "json"), type=shorten, default="text", help="output format"
    )
    parser.add_argument("--output", metavar="FILE", help="write here instead of stdout")
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args, stray = parser.parse_known_args(argv)
    if stray:  # parse_args would quote them whole
        parser.error(f"unrecognized arguments: {shorten(' '.join(stray))}")
    try:
        if args.preset is not None:
            spec = preset_spec(args.preset, DEFAULT_ORDER)
        else:
            try:
                with open(args.input, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as exc:
                print(f"equindex: cannot read {shorten(repr(args.input))}: {exc.strerror}",
                      file=sys.stderr)
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
            print(f"equindex: cannot write {shorten(repr(args.output))}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    else:
        print(rendered)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
