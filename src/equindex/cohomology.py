"""The manifold models of the fixed-point manifold, whose even cohomology is Q[x]/(x^(m+1)).

Every supported manifold has monogenic even cohomology, so a class is
just the vector of its coefficients in 1, x, ..., x^m with exact rational
entries, and the integral over the manifold reads the x^m entry.  A model
is its name, its top index m, and the genus of a surface.  This module
holds the models and ``model_from_name``, which reads a model's name; the
classes themselves (``CohClass``, ``CohRing``), which no solve builds, are
in ``algebra``.
"""

from __future__ import annotations

from typing import Any

from .series import DigitLimit, Record, SchemaError, parse_int, shorten


class UnsupportedModel(SchemaError):
    """An unknown manifold name, or the wrong kind of model for an op, at the path ``manifold``."""


class ModelMismatch(ValueError):
    """Two objects built over different manifold models were combined."""


class ManifoldModel(Record):
    """A manifold's name, its top cohomology index m, and its genus if it is a surface."""

    _fields = ("name", "top_index", "genus")

    def __init__(self, name: str, top_index: int, genus: int | None = None):
        if top_index < 0:
            raise ValueError("top cohomology index must be nonnegative")
        self._set_fields(name, top_index, genus)

    def __str__(self) -> str:
        return self.name


def model_from_name(name: Any) -> ManifoldModel:
    """Resolve a manifold preset name; ``UnsupportedModel`` refuses any other value.

    Supported: ``point``, ``s2``, ``sigma:<g>`` (closed orientable surface
    of genus g), ``cpn:<n>`` (complex projective n-space).
    """
    if not isinstance(name, str):
        raise UnsupportedModel("manifold", "expected a manifold name string")
    if name == "point":
        return ManifoldModel("point", 0)
    if name == "s2":
        return ManifoldModel("s2", 1, genus=0)
    if name.startswith("sigma:"):
        genus = _parse_suffix(name, "sigma:", minimum=0)
        return ManifoldModel(f"sigma:{genus}", 1, genus=genus)
    if name.startswith("cpn:"):
        n = _parse_suffix(name, "cpn:", minimum=1)
        return ManifoldModel(f"cpn:{n}", n)
    raise UnsupportedModel("manifold", f"unknown manifold model: {shorten(repr(name))}")


def _parse_suffix(name: str, prefix: str, minimum: int) -> int:
    try:
        value = parse_int(name[len(prefix):])
    except DigitLimit as exc:  # a valid name that the interpreter will not read: not unsupported
        raise SchemaError("manifold", f"manifold parameter {exc}") from None
    except ValueError:
        raise UnsupportedModel(
            "manifold", f"manifold parameter must be an integer: {shorten(repr(name))}") from None
    if value < minimum:
        raise UnsupportedModel(
            "manifold", f"manifold parameter out of range: {shorten(repr(name))}")
    return value
