"""Even cohomology of the fixed-point manifold, modelled as Q[x]/(x^(m+1)).

Every supported manifold has monogenic even cohomology, so a class is
just the vector of its coefficients in 1, x, ..., x^m with exact rational
entries, and the integral over the manifold reads the x^m entry.  A model
is its name, its top index m, and the genus of a surface.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Any, Iterable

from .series import (QQ, CoefficientRing, DigitLimit, NotInvertible, QSeries, Record, SchemaError,
                     as_fraction, parse_int, render_terms, shorten)


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


class CohClass(Record):
    """An even cohomology class: coeffs[j] multiplies x^j, truncated past x^m.

    The vector length is fixed by the model (m + 1 entries); operations
    require equal lengths and truncate products back to the same length.
    """

    _fields = ("coeffs",)
    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Any]):
        window = tuple(as_fraction(c) for c in coeffs)
        if not window:
            raise ValueError("a cohomology class needs at least the degree-0 entry")
        self._set_fields(window)

    @property
    def scalar_part(self) -> Fraction:
        return self.coeffs[0]

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def _check_length(self, other: "CohClass") -> None:
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("cohomology truncation degrees differ")

    def __add__(self, other: "CohClass") -> "CohClass":
        if not isinstance(other, CohClass):
            return NotImplemented
        self._check_length(other)
        return CohClass(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other: "CohClass") -> "CohClass":
        if not isinstance(other, CohClass):
            return NotImplemented
        self._check_length(other)
        return CohClass(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self) -> "CohClass":
        return CohClass(-a for a in self.coeffs)

    def __mul__(self, other: Any) -> "CohClass":
        if isinstance(other, CohClass):
            self._check_length(other)
            # x^(m+1) = 0, so the product is that of two series cut past q^m
            size = len(self.coeffs)
            return CohClass(QSeries._truncated_product(self.coeffs, other.coeffs, size, QQ.zero))
        scalar = as_fraction(other)
        return CohClass(scalar * a for a in self.coeffs)

    def __rmul__(self, other: Any) -> "CohClass":
        return self.__mul__(other)

    def __str__(self) -> str:
        return render_terms(enumerate(self.coeffs), "x")


def unit_class(model: ManifoldModel) -> CohClass:
    return scalar_class(model, 1)


def scalar_class(model: ManifoldModel, value: Any) -> CohClass:
    window = [Fraction(0)] * (model.top_index + 1)
    window[0] = as_fraction(value)
    return CohClass(window)


def _check_model(a: CohClass, model: ManifoldModel) -> None:
    if len(a.coeffs) != model.top_index + 1:
        raise ValueError(
            f"class of truncation degree {len(a.coeffs) - 1} does not live on {model}"
        )


def coh_integrate(a: CohClass, model: ManifoldModel) -> Fraction:
    """Integrate over the manifold: the x^m coefficient."""
    _check_model(a, model)
    return a.coeffs[model.top_index]


class CohRing(Record, CoefficientRing):
    """Cohomology classes of a fixed model as a series coefficient ring.

    Units are the classes with scalar part +-1 (everything above degree
    zero is nilpotent, so long division over the m + 1 entries inverts
    them exactly).
    """

    _fields = ("model",)

    def __init__(self, model: ManifoldModel):
        self._set_fields(model)

    @property
    def name(self) -> str:
        return f"H({self.model})"

    @functools.cached_property
    def zero(self) -> CohClass:
        return CohClass([0] * (self.model.top_index + 1))

    @functools.cached_property
    def one(self) -> CohClass:
        return unit_class(self.model)

    def coerce(self, value: Any) -> CohClass:
        if isinstance(value, CohClass):
            _check_model(value, self.model)
            return value
        return scalar_class(self.model, value)

    def invert_unit(self, value: CohClass) -> CohClass:
        a = self.coerce(value).coeffs
        if a[0] != 1 and a[0] != -1:
            raise NotInvertible(f"class with scalar part {a[0]} is not a unit")
        # x^(m+1) = 0, so the entries are those of the series a_0 + a_1 q + ... + a_m q^m
        inverse = QSeries._trusted(QQ, 0, a, len(a) - 1).inverse()
        return CohClass(inverse.coefficient(k) for k in range(len(a)))
