"""Even cohomology of the fixed-point manifold, modelled as Q[x]/(x^(m+1)).

Every supported manifold has monogenic even cohomology, so a class is
just the vector of its coefficients in 1, x, ..., x^m with exact rational
entries.  The model records the top index m, the value of the integral of
x^m over the manifold, the real dimension (for reporting), and the genus
of a surface.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Any, Sequence

from .series import (
    CoefficientRing, FrozenRecord, NotInvertible, Record, as_fraction, render_terms,
)


class UnsupportedModel(ValueError):
    """A manifold name outside the supported presets, or the wrong kind for an op."""


class ModelMismatch(ValueError):
    """Two objects built over different manifold models were combined."""


class ManifoldModel(FrozenRecord):
    _fields = ("name", "top_index", "integral_normalization", "real_dimension", "genus")

    def __init__(
        self,
        name: str,
        top_index: int,
        integral_normalization: Fraction,
        real_dimension: int,
        genus: int | None = None,  # set for closed orientable surfaces only
    ):
        if top_index < 0:
            raise ValueError("top cohomology index must be nonnegative")
        integral_normalization = Fraction(integral_normalization)
        if top_index > 0 and integral_normalization == 0:
            raise ValueError("a positive-dimensional model needs a nonzero integral")
        self._set_fields(name, top_index, integral_normalization, real_dimension, genus)

    def __str__(self) -> str:
        return self.name


def model_from_name(name: str) -> ManifoldModel:
    """Resolve a manifold preset name.

    Supported: ``point``, ``s2``, ``sigma:<g>`` (closed orientable surface
    of genus g), ``cpn:<n>`` (complex projective n-space).
    """
    if name == "point":
        return ManifoldModel("point", 0, Fraction(1), 0)
    if name == "s2":
        return ManifoldModel("s2", 1, Fraction(1), 2, genus=0)
    if name.startswith("sigma:"):
        genus = _parse_suffix(name, "sigma:", minimum=0)
        return ManifoldModel(f"sigma:{genus}", 1, Fraction(1), 2, genus=genus)
    if name.startswith("cpn:"):
        n = _parse_suffix(name, "cpn:", minimum=1)
        return ManifoldModel(name, n, Fraction(1), 2 * n)
    raise UnsupportedModel(f"unknown manifold model: {name!r}")


def _parse_suffix(name: str, prefix: str, minimum: int) -> int:
    text = name[len(prefix):]
    try:
        value = int(text)
    except ValueError:
        raise UnsupportedModel(f"manifold parameter must be an integer: {name!r}") from None
    if value < minimum:
        raise UnsupportedModel(f"manifold parameter out of range: {name!r}")
    return value


class CohClass(Record):
    """An even cohomology class: coeffs[j] multiplies x^j, truncated past x^m.

    The vector length is fixed by the model (m + 1 entries); operations
    require equal lengths and truncate products back to the same length.
    """

    _fields = ("coeffs",)
    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Sequence[Any]):
        window = tuple(as_fraction(c) for c in coeffs)
        if not window:
            raise ValueError("a cohomology class needs at least the degree-0 entry")
        self.coeffs = window

    @classmethod
    def _trusted(cls, window: tuple[Fraction, ...]) -> "CohClass":
        """A class from a nonempty tuple of Fractions, taken as it is.

        Arithmetic builds its results here, so entries are coerced only
        once, by the public constructor.
        """
        value = cls.__new__(cls)
        value.coeffs = window
        return value

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
        return CohClass._trusted(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CohClass") -> "CohClass":
        if not isinstance(other, CohClass):
            return NotImplemented
        self._check_length(other)
        return CohClass._trusted(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CohClass":
        return CohClass._trusted(tuple(-a for a in self.coeffs))

    def __mul__(self, other: Any) -> "CohClass":
        if isinstance(other, CohClass):
            self._check_length(other)
            size = len(self.coeffs)
            out = [Fraction(0)] * size
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j in range(size - i):
                    b = other.coeffs[j]
                    if b != 0:
                        out[i + j] += a * b
            return CohClass._trusted(tuple(out))
        scalar = as_fraction(other)
        return CohClass._trusted(tuple(scalar * a for a in self.coeffs))

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
    """Integrate over the manifold: the x^m coefficient times the normalization."""
    _check_model(a, model)
    return a.coeffs[model.top_index] * model.integral_normalization


class CohRing(FrozenRecord, CoefficientRing):
    """Cohomology classes of a fixed model as a series coefficient ring.

    Units are the classes with scalar part +-1 (everything above degree
    zero is nilpotent, so a finite geometric sum inverts them exactly).
    """

    _fields = ("model",)

    def __init__(self, model: ManifoldModel):
        self._set_fields(model)

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"H({self.model})"

    @functools.cached_property
    def zero(self) -> CohClass:  # type: ignore[override]
        return CohClass([0] * (self.model.top_index + 1))

    @functools.cached_property
    def one(self) -> CohClass:  # type: ignore[override]
        return unit_class(self.model)

    def coerce(self, value: Any) -> CohClass:
        if isinstance(value, CohClass):
            _check_model(value, self.model)
            return value
        return scalar_class(self.model, value)

    def invert_unit(self, value: CohClass) -> CohClass:
        value = self.coerce(value)
        sign = value.scalar_part
        if sign != 1 and sign != -1:
            raise NotInvertible(f"class with scalar part {sign} is not a unit")
        nil = value - scalar_class(self.model, sign)
        # value = sign * (1 + sign * nil); invert with a finite geometric sum
        total = self.one
        power = self.one
        for _ in range(self.model.top_index):
            power = power * (-sign * nil)
            if not power:
                break
            total = total + power
        return sign * total
