"""Truncated formal q-series with exact coefficients.

A series is stored as a dense window of coefficients starting at its lowest
exponent, together with a truncation order N meaning the series is known
exactly modulo q^(N+1).  Coefficients live in a pluggable exact ring
(integers, rationals, or nilpotent-augmented rings supplied elsewhere);
no floating point is ever involved.

Laurent behaviour is allowed: ``lowest`` may be negative, and arithmetic
tracks how much of the result is actually determined by the operands'
truncation windows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Iterable, Iterator, Mapping

Scalar = Any  # a coefficient-ring element: int, Fraction, or a class supplied by the ring


class NotInvertible(ArithmeticError):
    """Raised when a series (or a coefficient) has no multiplicative inverse."""


class Record:
    """Value semantics for the package's records, whose fields ``_fields`` names.

    Two records are equal when they are of the same class and their fields
    are equal; ``repr`` lists the fields as ``Name(field=value, ...)``.
    A record whose fields may be reassigned is unhashable.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other is self:  # as the field tuples would, without building them
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """A record whose fields are set once, by ``__init__``, and hashed."""

    def _set_fields(self, *values: Any) -> None:
        """Set the fields ``_fields`` names, in that order; ``__init__`` calls this once."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class CoefficientRing:
    """Minimal interface a coefficient ring must provide to QSeries.

    Elements support ``+``, ``-`` and ``*`` among themselves, and an element
    is zero exactly when it is falsy; the ring object supplies its name,
    the constants, coercion of raw input, and the inverse of a unit.
    """

    name = "ring"
    zero: Scalar = None
    one: Scalar = None

    def coerce(self, value: Any) -> Scalar:
        raise NotImplementedError

    def invert_unit(self, value: Scalar) -> Scalar:
        """Inverse of a unit; raises NotInvertible for non-units."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.name


class IntegerRing(CoefficientRing):
    """The ring of integers; units are exactly +1 and -1."""

    name = "ZZ"
    zero = 0
    one = 1

    def coerce(self, value: Any) -> int:
        if isinstance(value, bool):
            raise ValueError("booleans are not integer coefficients")
        if isinstance(value, int):
            return value
        if isinstance(value, Fraction) and value.denominator == 1:
            return int(value)
        if isinstance(value, str):
            return int(value)
        raise ValueError(f"not an exact integer: {value!r}")

    def invert_unit(self, value: int) -> int:
        if value != 1 and value != -1:
            raise NotInvertible(f"{value} is not a unit integer")
        return value


def as_fraction(value: Any) -> Fraction:
    """The one exact rational coercion: ints, Fractions and "p/q" strings.

    Floats and booleans are refused, since neither is an exact rational.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise ValueError("expected an exact rational, got a boolean")
    if isinstance(value, float):
        raise ValueError('floats are inexact; write rationals as strings "p/q"')
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"not a rational: {value!r}") from None
    raise ValueError(f"expected an exact rational, got {type(value).__name__}")


class RationalRing(CoefficientRing):
    """The field of rationals; every nonzero element is a unit."""

    name = "QQ"
    zero = Fraction(0)
    one = Fraction(1)
    coerce = staticmethod(as_fraction)

    def invert_unit(self, value: Fraction) -> Fraction:
        if not value:
            raise NotInvertible("zero is not invertible")
        return 1 / value


ZZ = IntegerRing()
QQ = RationalRing()


class QSeries(Record):
    """A q-series known exactly modulo q^(order+1).

    The stored window runs from ``lowest`` upward; the leading stored
    coefficient is nonzero, trailing zeros are stripped, and anything
    beyond ``order`` is dropped at construction.  The zero series is
    normalised to an empty window with ``lowest == 0``.

    >>> a = QSeries(ZZ, 0, (1, 2), 5)
    >>> b = QSeries(ZZ, 0, (1,), 3)
    >>> str(a + b)
    '2 + 2q'
    >>> (a + b).order
    3
    >>> str(QSeries(ZZ, 0, (1, -1), 3) * QSeries(ZZ, 0, (1, 1, 1, 1), 3))
    '1'
    """

    _fields = ("ring", "lowest", "coeffs", "order")
    ring: CoefficientRing
    lowest: int
    coeffs: tuple
    order: int

    def __init__(self, ring: CoefficientRing, lowest: int, coeffs: Any, order: int):
        self._normalise(ring, lowest, [ring.coerce(c) for c in coeffs], order)

    def _normalise(self, ring: CoefficientRing, lowest: int, window: Any, order: int) -> None:
        end = len(window)
        # drop whatever the truncation order does not cover
        if lowest + end - 1 > order:
            end = max(order - lowest + 1, 0)
        start = 0
        while start < end and not window[start]:
            start += 1
        while end > start and not window[end - 1]:
            end -= 1
        self.ring = ring
        self.lowest = lowest + start if start < end else 0
        self.coeffs = tuple(window[start:end])
        self.order = order

    @classmethod
    def _trusted(cls, ring: CoefficientRing, lowest: int, window: Any, order: int) -> "QSeries":
        """Normal form of a window whose entries are already ring elements.

        Arithmetic builds its results here, so coefficients are coerced
        only once, by the public constructors.
        """
        series = cls.__new__(cls)
        series._normalise(ring, lowest, window, order)
        return series

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ring: CoefficientRing, order: int) -> "QSeries":
        return cls(ring, 0, (), order)

    @classmethod
    def one(cls, ring: CoefficientRing, order: int) -> "QSeries":
        return cls(ring, 0, (ring.one,), order)

    @classmethod
    def from_terms(
        cls, ring: CoefficientRing, terms: Mapping[int, Any], order: int
    ) -> "QSeries":
        """Build a series from an exponent -> coefficient mapping."""
        if not terms:
            return cls.zero(ring, order)
        lowest = min(terms)
        highest = max(terms)
        window = [ring.zero] * (highest - lowest + 1)
        for exponent, value in terms.items():
            window[exponent - lowest] = value
        return cls(ring, lowest, window, order)

    # -- inspection ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, exponent: int) -> Scalar:
        """Coefficient of q^exponent; refuses to answer beyond the order."""
        if exponent > self.order:
            raise ValueError(
                f"coefficient of q^{exponent} is unknown beyond order {self.order}"
            )
        if exponent < self.lowest or exponent >= self.lowest + len(self.coeffs):
            return self.ring.zero
        return self.coeffs[exponent - self.lowest]

    def terms(self) -> Iterator[tuple[int, Scalar]]:
        """Yield (exponent, coefficient) for the nonzero stored terms."""
        for offset, value in enumerate(self.coeffs):
            if value:
                yield self.lowest + offset, value

    # -- ring operations ----------------------------------------------

    def _check_ring(self, other: "QSeries") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError(
                f"coefficient ring mismatch: {self.ring!r} vs {other.ring!r}"
            )

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check_ring(other)
        order = min(self.order, other.order)
        if not other.coeffs:
            return self.truncate(order)
        if not self.coeffs:
            return other.truncate(order)
        low, high = (self, other) if self.lowest <= other.lowest else (other, self)
        window = list(low.coeffs)
        start = high.lowest - low.lowest
        window.extend([self.ring.zero] * (start - len(window)))
        for k, value in enumerate(high.coeffs, start):
            if k < len(window):
                window[k] = window[k] + value
            else:
                window.append(value)
        return QSeries._trusted(self.ring, low.lowest, window, order)

    def __sub__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "QSeries":
        return QSeries._trusted(self.ring, self.lowest, [-c for c in self.coeffs], self.order)

    def __mul__(self, other: Any) -> "QSeries":
        if not isinstance(other, QSeries):
            return self.scale(other)
        self._check_ring(other)
        ring = self.ring
        # how far the product is determined by the two truncation windows
        order = min(self.order + other.lowest, other.order + self.lowest)
        lowest = self.lowest + other.lowest
        size = max(min(len(self.coeffs) + len(other.coeffs) - 1, order - lowest + 1), 0)
        # zero tests cost a pass over a class on H(M): once per operand term, not per pair
        mine = [(i, c) for i, c in enumerate(self.coeffs[:size]) if c]
        theirs = [(j, c) for j, c in enumerate(other.coeffs[:size]) if c]
        window: list = [None] * size
        for i, c1 in mine:
            for j, c2 in theirs:
                k = i + j
                if k >= size:
                    break
                value = c1 * c2
                acc = window[k]
                window[k] = value if acc is None else acc + value
        zero = ring.zero
        window = [zero if value is None else value for value in window]
        return QSeries._trusted(ring, lowest, window, order)

    def __rmul__(self, other: Any) -> "QSeries":
        return self.scale(other)

    def __pow__(self, exponent: int) -> "QSeries":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are defined")
        result = QSeries.one(self.ring, self.order)
        for _ in range(exponent):
            result = result * self
        return result

    def scale(self, value: Any) -> "QSeries":
        """Multiply every coefficient by a ring element."""
        value = self.ring.coerce(value)
        return QSeries._trusted(
            self.ring, self.lowest, [value * c for c in self.coeffs], self.order
        )

    def shift(self, k: int) -> "QSeries":
        """Multiply by q^k: exponents and the order both move by k."""
        return QSeries._trusted(self.ring, self.lowest + k, self.coeffs, self.order + k)

    def truncate(self, order: int) -> "QSeries":
        """Forget everything above q^order (never adds knowledge)."""
        if order >= self.order:
            return self
        return QSeries._trusted(self.ring, self.lowest, self.coeffs, order)

    def inverse(self) -> "QSeries":
        """Multiplicative inverse by Newton iteration at doubling precision.

        Writing the series as c * q^L * a with a(0) = 1, an inverse b of a
        correct modulo q^k gives b - b(ab - 1), correct modulo q^(2k); the
        result is c^(-1) * q^(-L) * b.  Requires the leading coefficient to
        be a unit of the coefficient ring.

        >>> str(QSeries(ZZ, 0, (1, -1), 4).inverse())
        '1 + q + q^2 + q^3 + q^4'
        >>> QSeries(ZZ, -1, (1, 1), 5).inverse().lowest
        1
        """
        if self.is_zero:
            raise NotInvertible("the zero series has no inverse")
        lead_inv = self.ring.invert_unit(self.coeffs[0])
        work = self.order - self.lowest
        unit = self.shift(-self.lowest).scale(lead_inv)  # a, with a(0) = 1
        inverse = QSeries.one(self.ring, 0)
        while inverse.order < work:
            precision = min(2 * inverse.order + 1, work)
            # the current inverse is an exact polynomial; only its error term
            # ab - 1, of valuation above the old precision, limits the new one
            inverse = QSeries._trusted(self.ring, 0, inverse.coeffs, precision)
            error = unit.truncate(precision) * inverse - QSeries.one(self.ring, precision)
            inverse = inverse - inverse * error
        return inverse.scale(lead_inv).shift(-self.lowest)

    # -- rendering ----------------------------------------------------

    def __str__(self) -> str:
        return render_series(self)

    def to_json(self) -> dict:
        """JSON-ready payload; coefficients as exact p/q strings."""
        return {
            "lowest": self.lowest,
            "order": self.order,
            "coeffs": [str(c) for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, ring: CoefficientRing, payload: Mapping[str, Any]) -> "QSeries":
        return cls(ring, payload["lowest"], payload["coeffs"], payload["order"])


def render_series(series: QSeries) -> str:
    """Render with explicit signs, lowest exponent first: ``1 + 2q + 5q^2``."""
    return render_terms(enumerate(series.coeffs, series.lowest), "q")


def render_terms(terms: Iterable[tuple[int, Scalar]], variable: str) -> str:
    """Render (exponent, coefficient) pairs as a polynomial in ``variable``.

    Zero coefficients are skipped.  A coefficient's text gives its sign when
    it is a single term, such as ``-3/2`` or ``-x``; a composite one, such
    as ``1 - x``, is parenthesised.
    """
    parts: list[str] = []
    for exponent, value in terms:
        if not value:
            continue
        text = str(value)
        negative = text.startswith("-") and " " not in text
        if negative:
            text = text[1:]
        elif " " in text:
            text = f"({text})"
        if exponent:
            power = variable if exponent == 1 else f"{variable}^{exponent}"
            text = power if text == "1" else text + power
        if not parts:
            parts.append(f"-{text}" if negative else text)
        else:
            parts.append(f"- {text}" if negative else f"+ {text}")
    if not parts:
        return "0"
    return " ".join(parts)
