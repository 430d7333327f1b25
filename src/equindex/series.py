"""Truncated formal q-series with exact coefficients.

A series is stored as a dense window of coefficients starting at its lowest
exponent, together with a truncation order N meaning the series is known
exactly modulo q^(N+1).  Coefficients live in a pluggable exact ring
(integers, rationals, or nilpotent-augmented rings supplied elsewhere);
no floating point is ever involved.

Laurent behaviour is allowed: ``lowest`` may be negative, and arithmetic
tracks how much of the result is actually determined by the operands'
truncation windows.

Here are the series record, its normal form, JSON and text, the two rings, the
readers of numbers in text, ``Record`` and ``SchemaError``.  The arithmetic and
inversion, which no solve runs, are in ``algebra``, which loads on first use.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Any, Iterable, Mapping

Scalar = Any  # a coefficient-ring element: int, Fraction, or a class supplied by the ring
# the text ``as_fraction`` reads: a sign and ASCII digits, as "p/q" or as a decimal, in the
# groups sign, p, q or sign, whole part, fraction digits, exponent
_RATIONAL_TEXT = re.compile(
    r"([-+]?)(?:(\d+)/(\d+)|(?=\.?\d)(\d*)(?:\.(\d*))?(?:[eE]([-+]?\d+))?)", re.ASCII)


class NotInvertible(ArithmeticError):
    """Raised when a series (or a coefficient) has no multiplicative inverse."""


class Record:
    """Value semantics for the package's records, whose fields ``_fields`` names.

    ``__init__`` sets the fields once, through ``_set_fields``; assigning or
    deleting one afterwards raises.  Two records are equal when they are of
    the same class and their fields are equal, and equal records hash alike;
    ``repr`` lists the fields as ``Name(field=value, ...)``.
    """

    _fields: tuple[str, ...] = ()

    def _set_fields(self, *values: Any) -> None:
        """Set the fields ``_fields`` names, in that order; ``__init__`` calls this once."""
        self.__dict__.update(zip(self._fields, values, strict=True))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other is self:  # as the field tuples would, without building them
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class CoefficientRing:
    """Minimal interface a coefficient ring must provide to QSeries.

    Elements support ``+``, ``-`` and ``*`` among themselves, and an element
    is zero exactly when it is falsy.  A ring supplies five members: ``name``,
    the constants ``zero`` and ``one``, ``coerce(value)`` for raw input, and
    ``invert_unit(value)``, which raises NotInvertible for a non-unit.
    """

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
            return parse_int(value)
        raise ValueError(f"not an exact integer: {value!r}")

    def invert_unit(self, value: int) -> int:
        if value != 1 and value != -1:
            raise NotInvertible(f"{value} is not a unit integer")
        return value


def shorten(text: str) -> str:
    """At most the first 60 characters of ``text`` and "...": an error line quotes input."""
    return text if len(text) <= 60 else text[:60] + "..."


class DigitLimit(ValueError):
    """A well-formed integer in text with more digits than the interpreter converts."""


def parse_int(text: str) -> int:
    """The integer written as an optional sign and ASCII digits; ValueError for other text.

    ``int`` alone would also take underscores, surrounding whitespace and non-ASCII
    digits.  Past the interpreter's limit on the digits of an integer in text, ``int``
    refuses a valid integer as if it were malformed; here that raises ``DigitLimit``.
    """
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {shorten(repr(text))}")
    limit = sys.get_int_max_str_digits()  # 0 when the interpreter sets none
    if limit and len(digits) > limit:
        raise DigitLimit(f"{shorten(repr(text))} has more than {limit} digits")
    return int(text)


class SchemaError(ValueError):
    """The one error of a refused problem: its ``message`` and the JSON ``path`` that caused it."""

    def __init__(self, path: str, message: str):
        self.path, self.message = path, message
        super().__init__(f"{path}: {message}")


def as_fraction(value: Any) -> Fraction:
    """The one exact rational coercion: ints, Fractions and "p/q" strings.

    Floats and booleans are refused, since neither is an exact rational.  A string is a
    sign and ASCII digits, "p/q" or a decimal such as "0.5" or "1e-4" (``Fraction`` alone
    would also take underscores, whitespace and other scripts' digits), with a decimal
    exponent at most the interpreter's limit on the digits of an integer in text:
    ``Fraction("1e10000000")`` would build 10^(10^7) before any later guard could refuse it.
    The value is built from the groups of that one match, so the text is read once.
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
        match = _RATIONAL_TEXT.fullmatch(value)
        limit = sys.get_int_max_str_digits()  # 0 when the interpreter sets none
        try:  # int() refuses more digits than the limit, and Fraction a zero denominator
            if match:
                sign, p, q, whole, digits, exponent = match.groups()
                exponent = int(exponent or 0)
                if not limit or abs(exponent) <= limit:
                    if q is not None:
                        p, q = int(p), int(q)
                    else:  # whole.digits times 10^exponent
                        q = 10**len(digits or "")
                        p = (int(whole or 0) * q + int(digits or 0)) * 10**max(exponent, 0)
                        q *= 10**max(-exponent, 0)
                    return Fraction(-p if sign == "-" else p, q)
        except (ValueError, ZeroDivisionError):
            match = None
        past = f" has a decimal exponent past {limit}" if match else ""
        raise ValueError(f"not a rational: {shorten(repr(value))}{past}")
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


class _Forward:
    """A ``QSeries`` entry whose code is in ``algebra``, which its first lookup loads.

    That lookup puts the entry of the same name in ``algebra._SeriesMethods`` in its place,
    so later operations cost what they would if ``QSeries`` defined it.  Operators are
    looked up on the class, so the module cannot load lazily any other way.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance: Any, owner: type) -> Any:
        from . import algebra

        entry = vars(algebra._SeriesMethods)[self.name]
        setattr(owner, self.name, entry)
        return entry.__get__(instance, owner)


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
        for field, value in (("lowest", lowest), ("order", order)):
            if type(value) is not int:
                raise ValueError(f"{field} must be an int, got {shorten(repr(value))}")
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
        self._set_fields(ring, lowest + start if start < end else 0,
                         tuple(window[start:end]), order)

    @classmethod
    def _trusted(cls, ring: CoefficientRing, lowest: int, window: Any, order: int) -> "QSeries":
        """Normal form of a window whose entries are already ring elements.

        Arithmetic builds its results here, so coefficients are coerced
        only once, by the public constructors.
        """
        series = cls.__new__(cls)
        series._normalise(ring, lowest, window, order)
        return series

    # -- arithmetic, in ``algebra`` ----------------------------------

    zero = _Forward()
    one = _Forward()
    from_terms = _Forward()
    is_zero = _Forward()
    coefficient = _Forward()
    terms = _Forward()
    _check_ring = _Forward()
    __add__ = _Forward()
    __sub__ = _Forward()
    __neg__ = _Forward()
    __mul__ = _Forward()
    __rmul__ = _Forward()
    __pow__ = _Forward()
    scale = _Forward()
    shift = _Forward()
    truncate = _Forward()
    inverse = _Forward()

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
    as ``1 - x``, is parenthesised.  The sign and body are worked out once
    per coefficient object and reused while the same object repeats.
    """
    parts: list[str] = []
    last = None  # the coefficient whose sign and body ``negative`` and ``body`` hold
    for exponent, value in terms:
        if not value:
            continue
        if value is not last:
            last = value
            body = str(value)
            negative = body.startswith("-") and " " not in body
            if negative:
                body = body[1:]
            elif " " in body:
                body = f"({body})"
        text = body
        if exponent:
            power = variable if exponent == 1 else f"{variable}^{exponent}"
            text = power if body == "1" else body + power
        if not parts:
            parts.append(f"-{text}" if negative else text)
        else:
            parts.append(f"- {text}" if negative else f"+ {text}")
    if not parts:
        return "0"
    return " ".join(parts)
