"""The library's algebra that no solve runs: q-series arithmetic, H(M) classes, library classes.

``localized_index`` reads its q-series off integer columns and runs nothing here, so
the package loads this module on first use, as it does ``cli`` and ``oracles``, and
neither ``import equindex`` nor a CLI start compiles it.  It holds ``QSeries``'s
arithmetic and inversion (``_SeriesMethods``, whose entries take the place of the
forwarding entries that ``series`` leaves on the class), the even cohomology
Q[x]/(x^(m+1)) of a manifold model as classes and as a coefficient ring, the Todd
class of a bundle and the inverse Euler class of normal data.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .charclasses import (ManifoldModel, RootBundle, check_dimension, common_scale,
                          power_sums, todd_functional)
from .localization import NormalDecomposition, _check_work, _divide, check_order
from .series import (QQ, CoefficientRing, NotInvertible, QSeries, Record, Scalar, as_fraction,
                     check_int, render_terms)


def _truncated_product(a: Sequence, b: Sequence, size: int, zero: Scalar) -> list:
    """Entries 0..size-1 of the product of two coefficient lists, of series or of classes."""
    # zero tests cost a pass over a class on H(M): once per operand entry, not per pair
    mine = [(i, c) for i, c in enumerate(a[:size]) if c]
    theirs = [(j, c) for j, c in enumerate(b[:size]) if c]
    window: list = [None] * size
    for i, c1 in mine:
        for j, c2 in theirs:
            k = i + j
            if k >= size:
                break
            value = c1 * c2
            acc = window[k]
            window[k] = value if acc is None else acc + value
    return [zero if value is None else value for value in window]


def _check_ring(a: QSeries, b: QSeries) -> None:
    if a.ring != b.ring:
        raise ValueError(f"coefficient ring mismatch: {a.ring.name} vs {b.ring.name}")


class _SeriesMethods:
    """``QSeries``'s arithmetic and inversion, each entry in place of the forwarding one."""

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
        check_int("exponent", exponent)
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

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        _check_ring(self, other)
        order = min(self.order, other.order)
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
        return self + (-other) if isinstance(other, QSeries) else NotImplemented

    def __neg__(self) -> "QSeries":
        return QSeries._trusted(self.ring, self.lowest, [-c for c in self.coeffs], self.order)

    def __mul__(self, other: Any) -> "QSeries":
        if not isinstance(other, QSeries):
            return self.scale(other)
        _check_ring(self, other)
        ring = self.ring
        # how far the product is determined by the two truncation windows
        order = min(self.order + other.lowest, other.order + self.lowest)
        lowest = self.lowest + other.lowest
        size = max(min(len(self.coeffs) + len(other.coeffs) - 1, order - lowest + 1), 0)
        window = _truncated_product(self.coeffs, other.coeffs, size, ring.zero)
        return QSeries._trusted(ring, lowest, window, order)

    def __pow__(self, exponent: int) -> "QSeries":
        if type(exponent) is not int or exponent < 0:
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

    __rmul__ = scale

    def shift(self, k: int) -> "QSeries":
        """Multiply by q^k: exponents and the order both move by k."""
        check_int("k", k)
        return QSeries._trusted(self.ring, self.lowest + k, self.coeffs, self.order + k)

    def truncate(self, order: int) -> "QSeries":
        """Forget everything above q^order (never adds knowledge)."""
        check_int("order", order)
        return QSeries._trusted(self.ring, self.lowest, self.coeffs, min(order, self.order))

    def inverse(self) -> "QSeries":
        """Multiplicative inverse by long division.

        Writing the series as q^L * (a_0 + a_1 q + ...) with a_0 a unit of
        the coefficient ring, the inverse is q^(-L) * (b_0 + b_1 q + ...)
        with b_0 = a_0^(-1) and b_n = -a_0^(-1) * sum_(i=1..n) a_i b_(n-i);
        only the nonzero a_i are visited.

        >>> from equindex import ZZ
        >>> str(QSeries(ZZ, 0, (1, -1), 4).inverse())
        '1 + q + q^2 + q^3 + q^4'
        >>> QSeries(ZZ, -1, (1, 1), 5).inverse().lowest
        1
        """
        if self.is_zero:
            raise NotInvertible("the zero series has no inverse")
        ring = self.ring
        lead_inv = ring.invert_unit(self.coeffs[0])
        work = self.order - self.lowest
        terms = [(i, c) for i, c in enumerate(self.coeffs) if i and c]
        window = [lead_inv]
        for n in range(1, work + 1):
            total = ring.zero
            for i, c in terms:
                if i > n:
                    break
                total = total + c * window[n - i]
            window.append(-(lead_inv * total))
        return QSeries._trusted(ring, -self.lowest, window, work - self.lowest)


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
        return self + (-other) if isinstance(other, CohClass) else NotImplemented

    def __neg__(self) -> "CohClass":
        return CohClass(-a for a in self.coeffs)

    def __mul__(self, other: Any) -> "CohClass":
        if isinstance(other, CohClass):
            self._check_length(other)
            # x^(m+1) = 0, so the product is that of two series cut past q^m
            size = len(self.coeffs)
            return CohClass(_truncated_product(self.coeffs, other.coeffs, size, QQ.zero))
        scalar = as_fraction(other)
        return CohClass(scalar * a for a in self.coeffs)

    __rmul__ = __mul__

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


def todd_class(bundle: RootBundle) -> CohClass:
    """td(plus) / td(minus), td = product over roots of rx / (1 - e^(-rx)); the root 0 gives 1.

    >>> from equindex import model_from_name
    >>> str(todd_class(RootBundle(model_from_name("cpn:4"), (1,))))
    '1 + 1/2x + 1/12x^2 - 1/720x^4'
    """
    check_dimension(bundle.model)
    scale = common_scale([bundle])
    common, w = todd_functional(power_sums(bundle, scale, bundle.model.top_index + 1), scale)
    # the x^(m-k) entry of td is the integral of x^k td = k! D^k y^k/k! td, so k! D^k w_k/common
    coefficients = [Fraction(v * math.factorial(k) * scale**k, common) for k, v in enumerate(w)]
    return CohClass(coefficients[::-1])


def inverse_euler_class(decomposition: NormalDecomposition, order: int) -> QSeries:
    """Inverse of the Euler class modulo q^(order+1), from the division kernel."""
    check_order(order)
    model = decomposition.model
    size = model.top_index + 1
    bundles = [b for _, b in decomposition.components]
    scale = common_scale(bundles)
    _check_work(decomposition, order + 1, size, bundles, scale)
    columns = _divide(decomposition, scale, size, order + 1)
    denominators = [math.factorial(k) * scale**k for k in range(size)]
    coefficients = [
        CohClass([Fraction(c, d) for c, d in zip(row, denominators)]) for row in zip(*columns)
    ]
    return QSeries._trusted(CohRing(model), 0, coefficients, order)
