"""Independent cross-check routes for the series engine.

Each oracle computes a quantity the engine also produces, but by a
deliberately different algorithm: a counting DP instead of a product
inversion, term-by-term long division instead of the kernels' division
by each factor, a literal double sum instead of the fixed-point pipeline,
ch(F) as a sum of exponential classes and the Todd class as a product of
one factor per root instead of integer power sums, and the Euler class as
a product of lambda factors (over the explicit loop decomposition for the
loop family) instead of that division or the loop tower's exponential.
Agreement between the two routes is what the test suite leans on;
``naive_inverse`` shares long division with ``QSeries.inverse``, which the
inversion law (criterion 6) and the partition DP (criterion 5) check apart
from the method.  No solve imports this module; the package loads it on
first use.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .charclasses import ManifoldModel, RootBundle, VirtualBundle
from .algebra import CohClass, CohRing, unit_class
from .localization import NormalDecomposition
from .series import NotInvertible, QSeries, Record, ZZ, as_fraction


class PartitionTable(Record):
    """Partition counts p(0), p(1), ..., computed once and reused."""

    _fields = ("values",)

    def __init__(self, values: tuple[int, ...]):
        self._set_fields(values)

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    def convolution(self, n: int) -> int:
        """Coefficient sum_m p(m) * p(n - m), the square of the partition series."""
        return sum(self.values[m] * self.values[n - m] for m in range(n + 1))


def partition_numbers(limit: int) -> PartitionTable:
    """Partition counts by the bounded-largest-part DP.

    counts[n] after the ``part`` pass is the number of partitions of n
    into parts of size at most ``part``.

    >>> partition_numbers(10).values
    (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)
    """
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    counts = [0] * (limit + 1)
    counts[0] = 1
    for part in range(1, limit + 1):
        for n in range(part, limit + 1):
            counts[n] += counts[n - part]
    return PartitionTable(tuple(counts))


def naive_inverse(series: QSeries, order: int) -> QSeries:
    """Series inverse by long division, term by recursive term.

    Coefficient n is read off the convolution identity a * b = 1 once
    coefficients 0..n-1 of b are known: the method of ``QSeries.inverse``,
    whose checks apart from the method are criteria 5 and 6.
    """
    if series.is_zero:
        raise NotInvertible("the zero series has no inverse")
    ring = series.ring
    lead_inv = ring.invert_unit(series.coeffs[0])
    shifted = series.shift(-series.lowest)  # lowest exponent 0
    target = min(order, series.order - 2 * series.lowest)
    work = target + series.lowest
    out = [lead_inv]
    for n in range(1, work + 1):
        acc = ring.zero
        for i in range(1, n + 1):
            a_i = shifted.coefficient(i)
            if not a_i:
                continue
            acc = acc + a_i * out[n - i]
        out.append(-(lead_inv * acc))
    return QSeries(ring, -series.lowest, out, target)


def direct_cplane_index(weight: int, coefficients: Sequence[int], order: int) -> QSeries:
    """Literal double sum for the weighted complex plane.

    For weight k > 0 and F = sum_n c_n q^n this is
    sum_n c_n (q^n + q^(n+k) + q^(n+2k) + ...) truncated at the order;
    for k < 0 the same sum for |k| is multiplied by -1, shifted upward
    by |k| (the difference-line contribution), and truncated back to the
    requested order.
    """
    if weight == 0:
        raise ValueError("the plane rotation weight must be nonzero")
    step = abs(weight)
    acc: dict[int, int] = {}
    for n, c_n in enumerate(coefficients):
        if c_n == 0:
            continue
        exponent = n
        while exponent <= order:
            acc[exponent] = acc.get(exponent, 0) + c_n
            exponent += step
    base = QSeries.from_terms(ZZ, acc, order)
    if weight < 0:
        return base.scale(-1).shift(step).truncate(order)
    return base


def exponential_class(root: Fraction, model: ManifoldModel) -> CohClass:
    """e^(r x) truncated at x^m, with exact factorials."""
    root = as_fraction(root)
    window = []
    term = Fraction(1)
    for j in range(model.top_index + 1):
        if j > 0:
            term = term * root / j
        window.append(term)
    return CohClass(window)


def chern_character(bundle: RootBundle) -> CohClass:
    """ch = sum of e^(rx) over plus roots minus the same over minus roots."""
    model = bundle.model
    total = CohClass([0] * (model.top_index + 1))
    for root in bundle.plus_roots:
        total = total + exponential_class(root, model)
    for root in bundle.minus_roots:
        total = total - exponential_class(root, model)
    return total


@lru_cache(maxsize=None)
def _todd_coefficients(top_index: int) -> tuple[Fraction, ...]:
    """Universal coefficients c_n of t / (1 - e^(-t)) up to t^top_index.

    They invert (1 - e^(-t)) / t = sum (-1)^j t^j / (j+1)!, so c_0 = 1 and
    c_n = -sum over j = 1..n of (-1)^j c_(n-j) / (j+1)!; no tabulated constants.
    """
    coefficients = [Fraction(1)]
    for n in range(1, top_index + 1):
        coefficients.append(-sum(Fraction((-1) ** j, math.factorial(j + 1)) * coefficients[n - j]
                                 for j in range(1, n + 1)))
    return tuple(coefficients)


def _todd_factor(root: Fraction, model: ManifoldModel) -> CohClass:
    universal = _todd_coefficients(model.top_index)
    return CohClass([c * root**j for j, c in enumerate(universal)])


def todd_product(bundle: RootBundle) -> CohClass:
    """td = product over roots of rx / (1 - e^(-rx)); the root 0 contributes 1."""
    if not bundle.is_genuine:
        raise VirtualBundle("minus", "must be empty (the Todd product needs a genuine bundle)")
    total = unit_class(bundle.model)
    for root in bundle.plus_roots:
        if root == 0:
            continue
        total = total * _todd_factor(root, bundle.model)
    return total


def lambda_minus_t_factor(bundle: RootBundle, weight: int, order: int) -> QSeries:
    """Alternating exterior-power series of the bundle, evaluated at q^weight.

    For E with plus roots r_1..r_d this is the q-polynomial
    product over i of (1 - q^weight e^(r_i x)), truncated at the order;
    its q^0 coefficient is the unit class.
    """
    if not bundle.is_genuine:
        raise VirtualBundle("minus", "must be empty (lambda factors need a genuine bundle)")
    if not isinstance(weight, int) or isinstance(weight, bool) or weight < 1:
        raise ValueError(f"rotation weight must be a positive integer, got {weight!r}")
    ring = CohRing(bundle.model)
    total = QSeries.one(ring, order)
    for root in bundle.plus_roots:
        factor = QSeries.from_terms(
            ring,
            {0: ring.one, weight: -exponential_class(root, bundle.model)},
            order,
        )
        total = total * factor
    return total


def loop_normal_decomposition(tangent: RootBundle, order: int) -> NormalDecomposition:
    """Normal data of the free loop space along the constant loops.

    Every rotation weight k >= 1 carries a copy of the complexified
    tangent bundle, i.e. tangent plus its conjugate; weights above the
    truncation order are invisible modulo q^(order+1) and are omitted.
    """
    complexified = tangent.direct_sum(tangent.conjugate())
    return NormalDecomposition(
        tangent.model, ((k, complexified) for k in range(1, order + 1))
    )


def euler_class(decomposition: NormalDecomposition, order: int) -> QSeries:
    """Product of the per-weight lambda factors, truncated at the order.

    The empty decomposition gives the unit series; in general the q^0
    coefficient is the unit class, so the result is always invertible.
    """
    ring = CohRing(decomposition.model)
    total = QSeries.one(ring, order)
    for weight, bundle in decomposition.components:
        if weight > order:
            continue  # contributes 1 modulo q^(order+1)
        total = total * lambda_minus_t_factor(bundle, weight, order)
    return total
