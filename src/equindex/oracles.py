"""Independent cross-check routes for the series engine.

Each oracle computes a quantity the engine also produces, but by a
deliberately different algorithm: a counting DP instead of a product
inversion, long division instead of Newton iteration or the kernels'
division by each factor, a literal double sum instead of the fixed-point
pipeline, ch(F) as a sum of exponential classes instead of integer
power-sum rows, and the Euler class as a product of lambda factors (over
the explicit loop decomposition for the loop family) instead of that
division or the plethystic recurrence.  Agreement between the two routes
is what the test suite leans on.  No solve imports this module; the
package loads it on first use.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .charclasses import RootBundle, VirtualBundle
from .cohomology import CohClass, CohRing, ManifoldModel
from .localization import NormalDecomposition
from .series import FrozenRecord, NotInvertible, QSeries, ZZ, as_fraction


class PartitionTable(FrozenRecord):
    """Partition counts p(0..limit), computed once and reused."""

    _fields = ("limit", "values")

    def __init__(self, limit: int, values: tuple[int, ...]):
        self._set_fields(limit, values)

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
    return PartitionTable(limit, tuple(counts))


def naive_inverse(series: QSeries, order: int) -> QSeries:
    """Series inverse by long division, term by recursive term.

    Independent of the engine's Newton iteration: coefficient n of
    the inverse is read off directly from the convolution identity
    a * b = 1 once coefficients 0..n-1 of b are known.
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


def lambda_minus_t_factor(bundle: RootBundle, weight: int, order: int) -> QSeries:
    """Alternating exterior-power series of the bundle, evaluated at q^weight.

    For E with plus roots r_1..r_d this is the q-polynomial
    product over i of (1 - q^weight e^(r_i x)), truncated at the order;
    its q^0 coefficient is the unit class.
    """
    if not bundle.is_genuine:
        raise VirtualBundle("lambda factors need a genuine bundle (no minus roots)")
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
    if not tangent.is_genuine:
        raise VirtualBundle("the tangent bundle must be genuine (no minus roots)")
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
