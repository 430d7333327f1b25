"""Independent cross-check routes for the series engine.

Each oracle computes a quantity the engine also produces, but by a
deliberately different algorithm: a counting DP instead of a product
inversion, long division instead of Newton iteration, a literal double
sum instead of the fixed-point pipeline, a plethystic exponential
instead of dividing by the loop space's lambda factors.  Agreement
between the two routes is what the test suite leans on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .charclasses import chern_character, exponential_class, todd_class
from .cohomology import CohClass, coh_integrate, scalar_class, unit_class
from .index import LOOP, ProblemSpec
from .series import QQ, FrozenRecord, NotInvertible, QSeries, ZZ


class PartitionTable(FrozenRecord):
    """Partition counts p(0..limit), computed once and reused."""

    _fields = ("limit", "values")

    def __init__(self, limit: int, values: tuple[int, ...]):
        object.__setattr__(self, "limit", limit)
        object.__setattr__(self, "values", values)

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
    lead = series.coeffs[0]
    if not ring.is_unit(lead):
        raise NotInvertible(f"leading coefficient {lead!r} is not a unit")
    lead_inv = ring.invert_unit(lead)
    shifted = series.shift(-series.lowest)  # lowest exponent 0
    target = min(order, series.order - 2 * series.lowest)
    work = target + series.lowest
    out = [lead_inv]
    for n in range(1, work + 1):
        acc = ring.zero
        for i in range(1, n + 1):
            a_i = shifted.coefficient(i)
            if ring.is_zero(a_i):
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


def plethystic_loop_index(spec: ProblemSpec) -> QSeries:
    """The index of a loop-space problem from a plethystic exponential.

    The loop normal data puts the complexified tangent bundle at every
    weight k >= 1, so with rho over the tangent roots and their negatives
    the inverse Euler class is the product of 1/(1 - q^k e^(rho x)), that
    is exp(sum_n a_n q^n) with a_n = sum over j | n of (1/j) sum_rho e^(j rho x).
    Its coefficients b_n follow from n b_n = sum_k k a_k b_(n-k), and
    coefficient n of the index is the integral of td * sum_a ch(F_a) b_(n-a),
    before the difference line's sign and shift.
    """
    if spec.normal != LOOP:
        raise ValueError("the plethystic oracle needs loop normal data")
    model = spec.model
    top = spec.order - spec.L.weight
    lowest = min((weight for weight, _ in spec.F.terms), default=top)
    depth = max(top - lowest, 0)
    roots = spec.tangent.plus_roots + tuple(-r for r in spec.tangent.plus_roots)
    zero = scalar_class(model, 0)

    def power_sum(j: int) -> CohClass:  # the sum over rho of e^(j rho x)
        return sum((exponential_class(j * root, model) for root in roots), zero)

    a = [zero] + [
        sum((power_sum(j) * Fraction(1, j) for j in range(1, n + 1) if n % j == 0), zero)
        for n in range(1, depth + 1)
    ]
    b = [unit_class(model)]
    for n in range(1, depth + 1):
        total = sum((a[k] * b[n - k] * k for k in range(1, n + 1)), zero)
        b.append(total * Fraction(1, n))
    todd = todd_class(spec.tangent)
    values: dict[int, Fraction] = {}
    for weight, bundle in spec.F.terms:
        character = chern_character(bundle) * todd
        for n in range(weight, top + 1):
            value = coh_integrate(character * b[n - weight], model)
            values[n] = values.get(n, 0) + value
    return QSeries.from_terms(QQ, values, top).scale(spec.L.sign).shift(spec.L.weight)
