"""Independent cross-check routes for the series engine.

Each oracle computes a quantity the engine also produces, but by a
deliberately different algorithm: a counting DP instead of a product
inversion, long division instead of Newton iteration, a literal double
sum instead of the fixed-point pipeline.  Agreement between the two
routes is what the test suite leans on.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from .series import NotInvertible, QSeries, ZZ


@dataclasses.dataclass(frozen=True)
class PartitionTable:
    """Partition counts p(0..limit), computed once and reused."""

    limit: int
    values: tuple[int, ...]

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
