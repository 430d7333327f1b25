"""Shared helpers for the test suite: random inputs and series comparison."""

from __future__ import annotations

import random
from fractions import Fraction

from equindex import (
    CohClass,
    CohRing,
    NormalDecomposition,
    QSeries,
    RootBundle,
    ZZ,
    model_from_name,
)

S2 = model_from_name("s2")
S2_RING = CohRing(S2)


def random_zz_series(rng: random.Random, order: int = 32, unit_leading: bool = True) -> QSeries:
    """A random integer series with the window sized so that the product
    with its inverse is determined through q^order."""
    lowest = rng.randint(-3, 3)
    if unit_leading:
        lead = rng.choice((1, -1))
    else:
        lead = rng.choice((-5, -4, -3, -2, 2, 3, 4, 5))
    coeffs = [lead] + [rng.randint(-5, 5) for _ in range(rng.randint(0, 7))]
    return QSeries(ZZ, lowest, coeffs, order + lowest)


def random_coh_class(rng: random.Random, ring: CohRing = S2_RING) -> CohClass:
    size = ring.model.top_index + 1
    return CohClass(
        [Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(size)]
    )


def random_coh_series(rng: random.Random, order: int = 32, ring: CohRing = S2_RING) -> QSeries:
    """A random cohomology-coefficient series with unit leading class."""
    lowest = rng.randint(-3, 3)
    size = ring.model.top_index + 1
    lead = CohClass(
        [rng.choice((1, -1))]
        + [Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(size - 1)]
    )
    coeffs = [lead] + [random_coh_class(rng, ring) for _ in range(rng.randint(0, 7))]
    return QSeries(ring, lowest, coeffs, order + lowest)


def random_decomposition(rng: random.Random, model) -> NormalDecomposition:
    components = []
    for _ in range(rng.randint(0, 4)):
        weight = rng.randint(1, 6)
        roots = [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.2:
            roots.append("1/2")
        components.append((weight, RootBundle(model, roots)))
    return NormalDecomposition(model, components)


def assert_same_series(a: QSeries, b: QSeries, through: int | None = None) -> None:
    """Coefficientwise equality on the window both series determine."""
    high = min(a.order, b.order) if through is None else through
    low = min(a.lowest, b.lowest, 0)
    for n in range(low, high + 1):
        assert a.coefficient(n) == b.coefficient(n), (
            f"coefficient of q^{n} differs: {a.coefficient(n)} != {b.coefficient(n)}"
        )


def assert_is_one(series: QSeries, through: int) -> None:
    """The series is the unit modulo q^(through+1)."""
    assert series.coefficient(0) == series.ring.one
    for n in range(min(series.lowest, 0), through + 1):
        if n != 0:
            assert not series.coefficient(n), (
                f"unexpected term at q^{n}: {series.coefficient(n)}"
            )
