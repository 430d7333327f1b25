"""Characteristic classes of bundles presented by Chern roots.

A bundle over a monogenic-cohomology manifold is given by two multisets
of rational roots: a root r stands for a line summand with first Chern
class r*x.  The Chern character and Todd class are evaluated exactly in
Q[x]/(x^(m+1)); the lambda factor (1 - q^n e^(rx)) per root is the
building block of normal-bundle Euler classes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Any, Sequence

from .cohomology import (
    CohClass,
    CohRing,
    ManifoldModel,
    ModelMismatch,
    unit_class,
)
from .series import QQ, QSeries, Record, as_fraction


class VirtualBundle(ValueError):
    """An operation needing a genuine bundle met nonempty minus_roots."""


class RootBundle(Record):
    """A virtual bundle: formal difference of sums of line bundles.

    ``plus_roots`` and ``minus_roots`` are multisets of rational Chern
    roots, stored sorted so equal bundles compare equal.
    """

    _fields = ("model", "plus_roots", "minus_roots")
    model: ManifoldModel
    plus_roots: tuple[Fraction, ...]
    minus_roots: tuple[Fraction, ...]

    def __init__(
        self,
        model: ManifoldModel,
        plus_roots: Sequence[Any] = (),
        minus_roots: Sequence[Any] = (),
    ):
        self.model = model
        self.plus_roots = tuple(sorted(as_fraction(r) for r in plus_roots))
        self.minus_roots = tuple(sorted(as_fraction(r) for r in minus_roots))

    @property
    def rank(self) -> int:
        return len(self.plus_roots) - len(self.minus_roots)

    @property
    def is_genuine(self) -> bool:
        return not self.minus_roots

    def direct_sum(self, other: "RootBundle") -> "RootBundle":
        if self.model != other.model:
            raise ModelMismatch(
                f"cannot sum bundles over {self.model} and {other.model}"
            )
        return RootBundle(
            self.model,
            self.plus_roots + other.plus_roots,
            self.minus_roots + other.minus_roots,
        )

    def conjugate(self) -> "RootBundle":
        """The conjugate bundle: every root negated."""
        return RootBundle(
            self.model,
            tuple(-r for r in self.plus_roots),
            tuple(-r for r in self.minus_roots),
        )


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
    """Universal coefficients of t / (1 - e^(-t)) up to t^top_index.

    Obtained by inverting (1 - e^(-t)) / t = sum (-1)^j t^j / (j+1)!
    as an exact rational series; no tabulated constants.
    """
    window = []
    term = Fraction(1)
    for j in range(top_index + 1):
        if j > 0:
            term = term * Fraction(-1, j + 1)
        window.append(term)
    inverse = QSeries(QQ, 0, window, top_index).inverse()
    return tuple(inverse.coefficient(j) for j in range(top_index + 1))


def _todd_factor(root: Fraction, model: ManifoldModel) -> CohClass:
    universal = _todd_coefficients(model.top_index)
    return CohClass([c * root**j for j, c in enumerate(universal)])


def todd_class(bundle: RootBundle) -> CohClass:
    """td = product over roots of rx / (1 - e^(-rx)); the root 0 contributes 1."""
    if not bundle.is_genuine:
        raise VirtualBundle("the Todd class needs a genuine bundle (no minus roots)")
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
