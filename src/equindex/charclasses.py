"""Characteristic classes of bundles presented by Chern roots.

A bundle over a monogenic-cohomology manifold is given by two multisets
of rational roots: a root r stands for a line summand with first Chern
class r*x.  The Todd class is evaluated exactly in Q[x]/(x^(m+1)); the
localization kernels read the roots themselves, and the Chern character
and the lambda factors live in ``oracles`` as cross-checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Any, Iterable, Sequence

from .cohomology import CohClass, ManifoldModel, ModelMismatch, unit_class
from .series import FrozenRecord, as_fraction


class VirtualBundle(ValueError):
    """An operation needing a genuine bundle met nonempty minus_roots."""


class RootBundle(FrozenRecord):
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
        self._set_fields(model, tuple(sorted(as_fraction(r) for r in plus_roots)),
                         tuple(sorted(as_fraction(r) for r in minus_roots)))

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


def merge_by_weight(model: ManifoldModel, summands: Iterable[tuple[int, RootBundle]],
                    what: str) -> tuple[tuple[int, RootBundle], ...]:
    """Direct sum of the bundles at each weight, sorted by weight.

    Every bundle must live on ``model``; ``what`` names a summand in the error.
    """
    merged: dict[int, RootBundle] = {}
    for weight, bundle in summands:
        if bundle.model != model:
            raise ModelMismatch(f"{what} over {bundle.model} does not live on {model}")
        merged[weight] = merged[weight].direct_sum(bundle) if weight in merged else bundle
    return tuple((w, merged[w]) for w in sorted(merged))


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
