"""Characteristic classes of bundles presented by Chern roots.

A bundle over a monogenic-cohomology manifold is given by two multisets
of rational roots: a root r stands for a line summand with first Chern
class r*x.  The Todd class is evaluated exactly in Q[x]/(x^(m+1)), over the
integers from the roots' power sums; the localization kernels read the roots
themselves, and the Chern character, the lambda factors and the per-root Todd
product live in ``oracles`` as cross-checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Any, Iterable, Sequence

from .cohomology import CohClass, ManifoldModel, ModelMismatch
from .series import Record, as_fraction


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
def _todd_logarithm(top_index: int) -> tuple[int, tuple[int, ...]]:
    """L and the integers L^k l_k, k = 1..top_index, of log(t / (1 - e^(-t))) = sum l_k t^k.

    Its derivative is 1/t - 1/(e^t - 1), so l_k = -B_k / (k k!) for the Bernoulli numbers
    of sum_(j<=n) C(n+1, j) B_j = 0; L is the lcm of the denominators of l_1..l_top_index.
    """
    bernoulli = [Fraction(1)]
    for n in range(1, top_index + 1):
        bernoulli.append(-sum(math.comb(n + 1, j) * b for j, b in enumerate(bernoulli)) / (n + 1))
    logarithm = [-bernoulli[k] / (k * math.factorial(k)) for k in range(1, top_index + 1)]
    scale = math.lcm(*(c.denominator for c in logarithm))
    return scale, tuple(int(c * scale**k) for k, c in enumerate(logarithm, 1))


def todd_numerators(bundle: RootBundle) -> tuple[int, list[int]]:
    """Integers c and E_0..E_m with td(bundle) = sum E_n x^n / (n! c^n), from power sums.

    td = exp(sum l_k P_k x^k) for the power sums P_k of the roots.  With the steps s = re
    for e the lcm of the root denominators, and c = L e, that is exp(sum G_k (x/c)^k) for
    the integers G_k = L^k l_k sum s^k, so E_n = sum_(k=1..n) k (n-1)!/(n-k)! G_k E_(n-k).
    """
    if not bundle.is_genuine:
        raise VirtualBundle("the Todd class needs a genuine bundle (no minus roots)")
    scale, logarithm = _todd_logarithm(bundle.model.top_index)
    e = math.lcm(*(r.denominator for r in bundle.plus_roots))
    steps = [r.numerator * (e // r.denominator) for r in bundle.plus_roots]
    g = [0] + [c * sum(s**k for s in steps) for k, c in enumerate(logarithm, 1)]
    numerators = [1]
    for n in range(1, len(g)):
        numerators.append(sum(k * math.perm(n - 1, k - 1) * g[k] * numerators[n - k]
                              for k in range(1, n + 1)))
    return scale * e, numerators


def todd_class(bundle: RootBundle) -> CohClass:
    """td = product over roots of rx / (1 - e^(-rx)); the root 0 contributes 1.

    >>> from equindex import model_from_name
    >>> str(todd_class(RootBundle(model_from_name("cpn:4"), (1,))))
    '1 + 1/2x + 1/12x^2 - 1/720x^4'
    """
    c, numerators = todd_numerators(bundle)
    return CohClass([Fraction(v, math.factorial(n) * c**n) for n, v in enumerate(numerators)])
