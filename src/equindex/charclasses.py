"""Characteristic classes of bundles presented by Chern roots.

A bundle over a monogenic-cohomology manifold is given by two multisets
of rational roots: a root r stands for a line summand with first Chern
class r*x.  Everything runs over the integers at one scale D, the lcm of the
root denominators (``common_scale``): ``power_sums`` reads a bundle as the
coordinates P_k of ch in y = x/D, and ``todd_functional`` integrates y^k/k!
against td = exp(sum l_k P_k y^k/k!).  The Todd class itself, ``todd_class``, is
in ``algebra``; the other routes to ch and td, and the lambda factors, are
cross-checks in ``oracles``.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from typing import Any, Iterable, Sequence

from .cohomology import ManifoldModel, ModelMismatch
from .series import Record, SchemaError, as_fraction, shorten

MAX_TOP_INDEX = 100  # largest dimension m taken: the Todd functional's integers grow with m


class VirtualBundle(SchemaError):
    """An operation needing a genuine bundle met nonempty minus_roots."""


def _roots(side: Any, path: str) -> tuple[Fraction, ...]:
    """One side's roots, sorted; a refusal names the side's ``path`` or the root's ``path[i]``."""
    if not isinstance(side, (list, tuple)):
        raise SchemaError(path, "expected an array of rationals")
    roots = []
    for i, root in enumerate(side):
        try:
            roots.append(as_fraction(root))
        except ValueError as exc:
            raise SchemaError(f"{path}[{i}]", str(exc)) from None
    return tuple(sorted(roots))


class RootBundle(Record):
    """A virtual bundle: formal difference of sums of line bundles.

    ``plus_roots`` and ``minus_roots`` are multisets of rational Chern roots, stored sorted
    so equal bundles compare equal.  Each side is a list or tuple of what ``as_fraction``
    takes, else ``SchemaError`` at the path ``plus``, ``plus[i]``, ``minus`` or ``minus[i]``.
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
        self._set_fields(model, _roots(plus_roots, "plus"), _roots(minus_roots, "minus"))

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
    """N and the integers N^k l_k, k = 1..top_index, of log(t / (1 - e^(-t))) = sum l_k t^k/k!.

    Its derivative is 1/t - 1/(e^t - 1), so l_k = -B_k / k for the Bernoulli numbers of
    sum_(j<=n) C(n+1, j) B_j = 0; N is the lcm of the denominators of l_1..l_top_index.
    """
    bernoulli = [Fraction(1)]
    for n in range(1, top_index + 1):
        bernoulli.append(-sum(math.comb(n + 1, j) * b for j, b in enumerate(bernoulli)) / (n + 1))
    logarithm = [-bernoulli[k] / k for k in range(1, top_index + 1)]
    scale = math.lcm(*(c.denominator for c in logarithm))
    return scale, tuple(int(c * scale**k) for k, c in enumerate(logarithm, 1))


def common_scale(bundles: Iterable[RootBundle]) -> int:
    """The scale D: the lcm of every root denominator in ``bundles``, so each rD is an integer."""
    return math.lcm(*(r.denominator for b in bundles for r in b.plus_roots + b.minus_roots))


def power_sums(bundle: RootBundle, scale: int, size: int) -> list[int]:
    """The integers P_k = sum (rD)^k over plus roots minus the same over minus roots, k < size.

    In the divided-power basis y^k/k! of y = x/D these are the coordinates of ch(bundle).
    """
    plus = [r.numerator * (scale // r.denominator) for r in bundle.plus_roots]
    minus = [r.numerator * (scale // r.denominator) for r in bundle.minus_roots]
    return [sum(s**k for s in plus) - sum(s**k for s in minus) for k in range(size)]


def todd_functional(sums: Sequence[int], scale: int) -> tuple[int, list[int]]:
    """common and w_0..w_m, in lowest terms, with w_k/common the integral of y^k/k! * td.

    ``sums`` are ``power_sums`` P_0..P_m at the scale D.  td = exp(sum G_k (y/N)^k/k!) for the
    integers G_k = N^k l_k P_k (0 at odd k > 1), that is sum E_n y^n / (n! N^n) with
    E_n = sum_(k=1..n) C(n-1, k-1) G_k E_(n-k); as y^m = x^m/D^m, y^k/k! integrates
    to C(m, k) E_(m-k) N^k / (m! (N D)^m).
    """
    m = len(sums) - 1
    lcm, logarithm = _todd_logarithm(m)
    g = [0] + [c * p for c, p in zip(logarithm, sums[1:])]
    numerators = [1]
    for n in range(1, len(g)):
        numerators.append(sum(math.comb(n - 1, k - 1) * g[k] * numerators[n - k]
                              for k in range(1, n + 1) if g[k]))
    total = math.factorial(m) * (lcm * scale)**m
    functional = [math.comb(m, k) * numerators[m - k] * power
                  for k, power in enumerate(accumulate(repeat(lcm, m), operator.mul, initial=1))]
    divisor = math.gcd(total, *functional)
    return total // divisor, [v // divisor for v in functional]


def check_dimension(model: ManifoldModel) -> None:
    """Refuse a manifold of dimension m past MAX_TOP_INDEX, whose Todd functional grows with m."""
    if model.top_index > MAX_TOP_INDEX:
        raise SchemaError("manifold", f"{shorten(repr(model.name))} has dimension past the bound "
                          f"{MAX_TOP_INDEX}; its Todd class would take too long")
