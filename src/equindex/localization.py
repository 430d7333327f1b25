"""Normal data along the fixed-point manifold and its Euler class.

The normal directions decompose into rotation-weight summands; the
equivariant Euler class is the product of the per-weight lambda factors,
a q-series with cohomology-class coefficients whose q^0 term is the unit.
Because only weights up to the truncation order contribute modulo
q^(order+1), an infinite (loop-space) family of weights is handled by
materializing weights 1..order only.

The inverse Euler class and the fixed-point integral never form the Euler
class: they divide the unit, or ch(F), by each factor (1 - q^w e^(rx)) in
turn, over integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .charclasses import RootBundle, VirtualBundle, lambda_minus_t_factor
from .cohomology import CohClass, CohRing, ManifoldModel, ModelMismatch, coh_integrate
from .series import QQ, QSeries, Record


class WeightError(ValueError):
    """A normal-direction rotation weight that is not a positive integer."""


class NormalDecomposition(Record):
    """Weighted summands of the normal data: ((weight, bundle), ...).

    Construction merges repeated weights by direct sum, sorts by weight,
    and insists on genuine bundles with strictly positive weights.
    """

    _fields = ("model", "components")
    model: ManifoldModel
    components: tuple[tuple[int, RootBundle], ...]

    def __init__(
        self, model: ManifoldModel, components: Iterable[tuple[int, RootBundle]] = ()
    ):
        merged: dict[int, RootBundle] = {}
        for weight, bundle in components:
            if not isinstance(weight, int) or isinstance(weight, bool) or weight < 1:
                raise WeightError(
                    f"normal weight must be a positive integer, got {weight!r}"
                )
            if bundle.model != model:
                raise ModelMismatch(
                    f"normal component over {bundle.model} does not live on {model}"
                )
            if not bundle.is_genuine:
                raise VirtualBundle(
                    "normal components must be genuine bundles (no minus roots)"
                )
            if weight in merged:
                merged[weight] = merged[weight].direct_sum(bundle)
            else:
                merged[weight] = bundle
        self.model = model
        self.components = tuple((w, merged[w]) for w in sorted(merged))


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


def inverse_euler_class(decomposition: NormalDecomposition, order: int) -> QSeries:
    """Inverse of the Euler class modulo q^(order+1): the quotient of the unit class."""
    model = decomposition.model
    _, rows, denominators = _quotient(decomposition, ((0, RootBundle(model, (0,))),), order)
    coefficients = [
        CohClass([Fraction(c, d) for c, d in zip(row, denominators)]) for row in rows
    ]
    return QSeries(CohRing(model), 0, coefficients, order)


def fixed_point_integral(decomposition: NormalDecomposition, todd: CohClass,
                         terms: Sequence[tuple[int, RootBundle]], top: int) -> QSeries:
    """The integral of todd * ch(F) / eul(normal) over the fixed manifold, through q^top.

    ``terms`` are the summands (a, F_a) of F, at distinct weights a.
    """
    model = decomposition.model
    lowest, rows, denominators = _quotient(decomposition, terms, top)
    size = len(denominators)
    # f_k integrates the basis class y^k/k! = x^k/(k! D^k) against todd
    functional = [
        coh_integrate(todd * CohClass([0] * k + [Fraction(1, d)] + [0] * (size - k - 1)), model)
        for k, d in enumerate(denominators)
    ]
    # over a common denominator, a row's integral is an int dot product and one Fraction
    common = math.lcm(*(f.denominator for f in functional))
    weights = [f.numerator * (common // f.denominator) for f in functional]
    values = [Fraction(sum(c * w for c, w in zip(row, weights)), common) for row in rows]
    return QSeries(QQ, lowest, values, top)


def _quotient(decomposition: NormalDecomposition, terms: Sequence[tuple[int, RootBundle]],
              top: int) -> tuple[int, list[list[int]], list[int]]:
    """ch(F) / eul(normal) from the lowest weight in ``terms`` through q^top.

    Classes are carried in the divided-power basis y^k/k! of y = x/D, with
    D the lcm of the root denominators: there e^(rx) has the integer
    coordinates (rD)^k, so ch(F_a) starts row a as power sums, and
    y^i/i! * y^j/j! = C(i+j, i) y^(i+j)/(i+j)!.  Dividing by (1 - q^w e^(rx))
    is the in-place recurrence g_n += e^(rx) g_(n-w) for ascending n, pure
    int.  Returns the lowest weight, the rows and the denominators k! D^k.
    """
    size = decomposition.model.top_index + 1
    bundles = [bundle for _, bundle in (*decomposition.components, *terms)]
    scale = math.lcm(*(r.denominator for b in bundles for r in b.plus_roots + b.minus_roots))
    lowest = min((weight for weight, _ in terms), default=top + 1)
    rows = [[0] * size for _ in range(lowest, top + 1)]
    for weight, bundle in terms:
        if weight <= top:
            plus = [int(root * scale) for root in bundle.plus_roots]
            minus = [int(root * scale) for root in bundle.minus_roots]
            rows[weight - lowest] = [
                sum(r**k for r in plus) - sum(r**k for r in minus) for k in range(size)
            ]
    for weight, bundle in decomposition.components:
        if weight >= len(rows):
            continue  # contributes 1 through q^top
        for root in bundle.plus_roots:
            step = int(root * scale)
            # kernel[k][j]: coordinate k of e^(rx) * (y^(k-j)/(k-j)!), i.e. C(k, j) (rD)^j
            kernel = [[math.comb(k, j) * step**j for j in range(k + 1)] for k in range(size)]
            for n in range(weight, len(rows)):
                source, target = rows[n - weight], rows[n]
                for k, row in enumerate(kernel):
                    target[k] += sum(c * source[k - j] for j, c in enumerate(row))
    return lowest, rows, [math.factorial(k) * scale**k for k in range(size)]
