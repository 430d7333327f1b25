"""Normal data along the fixed-point manifold and its Euler class.

The normal directions decompose into rotation-weight summands; the
equivariant Euler class is the product of the per-weight lambda factors,
a q-series with cohomology-class coefficients whose q^0 term is the unit.
Because only weights up to the truncation order contribute modulo
q^(order+1), an infinite (loop-space) family of weights is handled by
materializing weights 1..order only.

The inverse Euler class never forms the Euler class: it divides the unit
series by each factor (1 - q^w e^(rx)) in turn, over integers.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from typing import Iterable

from .charclasses import RootBundle, VirtualBundle, lambda_minus_t_factor
from .cohomology import CohClass, CohRing, ManifoldModel, ModelMismatch
from .series import QSeries


class WeightError(ValueError):
    """A normal-direction rotation weight that is not a positive integer."""


@dataclasses.dataclass(init=False, eq=True)
class NormalDecomposition:
    """Weighted summands of the normal data: ((weight, bundle), ...).

    Construction merges repeated weights by direct sum, sorts by weight,
    and insists on genuine bundles with strictly positive weights.
    """

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
    """Inverse of the Euler class modulo q^(order+1), one factor at a time.

    Dividing g by (1 - q^w e^(rx)) is the in-place recurrence
    g_n += e^(rx) g_(n-w) for ascending n.  Classes are carried in the
    divided-power basis y^k/k! of y = x/D, with D the lcm of the root
    denominators: there e^(rx) has the integer coordinates (rD)^j and
    y^i/i! * y^j/j! = C(i+j, i) y^(i+j)/(i+j)!, so the loop is pure int.
    """
    top = decomposition.model.top_index
    scale = math.lcm(
        *(root.denominator for _, bundle in decomposition.components for root in bundle.plus_roots)
    )
    series = [[0] * (top + 1) for _ in range(order + 1)]
    series[0][0] = 1
    for weight, bundle in decomposition.components:
        if weight > order:
            continue  # contributes 1 modulo q^(order+1)
        for root in bundle.plus_roots:
            step = int(root * scale)
            # kernel[k][j]: coordinate k of e^(rx) * (y^(k-j)/(k-j)!), i.e. C(k, j) (rD)^j
            kernel = [
                [math.comb(k, j) * step**j for j in range(k + 1)] for k in range(top + 1)
            ]
            for n in range(weight, order + 1):
                source, target = series[n - weight], series[n]
                for k, row in enumerate(kernel):
                    target[k] += sum(c * source[k - j] for j, c in enumerate(row))
    denominators = [math.factorial(k) * scale**k for k in range(top + 1)]
    coefficients = [
        CohClass([Fraction(c, d) for c, d in zip(entry, denominators)])
        for entry in series
    ]
    return QSeries(CohRing(decomposition.model), 0, coefficients, order)
