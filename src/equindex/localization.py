"""Normal data along the fixed-point manifold and the fixed-point integral.

The normal directions decompose into rotation-weight summands, and the
equivariant Euler class is the product of the factors (1 - q^w e^(rx)), one
per weight w and root r.  Two integer kernels compute its inverse without
forming that product: explicit normal data divides the unit class by each
factor in turn, and the loop-space family, a copy of the complexified
tangent bundle at every weight, runs a plethystic recurrence whose cost does
not grow with the number of tangent roots.  The fixed-point integral is the
one place where ch(F) and the Todd class meet either kernel's columns.  The
product itself and the explicit loop decomposition live in ``oracles`` as
cross-checks.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import accumulate, count, repeat
from typing import Iterable, Sequence, Union

from .charclasses import RootBundle, VirtualBundle, merge_by_weight, todd_class
from .cohomology import CohClass, CohRing, ManifoldModel
from .series import QQ, FrozenRecord, QSeries

LOOP = "loop"  # marker for the loop-space normal family
MAX_KERNEL_WORK = 10**8  # estimated integer steps of one kernel call; see _check_work


class WeightError(ValueError):
    """A normal-direction rotation weight that is not a positive integer."""


class NormalDecomposition(FrozenRecord):
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
        components = tuple(components)
        for weight, bundle in components:
            if not isinstance(weight, int) or isinstance(weight, bool) or weight < 1:
                raise WeightError(
                    f"normal weight must be a positive integer, got {weight!r}"
                )
            if not bundle.is_genuine:
                raise VirtualBundle(
                    "normal components must be genuine bundles (no minus roots)"
                )
        self._set_fields(model, merge_by_weight(model, components, "normal component"))


def inverse_euler_class(decomposition: NormalDecomposition, order: int) -> QSeries:
    """Inverse of the Euler class modulo q^(order+1), from the division kernel."""
    model = decomposition.model
    size = model.top_index + 1
    scale, _ = _characters(size, [b for _, b in decomposition.components], ())
    columns = _divide(decomposition, scale, size, order + 1)
    denominators = [math.factorial(k) * scale**k for k in range(size)]
    coefficients = [
        CohClass([Fraction(c, d) for c, d in zip(row, denominators)]) for row in zip(*columns)
    ]
    return QSeries(CohRing(model), 0, coefficients, order)


def fixed_point_integral(tangent: RootBundle, normal: Union[NormalDecomposition, str],
                         terms: Sequence[tuple[int, RootBundle]], top: int,
                         sign: int) -> QSeries:
    """sign times the integral of td(tangent) * ch(F) / eul(normal) over the fixed manifold.

    The result is known through q^top.  ``normal`` is a NormalDecomposition,
    or LOOP for the loop-space family of every weight the window can see.
    ``terms`` are the summands (a, F_a) of F, at distinct weights a.

    A kernel gives the columns b_j of 1/eul in the divided-power basis of
    ``_characters``, where y^i/i! * y^j/j! = C(i+j, i) y^(i+j)/(i+j)!.  With
    w_k the integer that sign times the integral of y^k/k! against
    td(tangent) is over a common denominator, the term F_a contributes
    sum_j g_(a,j) b_j, shifted to weight a, where
    g_(a,j) = sum_i C(i+j, i) ch(F_a)_i w_(i+j): the columns of ch(F) / eul
    are never formed.
    """
    model = tangent.model
    size = model.top_index + 1
    if normal == LOOP:
        kernel, source, bundles = _loop_inverse, tangent, [tangent]
    else:
        kernel, source, bundles = _divide, normal, [b for _, b in normal.components]
    scale, characters = _characters(size, bundles, terms)
    lowest = min(characters, default=top + 1)
    length = max(top - lowest + 1, 0)
    columns = [(j, column) for j, column in enumerate(kernel(source, scale, size, length))
               if any(column)]
    todd = todd_class(tangent).coeffs
    m = model.top_index
    # w_k integrates the basis class y^k/k! = x^k/(k! D^k) against todd: td_(m-k) x^m/(k! D^k)
    functional = [todd[m - k] * model.integral_normalization / (math.factorial(k) * scale**k)
                  for k in range(size)]
    common = math.lcm(*(f.denominator for f in functional))
    w = [sign * f.numerator * (common // f.denominator) for f in functional]
    # over the common denominator each coefficient is an integer, and one Fraction
    values = [0] * length
    for j, column in columns:
        fold = [math.comb(i + j, i) * w[i + j] for i in range(size - j)]
        for weight, character in characters.items():
            g = sum(map(operator.mul, character, fold))
            if g:
                offset = weight - lowest  # past the window for a term above top: an empty slice
                values[offset:] = map(operator.add, values[offset:],
                                      map(operator.mul, column, repeat(g)))
    if common == 1:
        return QSeries._trusted(QQ, lowest, list(map(Fraction, values)), top)
    return QSeries._trusted(QQ, lowest, [Fraction(v, common) for v in values], top)


def _characters(size: int, bundles: Sequence[RootBundle],
                terms: Sequence[tuple[int, RootBundle]]) -> tuple[int, dict[int, list[int]]]:
    """The scale D and the nonzero rows ch(F_a), keyed by the weight a.

    D is the lcm of the root denominators in ``bundles`` and ``terms``.  In
    the divided-power basis y^k/k! of y = x/D, e^(rx) has the integer
    coordinates (rD)^k, so ch(F_a) is a row of power sums.  A term whose
    row is zero contributes nothing, so it does not lower the window.
    """
    roots = [r for b in (*bundles, *(b for _, b in terms)) for r in b.plus_roots + b.minus_roots]
    scale = math.lcm(*(r.denominator for r in roots))
    characters = {}
    for weight, bundle in terms:
        plus = [int(root * scale) for root in bundle.plus_roots]
        minus = [int(root * scale) for root in bundle.minus_roots]
        row = [sum(r**k for r in plus) - sum(r**k for r in minus) for k in range(size)]
        if any(row):
            characters[weight] = row
    return scale, characters


def _check_work(length: int, roots: int, size: int) -> None:
    """Refuse a window whose kernel would run for hours, before anything is allocated.

    The estimate is length * (roots + 1) * size^2: a division costs about
    size^2 integer products per coefficient and root, and building the
    columns and the integral about as much as one more root.
    """
    work = length * (roots + 1) * size**2
    if work > MAX_KERNEL_WORK:
        raise ValueError(f"order: the kernel would take about {work:.1e} steps, "
                         f"over the bound {MAX_KERNEL_WORK:.0e}; ask for a lower order")


def _divide(decomposition: NormalDecomposition, scale: int, size: int,
            length: int) -> list[list[int]]:
    """1/eul(normal) through q^(length-1), as one integer column per coordinate k.

    The coordinates are those of the divided-power basis y^k/k! of y = x/D
    for the scale D.  Dividing by (1 - q^w e^(rx)) is g_n = f_n + e^(rx) g_(n-w),
    and coordinate k of e^(rx) g is the sum over j of C(k, j) (rD)^j g[k-j].
    For ascending k the terms j >= 1 read finished columns shifted by w, and
    the term j = 0 leaves a prefix sum with stride w.  The division starts
    from the unit class.
    """
    visible = [(w, b) for w, b in decomposition.components if w < length]  # the rest give 1
    _check_work(length, sum(len(b.plus_roots) for _, b in visible), size)
    columns = [[0] * length for _ in range(size)]
    if length:
        columns[0][0] = 1
    for weight, bundle in visible:
        for root in bundle.plus_roots:
            step = int(root * scale)
            for k, column in enumerate(columns):
                for j in range(1, k + 1):
                    c = math.comb(k, j) * step**j
                    if c:
                        column[weight:] = map(operator.add, column[weight:],
                                              map(operator.mul, columns[k - j], repeat(c)))
                for r in range(weight):
                    column[r::weight] = accumulate(column[r::weight])
    return columns


def _loop_inverse(tangent: RootBundle, scale: int, size: int, length: int) -> list[list[int]]:
    """What ``_divide`` returns for the loop normal data, from a plethystic exponential.

    With rho over the tangent roots and their negatives, 1/eul is the product
    of 1/(1 - q^w e^(rho x)) over w >= 1, that is b = exp(sum a_n q^n), where
    coordinate k of n a_n is P_k * sum over j | n of (n/j) j^k, for the power
    sum P_k = sum_rho (rho D)^k.  The coordinates of b_n are integers, so
    n b_n = sum_k (k a_k) b_(n-k) is exact, and its cost does not grow with
    the number of roots.

    The roots come in pairs rho, -rho, so P_k = 0 for odd k and b is even in
    x: an even coordinate t of b_n reads only even coordinates of a and b,
    and an odd one, which is 0 at n = 0, stays 0.  So the recurrence runs on
    the even coordinates alone.
    """
    _check_work(length, max(length - 1, 0), size)  # each weight costs one root
    steps = [int(root * scale) for root in tangent.plus_roots]
    # column storage: a[k][n] is coordinate k of n a_n, b[k][n] that of b_n, for n < length
    a = [[0] * length for _ in range(size)]
    for k in range(0, size, 2):
        power = 2 * sum(s**k for s in steps)
        for j in range(1, length):
            term = power * j**k  # weight j adds (n/j) j^k P_k to n a_n at n = j, 2j, ...
            a[k][j::j] = map(operator.add, a[k][j::j], count(term, term))
    b = [[0] * length for _ in range(size)]
    if length:
        b[0][0] = 1
    rows = [(b[t], [(math.comb(t, i), a[i], b[t - i]) for i in range(0, t + 1, 2) if any(a[i])])
            for t in range(0, size, 2)]
    for n in range(1, length):
        for row, products in rows:
            total = 0
            for c, a_i, b_rest in products:
                total += c * sum(map(operator.mul, a_i[1:n + 1], b_rest[n - 1::-1]))
            row[n], remainder = divmod(total, n)
            if remainder:
                raise ArithmeticError(f"plethystic recurrence is not integral at q^{n}")
    return b
