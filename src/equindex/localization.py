"""Normal data along the fixed-point manifold and the fixed-point integral.

The normal directions decompose into rotation-weight summands, and the
equivariant Euler class is the product of the factors (1 - q^w e^(rx)), one per
weight w and root r.  Two integer kernels compute its inverse without forming
that product.  Explicit normal data divides the unit class by each factor in
turn, on one big integer per coordinate whose W-bit slots hold the coefficients
of q^0, q^1, ... (Kronecker substitution): W is one bit past an a-priori bound,
C(N + R - 2, R - 1) max(1, (N - 1) max|rD|/w)^m for R visible roots through
q^(N-1), proved in ``_divide``.  The loop-space family, a copy of the
complexified tangent bundle at every weight, is a power of Euler's product
times a normalised tower, the divided-power exponential of divisor-sum series,
whose cost does not grow with the number of tangent roots.  The fixed-point
integral, ``localized_index``, is the one place where ch(F) and the Todd
functional meet either kernel's columns, read at one scale D through
``charclasses.power_sums``.  The inverse Euler class as a series of classes,
``inverse_euler_class``, is in ``algebra``; the product itself and the explicit
loop decomposition live in ``oracles`` as cross-checks.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from itertools import accumulate, repeat
from typing import TYPE_CHECKING, Iterable

from .charclasses import (RootBundle, VirtualBundle, check_dimension, common_scale,
                          merge_by_weight, power_sums, todd_functional)
from .cohomology import ManifoldModel
from .series import QQ, QSeries, Record, SchemaError, shorten

if TYPE_CHECKING:
    from .index import ProblemSpec

LOOP = "loop"  # marker for the loop-space normal family
MAX_KERNEL_WORK = 10**8  # estimated integer steps of one solve; see _check_work
_SLOT_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"}  # memoryview formats of the signed slots


class WeightError(SchemaError):
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
        components = tuple(components)
        for i, (weight, bundle) in enumerate(components):
            if type(weight) is not int or weight < 1:
                raise WeightError(f"normal[{i}].weight",
                                  f"must be a positive integer, got {shorten(repr(weight))}")
            if not bundle.is_genuine:
                raise VirtualBundle(f"normal[{i}].minus",
                                    "must be empty (the summands are genuine)")
        self._set_fields(model, merge_by_weight(model, components, "normal component"))


def check_order(order: int) -> None:
    """Refuse a truncation order that is not a nonnegative integer, at the path ``order``."""
    if type(order) is not int or order < 0:
        raise SchemaError("order", f"must be a nonnegative integer, got {shorten(repr(order))}")


def localized_index(spec: ProblemSpec) -> QSeries:
    """The integral of td(tangent) * ch(F) * ch(L) / eul(normal), known through q^order.

    The quotient by the Euler class is taken through q^(order - L.weight), from the lowest
    F-weight up; L contributes its sign and the shift q^(L.weight).  In the basis y^k/k! of
    y = x/D, y^i/i! * y^j/j! = C(i+j, i) y^(i+j)/(i+j)!; ch(F_a) is a ``power_sums`` row, a
    kernel gives the columns b_j of 1/eul, and with w_k/common the integral of y^k/k! * td
    (``todd_functional``), F_a contributes sum_j g_(a,j) b_j, shifted to weight a, where
    g_(a,j) = sum_i C(i+j, i) ch(F_a)_i w_(i+j): the columns of ch(F) / eul are never formed.
    """
    tangent, normal, line = spec.tangent, spec.normal, spec.L
    model = tangent.model
    check_dimension(model)
    size = model.top_index + 1
    bundles = [tangent, *(b for _, b in spec.F.terms)]
    if normal != LOOP:
        bundles += [b for _, b in normal.components]
    scale = common_scale(bundles)
    top = spec.order - line.weight
    lowest = min((weight for weight, _ in spec.F.terms), default=top + 1)
    length = max(top - lowest + 1, 0)
    _check_work(normal, length, size, bundles, scale)
    characters = {weight: power_sums(bundle, scale, size) for weight, bundle in spec.F.terms}
    sums = power_sums(tangent, scale, size)
    b = _loop_inverse(sums, length) if normal == LOOP else _divide(normal, scale, size, length)
    columns = [(j, column) for j, column in enumerate(b) if any(column)]
    common, w = todd_functional(sums, scale)
    w = [line.sign * v for v in w]
    # over the common denominator each coefficient is an integer
    values = [0] * length
    for j, column in columns:
        fold = [math.comb(i + j, i) * w[i + j] for i in range(size - j)]
        for weight, character in characters.items():
            g = sum(map(operator.mul, character, fold))
            if g:
                offset = weight - lowest  # past the window for a term above top: an empty slice
                values[offset:] = map(operator.add, values[offset:],
                                      map(operator.mul, column, repeat(g)))
    # one Fraction per distinct value, since a window may repeat a few values
    # (cplane:k is 1 + q^k + q^2k + ...); with no value repeated, the distinct
    # values are the window itself, in order, and no slot needs a lookup
    distinct = dict.fromkeys(values)
    if common == 1:
        fractions = list(map(Fraction, distinct))
    else:
        fractions = [Fraction(v, common) for v in distinct]
    if len(fractions) < len(values):
        table = dict(zip(distinct, fractions))
        fractions = list(map(table.__getitem__, values))
    return QSeries._trusted(QQ, lowest + line.weight, fractions, spec.order)


def _check_work(normal: NormalDecomposition | str, length: int, size: int,
                bundles: list[RootBundle], scale: int) -> None:
    """Refuse a solve that would run for hours, before any power sum is built.

    The estimate is (length * (terms + 1) + 1) * size^2 integer products, each a step per
    Python digit of the widest integer, about m log2 |rD| bits for the widest root r.  Per
    coefficient of the window, a division has a term per normal root, the loop tower (size >= 3)
    is charged length - 1, about 16 times the whole-series products it makes, and a surface's
    loop kernel two per pentagonal number of Miller's recurrence, about sqrt(8 length / 3); the
    columns and the integral cost about one term more, and the Todd recurrence size^2 products.
    """
    if normal != LOOP:
        terms = sum(len(b.plus_roots) for w, b in normal.components if w < length)
    elif size > 2:
        terms = length - 1
    else:
        terms = 2 * math.isqrt(8 * length // 3)
    widest = max((abs(r.numerator) * (scale // r.denominator)
                  for b in bundles for r in b.plus_roots + b.minus_roots), default=0)
    digits = math.ceil((size - 1) * math.log2(max(widest, 1)) / sys.int_info.bits_per_digit)
    work = (length * (terms + 1) + 1) * size**2 * max(digits, 1)
    if work > MAX_KERNEL_WORK:
        # "{:.1e}" reads an int as a float: past a float's range, drop digits and count them back
        shift = 0 if work <= sys.float_info.max else math.ceil(math.log10(work)) - 300
        head, power = f"{work // 10**shift:.1e}".split("e")
        raise SchemaError("order", f"the solve would take about {head}e{int(power) + shift:+03d} "
                          f"steps, over the bound {MAX_KERNEL_WORK:.0e}; ask for a lower order "
                          "or smaller roots")


def _divide(decomposition: NormalDecomposition, scale: int, size: int,
            length: int) -> list[list[int]]:
    """1/eul(normal) through q^(length-1), as one integer column per coordinate k.

    The coordinates are those of the divided-power basis y^k/k! of y = x/D
    for the scale D.  Dividing by (1 - q^w e^(rx)) is g_n = f_n + e^(rx) g_(n-w),
    and coordinate k of e^(rx) g is the sum over j of C(k, j) (rD)^j g[k-j].
    For ascending k the terms j >= 1 read finished columns shifted by w, and
    the term j = 0 leaves a prefix sum with stride w.  The division starts
    from the unit class.

    A column is one integer, its value at q = 2^W modulo 2^(length W), with the
    coefficient of q^n in the W-bit slot n (Kronecker substitution).  The factor
    q^w is a shift by wW bits, and the stride-w prefix sum, the factor
    sum_i q^(iw), is the doublings acc += acc << d for d = wW, 2wW, ... below
    length W.  These are ring maps from Z[q]/(q^length), so each column is exact
    whatever its slots hold on the way, and only the final coefficients must fit
    a signed W-bit slot.  They do: coordinate k at q^n is the sum of
    (sum_i m_i r_i D)^k over the multiplicities m_i >= 0 of the R visible roots
    with sum_i m_i w_i = n.  There are at most C(n + R - 1, R - 1) of them, as
    m_1..m_(R-1) sum to at most n and fix m_R.  Each base is an integer of size
    at most sum_i m_i w_i |r_i D|/w_i <= n max |rD|/w, so at most the floor B of
    (length - 1) max |rD|/w, and |b_k[n]| <= C(length + R - 2, R - 1) max(1, B)^(size - 1).
    That is below 2^(W-1) once W is a bit longer than the bound; W is then
    rounded up to 8, 16, 32 or 64 bits, for ``_unpack``, and past 64 to whole bytes.
    """
    steps = []  # (w, rD) for each visible root; the rest give 1
    base = 0
    for weight, bundle in decomposition.components:
        if weight < length:
            for root in bundle.plus_roots:
                step = root.numerator * (scale // root.denominator)
                steps.append((weight, step))
                base = max(base, (length - 1) * abs(step) // weight)
    multisets = math.comb(length + len(steps) - 2, len(steps) - 1) if steps else 1
    bits = (multisets * max(base, 1) ** (size - 1)).bit_length() + 1
    width = max(8, 1 << (bits - 1).bit_length())
    if width > 64:
        width = -(-bits // 8) * 8
    total = length * width
    mask = (1 << total) - 1
    binomials = [[math.comb(k, j) for j in range(1, k + 1)] for k in range(size)]
    columns = [1] + [0] * (size - 1)
    for weight, step in steps:
        shift = weight * width
        powers = list(accumulate(repeat(step, size - 1), operator.mul))
        for k, row in enumerate(binomials):
            acc = columns[k]
            if k:
                acc += sum(map(operator.mul, map(operator.mul, row, powers),
                               columns[k - 1::-1])) << shift
            d = shift
            while d < total:
                acc += acc << d
                d += d
            columns[k] = acc & mask
    return [_unpack(column, width, length) for column in columns]


def _unpack(packed: int, width: int, length: int) -> list[int]:
    """The signed width-bit slots of ``packed`` modulo 2^(length width), lowest first.

    Adding 2^(width-1) to every slot makes each one nonnegative, so that no slot
    borrows from the next; flipping that bit back leaves each slot in two's
    complement, read by a ``memoryview`` cast up to 64 bits on a little-endian
    host and by ``int.from_bytes`` otherwise.  The width is a multiple of 8.
    """
    nbytes = width // 8
    bias = int.from_bytes((bytes(nbytes - 1) + b"\x80") * length, "little")
    slots = ((packed + bias) & ((1 << length * width) - 1)) ^ bias
    data = slots.to_bytes(nbytes * length, "little")
    if width <= 64 and sys.byteorder == "little":
        return memoryview(data).cast(_SLOT_FORMATS[nbytes]).tolist()
    return [int.from_bytes(data[i:i + nbytes], "little", signed=True)
            for i in range(0, len(data), nbytes)]


def _loop_inverse(sums: list[int], length: int) -> list[list[int]]:
    """What ``_divide`` returns for the loop normal data, as a divided-power exponential.

    With rho over the tangent roots and their negatives, 1/eul is the product of
    1/(1 - q^w e^(rho x)) over w >= 1, that is b = exp(sum_k A_k y^k/k!) for the q-series
    A_k = P_k sum_n sigma_(k-1)(n) q^n and P_k = sum_rho (rho D)^k, twice the tangent's
    ``sums`` at even k and 0 at odd k; b has one coordinate per sum.  A_0 gives the factor
    g = prod (1 - q^n)^(-r) for r = P_0, from Euler's pentagonal number theorem
    prod (1 - q^n) = sum_(k in Z) (-1)^k q^(k(3k - 1)/2) and J. C. P. Miller's recurrence
    (TAOCP 4.7) n g_n = sum_p ((1 - r) p - n) E_p g_(n-p); b_0 = g is all a surface needs.
    The rest is ``todd_functional``'s exponential over whole integer q-series, the tower
    C_0 = 1, C_t = sum_(k=1..t) C(t-1, k-1) A_k C_(t-k), which divides nothing, costs the
    same for any number of roots, and vanishes at odd t, as A_t does; then b_t = g C_t.
    """
    size = len(sums)
    r = 2 * sums[0]
    pentagonal = [(p, (-1)**k, (-1)**k * (1 - r) * p) for k in range(1, math.isqrt(length) + 1)
                  for p in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2)]  # (p, E_p, E_p (1 - r) p)
    g = [1] * min(length, 1) + [0] * (length - 1)
    for n in range(1, length):
        ng = 0  # n g_n
        for p, sign, w in pentagonal:
            if p > n:
                break
            ng += (w - sign * n) * g[n - p]
        g[n], remainder = divmod(ng, n)
        if remainder:
            raise ArithmeticError(f"power of Euler's product is not integral at q^{n}")
    a = {}  # A_k at even k >= 2
    for k in range(2, size, 2):
        a[k] = column = [0] * length
        for j in range(1, length):  # j | n adds j^(k-1) to sigma_(k-1)(n) at n = j, 2j, ...
            column[j::j] = map(operator.add, column[j::j], repeat(2 * sums[k] * j**(k - 1)))
    b = [g] + [[0] * length for _ in range(1, size)]
    c = {}  # C_t at even t >= 2, which vanishes at q^0
    for t, tower in a.items():  # the term k = t is A_t, as C_0 = 1
        for k in range(2, t, 2):
            if sums[k]:
                binomial = math.comb(t - 1, k - 1)
                tower = [x + binomial * y for x, y in zip(tower, _product(a[k], c[t - k]))]
        c[t] = tower
        b[t] = _product(tower, g)
    return b


def _product(a: list[int], b: list[int]) -> list[int]:
    """The coefficients of q^0..q^(len(a)-1) of a b, for integer lists with a[0] = 0."""
    return [sum(map(operator.mul, a[1:n + 1], b[n - 1::-1])) for n in range(len(a))]
