"""The oracles themselves, checked against brute force and known values."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equindex import (
    LOOP,
    CohClass,
    CohRing,
    DifferenceLine,
    EquivariantBundle,
    NotInvertible,
    ProblemSpec,
    QSeries,
    RootBundle,
    ZZ,
    direct_cplane_index,
    euler_class,
    localized_index,
    loop_normal_decomposition,
    model_from_name,
    naive_inverse,
    parse_problem,
    partition_numbers,
    preset_spec,
)
from equindex.charclasses import common_scale, power_sums
from equindex.localization import _divide, _loop_inverse
from support import assert_same_series, random_zz_series


def _partitions(n: int, largest: int | None = None):
    """Explicit enumeration of the partitions of n, the slow way."""
    if n == 0:
        yield ()
        return
    if largest is None:
        largest = n
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def test_partition_numbers_match_explicit_enumeration():
    table = partition_numbers(12)
    for n in range(13):
        assert table[n] == sum(1 for _ in _partitions(n))


def test_partition_numbers_known_values():
    table = partition_numbers(50)
    assert table.values[:11] == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)
    assert table[50] == 204226


def test_partition_table_is_monotone():
    table = partition_numbers(40)
    assert all(table[n] <= table[n + 1] for n in range(40))


def test_partition_convolution_small_values():
    table = partition_numbers(4)
    assert [table.convolution(n) for n in range(5)] == [1, 2, 5, 10, 20]


def test_partition_numbers_rejects_negative_limit():
    with pytest.raises(ValueError):
        partition_numbers(-1)


def test_naive_inverse_geometric():
    inverse = naive_inverse(QSeries(ZZ, 0, (1, -1), 8), 8)
    assert inverse == QSeries(ZZ, 0, (1,) * 9, 8)


def test_naive_inverse_double_pole():
    # (1 - q)^(-2) counts multiplicities 1, 2, 3, ...
    inverse = naive_inverse(QSeries(ZZ, 0, (1, -2, 1), 6), 6)
    assert inverse == QSeries(ZZ, 0, (1, 2, 3, 4, 5, 6, 7), 6)


def test_naive_inverse_laurent_window():
    series = QSeries(ZZ, -2, (1, 1), 4)
    inverse = naive_inverse(series, 8)
    assert inverse.lowest == 2
    assert inverse.order == 8
    assert_same_series(series * inverse, QSeries.one(ZZ, 6))


def test_naive_inverse_round_trip_randomized():
    rng = random.Random(2024)
    for _ in range(60):
        series = random_zz_series(rng, order=20)
        inverse = naive_inverse(series, 20)
        product = series * inverse
        assert product.coefficient(0) == 1
        for n in range(product.lowest, product.order + 1):
            assert product.coefficient(n) == (1 if n == 0 else 0)


def test_naive_inverse_rejects_non_units():
    with pytest.raises(NotInvertible):
        naive_inverse(QSeries(ZZ, 0, (2, 1), 5), 5)
    with pytest.raises(NotInvertible):
        naive_inverse(QSeries.zero(ZZ, 5), 5)


def test_direct_cplane_trivial_coefficients():
    assert direct_cplane_index(1, (1,), 5) == QSeries(ZZ, 0, (1,) * 6, 5)
    assert direct_cplane_index(2, (1,), 8) == QSeries.from_terms(
        ZZ, {0: 1, 2: 1, 4: 1, 6: 1, 8: 1}, 8
    )


def test_direct_cplane_multiplicities_overlap():
    # c = (1, 1) with weight 1: coefficient n is c_0 + c_1 for n >= 1
    out = direct_cplane_index(1, (1, 1), 6)
    assert [out.coefficient(n) for n in range(7)] == [1, 2, 2, 2, 2, 2, 2]


def test_direct_cplane_negative_weight_sign_and_shift():
    positive = direct_cplane_index(3, (2, 0, -1), 12)
    negative = direct_cplane_index(-3, (2, 0, -1), 12)
    assert negative == positive.scale(-1).shift(3).truncate(12)
    assert negative.order == 12


def test_direct_cplane_rejects_weight_zero():
    with pytest.raises(ValueError):
        direct_cplane_index(0, (1,), 4)


ROOTS = st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6), -1, 0, 1, 2, -3])


@st.composite
def loop_problems(draw):
    """Loop-space problems with rational tangent roots, virtual F and shifted weights.

    Orders reach 20, so that weights with many divisors (12, 18) are in the window.
    """
    model = model_from_name(
        draw(st.sampled_from(
            ["cpn:4", "cpn:3", "cpn:2", "s2", "sigma:0", "sigma:1", "sigma:2", "sigma:3"]
        ))
    )
    bundles = st.builds(
        lambda plus, minus: RootBundle(model, plus, minus),
        st.lists(ROOTS, max_size=2),
        st.lists(ROOTS, max_size=2),
    )
    tangent = RootBundle(
        model, draw(st.lists(ROOTS, min_size=model.top_index, max_size=model.top_index))
    )
    return ProblemSpec(
        model=model,
        tangent=tangent,
        normal=LOOP,
        F=EquivariantBundle(
            model, draw(st.lists(st.tuples(st.integers(-4, 4), bundles), min_size=1, max_size=3))
        ),
        L=DifferenceLine(draw(st.sampled_from((1, -1))), draw(st.integers(-4, 4))),
        order=draw(st.integers(0, 20)),
    )


@settings(max_examples=200, deadline=None)
@given(loop_problems())
def test_the_loop_recurrence_matches_division_by_each_factor(spec):
    # the loop data written out through every weight the window can see runs the division
    top = spec.order - spec.L.weight
    depth = max(top - min(weight for weight, _ in spec.F.terms), 0)
    explicit = ProblemSpec(model=spec.model, tangent=spec.tangent,
                           normal=loop_normal_decomposition(spec.tangent, depth),
                           F=spec.F, L=spec.L, order=spec.order)
    assert localized_index(spec) == localized_index(explicit)
    # at the engine's scale, both kernels give the same integer columns of 1/eul
    size = spec.model.top_index + 1
    scale = common_scale([spec.tangent, *(b for _, b in spec.F.terms)])
    assert _loop_inverse(power_sums(spec.tangent, scale, size), depth + 1) == _divide(
        explicit.normal, scale, size, depth + 1
    )


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["point", "s2", "cpn:2", "cpn:3", "cpn:4", "cpn:6", "cpn:8"]),
       st.lists(ROOTS, max_size=6), st.integers(0, 30))
def test_the_loop_kernel_matches_division_at_any_tangent_rank(name, roots, order):
    # the exponent of Euler's product is twice the tangent's rank, drawn apart from the dimension;
    # from m = 6 on, a coordinate of the tower sums more than one product, at a shallower depth
    model = model_from_name(name)
    if model.top_index > 4:
        order = min(order, 8)
    tangent = RootBundle(model, roots)
    size, scale = model.top_index + 1, common_scale([tangent])
    assert _loop_inverse(power_sums(tangent, scale, size), order + 1) == _divide(
        loop_normal_decomposition(tangent, order), scale, size, order + 1
    )


def test_the_loop_tower_matches_division_on_cpn8():
    # coordinate 8 of the tower sums A_8 and the products C(7, k - 1) A_k C_(8-k), k = 2, 4, 6
    cp8 = model_from_name("cpn:8")
    tangent = RootBundle(cp8, (1, Fraction(1, 2), -2, 3, 1, Fraction(-2, 3), 2, 0))
    order, scale = 12, common_scale([tangent])
    columns = _loop_inverse(power_sums(tangent, scale, 9), order + 1)
    assert columns == _divide(loop_normal_decomposition(tangent, order), scale, 9, order + 1)
    assert all(columns[8][1:])


def test_the_loop_kernel_on_a_point_is_a_power_of_eulers_product():
    # a point keeps only coordinate 0, the factor prod (1 - q^n)^(-2 rank)
    point = model_from_name("point")
    assert _loop_inverse(power_sums(RootBundle(point, (0,)), 1, 1), 7) == [
        [1, 2, 5, 10, 20, 36, 65]
    ]
    for rank in range(5):
        expected = [1] + [0] * 40
        for n in range(1, 41):
            for _ in range(2 * rank):  # dividing by 1 - q^n is a prefix sum with stride n
                for m in range(n, 41):
                    expected[m] += expected[m - n]
        assert _loop_inverse(power_sums(RootBundle(point, (0,) * rank), 1, 1), 41) == [expected]


def test_the_loop_kernel_leaves_every_odd_coordinate_zero():
    # the loop normal data is T + conj(T) at every weight, so 1/eul is even in x
    for name, root in (("s2", 2), ("cpn:4", 1)):
        model = model_from_name(name)
        tangent = RootBundle(model, (root,) * model.top_index)
        columns = _loop_inverse(power_sums(tangent, 1, model.top_index + 1), 41)
        assert len(columns) == model.top_index + 1
        for k, column in enumerate(columns):
            assert len(column) == 41
            if k % 2:
                assert not any(column)
            else:
                assert all(column[1:])


def _columns_as_series(columns: list[list[int]], model, scale: int, order: int) -> QSeries:
    """The H(model) series of a kernel's columns b_k, whose x^k entry at q^n is b_k[n]/(k! D^k)."""
    denominators = [math.factorial(k) * scale**k for k in range(len(columns))]
    rows = [CohClass([Fraction(b, d) for b, d in zip(row, denominators)]) for row in zip(*columns)]
    return QSeries(CohRing(model), 0, rows, order)


@st.composite
def virtual_tangents(draw):
    """A tangent of rank m on cpn:m, m = 1..4: 0-2 minus roots, and m more plus roots."""
    model = model_from_name(f"cpn:{draw(st.integers(1, 4))}")
    minus = draw(st.lists(ROOTS, max_size=2))
    rank = model.top_index + len(minus)
    return RootBundle(model, draw(st.lists(ROOTS, min_size=rank, max_size=rank)), minus)


@settings(max_examples=100, deadline=None)
@given(virtual_tangents(), st.integers(0, 10))
@example(RootBundle(model_from_name("cpn:3"), (1, 2, 3, 1), (2,)), 12)
def test_the_loop_kernel_multiplies_by_the_euler_class_of_the_minus_part(tangent, order):
    # the loop data of plus - minus is plus + conj(plus) - minus - conj(minus) at every weight,
    # so its 1/eul is 1/eul of the plus part's data times eul of the minus part's; the kernel
    # reads the minus roots only through the power sums, as 2 P_k
    model, size = tangent.model, tangent.model.top_index + 1
    plus, minus = RootBundle(model, tangent.plus_roots), RootBundle(model, tangent.minus_roots)
    scale = common_scale([tangent])
    engine = _loop_inverse(power_sums(tangent, scale, size), order + 1)
    divided = _divide(loop_normal_decomposition(plus, order), scale, size, order + 1)
    assert _columns_as_series(engine, model, scale, order) == (
        _columns_as_series(divided, model, scale, order)
        * euler_class(loop_normal_decomposition(minus, order), order))


@st.composite
def surface_tangents(draw):
    """(g, plus, minus): a virtual tangent of rank 1 whose roots sum to 2 - 2g, as root strings."""
    genus = draw(st.integers(0, 3))
    minus = draw(st.lists(ROOTS, max_size=2))
    plus = draw(st.lists(ROOTS, min_size=len(minus), max_size=len(minus)))
    plus.append(2 - 2 * genus - sum(plus) + sum(minus))
    return genus, [str(r) for r in plus], [str(r) for r in minus]


@settings(max_examples=100, deadline=None)
@given(surface_tangents(), st.integers(0, 10))
def test_a_virtual_surface_tangent_gives_the_loop_surface(surface, order):
    # on a surface the loop index reads the tangent only through its rank 1 and its first
    # Chern class, the sum of its roots: any virtual tangent with 2 - 2g solves to the preset
    genus, plus, minus = surface
    document = {"manifold": f"sigma:{genus}" if genus else "s2", "normal": "loop",
                "tangent": {"plus": plus, "minus": minus}, "F": [{"weight": 0, "plus": [0]}],
                "order": order}
    preset = preset_spec(f"lsigma:{genus}" if genus else "ls2", order)
    assert localized_index(parse_problem(json.dumps(document))) == localized_index(preset)


def test_the_loop_recurrence_matches_division_at_order_60():
    # rational tangent roots, a virtual F at weights -2..2, and a window three times
    # as deep as the hypothesis test's
    cp4 = model_from_name("cpn:4")
    tangent = RootBundle(cp4, (Fraction(1, 2), Fraction(-2, 3), 1, 2))
    F = EquivariantBundle(cp4, (
        (-2, RootBundle(cp4, (Fraction(5, 6),), (0,))),
        (-1, RootBundle(cp4, (), (1,))),
        (0, RootBundle(cp4, (1, -3))),
        (1, RootBundle(cp4, (Fraction(1, 2),), (-1, 2))),
        (2, RootBundle(cp4, (-3,))),
    ))
    order, depth = 60, 62
    loop = ProblemSpec(model=cp4, tangent=tangent, normal=LOOP, F=F, order=order)
    explicit = ProblemSpec(model=cp4, tangent=tangent,
                           normal=loop_normal_decomposition(tangent, depth), F=F, order=order)
    assert localized_index(loop) == localized_index(explicit)
    scale = common_scale([tangent, *(b for _, b in F.terms)])
    assert _loop_inverse(power_sums(tangent, scale, 5), depth + 1) == _divide(
        explicit.normal, scale, 5, depth + 1
    )
