"""The oracles themselves, checked against brute force and known values."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equindex import (
    LOOP,
    DifferenceLine,
    EquivariantBundle,
    NotInvertible,
    ProblemSpec,
    QSeries,
    RootBundle,
    ZZ,
    direct_cplane_index,
    localized_index,
    model_from_name,
    naive_inverse,
    partition_numbers,
)
from equindex.oracles import plethystic_loop_index
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
    """Loop-space problems with rational tangent roots, virtual F and shifted weights."""
    model = model_from_name(
        draw(st.sampled_from(["cpn:3", "cpn:2", "s2", "sigma:0", "sigma:1", "sigma:2", "sigma:3"]))
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
        order=draw(st.integers(0, 8)),
    )


@settings(max_examples=200, deadline=None)
@given(loop_problems())
def test_plethystic_oracle_matches_the_engine(spec):
    assert plethystic_loop_index(spec) == localized_index(spec)
