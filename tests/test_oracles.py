"""The oracles themselves, checked against brute force and known values."""

from __future__ import annotations

import random

import pytest

from equindex import (
    NotInvertible,
    QSeries,
    ZZ,
    direct_cplane_index,
    naive_inverse,
    partition_numbers,
)
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
