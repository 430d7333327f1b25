"""Chern character, Todd class, and lambda factors from Chern roots."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equindex import (
    CohClass,
    CohRing,
    ModelMismatch,
    QSeries,
    RootBundle,
    SchemaError,
    VirtualBundle,
    chern_character,
    exponential_class,
    lambda_minus_t_factor,
    model_from_name,
    todd_class,
)
from equindex.charclasses import common_scale, power_sums, todd_functional
from equindex.oracles import todd_product

S2 = model_from_name("s2")
CP2 = model_from_name("cpn:2")


def _random_bundle(rng: random.Random, model, max_rank: int = 3) -> RootBundle:
    return RootBundle(model, [rng.randint(-3, 3) for _ in range(rng.randint(0, max_rank))])


def test_roots_are_sorted_multisets():
    bundle = RootBundle(S2, (3, -1, 3), (0,))
    assert bundle.plus_roots == (Fraction(-1), Fraction(3), Fraction(3))
    assert bundle.minus_roots == (Fraction(0),)
    assert bundle.rank == 2
    assert not bundle.is_genuine
    assert RootBundle(S2, (-1, 3, 3), (0,)) == bundle


def test_roots_are_refused_at_their_paths():
    # a side must be a list or tuple: a string is not read as its characters, "12" as 1 and 2;
    # the sides are read in order, plus before minus, each side before its roots
    cases = [
        ((["x"],), "plus[0]", "not a rational: 'x'"),
        (("12",), "plus", "expected an array of rationals"),
        (((1, 2.5),), "plus[1]", 'floats are inexact; write rationals as strings "p/q"'),
        (((1,), ["0/0"]), "minus[0]", "not a rational: '0/0'"),
        (((1,), (n for n in (0,))), "minus", "expected an array of rationals"),
        ((["x"], "12"), "plus[0]", "not a rational: 'x'"),
        (("12", ["x"]), "plus", "expected an array of rationals"),
    ]
    for sides, path, message in cases:
        with pytest.raises(SchemaError) as refused:
            RootBundle(S2, *sides)
        assert (refused.value.path, refused.value.message) == (path, message)
        assert str(refused.value) == f"{path}: {message}"
    assert RootBundle(S2, ["1/2", 3], ("-1",)) == RootBundle(S2, (3, Fraction(1, 2)), (-1,))


def test_direct_sum_and_conjugate():
    a = RootBundle(S2, (2,))
    b = RootBundle(S2, (-2,))
    assert a.direct_sum(b) == RootBundle(S2, (2, -2))
    assert a.conjugate() == b
    with pytest.raises(ModelMismatch):
        a.direct_sum(RootBundle(CP2, (2,)))


def test_exponential_class_values():
    assert exponential_class(Fraction(2), CP2) == CohClass((1, 2, 2))
    assert exponential_class(Fraction(0), S2) == CohClass((1, 0))
    assert exponential_class(Fraction(1, 2), CP2) == CohClass(
        (1, Fraction(1, 2), Fraction(1, 8))
    )


def test_chern_character_goldens():
    assert chern_character(RootBundle(S2, (2,))) == CohClass((1, 2))
    # the complexified tangent of the sphere is stably trivial of rank 2
    assert chern_character(RootBundle(S2, (2, -2))) == CohClass((2, 0))
    assert chern_character(RootBundle(S2, (2,), (0,))) == CohClass((0, 2))
    assert chern_character(RootBundle(S2)) == CohClass((0, 0))


def test_chern_character_degree_zero_is_the_rank():
    rng = random.Random(3)
    for _ in range(50):
        plus = [rng.randint(-4, 4) for _ in range(rng.randint(0, 4))]
        minus = [rng.randint(-4, 4) for _ in range(rng.randint(0, 4))]
        bundle = RootBundle(CP2, plus, minus)
        assert chern_character(bundle).scalar_part == bundle.rank


def test_chern_character_is_additive():
    rng = random.Random(13)
    for _ in range(40):
        a = _random_bundle(rng, CP2)
        b = _random_bundle(rng, CP2)
        assert chern_character(a.direct_sum(b)) == chern_character(a) + chern_character(b)


def test_chern_character_multiplies_on_line_tensors():
    # tensoring line bundles adds their roots
    rng = random.Random(17)
    for _ in range(40):
        r = Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
        s = Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
        lhs = chern_character(RootBundle(CP2, (r + s,)))
        rhs = chern_character(RootBundle(CP2, (r,))) * chern_character(
            RootBundle(CP2, (s,))
        )
        assert lhs == rhs


def test_todd_class_goldens():
    assert todd_class(RootBundle(S2, (2,))) == CohClass((1, 1))
    assert todd_class(RootBundle(S2, (0,))) == CohClass((1, 0))
    assert todd_class(RootBundle(S2)) == CohClass((1, 0))
    for genus in range(4):
        sigma = model_from_name(f"sigma:{genus}")
        assert todd_class(RootBundle(sigma, (2 - 2 * genus,))) == CohClass(
            (1, 1 - genus)
        )


def test_todd_universal_coefficients():
    # 1 + r/2 + r^2/12 + 0 - r^4/720 for a single root on a 4-dimensional model
    cp4 = model_from_name("cpn:4")
    assert todd_class(RootBundle(cp4, (1,))) == CohClass(
        (1, Fraction(1, 2), Fraction(1, 12), 0, Fraction(-1, 720))
    )
    # and through t^6, where the Bernoulli number B_6 = 1/42 enters
    cp6 = model_from_name("cpn:6")
    assert todd_class(RootBundle(cp6, (1,))) == CohClass(
        (1, Fraction(1, 2), Fraction(1, 12), 0, Fraction(-1, 720), 0, Fraction(1, 30240))
    )


TODD_MODELS = st.sampled_from(
    ["point", "s2", *(f"sigma:{g}" for g in range(4)), *(f"cpn:{n}" for n in range(1, 9))]
)
# 0, negatives and denominators up to 12, from a pool small enough that roots repeat
TODD_ROOTS = st.lists(
    st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-7, 7), st.integers(1, 12))),
    max_size=7,
)


@settings(max_examples=200, deadline=None)
@given(TODD_MODELS, TODD_ROOTS)
@example("cpn:8", [Fraction(1)] * 9)
@example("cpn:5", [Fraction(0), Fraction(-7, 12), Fraction(-7, 12), Fraction(5, 11)])
def test_todd_class_equals_the_per_root_product(name, roots):
    bundle = RootBundle(model_from_name(name), roots)
    assert todd_class(bundle) == todd_product(bundle)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), TODD_ROOTS, TODD_ROOTS, st.integers(1, 3))
@example(3, [Fraction(1, 2), Fraction(-2, 3)], [Fraction(5, 12), Fraction(0)], 1)
def test_power_sums_are_the_scaled_chern_character(n, plus, minus, multiple):
    # P_k = k! D^k ch_k for every k <= m, against ch as a sum of exponentials; the
    # engine's scale is any common multiple of the bundle's own
    bundle = RootBundle(model_from_name(f"cpn:{n}"), plus, minus)
    scale = common_scale([bundle]) * multiple
    ch = chern_character(bundle).coeffs
    assert power_sums(bundle, scale, n + 1) == [
        math.factorial(k) * scale**k * c for k, c in enumerate(ch)
    ]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["point", "s2", *(f"cpn:{n}" for n in range(1, 9))]), TODD_ROOTS,
       st.integers(1, 3))
@example("cpn:8", [Fraction(1, 2), Fraction(-7, 12), Fraction(5, 11)], 3)
@example("cpn:40", [Fraction((-1)**k * (k % 7 + 1), k % 5 + 1) for k in range(41)], 2)
def test_the_todd_functional_integrates_the_per_root_product(name, roots, multiple):
    # w_k/common is the integral of y^k/k! td for y = x/D, that is td_(m-k) / (k! D^k),
    # in lowest terms, at the bundle's own scale or any multiple of it
    bundle = RootBundle(model_from_name(name), roots)
    m = bundle.model.top_index
    scale = common_scale([bundle]) * multiple
    common, w = todd_functional(power_sums(bundle, scale, m + 1), scale)
    td = todd_product(bundle).coeffs
    assert [Fraction(v, common) for v in w] == [
        td[m - k] / (math.factorial(k) * scale**k) for k in range(m + 1)
    ]
    assert math.gcd(common, *w) == 1


def test_todd_class_is_multiplicative():
    rng = random.Random(29)
    for _ in range(40):
        a = _random_bundle(rng, CP2)
        b = _random_bundle(rng, CP2)
        assert todd_class(a.direct_sum(b)) == todd_class(a) * todd_class(b)


def test_todd_class_of_a_virtual_bundle_is_a_quotient():
    # power_sums subtract the minus roots, so td(plus - minus) = td(plus) / td(minus);
    # the per-root product takes genuine bundles only
    rng = random.Random(31)
    for _ in range(400):
        model = model_from_name(f"cpn:{rng.randint(1, 8)}")
        plus, minus = ([Fraction(rng.randint(-7, 7), rng.randint(1, 12))
                        for _ in range(rng.randint(0, 4))] for _ in range(2))
        quotient = CohRing(model).invert_unit(todd_product(RootBundle(model, minus)))
        expected = todd_product(RootBundle(model, plus)) * quotient
        assert todd_class(RootBundle(model, plus, minus)) == expected
    with pytest.raises(VirtualBundle):
        todd_product(RootBundle(S2, (2,), (0,)))


def test_lambda_factor_of_a_trivial_line():
    ring = CohRing(S2)
    factor = lambda_minus_t_factor(RootBundle(S2, (0,)), 3, 8)
    assert factor == QSeries.from_terms(ring, {0: ring.one, 3: -ring.one}, 8)


def test_lambda_factor_of_trivial_rank_two():
    ring = CohRing(S2)
    factor = lambda_minus_t_factor(RootBundle(S2, (0, 0)), 1, 6)
    assert factor == QSeries.from_terms(
        ring, {0: ring.one, 1: -2 * ring.one, 2: ring.one}, 6
    )


def test_lambda_factor_of_the_complexified_sphere_tangent():
    # (1 - q^n e^(2x))(1 - q^n e^(-2x)) collapses to scalar coefficients
    ring = CohRing(S2)
    for weight in (1, 2, 3):
        factor = lambda_minus_t_factor(RootBundle(S2, (2, -2)), weight, 9)
        expected = QSeries.from_terms(
            ring, {0: ring.one, weight: -2 * ring.one, 2 * weight: ring.one}, 9
        )
        assert factor == expected


def test_lambda_factor_with_zero_roots_is_a_binomial_power():
    rng = random.Random(37)
    ring = CohRing(CP2)
    for _ in range(20):
        rank = rng.randint(0, 4)
        weight = rng.randint(1, 5)
        order = rng.randint(weight, 16)
        factor = lambda_minus_t_factor(RootBundle(CP2, (0,) * rank), weight, order)
        binomial = QSeries.from_terms(ring, {0: ring.one, weight: -ring.one}, order)
        assert factor == binomial**rank


def test_lambda_factor_constant_term_is_the_unit():
    rng = random.Random(43)
    ring = CohRing(CP2)
    for _ in range(30):
        bundle = _random_bundle(rng, CP2)
        weight = rng.randint(1, 6)
        factor = lambda_minus_t_factor(bundle, weight, 10)
        assert factor.coefficient(0) == ring.one


def test_lambda_factor_is_multiplicative_in_the_bundle():
    rng = random.Random(47)
    for _ in range(30):
        a = _random_bundle(rng, S2)
        b = _random_bundle(rng, S2)
        weight = rng.randint(1, 4)
        combined = lambda_minus_t_factor(a.direct_sum(b), weight, 12)
        split = lambda_minus_t_factor(a, weight, 12) * lambda_minus_t_factor(
            b, weight, 12
        )
        assert combined == split


def test_lambda_factor_beyond_the_order_is_the_unit_series():
    ring = CohRing(S2)
    factor = lambda_minus_t_factor(RootBundle(S2, (2,)), 7, 5)
    assert factor == QSeries.one(ring, 5)


def test_lambda_factor_validates_its_inputs():
    with pytest.raises(VirtualBundle):
        lambda_minus_t_factor(RootBundle(S2, (), (0,)), 1, 5)
    for bad_weight in (0, -2, True, "1"):
        with pytest.raises(ValueError):
            lambda_minus_t_factor(RootBundle(S2, (0,)), bad_weight, 5)
