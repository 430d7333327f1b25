"""Normal decompositions and their (inverse) Euler classes."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equindex import (
    CohClass,
    CohRing,
    EquivariantBundle,
    ModelMismatch,
    NormalDecomposition,
    QSeries,
    QQ,
    RootBundle,
    VirtualBundle,
    WeightError,
    chern_character,
    coh_integrate,
    euler_class,
    inverse_euler_class,
    loop_normal_decomposition,
    model_from_name,
    naive_inverse,
    partition_numbers,
    todd_class,
)
from equindex.localization import MAX_KERNEL_WORK, _check_work, fixed_point_integral
from support import assert_is_one, assert_same_series, random_decomposition

POINT = model_from_name("point")
S2 = model_from_name("s2")
CP2 = model_from_name("cpn:2")

MODELS = (POINT, S2, CP2, model_from_name("sigma:2"))


def test_repeated_weights_are_merged():
    decomposition = NormalDecomposition(
        S2,
        (
            (2, RootBundle(S2, (1,))),
            (1, RootBundle(S2, (0,))),
            (2, RootBundle(S2, (-1,))),
        ),
    )
    assert decomposition.components == (
        (1, RootBundle(S2, (0,))),
        (2, RootBundle(S2, (-1, 1))),
    )


def test_weights_must_be_positive_integers():
    for bad in (0, -1, True, "2"):
        with pytest.raises(WeightError):
            NormalDecomposition(S2, ((bad, RootBundle(S2, (0,))),))


def test_component_models_must_agree():
    with pytest.raises(ModelMismatch):
        NormalDecomposition(S2, ((1, RootBundle(POINT, (0,))),))


def test_components_must_be_genuine():
    with pytest.raises(VirtualBundle):
        NormalDecomposition(S2, ((1, RootBundle(S2, (), (0,))),))


def test_loop_decomposition_structure():
    tangent = RootBundle(S2, (2,))
    decomposition = loop_normal_decomposition(tangent, 3)
    assert [w for w, _ in decomposition.components] == [1, 2, 3]
    for _, bundle in decomposition.components:
        assert bundle == RootBundle(S2, (2, -2))
    assert loop_normal_decomposition(tangent, 0).components == ()


def test_loop_decomposition_of_a_point_has_rank_zero():
    decomposition = loop_normal_decomposition(RootBundle(POINT), 4)
    assert all(bundle.rank == 0 for _, bundle in decomposition.components)


def test_loop_decomposition_rejects_virtual_tangents():
    with pytest.raises(VirtualBundle):
        loop_normal_decomposition(RootBundle(S2, (2,), (0,)), 3)


def test_euler_class_of_the_empty_decomposition():
    empty = NormalDecomposition(S2)
    assert euler_class(empty, 5) == QSeries.one(CohRing(S2), 5)
    assert inverse_euler_class(empty, 5) == QSeries.one(CohRing(S2), 5)


def test_euler_class_of_a_single_trivial_line():
    ring = CohRing(POINT)
    decomposition = NormalDecomposition(POINT, ((3, RootBundle(POINT, (0,))),))
    assert euler_class(decomposition, 9) == QSeries.from_terms(
        ring, {0: ring.one, 3: -ring.one}, 9
    )
    inverse = inverse_euler_class(decomposition, 9)
    assert inverse == QSeries.from_terms(
        ring, {0: ring.one, 3: ring.one, 6: ring.one, 9: ring.one}, 9
    )


def test_loop_sphere_euler_class_at_low_order():
    decomposition = loop_normal_decomposition(RootBundle(S2, (2,)), 2)
    euler = euler_class(decomposition, 2)
    ring = CohRing(S2)
    assert euler == QSeries.from_terms(
        ring, {0: ring.one, 1: -2 * ring.one, 2: -ring.one}, 2
    )


def test_loop_sphere_inverse_euler_is_the_partition_convolution():
    order = 12
    decomposition = loop_normal_decomposition(RootBundle(S2, (2,)), order)
    inverse = inverse_euler_class(decomposition, order)
    table = partition_numbers(order)
    for n in range(order + 1):
        value = inverse.coefficient(n)
        assert value == CohClass((table.convolution(n), 0))


def test_loop_sphere_inverse_euler_has_no_x_component():
    order = 10
    decomposition = loop_normal_decomposition(RootBundle(S2, (2,)), order)
    for series in (euler_class(decomposition, order), inverse_euler_class(decomposition, order)):
        for _, value in series.terms():
            assert value.coeffs[1] == 0


def test_euler_inverse_round_trip_randomized():
    rng = random.Random(59)
    for _ in range(60):
        model = rng.choice(MODELS)
        decomposition = random_decomposition(rng, model)
        order = rng.randint(4, 10)
        euler = euler_class(decomposition, order)
        assert euler.coefficient(0) == CohRing(model).one
        assert_is_one(euler * inverse_euler_class(decomposition, order), order)


def test_euler_class_truncation_stability():
    rng = random.Random(61)
    for _ in range(25):
        model = rng.choice(MODELS)
        decomposition = random_decomposition(rng, model)
        high, low = 12, rng.randint(0, 8)
        assert euler_class(decomposition, high).truncate(low) == euler_class(
            decomposition, low
        )
        assert_same_series(
            inverse_euler_class(decomposition, high).truncate(low),
            inverse_euler_class(decomposition, low),
        )


# roots whose denominators mix 1, 2, 3, 4 and 6, so that y = x/12 is needed
ROOTS = st.sampled_from(
    [Fraction(1, 2), Fraction(2, 3), Fraction(-5, 6), Fraction(7, 4), 0, 1, -1, -3, 2]
)


@st.composite
def decompositions(draw, order):
    name = draw(
        st.one_of(
            st.sampled_from(["point", "s2"]),
            st.integers(0, 4).map(lambda genus: f"sigma:{genus}"),
            st.integers(2, 4).map(lambda n: f"cpn:{n}"),
        )
    )
    model = model_from_name(name)
    components = draw(
        st.lists(
            # weights above the order contribute 1 and must be skipped
            st.tuples(st.integers(1, order + 3), st.lists(ROOTS, max_size=3)),
            max_size=4,
        )
    )
    return NormalDecomposition(
        model, [(weight, RootBundle(model, roots)) for weight, roots in components]
    )


@st.composite
def decompositions_with_orders(draw):
    order = draw(st.integers(0, 9))
    return draw(decompositions(order)), order


@settings(max_examples=150, deadline=None)
@given(decompositions_with_orders())
def test_inverse_euler_class_is_long_division_of_the_euler_class(case):
    decomposition, order = case
    assert inverse_euler_class(decomposition, order) == naive_inverse(
        euler_class(decomposition, order), order
    )


@st.composite
def integrals(draw):
    """Explicit normal data at weights 2..6 with several roots each, a virtual F
    at weights -4..4, and orders up to 30, so every stride residue is reached."""
    model = model_from_name(draw(st.sampled_from(["point", "s2", "sigma:2", "cpn:2", "cpn:3"])))
    tangent = RootBundle(
        model, draw(st.lists(ROOTS, min_size=model.top_index, max_size=model.top_index))
    )
    components = draw(
        st.lists(st.tuples(st.integers(2, 6), st.lists(ROOTS, min_size=1, max_size=3)),
                 min_size=1, max_size=4)
    )
    normal = NormalDecomposition(
        model, [(weight, RootBundle(model, roots)) for weight, roots in components]
    )
    bundles = st.builds(
        lambda plus, minus: RootBundle(model, plus, minus),
        st.lists(ROOTS, max_size=2),
        st.lists(ROOTS, max_size=2),
    )
    F = EquivariantBundle(
        model, draw(st.lists(st.tuples(st.integers(-4, 4), bundles), min_size=1, max_size=3))
    )
    return tangent, normal, F, draw(st.integers(0, 30)), draw(st.sampled_from((1, -1)))


@settings(max_examples=100, deadline=None)
@given(integrals())
def test_the_integral_is_long_division_times_the_character(case):
    tangent, normal, F, top, sign = case
    out = fixed_point_integral(tangent, normal, F.terms, top, sign)
    # the Euler class as a product, its long-division inverse, ch(F), and td
    ring = CohRing(tangent.model)
    characters = {a: chern_character(bundle) for a, bundle in F.terms}
    characters = {a: value for a, value in characters.items() if value}
    lowest = min(characters, default=top + 1)
    if lowest > top:
        assert out == QSeries.zero(QQ, top)
        return
    inverse = naive_inverse(euler_class(normal, top - lowest), top - lowest)
    total = QSeries.from_terms(ring, characters, top) * inverse
    todd = todd_class(tangent)
    integrated = {n: coh_integrate(value * todd, tangent.model) for n, value in total.terms()}
    assert out == QSeries.from_terms(QQ, integrated, top).scale(sign)


def test_the_kernel_work_bound():
    # the estimate is length * (roots + 1) * size^2, and the bound itself is allowed
    _check_work(MAX_KERNEL_WORK // 4, 0, 2)
    with pytest.raises(ValueError, match="^order: "):
        _check_work(MAX_KERNEL_WORK // 4 + 1, 0, 2)
    with pytest.raises(ValueError, match="^order: "):
        _check_work(10**4, 10**4, 1)
    # a window far past the bound is refused before any column is allocated
    decomposition = NormalDecomposition(CP2, ((1, RootBundle(CP2, (1, 2))),))
    with pytest.raises(ValueError, match="^order: "):
        inverse_euler_class(decomposition, 10**15)
