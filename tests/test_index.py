"""The index pipeline: presets, identities, goldens, and validation."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equindex import (
    LOOP,
    CohRing,
    DifferenceLine,
    EquivariantBundle,
    ManifoldModel,
    ModelMismatch,
    NormalDecomposition,
    ProblemSpec,
    QSeries,
    QQ,
    RootBundle,
    UnsupportedModel,
    VirtualBundle,
    ZZ,
    chern_character,
    coh_integrate,
    compact_trivial_index,
    cplane_spec,
    direct_cplane_index,
    euler_class,
    localized_index,
    loop_normal_decomposition,
    loop_space_index,
    model_from_name,
    naive_inverse,
    parse_problem,
    partition_numbers,
    preset_spec,
    todd_class,
)
from equindex.localization import fixed_point_integral
from support import assert_same_series

POINT = model_from_name("point")
S2 = model_from_name("s2")


def _coefficients(series: QSeries, through: int) -> list:
    return [series.coefficient(n) for n in range(min(series.lowest, 0), through + 1)]


# -- weighted plane ------------------------------------------------------


def test_plane_weight_one_trivial_coefficients():
    out = localized_index(preset_spec("cplane:1", 5))
    assert out == QSeries(QQ, 0, (1,) * 6, 5)


def test_plane_negative_weight_golden():
    out = localized_index(preset_spec("cplane:-1", 4))
    assert out == QSeries(QQ, 1, (-1, -1, -1, -1), 4)
    assert str(out) == "-q - q^2 - q^3 - q^4"


def test_plane_matches_the_direct_sum_oracle():
    rng = random.Random(71)
    for weight in (1, 2, 3):
        for _ in range(8):
            coefficients = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
            engine = localized_index(cplane_spec(weight, coefficients, 18))
            oracle = direct_cplane_index(weight, coefficients, 18)
            assert_same_series(engine, oracle, 18)


def test_plane_negative_weight_is_a_signed_shift():
    rng = random.Random(73)
    for weight in (-1, -2, -3):
        for _ in range(6):
            coefficients = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
            negative = localized_index(cplane_spec(weight, coefficients, 16))
            positive = localized_index(cplane_spec(-weight, coefficients, 16))
            assert_same_series(negative, positive.scale(-1).shift(-weight), 16)
            assert_same_series(
                negative, direct_cplane_index(weight, coefficients, 16), 16
            )


def test_presets_match_their_oracles():
    order = 9
    table = partition_numbers(order)
    oracles = {
        "ls2": QSeries(ZZ, 0, [table.convolution(n) for n in range(order + 1)], order),
        "lsigma:2": QSeries(ZZ, 0, [-table.convolution(n) for n in range(order + 1)], order),
        "cplane:3": direct_cplane_index(3, (1,), order),
        "cplane:-2": direct_cplane_index(-2, (1,), order),
    }
    for preset, oracle in oracles.items():
        expected = QSeries.from_terms(QQ, dict(oracle.terms()), oracle.order)
        assert localized_index(preset_spec(preset, order)) == expected, preset


def test_deep_loop_presets_match_the_partition_convolution():
    for preset, genus, order in (("ls2", 0, 300), ("lsigma:2", 2, 150)):
        table = partition_numbers(order)
        expected = QSeries(
            QQ, 0, [(1 - genus) * table.convolution(n) for n in range(order + 1)], order
        )
        assert localized_index(preset_spec(preset, order)) == expected, preset


def test_plane_rejects_weight_zero():
    with pytest.raises(ValueError):
        cplane_spec(0, (1,), 4)


# -- loop spaces ---------------------------------------------------------


def test_loop_sphere_golden():
    out = localized_index(preset_spec("ls2", 4))
    assert out == QSeries(QQ, 0, (1, 2, 5, 10, 20), 4)


def test_loop_sphere_matches_partition_convolution():
    order = 16
    out = loop_space_index(S2, EquivariantBundle.trivial(S2), order)
    table = partition_numbers(order)
    assert _coefficients(out, order) == [table.convolution(n) for n in range(order + 1)]


def test_loop_surfaces_scale_by_euler_characteristic_factor():
    order = 12
    table = partition_numbers(order)
    for genus in range(4):
        out = localized_index(preset_spec(f"lsigma:{genus}", order))
        expected = [(1 - genus) * table.convolution(n) for n in range(order + 1)]
        assert _coefficients(out, order) == expected


def test_loop_torus_vanishes():
    out = localized_index(preset_spec("lsigma:1", 8))
    assert out.is_zero and out.order == 8


def test_loop_space_index_agrees_with_a_hand_built_problem():
    order = 9
    spec = ProblemSpec(
        model=S2,
        tangent=RootBundle(S2, (2,)),
        normal=LOOP,
        F=EquivariantBundle.trivial(S2),
        order=order,
    )
    assert localized_index(spec) == loop_space_index(
        S2, EquivariantBundle.trivial(S2), order
    )


def test_loop_sphere_with_tangent_coefficients():
    # each weight-a summand E_a contributes (integral of ch(E_a)(1+x)) q^a
    # times the partition convolution; for E = TS2 at weight 1 that factor
    # is chi(O(2)) = 3
    order = 10
    bundle = EquivariantBundle(S2, ((1, RootBundle(S2, (2,))),))
    out = loop_space_index(S2, bundle, order)
    table = partition_numbers(order)
    assert out.coefficient(0) == 0
    for n in range(1, order + 1):
        assert out.coefficient(n) == 3 * table.convolution(n - 1)


def test_the_index_scales_with_the_integral_of_the_model():
    # the cohomology of s2 with three times its fundamental class: every integral triples
    tripled = ManifoldModel("s2x3", 1, Fraction(3), 2, genus=0)

    def problem(model, normal):
        F = EquivariantBundle(model, (
            (-1, RootBundle(model, (Fraction(1, 2),), (-1,))),
            (2, RootBundle(model, (3, 0))),
        ))
        return ProblemSpec(model=model, tangent=RootBundle(model, (2,)), normal=normal(model),
                           F=F, L=DifferenceLine(-1, 1), order=12)

    def explicit(model):
        return NormalDecomposition(
            model, ((1, RootBundle(model, (1, -2))), (3, RootBundle(model, (Fraction(1, 2),))))
        )

    for normal in (lambda model: LOOP, explicit):
        once = localized_index(problem(S2, normal))
        assert not once.is_zero
        assert localized_index(problem(tripled, normal)) == once.scale(3)


def test_loop_space_index_needs_a_surface():
    for name in ("point", "cpn:2"):
        model = model_from_name(name)
        with pytest.raises(UnsupportedModel):
            loop_space_index(model, EquivariantBundle.trivial(model), 4)


# -- difference line and F-linearity --------------------------------------


def test_difference_line_multiplies_exactly():
    base_spec = preset_spec("ls2", 10)
    base = localized_index(base_spec)
    for sign in (1, -1):
        for weight in (0, 1, 3):
            twisted = ProblemSpec(
                model=base_spec.model,
                tangent=base_spec.tangent,
                normal=base_spec.normal,
                F=base_spec.F,
                L=DifferenceLine(sign, weight),
                order=base_spec.order,
            )
            out = localized_index(twisted)
            assert_same_series(out, base.scale(sign).shift(weight))


def test_index_is_additive_in_the_coefficient_bundle():
    order = 8
    tangent = RootBundle(S2, (2,))
    normal = NormalDecomposition(S2, ((1, RootBundle(S2, (0,))),))
    f1 = EquivariantBundle(S2, ((0, RootBundle(S2, (2,))),))
    f2 = EquivariantBundle(S2, ((2, RootBundle(S2, (0, 0))), (3, RootBundle(S2, (-2,)))))
    combined = EquivariantBundle(S2, f1.terms + f2.terms)

    def run(bundle):
        return localized_index(
            ProblemSpec(model=S2, tangent=tangent, normal=normal, F=bundle, order=order)
        )

    assert_same_series(run(combined), run(f1) + run(f2))


# -- compact reduction -----------------------------------------------------


def test_compact_trivial_index_goldens():
    tangent = RootBundle(S2, (2,))
    holomorphic_tangent = EquivariantBundle(S2, ((0, RootBundle(S2, (2,))),))
    assert compact_trivial_index(S2, tangent, holomorphic_tangent) == QSeries(
        QQ, 0, (3,), 0
    )
    assert compact_trivial_index(S2, tangent, EquivariantBundle.trivial(S2)) == QSeries(
        QQ, 0, (1,), 0
    )


def test_compact_trivial_index_on_a_point_is_a_passthrough():
    bundle = EquivariantBundle(
        POINT,
        (
            (-1, RootBundle(POINT, (0, 0))),
            (2, RootBundle(POINT, (), (0, 0, 0))),
        ),
    )
    out = compact_trivial_index(POINT, RootBundle(POINT), bundle)
    assert out == QSeries.from_terms(QQ, {-1: 2, 2: -3}, 2)


def test_empty_normal_data_reduces_to_the_compact_index():
    tangent = RootBundle(S2, (2,))
    bundle = EquivariantBundle(
        S2, ((0, RootBundle(S2, (2,))), (2, RootBundle(S2, (0,))))
    )
    spec = ProblemSpec(
        model=S2,
        tangent=tangent,
        normal=NormalDecomposition(S2),
        F=bundle,
        order=6,
    )
    assert_same_series(localized_index(spec), compact_trivial_index(S2, tangent, bundle))


def test_hirzebruch_riemann_roch_on_projective_spaces():
    # chi(CP^n, O(k)) = (k+1)...(k+n)/n!; the Euler sequence gives td(CP^n)
    # from n+1 roots 1, the trivial summand's root 0 having Todd factor 1
    for n in range(1, 5):
        model = model_from_name(f"cpn:{n}")
        tangent = RootBundle(model, (1,) * (n + 1))
        for k in range(-n - 2, 4):
            line = EquivariantBundle(model, ((0, RootBundle(model, (k,))),))
            expected = Fraction(math.prod(range(k + 1, k + n + 1)), math.factorial(n))
            out = compact_trivial_index(model, tangent, line)
            assert out == QSeries.from_terms(QQ, {0: expected}, 0), (n, k)


def test_rational_roots_integrate_exactly():
    tangent = RootBundle(S2, ("1/2",))
    out = compact_trivial_index(S2, tangent, EquivariantBundle.trivial(S2))
    assert out == QSeries(QQ, 0, (Fraction(1, 4),), 0)


# -- validation ------------------------------------------------------------


def test_problem_spec_validates_models():
    with pytest.raises(ModelMismatch):
        ProblemSpec(
            model=S2,
            tangent=RootBundle(POINT),
            normal=LOOP,
            F=EquivariantBundle.trivial(S2),
        )
    with pytest.raises(ModelMismatch):
        ProblemSpec(
            model=S2,
            tangent=RootBundle(S2, (2,)),
            normal=NormalDecomposition(POINT),
            F=EquivariantBundle.trivial(S2),
        )
    with pytest.raises(ModelMismatch):
        ProblemSpec(
            model=S2,
            tangent=RootBundle(S2, (2,)),
            normal=LOOP,
            F=EquivariantBundle.trivial(POINT),
        )


def test_problem_spec_validates_the_rest():
    good = dict(
        model=S2,
        tangent=RootBundle(S2, (2,)),
        normal=LOOP,
        F=EquivariantBundle.trivial(S2),
    )
    with pytest.raises(VirtualBundle):
        ProblemSpec(**{**good, "tangent": RootBundle(S2, (2,), (0,))})
    with pytest.raises(ValueError):
        ProblemSpec(**{**good, "normal": "everywhere"})
    with pytest.raises(ValueError):
        ProblemSpec(**{**good, "order": -1})
    with pytest.raises(ValueError):
        DifferenceLine(2, 0)
    with pytest.raises(ValueError):
        DifferenceLine(1, "3")


def test_equivariant_bundle_merges_weights():
    bundle = EquivariantBundle(
        S2, ((1, RootBundle(S2, (2,))), (1, RootBundle(S2, (0,))), (0, RootBundle(S2)))
    )
    assert bundle.terms == (
        (0, RootBundle(S2)),
        (1, RootBundle(S2, (0, 2))),
    )


def test_unknown_presets_are_rejected():
    for bad in ("ls3", "cplane:0", "cplane:x", "lsigma:-1", ""):
        with pytest.raises(ValueError):
            preset_spec(bad, 4)


ROOTS = st.sampled_from(
    [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6), Fraction(-7, 4), 0, 1, -2, 3]
)


@st.composite
def problems_with_low_weights(draw):
    """Problems whose F-weights and difference-line weight may be negative."""
    model = model_from_name(
        draw(st.sampled_from(["point", "s2", "sigma:2", "cpn:2", "cpn:3", "cpn:4"]))
    )
    bundles = st.builds(
        lambda plus, minus: RootBundle(model, plus, minus),
        st.lists(ROOTS, max_size=2),
        st.lists(ROOTS, max_size=1),
    )
    tangent = RootBundle(
        model, draw(st.lists(ROOTS, min_size=model.top_index, max_size=model.top_index))
    )
    if model.top_index == 1 and draw(st.booleans()):
        normal = LOOP
    else:
        components = st.tuples(st.integers(1, 4), st.lists(ROOTS, max_size=2))
        normal = NormalDecomposition(
            model,
            [(w, RootBundle(model, roots)) for w, roots in draw(st.lists(components, max_size=2))],
        )
    return ProblemSpec(
        model=model,
        tangent=tangent,
        normal=normal,
        F=EquivariantBundle(
            model, draw(st.lists(st.tuples(st.integers(-6, 4), bundles), min_size=1, max_size=3))
        ),
        L=DifferenceLine(draw(st.sampled_from((1, -1))), draw(st.integers(-6, 4))),
        order=draw(st.integers(0, 9)),
    )


@settings(max_examples=100, deadline=None)
@given(problems_with_low_weights())
def test_the_requested_order_is_honoured(spec):
    out = localized_index(spec)
    assert out.order == spec.order
    longer = localized_index(
        ProblemSpec(model=spec.model, tangent=spec.tangent, normal=spec.normal,
                    F=spec.F, L=spec.L, order=spec.order + 2)
    )
    assert out == longer.truncate(spec.order)


def test_integer_inputs_stay_integral():
    for name in ("ls2", "lsigma:3", "cplane:2", "cplane:-2"):
        out = localized_index(preset_spec(name, 14))
        assert all(value.denominator == 1 for _, value in out.terms())


CPN_DOCUMENT = {
    "manifold": "cpn:3",
    "tangent": {"plus": ["1/2", "-2/3", "5/3"]},
    "normal": [
        {"weight": 1, "plus": ["1/2", "1/3"]},
        {"weight": 2, "plus": ["-3/5", 2]},
        {"weight": 5, "plus": ["1/4"]},
    ],
    "F": [
        {"weight": 0, "plus": ["1/6"]},
        {"weight": -2, "plus": ["2/5", -1], "minus": ["1/3"]},
    ],
    "L": {"sign": -1, "weight": 1},
    "order": 30,
}


def test_every_coefficient_is_built_as_a_fraction():
    # the integral builds its result without the public constructor's coercion
    specs = [preset_spec(name, order) for name in ("ls2", "lsigma:3") for order in (0, 30)]
    specs += [preset_spec(f"cplane:{k}", 40) for k in (1, 2, -3, 5, -7)]
    specs.append(parse_problem(json.dumps(CPN_DOCUMENT)))
    for spec in specs:
        out = localized_index(spec)
        assert all(type(c) is Fraction for c in out.coeffs), spec
        rebuilt = QSeries(QQ, out.lowest, out.coeffs, out.order)
        assert repr(out) == repr(rebuilt), spec
    assert any(c.denominator > 1 for c in out.coeffs)  # the document needs a common denominator


def _product_route(spec: ProblemSpec) -> QSeries:
    """ch(F) times the long-division inverse of the Euler class, integrated term by term."""
    characters = {weight: chern_character(bundle) for weight, bundle in spec.F.terms}
    characters = {weight: value for weight, value in characters.items() if value}
    lowest = min(characters, default=0)
    work = spec.order - min(0, lowest + spec.L.weight)
    if isinstance(spec.normal, str):
        normal = loop_normal_decomposition(spec.tangent, work)
    else:
        normal = spec.normal
    inverse = naive_inverse(euler_class(normal, work), work)
    total = QSeries.from_terms(CohRing(spec.model), characters, work + lowest) * inverse
    todd = todd_class(spec.tangent)
    integrated = {n: coh_integrate(value * todd, spec.model) for n, value in total.terms()}
    out = QSeries.from_terms(QQ, integrated, total.order).scale(spec.L.sign)
    return out.shift(spec.L.weight).truncate(spec.order)


@settings(max_examples=150, deadline=None)
@given(problems_with_low_weights())
def test_the_integral_matches_the_product_route(spec):
    assert localized_index(spec) == _product_route(spec)


@st.composite
def problems_and_second_bundles(draw):
    """A problem on either kernel, with rational roots and a virtual F, and a second F."""
    model = model_from_name(
        draw(st.sampled_from(["point", "s2", "sigma:2", "cpn:2", "cpn:3", "cpn:4"]))
    )
    bundles = st.builds(
        lambda plus, minus: RootBundle(model, plus, minus),
        st.lists(ROOTS, max_size=2),
        st.lists(ROOTS, max_size=2),
    )
    coefficient_bundles = st.builds(
        lambda terms: EquivariantBundle(model, terms),
        st.lists(st.tuples(st.integers(-4, 4), bundles), min_size=1, max_size=3),
    )
    tangent = RootBundle(
        model, draw(st.lists(ROOTS, min_size=model.top_index, max_size=model.top_index))
    )
    if draw(st.booleans()):
        normal = LOOP
    else:
        components = st.tuples(st.integers(1, 6), st.lists(ROOTS, max_size=2))
        normal = NormalDecomposition(
            model,
            [(w, RootBundle(model, roots)) for w, roots in draw(st.lists(components, max_size=3))],
        )
    line = DifferenceLine(draw(st.sampled_from((1, -1))), draw(st.integers(-4, 4)))
    spec = ProblemSpec(
        model=model,
        tangent=tangent,
        normal=normal,
        F=draw(coefficient_bundles),
        L=line,
        order=draw(st.integers(max(line.weight, 0), 20)),
    )
    return spec, draw(coefficient_bundles)


@settings(max_examples=100, deadline=None)
@given(problems_and_second_bundles())
def test_the_integral_is_additive_in_the_coefficient_bundle(case):
    spec, other = case

    def integral(F):
        return fixed_point_integral(spec.tangent, spec.normal, F.terms, spec.order, spec.L.sign)

    combined = EquivariantBundle(spec.model, spec.F.terms + other.terms)
    assert integral(combined) == integral(spec.F) + integral(other)


@settings(max_examples=100, deadline=None)
@given(problems_and_second_bundles())
def test_the_difference_line_is_a_sign_and_a_shift(case):
    spec, _ = case
    untwisted = ProblemSpec(model=spec.model, tangent=spec.tangent, normal=spec.normal,
                            F=spec.F, order=spec.order - spec.L.weight)
    expected = localized_index(untwisted).scale(spec.L.sign).shift(spec.L.weight)
    assert localized_index(spec) == expected
