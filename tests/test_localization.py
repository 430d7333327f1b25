"""Normal decompositions and their (inverse) Euler classes."""

from __future__ import annotations

import random
import sys
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
    ModelMismatch,
    NormalDecomposition,
    ProblemSpec,
    QSeries,
    QQ,
    RootBundle,
    SchemaError,
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
    preset_spec,
    todd_class,
)
from equindex import localization
from equindex.charclasses import MAX_TOP_INDEX
from equindex.localization import MAX_KERNEL_WORK, _check_work, _unpack, localized_index
from equindex.oracles import todd_product
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


@pytest.mark.parametrize("width", [8, 16, 32, 64, 96])
def test_unpack_round_trips_signed_slots(width):
    rng = random.Random(width)
    half = 1 << (width - 1)
    for length in (0, 1, 2, 7, 40):
        # 2^(W-1) - 1, -2^(W-1), ±2^(W-2), 0 and -1
        edges = [half - 1, -half, half // 2, -(half // 2), 0, -1]
        slots = [rng.choice(edges) if rng.random() < 0.3 else rng.randrange(-half, half)
                 for _ in range(length)]
        value = sum(slot << (n * width) for n, slot in enumerate(slots))
        # the kernel's residue modulo 2^(length W) and the signed integer itself
        assert _unpack(value % (1 << length * width), width, length) == slots
        assert _unpack(value, width, length) == slots


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("width", [8, 16, 32, 64, 72])
def test_the_slot_width_holds_the_bound_when_it_is_reached(width, sign):
    # one root s at weight 1 gives 1/(1 - q e^(sx)) = sum_n q^n (1 + n s x): through q^15 the
    # bound 15 |s| of the x-coordinate is reached, here at 2^W - 1, one bit short of a W-bit slot
    s = sign * ((1 << width) - 1) // 15
    decomposition = NormalDecomposition(S2, ((1, RootBundle(S2, (s,))),))
    out = inverse_euler_class(decomposition, 15)
    assert [out.coefficient(n) for n in range(16)] == [CohClass((1, n * s)) for n in range(16)]


@st.composite
def wide_decompositions(draw):
    """Up to 8 roots of up to about 2^20 at weight 1, more at higher weights, m up to 6 and
    orders up to 40, so that the slots of the division kernel pass 64 bits."""
    order = draw(st.integers(0, 40))
    model = model_from_name(draw(st.sampled_from(
        ["point", "s2", "sigma:3", "cpn:2", "cpn:3", "cpn:4", "cpn:5", "cpn:6"])))
    roots = st.builds(Fraction, st.integers(-(2**20), 2**20), st.sampled_from((1, 2, 3, 4, 6)))
    components = [(1, draw(st.lists(roots, max_size=8)))] + draw(
        st.lists(st.tuples(st.integers(2, order + 3), st.lists(roots, max_size=3)), max_size=2))
    return NormalDecomposition(
        model, [(weight, RootBundle(model, roots)) for weight, roots in components]), order


def _single(name: str, root: int, order: int):
    model = model_from_name(name)
    return NormalDecomposition(model, ((1, RootBundle(model, (root,))),)), order


def test_the_division_kernel_agrees_with_long_division_at_every_slot_width(monkeypatch):
    widths = set()

    def unpack(packed, width, length):
        widths.add(min(width, 72))  # 72 stands for every width past a machine word
        return _unpack(packed, width, length)

    monkeypatch.setattr(localization, "_unpack", unpack)

    @settings(max_examples=100, deadline=None)
    @given(wide_decompositions())
    @example(_single("point", 1, 40))  # slots of 8 bits
    @example(_single("s2", 100, 40))  # 16 bits
    @example(_single("s2", 2**20, 40))  # 32 bits
    @example(_single("cpn:2", -(2**20), 40))  # 64 bits
    @example(_single("cpn:6", 2**20, 40))  # past 64 bits
    def agrees(case):
        decomposition, order = case
        assert inverse_euler_class(decomposition, order) == naive_inverse(
            euler_class(decomposition, order), order)

    agrees()
    assert widths == {8, 16, 32, 64, 72}


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
    line = DifferenceLine(sign, 0)
    out = localized_index(ProblemSpec(tangent.model, tangent, normal, F, line, top))
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
    todd = todd_product(tangent)
    integrated = {n: coh_integrate(value * todd, tangent.model) for n, value in total.terms()}
    assert out == QSeries.from_terms(QQ, integrated, top).scale(sign)


def test_the_kernel_work_bound():
    # the estimate is (length * (terms + 1) + 1) * size^2 * digits, and the bound itself is allowed
    empty = NormalDecomposition(S2)
    _check_work(empty, MAX_KERNEL_WORK // 4 - 1, 2, [], 1)
    with pytest.raises(ValueError, match="^order: "):
        _check_work(empty, MAX_KERNEL_WORK // 4, 2, [], 1)
    crowded = NormalDecomposition(POINT, ((1, RootBundle(POINT, (0,) * 10**4)),))
    with pytest.raises(ValueError, match="^order: "):
        _check_work(crowded, 10**4, 1, [], 1)
    # a window far past the bound is refused before any column is allocated
    decomposition = NormalDecomposition(CP2, ((1, RootBundle(CP2, (1, 2))),))
    with pytest.raises(ValueError, match="^order: "):
        inverse_euler_class(decomposition, 10**15)


def test_the_work_bound_weighs_the_widest_integer():
    # m log2 |rD| bits: 2 * 61 = 122 bits are 5 Python digits of 30 bits (9 of 15)
    digits = -(-122 // sys.int_info.bits_per_digit)
    narrow = NormalDecomposition(CP2, ((1, RootBundle(CP2, (1,))),))
    wide = NormalDecomposition(CP2, ((1, RootBundle(CP2, (2**61,))),))
    length = (MAX_KERNEL_WORK // (9 * digits) - 1) // 2
    _check_work(wide, length, 3, [b for _, b in wide.components], 1)
    with pytest.raises(ValueError, match="^order: "):
        _check_work(wide, length + 1, 3, [b for _, b in wide.components], 1)
    _check_work(narrow, length + 1, 3, [b for _, b in narrow.components], 1)
    # the scale counts too: the root 1 is 1/7^22 times D = 7^22, 61.8 bits
    _check_work(narrow, length, 3, [RootBundle(CP2, (1, Fraction(1, 7**22)))], 7**22)
    with pytest.raises(ValueError, match="^order: "):
        _check_work(narrow, length + 1, 3, [RootBundle(CP2, (1, Fraction(1, 7**22)))], 7**22)


def test_a_surface_loop_is_charged_for_its_pentagonal_terms():
    # two products per pentagonal number of Miller's recurrence: ls2 is solved through
    # order 38879 (about 1.7 s as a command-line run on a 2-vCPU host), refused at 38880
    tangent = [preset_spec("ls2", 0).tangent]
    _check_work(LOOP, 38879 + 1, 2, tangent, 1)
    with pytest.raises(ValueError, match="^order: "):
        _check_work(LOOP, 38880 + 1, 2, tangent, 1)
    assert localized_index(preset_spec("ls2", 5000)).order == 5000
    # the tower of a larger manifold keeps the quadratic charge
    tangent = [RootBundle(CP2, (1, 1))]
    _check_work(LOOP, 3000, 3, tangent, 1)
    with pytest.raises(ValueError, match="^order: "):
        _check_work(LOOP, 4000, 3, tangent, 1)


def _cpn_spec(m: int, order: int) -> ProblemSpec:
    """A problem on cpn:m with the Euler-sequence tangent, plus m + 1 roots 1 and minus 0."""
    model = model_from_name(f"cpn:{m}")
    tangent = RootBundle(model, (1,) * (m + 1), (0,))
    normal = NormalDecomposition(model, ((1, RootBundle(model, (1,))),))
    F = EquivariantBundle(model, ((0, RootBundle(model, (7,))),))
    return ProblemSpec(model, tangent, normal, F, order=order)


def test_the_dimension_bound():
    def solve(m: int):
        return localized_index(_cpn_spec(m, 0))

    # the bound itself is allowed; one more is refused before the Todd class is built,
    # by the solve and by todd_class alike
    assert solve(MAX_TOP_INDEX).order == 0
    with pytest.raises(ValueError, match=f"^manifold: 'cpn:{MAX_TOP_INDEX + 1}' "):
        solve(MAX_TOP_INDEX + 1)
    top = model_from_name(f"cpn:{MAX_TOP_INDEX}")
    assert todd_class(RootBundle(top, (1,))) == todd_product(RootBundle(top, (1,)))
    with pytest.raises(ValueError, match=f"^manifold: 'cpn:{MAX_TOP_INDEX + 1}' "):
        todd_class(RootBundle(model_from_name(f"cpn:{MAX_TOP_INDEX + 1}"), (1,)))


def test_explicit_normal_data_gives_a_rational_index():
    # 1/(1 - q^w e^(rx)) = sum_(j<=m) q^(wj) (e^(rx) - 1)^j / (1 - q^w)^(j+1), as e^(rx) - 1 is
    # nilpotent, so the index times Q = prod_w (1 - q^w)^(n_w + m), for n_w normal roots at
    # weight w, is a Laurent polynomial whose terms stop at q^(low + m sum_w w + the span of
    # the F-weights), low being the lowest F-weight plus L.weight: an oracle for the division
    # kernel that uses neither it nor long division
    rng = random.Random(47)

    def roots(count: int) -> list[Fraction]:
        return [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(count)]

    reached = 0
    for _ in range(300):
        model = model_from_name(rng.choice(["point", "cpn:1", "cpn:2", "cpn:3", "cpn:4"]))
        m = model.top_index
        normal = NormalDecomposition(model, [(rng.randint(1, 5), RootBundle(model, roots(
            rng.randint(1, 3)))) for _ in range(rng.randint(1, 3))])
        F = EquivariantBundle(model, [(rng.randint(-4, 4), RootBundle(
            model, roots(rng.randint(0, 3)), roots(rng.randint(0, 2))))
            for _ in range(rng.randint(1, 3))])
        line = DifferenceLine(rng.choice((1, -1)), rng.randint(-3, 3))
        weights = [w for w, _ in F.terms]
        low = min(weights) + line.weight
        bound = low + m * sum(w for w, _ in normal.components) + max(weights) - min(weights)
        spec = ProblemSpec(model, RootBundle(model, roots(m)), normal, F, line, bound + 40)
        index = localized_index(spec)
        q = QSeries.one(QQ, index.order - min(index.lowest, 0))
        for w, bundle in normal.components:
            q = q * QSeries.from_terms(QQ, {0: 1, w: -1}, q.order) ** (len(bundle.plus_roots) + m)
        product = index * q
        assert product.order == spec.order
        assert all(n <= bound for n, _ in product.terms()), (spec, product)
        reached += product.lowest + len(product.coeffs) - 1 == bound
    assert reached  # the bound is met, not only respected


def test_an_oversized_problem_is_refused_at_its_path():
    # the cost bound names the order and the dimension bound the manifold, as SchemaError
    # does for every other refused problem, whichever entry point meets them
    refusals = [
        ("order", lambda: localized_index(_cpn_spec(2, 10**15))),
        ("order", lambda: inverse_euler_class(_cpn_spec(2, 0).normal, 10**15)),
        ("manifold", lambda: localized_index(_cpn_spec(MAX_TOP_INDEX + 1, 0))),
        ("manifold", lambda: todd_class(RootBundle(model_from_name(f"cpn:{MAX_TOP_INDEX + 1}")))),
    ]
    for path, refuse in refusals:
        with pytest.raises(SchemaError) as refused:
            refuse()
        assert refused.value.path == path
        assert str(refused.value).startswith(f"{path}: ")


def test_inverse_euler_class_reads_the_order_by_the_problem_rule():
    decomposition = NormalDecomposition(S2, [(1, RootBundle(S2, (1,)))])
    spec = _cpn_spec(2, 0)
    for order in (-3, -1, 2.5, "3", True):
        with pytest.raises(SchemaError) as refused:
            inverse_euler_class(decomposition, order)
        assert str(refused.value) == f"order: must be a nonnegative integer, got {order!r}"
        with pytest.raises(SchemaError) as by_spec:
            ProblemSpec(model=spec.model, tangent=spec.tangent, normal=spec.normal, F=spec.F,
                        order=order)
        assert str(by_spec.value) == str(refused.value)
    assert inverse_euler_class(decomposition, 0).order == 0
