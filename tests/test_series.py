"""The series core: canonical form, ring arithmetic, inversion, rendering."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equindex import (
    CohClass,
    CohRing,
    DifferenceLine,
    EquivariantBundle,
    ManifoldModel,
    NormalDecomposition,
    NotInvertible,
    ProblemSpec,
    QQ,
    QSeries,
    RootBundle,
    ZZ,
    model_from_name,
    naive_inverse,
    partition_numbers,
)
from equindex import algebra
from equindex.series import _Forward, as_fraction, render_terms
from support import (
    assert_is_one,
    assert_same_series,
    random_coh_series,
    random_zz_series,
)


# -- canonical form ----------------------------------------------------


def test_leading_and_trailing_zeros_are_stripped():
    series = QSeries(ZZ, 2, (0, 0, 3, 1, 0), 10)
    assert series.lowest == 4
    assert series.coeffs == (3, 1)


def test_terms_beyond_the_order_are_dropped():
    series = QSeries(ZZ, 0, (1, 1, 1, 1, 1), 2)
    assert series.coeffs == (1, 1, 1)
    assert series.order == 2


def test_zero_series_normal_form():
    assert QSeries(ZZ, 7, (0, 0), 9) == QSeries(ZZ, 0, (), 9)
    assert QSeries(ZZ, 5, (1,), 3).is_zero  # entirely above the order


def test_lowest_and_order_must_be_ints():
    # a float reached render_series before it failed, and True stood for the exponent 1
    for build, field in (
        (lambda: QSeries.from_json(ZZ, {"lowest": 0.5, "order": 3, "coeffs": ["1", "2"]}),
         "lowest"),
        (lambda: QSeries(ZZ, True, (1, 2), 3), "lowest"),
        (lambda: QSeries(ZZ, 0, (1, 2), 2.5), "order"),
        (lambda: QSeries(ZZ, 0, (1, 2), 5).shift(0.5), "k"),
        (lambda: QSeries(ZZ, 0, (1, 2), 5).truncate(2.5), "order"),
        (lambda: QSeries(ZZ, 0, (1, 2), 5).truncate(True), "order"),
        (lambda: QSeries(ZZ, 0, (1, 2), 5).coefficient(1.5), "exponent"),
    ):
        with pytest.raises(ValueError, match=f"^{field} must be an int, got "):
            build()
    with pytest.raises(ValueError, match="nonnegative integer powers"):
        QSeries(ZZ, 0, (1, 2), 5) ** True
    # a negative order only forgets more: compact_trivial_index truncates to one
    assert QSeries(ZZ, 0, (1, 2), 5).truncate(-1) == QSeries(ZZ, 0, (), -1)


def test_each_forwarding_entry_becomes_its_algebra_entry():
    # after its first lookup an entry is the algebra's own, so an operation costs no detour
    for name, entry in vars(algebra._SeriesMethods).items():
        if callable(entry) or isinstance(entry, (classmethod, property)):
            getattr(QSeries, name)
            assert vars(QSeries)[name] is entry, name
    assert not [name for name, entry in vars(QSeries).items() if isinstance(entry, _Forward)]


def test_coefficient_beyond_order_is_refused():
    series = QSeries(ZZ, 0, (1,), 4)
    assert series.coefficient(4) == 0
    with pytest.raises(ValueError):
        series.coefficient(5)


def test_mixed_rings_are_rejected():
    with pytest.raises(ValueError):
        QSeries(ZZ, 0, (1,), 4) + QSeries(QQ, 0, (1,), 4)


def test_integer_ring_rejects_fractions():
    with pytest.raises(ValueError):
        QSeries(ZZ, 0, (Fraction(1, 2),), 4)
    with pytest.raises(ValueError, match="booleans"):
        ZZ.coerce(True)
    assert ZZ.coerce("7") == 7 and ZZ.coerce(Fraction(4, 2)) == 2


def test_rational_ring_rejects_floats():
    with pytest.raises(ValueError):
        QSeries(QQ, 0, (0.5,), 4)
    with pytest.raises(ValueError, match="got a boolean"):
        as_fraction(True)


def test_a_decimal_exponent_past_the_digit_limit_is_refused():
    # Fraction would build 10^(10^7) first, taking seconds to minutes
    assert QQ.coerce("3/2") == Fraction(3, 2)
    assert QQ.coerce("0.5") == Fraction(1, 2)
    assert QQ.coerce("1e-4000") == Fraction(1, 10**4000)
    assert QQ.coerce("1e4300") == 10**4300
    for text in ("1e4301", "1e10000000", "1e-10000000", "1E+30000000"):
        with pytest.raises(ValueError, match="decimal exponent past 4300"):
            QQ.coerce(text)


_DIGITS = st.text("0123456789", max_size=5)
_EXPONENTS = st.tuples(st.sampled_from("eE"), st.sampled_from(("", "+", "-")),
                       st.text("0123456789", min_size=1, max_size=3)).map("".join)


@st.composite
def rational_texts(draw) -> str:
    """A text of as_fraction's grammar: a sign, then "p/q" or a decimal with an optional exponent."""
    sign, whole = draw(st.sampled_from(("", "+", "-"))), draw(_DIGITS)
    if draw(st.booleans()):
        return f"{sign}{whole or 0}/{draw(_DIGITS) or 0}"
    digits = draw(st.none() | _DIGITS)
    if not whole and not digits:
        whole = "0"
    fraction = "" if digits is None else "." + digits
    return sign + whole + fraction + draw(st.just("") | _EXPONENTS)


@given(rational_texts())
def test_rational_text_reads_as_fraction_reads_it(text):
    # as_fraction builds "p/q" from its own match's groups, and lets Fraction(text) read a
    # decimal only once that match has vetted its grammar and exponent
    try:
        expected = Fraction(text)
    except ZeroDivisionError:
        with pytest.raises(ValueError, match="^not a rational: "):
            as_fraction(text)
    else:
        assert as_fraction(text) == expected


# -- arithmetic --------------------------------------------------------


def test_addition_keeps_the_weaker_order():
    total = QSeries(ZZ, 0, (1, 2), 5) + QSeries(ZZ, 0, (1,), 3)
    assert total == QSeries(ZZ, 0, (2, 2), 3)


def test_multiplication_truncates():
    product = QSeries(ZZ, 0, (1, -1), 3) * QSeries(ZZ, 0, (1, 1, 1, 1), 3)
    assert product == QSeries.one(ZZ, 3)


def test_laurent_multiplication_cancels_shifts():
    product = QSeries(ZZ, -1, (1,), 4) * QSeries(ZZ, 1, (1,), 4)
    assert product.lowest == 0
    assert product.coefficient(0) == 1


def test_shift_moves_order_with_the_exponents():
    series = QSeries(ZZ, 0, (1, 2), 5)
    shifted = series.shift(3)
    assert (shifted.lowest, shifted.order) == (3, 8)
    assert shifted.shift(-3) == series


def test_scale_and_negation():
    series = QSeries(ZZ, 0, (1, -2), 5)
    assert series.scale(-2) == QSeries(ZZ, 0, (-2, 4), 5)
    assert -series == series.scale(-1)
    assert 3 * series == series * 3


def test_an_operand_of_another_type_is_refused():
    # a scalar times a series or a class (the __rmul__ aliases) is checked by
    # test_scale_and_negation and test_cohomology.py::test_addition_and_scaling
    series, cls = QSeries(ZZ, 0, (1, -2), 5), CohClass((1, 2))
    for operation in (lambda: series + 1, lambda: 1 + series, lambda: series - 1,
                      lambda: 1 - series, lambda: cls - 1, lambda: 1 - cls):
        with pytest.raises(TypeError):
            operation()


def test_power():
    base = QSeries(ZZ, 0, (1, 1), 6)
    assert base**0 == QSeries.one(ZZ, 6)
    assert base**3 == QSeries(ZZ, 0, (1, 3, 3, 1), 6)
    with pytest.raises(ValueError, match="nonnegative integer powers"):
        base**-1


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for case in range(110):
        order = rng.randint(4, 32)
        if case % 2:
            make = lambda: random_zz_series(rng, order)
        else:
            make = lambda: random_coh_series(rng, order)
        a, b, c = make(), make(), make()
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert_same_series(a * b, b * a)
        assert_same_series((a * b) * c, a * (b * c))
        assert_same_series(a * (b + c), a * b + a * c)


def test_truncation_stability_of_products():
    rng = random.Random(5)
    for _ in range(40):
        a = random_zz_series(rng, 24)
        b = random_zz_series(rng, 24)
        smaller = rng.randint(0, 12)
        assert_same_series(
            (a * b).truncate(smaller), a.truncate(smaller) * b.truncate(smaller)
        )


CP2_RING = CohRing(model_from_name("cpn:2"))
RING_ELEMENTS = {
    ZZ: st.integers(-3, 3),
    QQ: st.fractions(-2, 2, max_denominator=3),
    # entries drawn so that zero and nilpotent classes (x * x^2 = 0) are common
    CP2_RING: st.lists(
        st.sampled_from((0, 0, 1, -1, Fraction(1, 2))), min_size=3, max_size=3
    ).map(CohClass),
}


@st.composite
def series_pairs(draw):
    """Two Laurent series over one ring, with zeros inside their windows.

    Half the time b negates a's first and last raw terms at the same
    exponents, so that a + b cancels at both ends of the window.
    """
    ring = draw(st.sampled_from(list(RING_ELEMENTS)))
    elements = st.lists(RING_ELEMENTS[ring], max_size=8)
    a_low, b_low = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
    a_window, b_window = draw(elements), draw(elements)
    if a_window and draw(st.booleans()):
        b_low = a_low
        middle = [] if len(a_window) == 1 else draw(
            st.lists(RING_ELEMENTS[ring], min_size=len(a_window) - 2, max_size=len(a_window) - 2)
        )
        b_window = [-a_window[0], *middle, -a_window[-1]][: len(a_window)]
    a = QSeries(ring, a_low, a_window, a_low + draw(st.integers(-1, 10)))
    b = QSeries(ring, b_low, b_window, b_low + draw(st.integers(-1, 10)))
    return a, b


def assert_normal_form(series: QSeries) -> None:
    if series.is_zero:
        assert series.lowest == 0
    else:
        assert series.coeffs[0]
        assert series.coeffs[-1]
        assert series.lowest + len(series.coeffs) - 1 <= series.order


@settings(max_examples=300, deadline=None)
@given(series_pairs())
def test_sum_and_product_are_coefficientwise(pair):
    a, b = pair
    ring = a.ring
    total = a + b
    difference = a - b
    assert total.order == difference.order == min(a.order, b.order)
    for n in range(min(a.lowest, b.lowest) - 1, total.order + 1):
        assert total.coefficient(n) == a.coefficient(n) + b.coefficient(n)
        assert difference.coefficient(n) == a.coefficient(n) - b.coefficient(n)
    product = a * b
    assert product.order == min(a.order + b.lowest, b.order + a.lowest)
    for n in range(a.lowest + b.lowest - 1, product.order + 1):
        expected = ring.zero
        for i in range(a.lowest, n - b.lowest + 1):
            expected = expected + a.coefficient(i) * b.coefficient(n - i)
        assert product.coefficient(n) == expected
    assert_normal_form(total)
    assert_normal_form(difference)
    assert_normal_form(product)


def test_a_sum_is_the_termwise_sum_on_seeded_pairs():
    # the normal form that the zero-operand shortcuts of __add__ used to return, on
    # zero operands, negative lowest exponents and unequal orders alike
    rng = random.Random(26)
    draws = {
        ZZ: lambda: rng.randint(-3, 3),
        QQ: lambda: Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))),
        CP2_RING: lambda: CohClass([rng.choice((0, 0, 1, -1, Fraction(1, 2))) for _ in range(3)]),
    }

    def draw(ring) -> QSeries:
        lowest = rng.randint(-5, 5)
        window = [] if rng.random() < 0.25 else [draws[ring]() for _ in range(rng.randint(1, 8))]
        return QSeries(ring, lowest, window, lowest + rng.randint(-1, 10))

    def fields(series: QSeries) -> tuple:
        return series.lowest, [str(c) for c in series.coeffs], series.order

    zero_operands = 0
    for ring in draws:
        for _ in range(800):
            a, b = draw(ring), draw(ring)
            zero_operands += a.is_zero or b.is_zero
            order = min(a.order, b.order)
            terms: dict = {}
            for exponent, value in (*a.terms(), *b.terms()):
                if exponent <= order:
                    terms[exponent] = terms.get(exponent, ring.zero) + value
            expected = QSeries.from_terms(ring, terms, order)
            assert fields(a + b) == fields(b + a) == fields(expected), (a, b)
    assert zero_operands > 400


def test_a_ring_mismatch_names_both_rings():
    with pytest.raises(ValueError, match=r"^coefficient ring mismatch: H\(s2\) vs H\(cpn:2\)$"):
        QSeries.one(CohRing(model_from_name("s2")), 3) * QSeries.one(CP2_RING, 3)
    with pytest.raises(ValueError, match="^coefficient ring mismatch: ZZ vs QQ$"):
        QSeries.one(ZZ, 3) + QSeries.one(QQ, 3)


# -- inversion ---------------------------------------------------------


def test_inverse_of_geometric_factor():
    assert QSeries(ZZ, 0, (1, -1), 6).inverse() == QSeries(ZZ, 0, (1,) * 7, 6)


def test_inverse_with_alternating_signs():
    inverse = QSeries(ZZ, 0, (1, 1), 5).inverse()
    assert inverse == QSeries(ZZ, 0, (1, -1, 1, -1, 1, -1), 5)


def test_inverse_flips_the_lowest_exponent():
    series = QSeries(ZZ, -2, (1, 3), 6)
    inverse = series.inverse()
    assert inverse.lowest == 2
    assert inverse.order == 6 - 2 * (-2)
    assert_is_one(series * inverse, (series * inverse).order)
    assert QSeries(ZZ, 3, (-1,), 3).inverse() == QSeries(ZZ, -3, (-1,), -3)


def test_inverse_requires_a_unit_over_the_integers():
    with pytest.raises(NotInvertible):
        QSeries(ZZ, 0, (2, 1), 6).inverse()
    with pytest.raises(NotInvertible):
        QSeries.zero(ZZ, 6).inverse()


def test_any_nonzero_lead_inverts_over_the_rationals():
    series = QSeries(QQ, 0, (2, 1), 6)
    assert_is_one(series * series.inverse(), 6)


def test_inverse_round_trip_randomized():
    rng = random.Random(23)
    for case in range(120):
        series = (
            random_zz_series(rng, 32) if case % 2 else random_coh_series(rng, 32)
        )
        product = series * series.inverse()
        assert_is_one(product, 32)


def test_inverse_agrees_with_long_division_oracle():
    rng = random.Random(31)
    cp4 = CohRing(model_from_name("cpn:4"))
    for case in range(120):
        series = (
            random_zz_series(rng, 24) if case % 3 == 1
            else random_coh_series(rng, 24) if case % 3 == 2
            else random_coh_series(rng, 24, cp4)
        )
        engine = series.inverse()
        oracle = naive_inverse(series, engine.order)
        assert engine == oracle


def test_partition_generating_function():
    # the engine inverse of prod (1 - q^n) reproduces the counting DP
    order = 20
    product = QSeries.one(ZZ, order)
    for n in range(1, order + 1):
        product = product * QSeries.from_terms(ZZ, {0: 1, n: -1}, order)
    inverse = product.inverse()
    table = partition_numbers(order)
    assert tuple(inverse.coefficient(n) for n in range(order + 1)) == table.values


def test_squared_partition_series_convolution():
    order = 12
    table = partition_numbers(order)
    partition_series = QSeries(ZZ, 0, table.values, order)
    squared = partition_series * partition_series
    for n in range(order + 1):
        assert squared.coefficient(n) == table.convolution(n)


# -- rendering and serialization ----------------------------------------


def test_text_rendering_goldens():
    assert str(QSeries.zero(ZZ, 5)) == "0"
    assert str(QSeries(ZZ, 0, (1, 2, 5), 4)) == "1 + 2q + 5q^2"
    assert str(QSeries(ZZ, 1, (-1, -1), 4)) == "-q - q^2"
    assert str(QSeries(ZZ, -2, (1, 0, 3), 4)) == "q^-2 + 3"
    assert str(QSeries(QQ, 0, (Fraction(3, 2),), 2)) == "3/2"
    # rationals: negative fractions, and +-1 at q^0 and at q^k print as a sign and a power
    assert (
        str(QSeries(QQ, 0, (Fraction(-3, 2), 1, -1, Fraction(1, 3), Fraction(-2, 5), 7), 6))
        == "-3/2 + q - q^2 + 1/3q^3 - 2/5q^4 + 7q^5"
    )
    assert str(QSeries(QQ, -1, (-1, 0, 1), 4)) == "-q^-1 + q"
    assert str(QSeries(QQ, 0, (-1, Fraction(-1, 2)), 4)) == "-1 - 1/2q"
    # classes: the unit prints as 1, a single negative term borrows its sign,
    # and a composite class prints in parentheses
    s2, cp2 = CohRing(model_from_name("s2")), CP2_RING
    window = (
        s2.one, CohClass((0, -1)), CohClass((1, -1)), CohClass((0, Fraction(-1, 2))),
        CohClass((-1, 0)), CohClass((0, 1)), CohClass((Fraction(-3, 2), 0)), CohClass((-1, 2)),
    )
    assert (
        str(QSeries(s2, 0, window, 9))
        == "1 - xq + (1 - x)q^2 - 1/2xq^3 - q^4 + xq^5 - 3/2q^6 + (-1 + 2x)q^7"
    )
    assert str(QSeries(s2, 0, (CohClass((-1, 0)),), 9)) == "-1"
    window = (
        CohClass((0, 0, -1)), CohClass((1, 0, Fraction(1, 2))), CohClass((0, -2, 0)), cp2.one,
    )
    assert str(QSeries(cp2, 1, window, 9)) == "-x^2q + (1 + 1/2x^2)q^2 - 2xq^3 + q^4"


# a fold makes one Fraction per distinct value, so a window shares its coefficient
# objects; the renderer reuses one object's sign and body while it repeats.  Small
# ints are cached by the interpreter, so ZZ's pool also holds large ones.
_SHARED_POOLS = {
    "ZZ": (ZZ, (1, -1, 2, -3, 10**20, -(10**20)), lambda c: int(str(c))),
    "QQ": (
        QQ,
        (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 2), Fraction(7), Fraction(-7, 3)),
        lambda c: Fraction(c.numerator, c.denominator),
    ),
    "H(cpn:2)": (
        CP2_RING,
        tuple(CohClass(c) for c in (
            (1, 0, 0), (-1, 0, 0), (1, -1, 0), (-1, 1, 0), (0, -1, 0),
            (0, 0, Fraction(1, 2)), (0, 0, Fraction(-1, 2)), (2, 0, 1),
        )),
        lambda c: CohClass(c.coeffs),
    ),
}


def _term_by_term(window: list, lowest: int) -> str:
    """The window's text from one render per nonzero term, so no object repeats."""
    texts = [render_terms([(e, c)], "q") for e, c in enumerate(window, lowest) if c]
    signed = [f"- {t[1:]}" if t.startswith("-") else f"+ {t}" for t in texts[1:]]
    return " ".join(texts[:1] + signed) or "0"


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(_SHARED_POOLS)),
    st.integers(-3, 3),
    st.lists(st.integers(-1, 7), max_size=30),
)
def test_shared_coefficients_render_as_fresh_equal_ones(name, lowest, picks):
    ring, pool, rebuild = _SHARED_POOLS[name]
    window = [ring.zero if i < 0 else pool[i % len(pool)] for i in picks]
    fresh = [rebuild(c) for c in window]
    assert fresh == window
    text = render_terms(enumerate(window, lowest), "q")
    assert text == render_terms(enumerate(fresh, lowest), "q")
    assert text == _term_by_term(window, lowest)


def test_a_shared_negative_after_a_shared_positive_golden():
    half, minus_half, one, minus_one = Fraction(1, 2), Fraction(-1, 2), Fraction(1), Fraction(-1)
    window = (half, half, 0, minus_half, minus_half, one, one, minus_one, minus_one, half)
    assert (
        str(QSeries(QQ, 0, window, 9))
        == "1/2 + 1/2q - 1/2q^3 - 1/2q^4 + q^5 + q^6 - q^7 - q^8 + 1/2q^9"
    )
    one_minus_x, minus_x = CohClass((1, -1, 0)), CohClass((0, -1, 0))
    window = (one_minus_x, one_minus_x, minus_x, minus_x, one_minus_x)
    assert (
        str(QSeries(CP2_RING, 0, window, 9))
        == "(1 - x) + (1 - x)q - xq^2 - xq^3 + (1 - x)q^4"
    )


def test_json_round_trip():
    series = QSeries(QQ, -1, (Fraction(1, 2), 3, Fraction(-7, 3)), 5)
    payload = json.loads(json.dumps(series.to_json()))
    assert QSeries.from_json(QQ, payload) == series


def test_json_of_zero_series():
    assert QSeries.zero(QQ, 8).to_json() == {"lowest": 0, "order": 8, "coeffs": []}


# -- records -------------------------------------------------------------

S2 = model_from_name("s2")
POINT = model_from_name("point")
S2_TEXT = "ManifoldModel(name='s2', top_index=1, genus=0)"
POINT_TEXT = "ManifoldModel(name='point', top_index=0, genus=None)"


def _point_problem(order: int) -> ProblemSpec:
    return ProblemSpec(
        model=POINT, tangent=RootBundle(POINT), normal=NormalDecomposition(POINT),
        F=EquivariantBundle(POINT), order=order,
    )


# build, a different value of the same class, a field, and the repr
RECORDS = [
    pytest.param(
        lambda: QSeries(QQ, -1, (1, "1/2"), 3), QSeries(QQ, -1, (1, "1/2"), 4),
        "order",
        "QSeries(ring=QQ, lowest=-1, coeffs=(Fraction(1, 1), Fraction(1, 2)), order=3)",
        id="QSeries",
    ),
    pytest.param(
        lambda: CohClass((1, "-2/3")), CohClass((1, "2/3")),
        "coeffs",
        "CohClass(coeffs=(Fraction(1, 1), Fraction(-2, 3)))",
        id="CohClass",
    ),
    pytest.param(
        lambda: RootBundle(S2, (2, "1/2"), ("-1/3",)), RootBundle(S2, (2, "1/2")),
        "plus_roots",
        f"RootBundle(model={S2_TEXT}, plus_roots=(Fraction(1, 2), Fraction(2, 1)), "
        "minus_roots=(Fraction(-1, 3),))",
        id="RootBundle",
    ),
    pytest.param(
        lambda: NormalDecomposition(S2, ((2, RootBundle(S2, (1,))),)),
        NormalDecomposition(S2, ((3, RootBundle(S2, (1,))),)),
        "components",
        f"NormalDecomposition(model={S2_TEXT}, components=((2, RootBundle(model={S2_TEXT}, "
        "plus_roots=(Fraction(1, 1),), minus_roots=())),))",
        id="NormalDecomposition",
    ),
    pytest.param(
        lambda: EquivariantBundle(S2, ((-1, RootBundle(S2, (0,))),)),
        EquivariantBundle.trivial(S2),
        "terms",
        f"EquivariantBundle(model={S2_TEXT}, terms=((-1, RootBundle(model={S2_TEXT}, "
        "plus_roots=(Fraction(0, 1),), minus_roots=())),))",
        id="EquivariantBundle",
    ),
    pytest.param(
        lambda: ManifoldModel("sigma:2", 1, genus=2), model_from_name("sigma:3"),
        "genus",
        "ManifoldModel(name='sigma:2', top_index=1, genus=2)",
        id="ManifoldModel",
    ),
    pytest.param(
        lambda: CohRing(S2), CohRing(model_from_name("cpn:2")),
        "model",
        f"CohRing(model={S2_TEXT})",
        id="CohRing",
    ),
    pytest.param(
        DifferenceLine, DifferenceLine(-1, 2),
        "weight",
        "DifferenceLine(sign=1, weight=0)",
        id="DifferenceLine",
    ),
    pytest.param(
        lambda: _point_problem(3), _point_problem(4),
        "order",
        f"ProblemSpec(model={POINT_TEXT}, tangent=RootBundle(model={POINT_TEXT}, "
        f"plus_roots=(), minus_roots=()), normal=NormalDecomposition(model={POINT_TEXT}, "
        f"components=()), F=EquivariantBundle(model={POINT_TEXT}, terms=()), "
        "L=DifferenceLine(sign=1, weight=0), order=3)",
        id="ProblemSpec",
    ),
    pytest.param(
        lambda: partition_numbers(3), partition_numbers(4),
        "values",
        "PartitionTable(values=(1, 1, 2, 3))",
        id="PartitionTable",
    ),
]


@pytest.mark.parametrize("build, other, field, text", RECORDS)
def test_records_compare_hash_and_print_by_value(build, other, field, text):
    record = build()
    assert repr(record) == text
    assert record == build() and not record != build()
    assert record != other and not record == other
    assert record.__eq__(0) is NotImplemented
    assert (record == 0) is False
    assert hash(record) == hash(build())
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == text
