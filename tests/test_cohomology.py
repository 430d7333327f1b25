"""Manifold models, cohomology classes, and the cohomology coefficient ring."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from equindex import (
    CohClass,
    CohRing,
    ManifoldModel,
    NotInvertible,
    QQ,
    SchemaError,
    UnsupportedModel,
    ZZ,
    coh_integrate,
    model_from_name,
    scalar_class,
    unit_class,
)
from support import random_coh_class


def test_model_presets():
    point = model_from_name("point")
    assert (point.top_index, point.genus) == (0, None)
    s2 = model_from_name("s2")
    assert (s2.top_index, s2.genus) == (1, 0)
    sigma = model_from_name("sigma:5")
    assert (sigma.top_index, sigma.genus) == (1, 5)
    cp3 = model_from_name("cpn:3")
    assert (cp3.top_index, cp3.genus) == (3, None)
    assert model_from_name("cpn:03") == cp3
    assert model_from_name("cpn:03").name == "cpn:3"
    with pytest.raises(ValueError, match="top cohomology index must be nonnegative"):
        ManifoldModel("bad", -1)


def test_model_names_are_validated():
    # every refusal is a SchemaError at the document's path of the name
    for bad in ("torus", "sigma:-1", "sigma:x", "cpn:0", "CPN:2", "s²", 5, None, ["s2"]):
        with pytest.raises(UnsupportedModel) as refused:
            model_from_name(bad)
        assert isinstance(refused.value, SchemaError) and refused.value.path == "manifold"
    with pytest.raises(UnsupportedModel, match="^manifold: expected a manifold name string$"):
        model_from_name(5)
    # only a sign and ASCII digits: not "1_0", padding or other scripts' digits
    for bad in ("cpn:1_0", "cpn: 3", "cpn:3 ", "cpn:２", "sigma:1_0", "sigma:٣", "cpn:", "cpn:+",
                "cpn:+-3"):
        with pytest.raises(UnsupportedModel,
                           match="^manifold: manifold parameter must be an integer: "):
            model_from_name(bad)
    assert model_from_name("cpn:+3") == model_from_name("cpn:3")


def test_models_with_different_names_differ():
    assert model_from_name("s2") != model_from_name("sigma:0")
    assert model_from_name("s2") == model_from_name("s2")


def test_class_entries_are_exact():
    assert CohClass((1, "1/2")).coeffs == (Fraction(1), Fraction(1, 2))
    with pytest.raises(ValueError):
        CohClass((0.5, 1))
    with pytest.raises(ValueError):
        CohClass(())


def test_class_text_goldens():
    assert str(CohClass((0, 0, 0))) == "0"
    assert str(CohClass((0, -1, 2))) == "-x + 2x^2"
    assert str(CohClass((Fraction(-3, 2), 1))) == "-3/2 + x"


def test_a_class_is_falsy_exactly_when_zero():
    assert not CohClass((0,))
    assert not CohClass((0, 0, 0))
    assert CohClass((0, 0, Fraction(1, 3)))
    assert CohClass((-1, 0))


def test_addition_and_scaling():
    a = CohClass((1, 2))
    b = CohClass((0, -2))
    assert a + b == CohClass((1, 0))
    assert a - b == CohClass((1, 4))
    assert -a == CohClass((-1, -2))
    assert 2 * a == CohClass((2, 4)) == a * 2
    assert Fraction(1, 2) * a == CohClass((Fraction(1, 2), 1))


def test_multiplication_truncates_at_the_top_degree():
    one_plus_x = CohClass((1, 1))
    assert one_plus_x * one_plus_x == CohClass((1, 2))
    assert CohClass((1, 1, 0)) * CohClass((1, 1, 0)) == CohClass((1, 2, 1))
    assert CohClass((0, 1, 0)) * CohClass((0, 0, 1)) == CohClass((0, 0, 0))


def test_length_mismatch_is_rejected():
    with pytest.raises(ValueError):
        CohClass((1, 2)) + CohClass((1, 2, 3))
    with pytest.raises(ValueError):
        CohClass((1, 2)) * CohClass((1, 2, 3))
    with pytest.raises(TypeError):
        CohClass((1,)) + 1


def test_integration_reads_the_top_coefficient():
    s2 = model_from_name("s2")
    assert coh_integrate(CohClass((7, -3)), s2) == -3
    point = model_from_name("point")
    assert coh_integrate(CohClass((Fraction(5, 2),)), point) == Fraction(5, 2)
    cp2 = model_from_name("cpn:2")
    assert coh_integrate(CohClass((4, 2, 9)), cp2) == 9


def test_class_ring_axioms_randomized():
    rng = random.Random(97)
    ring = CohRing(model_from_name("cpn:3"))
    for _ in range(100):
        a, b, c = (random_coh_class(rng, ring) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_coh_ring_constants_and_coercion():
    ring = CohRing(model_from_name("s2"))
    assert ring.zero == CohClass((0, 0))
    assert ring.one == CohClass((1, 0))
    assert ring.coerce(3) == CohClass((3, 0))
    assert ring.coerce("2/3") == CohClass((Fraction(2, 3), 0))
    assert ring.coerce(ring.one) == ring.one
    with pytest.raises(ValueError):
        ring.coerce(CohClass((1, 0, 0)))  # wrong truncation degree


def test_coh_ring_units():
    ring = CohRing(model_from_name("s2"))
    assert ring.invert_unit(CohClass((1, 5)))
    assert ring.invert_unit(CohClass((-1, Fraction(1, 3))))
    with pytest.raises(NotInvertible):
        ring.invert_unit(CohClass((2, 0)))
    with pytest.raises(NotInvertible):
        ring.invert_unit(CohClass((0, 1)))


def test_invert_unit_is_the_only_unit_test():
    with pytest.raises(NotInvertible):
        ZZ.invert_unit(2)
    with pytest.raises(NotInvertible):
        QQ.invert_unit(Fraction(0))
    with pytest.raises(NotInvertible):
        CohRing(model_from_name("cpn:2")).invert_unit(CohClass((2, 1, 0)))


def test_unit_inversion_goldens():
    s2 = CohRing(model_from_name("s2"))
    assert s2.invert_unit(CohClass((1, 1))) == CohClass((1, -1))
    assert s2.invert_unit(CohClass((-1, 2))) == CohClass((-1, -2))
    cp2 = CohRing(model_from_name("cpn:2"))
    assert cp2.invert_unit(CohClass((1, 1, 0))) == CohClass((1, -1, 1))
    with pytest.raises(NotInvertible):
        s2.invert_unit(CohClass((2, 1)))


def test_unit_inversion_round_trip_randomized():
    rng = random.Random(41)
    for n, count in [(n, 100) for n in range(1, 9)] + [(40, 1)]:
        ring = CohRing(model_from_name(f"cpn:{n}"))
        for _ in range(count):
            unit = random_coh_class(rng, ring) + scalar_class(ring.model, 0)
            entries = list(unit.coeffs)
            entries[0] = rng.choice((1, -1))
            unit = CohClass(entries)
            assert unit * ring.invert_unit(unit) == ring.one


def test_unit_class_helper():
    assert unit_class(model_from_name("cpn:2")) == CohClass((1, 0, 0))
