"""The problem records and the constructions built on the localized index.

A problem consists of a fixed-point manifold model, its tangent bundle,
weighted normal data (explicit, or the loop-space family), an equivariant
coefficient bundle F graded by rotation weight, and an optional
difference line contributing a sign and an exponent shift.  The index is
the integral over the fixed manifold of

    td(tangent) * ch(F) * ch(L) * (inverse Euler class of the normal data)

collected as an exact q-series with rational coefficients by
``localization.localized_index``, re-exported here beside the records, the
loop-space and compact constructions, and the presets.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

from .charclasses import (ManifoldModel, ModelMismatch, RootBundle, UnsupportedModel,
                          merge_by_weight, model_from_name)
from .localization import LOOP, NormalDecomposition, check_order, localized_index
from .series import DigitLimit, QSeries, Record, SchemaError, parse_int, shorten


class DifferenceLine(Record):
    """A one-dimensional twist: contributes sign * q^weight."""

    _fields = ("sign", "weight")

    def __init__(self, sign: int = 1, weight: int = 0):
        if type(sign) is not int or sign not in (1, -1):
            raise SchemaError("L.sign", f"must be 1 or -1, got {shorten(repr(sign))}")
        if type(weight) is not int:
            raise SchemaError("L.weight", f"expected an integer, got {shorten(repr(weight))}")
        self._set_fields(sign, weight)


class EquivariantBundle(Record):
    """The coefficient bundle F = sum over weights a of F_a q^a.

    Terms are ((weight, bundle), ...), merged by weight and sorted;
    weights may be any integers and the bundles may be virtual.
    """

    _fields = ("model", "terms")
    model: ManifoldModel
    terms: tuple[tuple[int, RootBundle], ...]

    def __init__(
        self, model: ManifoldModel, terms: Iterable[tuple[int, RootBundle]] = ()
    ):
        terms = tuple(terms)
        for i, (weight, _) in enumerate(terms):
            if type(weight) is not int:
                raise SchemaError(f"F[{i}].weight",
                                  f"expected an integer, got {shorten(repr(weight))}")
        self._set_fields(model, merge_by_weight(model, terms, "coefficient bundle"))

    @classmethod
    def trivial(cls, model: ManifoldModel) -> "EquivariantBundle":
        """A single trivial line at weight zero."""
        return cls(model, ((0, RootBundle(model, (0,))),))


DEFAULT_ORDER = 10  # the truncation order of a problem that names none


class ProblemSpec(Record):
    """Everything the localized index needs, validated for model agreement and tangent rank."""

    _fields = ("model", "tangent", "normal", "F", "L", "order")

    def __init__(
        self,
        model: ManifoldModel,
        tangent: RootBundle,
        normal: Union[NormalDecomposition, str],
        F: EquivariantBundle,
        L: DifferenceLine = DifferenceLine(),
        order: int = DEFAULT_ORDER,
    ):
        if tangent.model != model:
            raise ModelMismatch("tangent bundle lives on a different model")
        if tangent.rank != model.top_index:
            raise SchemaError("tangent", f"must have rank {model.top_index}, the manifold's "
                                         f"dimension, got {tangent.rank}")
        if isinstance(normal, NormalDecomposition):
            if normal.model != model:
                raise ModelMismatch("normal data lives on a different model")
        elif normal != LOOP:
            raise SchemaError("normal", f'must be "{LOOP}" or an array of weighted bundles '
                                        f"(a NormalDecomposition), got {shorten(repr(normal))}")
        if F.model != model:
            raise ModelMismatch("coefficient bundle lives on a different model")
        check_order(order)
        self._set_fields(model, tangent, normal, F, L, order)


def loop_space_index(surface: ManifoldModel, E: EquivariantBundle, order: int) -> QSeries:
    """Index of the loop space of a closed orientable surface (s2 or sigma:<g>)."""
    return localized_index(_loop_spec(surface, E, order))


def _loop_spec(surface: ManifoldModel, F: EquivariantBundle, order: int) -> ProblemSpec:
    """The loop-space problem; the tangent root is the Euler number 2 - 2g."""
    if surface.genus is None:
        raise UnsupportedModel(
            "manifold", f"loop-space index needs a surface model (s2 or sigma:<g>), got {surface}")
    tangent = RootBundle(surface, (2 - 2 * surface.genus,))
    return ProblemSpec(model=surface, tangent=tangent, normal=LOOP, F=F, order=order)


def compact_trivial_index(
    model: ManifoldModel, tangent: RootBundle, F: EquivariantBundle
) -> QSeries:
    """Index with trivial rotation action: no normal data, no twist.

    Each weight contributes its ordinary index, so the result is the
    exact Laurent polynomial  sum_a (integral of ch(F_a) td(tangent)) q^a,
    known through the largest weight.
    """
    highest = max((weight for weight, _ in F.terms), default=0)
    # a problem's order is nonnegative: with only negative weights, cut back after
    spec = ProblemSpec(model=model, tangent=tangent, normal=NormalDecomposition(model), F=F,
                       order=max(highest, 0))
    return localized_index(spec).truncate(highest)


# -- presets ----------------------------------------------------------


def cplane_spec(weight: int, coefficients: Sequence[int], order: int) -> ProblemSpec:
    """The weighted complex plane: a point with one normal direction.

    ``coefficients`` lists the F-multiplicities c_0, c_1, ... at
    rotation weights 0, 1, ...; negative entries mean virtual lines.
    The sign of ``weight`` selects the difference line: trivial for
    weight > 0, and -q^|weight| for weight < 0.
    """
    if type(weight) is not int or weight == 0:
        raise ValueError(f"the plane rotation weight must be a nonzero integer, got {weight!r}")
    point = model_from_name("point")
    terms = []
    for n, c_n in enumerate(coefficients):
        if not isinstance(c_n, int) or isinstance(c_n, bool):
            raise ValueError(f"F-multiplicities must be integers, got {c_n!r}")
        if c_n:
            terms.append((n, RootBundle(point, (0,) * max(c_n, 0), (0,) * max(-c_n, 0))))
    normal = NormalDecomposition(point, ((abs(weight), RootBundle(point, (0,))),))
    line = DifferenceLine() if weight > 0 else DifferenceLine(-1, abs(weight))
    return ProblemSpec(
        model=point,
        tangent=RootBundle(point),
        normal=normal,
        F=EquivariantBundle(point, terms),
        L=line,
        order=order,
    )


def preset_spec(name: str, order: int) -> ProblemSpec:
    """Resolve a CLI preset name into a full problem.

    ``cplane:<k>``: the complex plane rotated with weight k != 0, trivial F.
    ``ls2``: the loop space of the sphere, trivial F.
    ``lsigma:<g>``: the loop space of the genus-g surface, trivial F.
    """
    if name.startswith("cplane:"):
        try:
            weight = parse_int(name[len("cplane:"):])
        except DigitLimit as exc:
            raise ValueError(f"preset parameter {exc}") from None
        except ValueError:
            raise ValueError(
                f"preset parameter must be an integer: {shorten(repr(name))}") from None
        return cplane_spec(weight, (1,), order)
    if name == "ls2":
        surface = model_from_name("s2")
    elif name.startswith("lsigma:"):
        try:
            surface = model_from_name("sigma:" + name[len("lsigma:"):])
        except UnsupportedModel:
            raise ValueError(
                f"genus must be a nonnegative integer: {shorten(repr(name))}") from None
    else:
        raise ValueError(f"unknown preset {shorten(repr(name))}")
    return _loop_spec(surface, EquivariantBundle.trivial(surface), order)
