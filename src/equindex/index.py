"""The localized index pipeline.

A problem consists of a fixed-point manifold model, its tangent bundle,
weighted normal data (explicit, or the loop-space family), an equivariant
coefficient bundle F graded by rotation weight, and an optional
difference line contributing a sign and an exponent shift.  The index is
the integral over the fixed manifold of

    td(tangent) * ch(F) * ch(L) * (inverse Euler class of the normal data)

collected as an exact q-series with rational coefficients.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

from .charclasses import RootBundle, VirtualBundle, merge_by_weight
from .cohomology import ManifoldModel, ModelMismatch, UnsupportedModel, model_from_name
from .localization import LOOP, NormalDecomposition, fixed_point_integral
from .series import FrozenRecord, QSeries


class DifferenceLine(FrozenRecord):
    """A one-dimensional twist: contributes sign * q^weight."""

    _fields = ("sign", "weight")

    def __init__(self, sign: int = 1, weight: int = 0):
        if isinstance(sign, bool) or sign not in (1, -1):
            raise ValueError(f"difference line sign must be +1 or -1, got {sign!r}")
        if not isinstance(weight, int) or isinstance(weight, bool):
            raise ValueError(f"difference line weight must be an integer, got {weight!r}")
        self._set_fields(sign, weight)


class EquivariantBundle(FrozenRecord):
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
        for weight, _ in terms:
            if not isinstance(weight, int) or isinstance(weight, bool):
                raise ValueError(f"F-weight must be an integer, got {weight!r}")
        self._set_fields(model, merge_by_weight(model, terms, "coefficient bundle"))

    @classmethod
    def trivial(cls, model: ManifoldModel) -> "EquivariantBundle":
        """A single trivial line at weight zero."""
        return cls(model, ((0, RootBundle(model, (0,))),))


class ProblemSpec(FrozenRecord):
    """Everything the localized index needs, validated for model agreement."""

    _fields = ("model", "tangent", "normal", "F", "L", "order")

    def __init__(
        self,
        model: ManifoldModel,
        tangent: RootBundle,
        normal: Union[NormalDecomposition, str],
        F: EquivariantBundle,
        L: DifferenceLine = DifferenceLine(),
        order: int = 10,
    ):
        if tangent.model != model:
            raise ModelMismatch("tangent bundle lives on a different model")
        if not tangent.is_genuine:
            raise VirtualBundle("the tangent bundle must be genuine (no minus roots)")
        if isinstance(normal, str):
            if normal != LOOP:
                raise ValueError(f"unknown normal marker {normal!r}")
        elif isinstance(normal, NormalDecomposition):
            if normal.model != model:
                raise ModelMismatch("normal data lives on a different model")
        else:
            raise ValueError("normal must be a NormalDecomposition or the loop marker")
        if F.model != model:
            raise ModelMismatch("coefficient bundle lives on a different model")
        if not isinstance(order, int) or isinstance(order, bool) or order < 0:
            raise ValueError(f"truncation order must be a nonnegative integer, got {order!r}")
        self._set_fields(model, tangent, normal, F, L, order)


def localized_index(spec: ProblemSpec) -> QSeries:
    """Evaluate the fixed-point integral as a q-series over the rationals.

    The result is known exactly through q^order: the quotient by the
    Euler class is taken through q^(order - L.weight), from the lowest
    F-weight up, before the difference line's sign and shift.
    """
    total = fixed_point_integral(spec.tangent, spec.normal, spec.F.terms,
                                 spec.order - spec.L.weight, spec.L.sign)
    return total.shift(spec.L.weight)


def loop_space_index(surface: ManifoldModel, E: EquivariantBundle, order: int) -> QSeries:
    """Index of the loop space of a closed orientable surface (s2 or sigma:<g>)."""
    return localized_index(_loop_spec(surface, E, order))


def _loop_spec(surface: ManifoldModel, F: EquivariantBundle, order: int) -> ProblemSpec:
    """The loop-space problem; the tangent root is the Euler number 2 - 2g."""
    if surface.genus is None:
        raise UnsupportedModel(
            f"loop-space index needs a surface model (s2 or sigma:<g>), got {surface}"
        )
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
    spec = ProblemSpec(
        model=model, tangent=tangent, normal=NormalDecomposition(model), F=F,
        order=max(highest, 0),
    )
    return localized_index(spec).truncate(highest)


# -- presets ----------------------------------------------------------


def cplane_spec(weight: int, coefficients: Sequence[int], order: int) -> ProblemSpec:
    """The weighted complex plane: a point with one normal direction.

    ``coefficients`` lists the F-multiplicities c_0, c_1, ... at
    rotation weights 0, 1, ...; negative entries mean virtual lines.
    The sign of ``weight`` selects the difference line: trivial for
    weight > 0, and -q^|weight| for weight < 0.
    """
    if weight == 0:
        raise ValueError("the plane rotation weight must be nonzero")
    point = model_from_name("point")
    terms = []
    for n, c_n in enumerate(coefficients):
        if not isinstance(c_n, int) or isinstance(c_n, bool):
            raise ValueError(f"F-multiplicities must be integers, got {c_n!r}")
        if c_n == 0:
            continue
        if c_n > 0:
            terms.append((n, RootBundle(point, (0,) * c_n)))
        else:
            terms.append((n, RootBundle(point, (), (0,) * (-c_n))))
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
            weight = int(name[len("cplane:"):])
        except ValueError:
            raise ValueError(f"preset parameter must be an integer: {name!r}") from None
        return cplane_spec(weight, (1,), order)
    if name == "ls2":
        surface = model_from_name("s2")
    elif name.startswith("lsigma:"):
        try:
            surface = model_from_name("sigma:" + name[len("lsigma:"):])
        except UnsupportedModel:
            raise ValueError(f"genus must be a nonnegative integer: {name!r}") from None
    else:
        raise ValueError(f"unknown preset {name!r}")
    return _loop_spec(surface, EquivariantBundle.trivial(surface), order)
