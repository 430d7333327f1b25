"""Exact S^1-equivariant localized indices as truncated q-series.

The package evaluates fixed-point index formulas with exact rational
arithmetic: truncated formal q-series over pluggable coefficient rings,
monogenic even cohomology of the fixed manifold, characteristic classes
from Chern roots, Euler classes of weighted normal data (including the
loop-space family), and the integrated index pipeline with a JSON/CLI
front end.
"""

from .series import (
    CoefficientRing,
    IntegerRing,
    NotInvertible,
    QQ,
    QSeries,
    RationalRing,
    ZZ,
    render_series,
)
from .cohomology import (
    CohClass,
    CohRing,
    ManifoldModel,
    ModelMismatch,
    UnsupportedModel,
    coh_integrate,
    model_from_name,
    scalar_class,
    unit_class,
)
from .charclasses import (
    RootBundle,
    VirtualBundle,
    chern_character,
    exponential_class,
    lambda_minus_t_factor,
    todd_class,
)
from .localization import (
    NormalDecomposition,
    WeightError,
    euler_class,
    inverse_euler_class,
    loop_normal_decomposition,
)
from .index import (
    LOOP,
    DifferenceLine,
    EquivariantBundle,
    ProblemSpec,
    compact_trivial_index,
    cplane_spec,
    localized_index,
    loop_space_index,
    preset_spec,
)
from .cli import SchemaError, parse_problem

__version__ = "0.1.0"

__all__ = [
    # series
    "CoefficientRing", "IntegerRing", "RationalRing", "ZZ", "QQ",
    "QSeries", "NotInvertible", "render_series",
    # cohomology
    "ManifoldModel", "model_from_name", "CohClass", "CohRing",
    "coh_integrate", "scalar_class", "unit_class",
    "ModelMismatch", "UnsupportedModel",
    # characteristic classes
    "RootBundle", "VirtualBundle", "chern_character", "todd_class",
    "lambda_minus_t_factor", "exponential_class",
    # localization
    "NormalDecomposition", "WeightError", "loop_normal_decomposition",
    "euler_class", "inverse_euler_class",
    # index
    "ProblemSpec", "EquivariantBundle", "DifferenceLine", "LOOP",
    "localized_index", "loop_space_index", "compact_trivial_index",
    "cplane_spec", "preset_spec",
    # oracles
    "PartitionTable", "partition_numbers", "naive_inverse",
    "direct_cplane_index",
    # cli
    "SchemaError", "parse_problem",
    "__version__",
]


def __getattr__(name: str):
    """Load the oracles on first use (PEP 562): no solve needs them, so no start compiles them."""
    if name in ("PartitionTable", "partition_numbers", "naive_inverse", "direct_cplane_index"):
        from . import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
