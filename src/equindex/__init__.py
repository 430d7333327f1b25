"""Exact S^1-equivariant localized indices as truncated q-series.

The package evaluates fixed-point index formulas with exact rational
arithmetic: truncated formal q-series over pluggable coefficient rings,
monogenic even cohomology of the fixed manifold, characteristic classes
from Chern roots, inverse Euler classes of weighted normal data, and the
integrated index pipeline.  The JSON/CLI front end (``cli``), the
cross-check routes (``oracles``) and the algebra that no solve runs
(``algebra``: q-series arithmetic, cohomology classes, ``todd_class`` and
``inverse_euler_class``) are loaded on first use.
"""

from .series import (
    CoefficientRing,
    IntegerRing,
    NotInvertible,
    QQ,
    QSeries,
    RationalRing,
    SchemaError,
    ZZ,
    render_series,
)
from .charclasses import (ManifoldModel, ModelMismatch, RootBundle, UnsupportedModel,
                          VirtualBundle, model_from_name)
from .localization import NormalDecomposition, WeightError
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

__version__ = "0.1.0"

__all__ = [
    # series
    "CoefficientRing", "IntegerRing", "RationalRing", "ZZ", "QQ",
    "QSeries", "NotInvertible", "render_series",
    # manifold models and cohomology classes
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
    # the schema error (loaded with the package) and the JSON front end
    "SchemaError", "parse_problem",
    "__version__",
]


# names loaded on first use (PEP 562), by submodule: no solve needs the algebra or the
# oracles, and `import equindex` alone does not need the command line
_SUBMODULES = {
    **dict.fromkeys(("cli", "parse_problem"), "cli"),
    **dict.fromkeys((
        "CohClass", "CohRing", "coh_integrate", "scalar_class", "unit_class", "todd_class",
        "inverse_euler_class",
    ), "algebra"),
    **dict.fromkeys((
        "PartitionTable", "partition_numbers", "naive_inverse", "direct_cplane_index",
        "exponential_class", "chern_character", "lambda_minus_t_factor",
        "loop_normal_decomposition", "euler_class",
    ), "oracles"),
}


def __getattr__(name: str):
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # `from . import ...` here would look the name up on this package again, without end
    from importlib import import_module

    module = import_module("." + _SUBMODULES[name], __name__)
    return module if name == _SUBMODULES[name] else getattr(module, name)
