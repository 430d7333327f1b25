"""The benchmark's workloads: fixed problem sets built from a seed.

Every problem carries two descriptions.  ``doc`` is a full problem
document in the README schema; the independent reference in
``reference.py`` reads only that.  The engine receives either the preset
name (``preset``) or the JSON text of ``doc`` (when ``preset`` is None),
never anything else the benchmark computed.

Why each workload exists is recorded in README.md next to this file.
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("loop", "plane", "cpn")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LOOP_PRESETS = (("ls2", 30), ("ls2", 60), ("ls2", 100), ("lsigma:3", 60))
PLANE_WEIGHTS = (1, 2, -3, 5, -7)
PLANE_ORDER = 500
CPN_DIMENSIONS = (2, 3, 4)
CPN_ORDER = 30
CPN_NORMAL_WEIGHTS = (1, 2, 3, 4, 5)
# Root denominators follow this pattern by position and only the numerators
# are drawn, so that every seed costs about the same: with denominators drawn
# as well, pass time varied by about 7 % (quartile spread) from seed to seed.
CPN_DENOMINATORS = (2, 3, 5, 4, 6, 1)


@dataclasses.dataclass(frozen=True)
class Problem:
    label: str
    doc: dict
    preset: str | None  # engine input for presets; None means the JSON of doc
    fmt: str  # the CLI's --format: "text" or "json"

    @property
    def order(self) -> int:
        return self.doc["order"]

    @property
    def text(self) -> str:
        return json.dumps(self.doc)

    def cli_args(self, input_path: str | None) -> list[str]:
        source = ["--preset", self.preset] if self.preset else ["--input", input_path]
        return [*source, "--order", str(self.order), "--format", self.fmt]


def build(workload: str, seed: int) -> list[Problem]:
    """The problems of one workload; only ``cpn`` draws from the seed."""
    if workload == "loop":
        return [_surface_loop(name, order) for name, order in LOOP_PRESETS]
    if workload == "plane":
        return [_plane(k, PLANE_ORDER) for k in PLANE_WEIGHTS]
    if workload == "cpn":
        rng = random.Random(seed)
        return [_cpn(rng, n, CPN_ORDER) for n in CPN_DIMENSIONS]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def _surface_loop(preset: str, order: int) -> Problem:
    # README: the loop space of a genus-g surface has tangent root 2 - 2g
    if preset == "ls2":
        manifold, root = "s2", 2
    else:
        genus = int(preset.split(":", 1)[1])
        manifold, root = f"sigma:{genus}", 2 - 2 * genus
    doc = {
        "manifold": manifold,
        "tangent": {"plus": [root]},
        "normal": "loop",
        "F": [{"weight": 0, "plus": [0]}],
        "order": order,
    }
    return Problem(f"{preset}@{order}", doc, preset, "text")


def _plane(weight: int, order: int) -> Problem:
    # README: C rotated with weight k; k < 0 adds the difference line -q^|k|
    doc = {
        "manifold": "point",
        "tangent": {"plus": []},
        "normal": [{"weight": abs(weight), "plus": [0]}],
        "F": [{"weight": 0, "plus": [0]}],
        "L": {"sign": 1 if weight > 0 else -1, "weight": 0 if weight > 0 else -weight},
        "order": order,
    }
    return Problem(f"cplane:{weight}@{order}", doc, f"cplane:{weight}", "text")


def _cpn(rng: random.Random, n: int, order: int) -> Problem:
    denominators = itertools.cycle(CPN_DENOMINATORS)

    def root() -> int | str:
        q = next(denominators)
        p = rng.choice([p for p in range(1, 6) if math.gcd(p, q) == 1])
        value = Fraction(rng.choice((1, -1)) * p, q)
        return value.numerator if value.denominator == 1 else str(value)

    doc = {
        "manifold": f"cpn:{n}",
        "tangent": {"plus": [root() for _ in range(n)]},
        "normal": [{"weight": w, "plus": [root(), root()]} for w in CPN_NORMAL_WEIGHTS],
        "F": [
            {"weight": 0, "plus": [root()]},
            {"weight": -2, "plus": [root(), root()]},
        ],
        "L": {"sign": -1, "weight": 1},
        "order": order,
    }
    return Problem(f"cpn:{n}@{order}", doc, None, "json")


def shrink(problem: Problem, order: int = 4) -> Problem:
    """The same problem at a small order, for warming caches before timing."""
    return dataclasses.replace(problem, doc={**problem.doc, "order": min(order, problem.order)})


def solve(eq, problem: Problem) -> str:
    """One problem through the engine's public entry points, rendered as the CLI would.

    ``eq`` is the ``equindex`` package; names are looked up on it at call
    time so that a tracer's wrappers take effect.
    """
    if problem.preset:
        spec = eq.preset_spec(problem.preset, problem.order)
    else:
        spec = eq.parse_problem(problem.text)
    series = eq.localized_index(spec)
    if problem.fmt == "json":
        return json.dumps(series.to_json())
    return eq.render_series(series)


def load_engine():
    """Import ``equindex`` from this checkout's ``src``, and from nowhere else."""
    if not (SRC / "equindex" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no engine sources at {SRC / 'equindex'}")
    sys.path.insert(0, str(SRC))
    eq = importlib.import_module("equindex")
    if Path(eq.__file__).resolve().parent != SRC / "equindex":
        raise SystemExit(f"perfbench: imported equindex from {eq.__file__}, not from {SRC}")
    return eq
