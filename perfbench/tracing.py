"""Per-layer spans recorded from outside the engine.

A ``Tracer`` replaces module attributes of the ``equindex`` package with
timing wrappers for the length of one pass and puts the originals back
afterwards.  A function is wrapped in every ``equindex`` module that holds
it, so each caller meets the wrapper wherever it looks the name up.  A
target that is absent, or present but never called, reports zero calls.

Each span knows its duration and the part of it covered by wrapped calls
made inside it; the difference is the span's self time.  The wrapper's own
bookkeeping is charged to nobody, and the trace's total cost shows up as
``trace.overhead_s`` (a traced pass minus an untraced pass).
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
import time

# span name -> the function, or (class, method), that the span wraps
FUNCTIONS = {
    "series.render": "render_series",
    "cohomology.integrate": "coh_integrate",
    "charclasses.chern": "chern_character",
    "charclasses.todd": "todd_class",
    "charclasses.lambda": "lambda_minus_t_factor",
    "localization.euler": "euler_class",
    "localization.inverse_euler": "inverse_euler_class",
    "index.solve": "localized_index",
    "cli.parse": "parse_problem",
}
METHODS = {
    "series.mul": ("QSeries", "__mul__"),
    "series.add": ("QSeries", "__add__"),
    "series.construct": ("QSeries", "__init__"),
    "series.inverse": ("QSeries", "inverse"),
    "series.to_json": ("QSeries", "to_json"),
    "cohomology.mul": ("CohClass", "__mul__"),
    "cohomology.add": ("CohClass", "__add__"),
}


class Span:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Install with ``with Tracer(equindex) as tracer:``; read ``spans`` and the counters after."""

    def __init__(self, package) -> None:
        self.package = package
        self.spans = {name: Span() for name in (*FUNCTIONS, *METHODS)}
        self.mul_pairs = 0
        self.terms_max = 0
        self.coeff_bits_max = 0
        self.denom_lcm = 1
        self._children: list[float] = []  # child time accumulated by each open span
        self._restore: list[tuple[object, str, object]] = []

    # -- counters, taken at the span boundaries -----------------------

    def _count_pairs(self, args) -> None:
        a, b = args[0], args[1]
        if type(b) is not type(a):
            return  # a scalar multiple, no coefficient products
        order = min(a.order + b.lowest, b.order + a.lowest)
        theirs = [e for e, _ in b.terms()]
        self.mul_pairs += sum(bisect.bisect_right(theirs, order - e) for e, _ in a.terms())

    def _count_terms(self, args, result) -> None:
        self.terms_max = max(self.terms_max, len(args[0].coeffs))

    def _count_bits(self, args, result) -> None:
        for c in getattr(result, "coeffs", ()):
            bits = max(c.numerator.bit_length(), c.denominator.bit_length())
            if bits > self.coeff_bits_max:
                self.coeff_bits_max = bits
            if self.denom_lcm % c.denominator:
                self.denom_lcm = self.denom_lcm * c.denominator // math.gcd(self.denom_lcm, c.denominator)

    # -- wrapping -----------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        span = self.spans[name]
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = clock()
            if before:
                before(args)
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                inner = children.pop()
                span.calls += 1
                span.total += end - start
                span.self_time += end - start - inner
            if after:
                after(args, result)
            if children:
                children[-1] += clock() - outer
            return result

        return wrapper

    def _modules(self):
        prefix = self.package.__name__
        return [m for key, m in list(sys.modules.items())
                if m is not None and (key == prefix or key.startswith(prefix + "."))]

    def __enter__(self) -> "Tracer":
        hooks = {
            "series.mul": (self._count_pairs, None),
            "series.construct": (None, self._count_terms),
            "cohomology.mul": (None, self._count_bits),
            "cohomology.add": (None, self._count_bits),
        }
        modules = self._modules()
        for name, attr in FUNCTIONS.items():
            wrappers = {}
            for module in modules:
                original = module.__dict__.get(attr)
                if callable(original):
                    if id(original) not in wrappers:
                        wrappers[id(original)] = self._wrap(name, original, *hooks.get(name, (None, None)))
                    self._replace(module, attr, wrappers[id(original)])
        for name, (class_name, method) in METHODS.items():
            cls = getattr(self.package, class_name, None)
            original = cls.__dict__.get(method) if cls is not None else None
            if callable(original):
                self._replace(cls, method, self._wrap(name, original, *hooks.get(name, (None, None))))
        return self

    def _replace(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the traced pass; times in seconds."""
        s = self.spans
        return {
            "series.mul_s": s["series.mul"].self_time,
            "series.mul_calls": s["series.mul"].calls,
            "series.mul_pairs": self.mul_pairs,
            "series.inverse_s": s["series.inverse"].total,
            "series.inverse_calls": s["series.inverse"].calls,
            "series.add_s": s["series.add"].self_time,
            "series.add_calls": s["series.add"].calls,
            "series.construct_s": s["series.construct"].self_time,
            "series.terms_max": self.terms_max,
            "series.render_s": s["series.render"].self_time + s["series.to_json"].self_time,
            "cli.parse_s": s["cli.parse"].total,
            "cohomology.mul_s": s["cohomology.mul"].self_time,
            "cohomology.mul_calls": s["cohomology.mul"].calls,
            "cohomology.add_s": s["cohomology.add"].self_time,
            "cohomology.add_calls": s["cohomology.add"].calls,
            "cohomology.integrate_s": s["cohomology.integrate"].self_time,
            "cohomology.coeff_bits_max": self.coeff_bits_max,
            "cohomology.denom_lcm_bits": self.denom_lcm.bit_length(),
            "charclasses.chern_s": s["charclasses.chern"].total,
            "charclasses.todd_s": s["charclasses.todd"].total,
            "charclasses.lambda_s": s["charclasses.lambda"].total,
            "charclasses.lambda_calls": s["charclasses.lambda"].calls,
            "localization.euler_s": s["localization.euler"].total,
            "localization.inverse_euler_s": s["localization.inverse_euler"].total,
            "index.solve_s": s["index.solve"].total,
            "index.self_s": s["index.solve"].self_time,
        }
