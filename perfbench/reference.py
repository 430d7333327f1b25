"""An independent reference for the localized index, and the output checks.

The reference reads only a problem document.  It never forms an Euler
class and never inverts a series: each normal factor 1/(1 - q^w e^(r x))
is expanded directly as sum_j q^(jw) e^(j r x) and multiplied into a dense
array of cohomology classes, each class a list of Fractions in the basis
1, x, ..., x^m of Q[x]/(x^(m+1)).  The Todd class comes from Bernoulli
numbers, not from a series inverse.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, factorial

Coefficients = dict[int, Fraction]


def top_index(manifold: str) -> int:
    """m with H^even = Q[x]/(x^(m+1)); every supported model integrates x^m to 1."""
    if manifold == "point":
        return 0
    if manifold == "s2" or manifold.startswith("sigma:"):
        return 1
    if manifold.startswith("cpn:"):
        return int(manifold[len("cpn:"):])
    raise ValueError(f"the reference has no model for {manifold!r}")


def _exp(root: Fraction, m: int) -> list[Fraction]:
    return [root**i / factorial(i) for i in range(m + 1)]


def _mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * len(a)
    for i, ai in enumerate(a):
        if ai:
            for j in range(len(a) - i):
                if b[j]:
                    out[i + j] += ai * b[j]
    return out


def _todd_series(m: int) -> list[Fraction]:
    """Coefficients of t / (1 - e^(-t)) = sum (-1)^n B_n t^n / n!."""
    bernoulli = [Fraction(1)]
    for n in range(1, m + 1):
        bernoulli.append(-sum(comb(n + 1, k) * bernoulli[k] for k in range(n)) / (n + 1))
    return [(-1) ** n * b / factorial(n) for n, b in enumerate(bernoulli)]


def _todd(roots: list[Fraction], m: int) -> list[Fraction]:
    universal = _todd_series(m)
    total = [Fraction(1)] + [Fraction(0)] * m
    for r in roots:
        total = _mul(total, [c * r**n for n, c in enumerate(universal)])
    return total


def _roots(bundle: dict, key: str) -> list[Fraction]:
    return [Fraction(r) for r in bundle.get(key, [])]


def seed_order(doc: dict) -> int:
    """The result order the engine gave when this benchmark was written.

    The inverse Euler class was carried only to the requested order, so a
    negative F-weight or a positive L-weight cut the determined window
    short.  Results may end higher (up to the requested order), never lower.
    """
    order = doc["order"]
    lowest = min(term["weight"] for term in doc["F"]) + doc.get("L", {}).get("weight", 0)
    return min(order, order + lowest)


def reference_index(doc: dict) -> Coefficients:
    """Every coefficient of the index from its lowest exponent up to the requested order."""
    m = top_index(doc["manifold"])
    order = doc["order"]
    line = doc.get("L", {"sign": 1, "weight": 0})
    min_f = min(term["weight"] for term in doc["F"])
    depth = order - line["weight"] - min_f  # how far 1/eul must be known
    zero = [Fraction(0)] * (m + 1)
    if doc["normal"] == "loop":
        tangent = _roots(doc["tangent"], "plus")
        factors = [(w, s * r) for w in range(1, depth + 1) for r in tangent for s in (1, -1)]
    else:
        factors = [(c["weight"], r) for c in doc["normal"] for r in _roots(c, "plus")]

    inverse = [[Fraction(1)] + [Fraction(0)] * m] + [zero] * max(depth, 0)
    for weight, root in factors:
        powers = [_exp(j * root, m) for j in range(depth // weight + 1)]
        expanded = []
        for n in range(depth + 1):
            acc = zero
            for j in range(n // weight + 1):
                if any(inverse[n - j * weight]):
                    acc = [a + b for a, b in zip(acc, _mul(inverse[n - j * weight], powers[j]))]
            expanded.append(acc)
        inverse = expanded

    todd = _todd(_roots(doc["tangent"], "plus"), m)
    characters = [(term["weight"], _character(term, m)) for term in doc["F"]]
    result: Coefficients = {}
    for n in range(min_f, depth + min_f + 1):
        total = zero
        for weight, ch in characters:
            if 0 <= n - weight <= depth:
                total = [a + b for a, b in zip(total, _mul(ch, inverse[n - weight]))]
        result[n + line["weight"]] = line["sign"] * _mul(total, todd)[m]
    return result


def _character(bundle: dict, m: int) -> list[Fraction]:
    """ch = sum of e^(rx) over plus roots minus the same over minus roots."""
    total = [Fraction(0)] * (m + 1)
    for key, sign in (("plus", 1), ("minus", -1)):
        for r in _roots(bundle, key):
            total = [a + sign * b for a, b in zip(total, _exp(r, m))]
    return total


def expected_text(coefficients: Coefficients) -> str:
    """The README's text format: ``1 + 2q + 5q^2``, explicit signs, unit coefficients elided."""
    parts = []
    for exponent in sorted(coefficients):
        value = coefficients[exponent]
        if value == 0:
            continue
        power = "" if exponent == 0 else "q" if exponent == 1 else f"q^{exponent}"
        body = power if power and abs(value) == 1 else f"{abs(value)}{power}"
        sign = "-" if value < 0 else "+"
        parts.append(("-" if value < 0 else "") + body if not parts else f"{sign} {body}")
    return " ".join(parts) if parts else "0"


def check_json(output: str, reference: Coefficients, doc: dict) -> str | None:
    """None when the JSON result matches the reference on every determined coefficient."""
    try:
        payload = json.loads(output)
        lowest, order, coeffs = payload["lowest"], payload["order"], payload["coeffs"]
        values = {lowest + i: Fraction(c) for i, c in enumerate(coeffs)}
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed JSON result ({exc})"
    if set(payload) != {"lowest", "order", "coeffs"}:
        return f"unexpected JSON fields {sorted(payload)}"
    if order < seed_order(doc):
        return f"order {order} is below {seed_order(doc)}"
    if values and max(values) > order:
        return f"coefficients stated beyond order {order}"
    top = min(order, doc["order"])
    for exponent in range(min([*values, *reference, 0]), top + 1):
        if values.get(exponent, 0) != reference.get(exponent, 0):
            return f"coefficient of q^{exponent}: {values.get(exponent, 0)} != {reference.get(exponent, 0)}"
    return None


def preset_oracle(eq, preset: str, order: int) -> Coefficients:
    """The engine package's own oracles for the surface-loop and plane presets."""
    if preset.startswith("cplane:"):
        series = eq.direct_cplane_index(int(preset.split(":", 1)[1]), (1,), order)
        return {e: Fraction(c) for e, c in series.terms()}
    scale = 1 - int(preset.split(":", 1)[1]) if preset.startswith("lsigma:") else 1
    table = eq.partition_numbers(order)
    return {n: Fraction(scale * table.convolution(n)) for n in range(order + 1)}


class Verifier:
    """Checks outputs of the problems against every reference each problem has."""

    def __init__(self, eq, problems):
        self._eq = eq
        self._problems = problems
        self._expected: dict[int, list] = {}

    def _references(self, index: int) -> list:
        if index not in self._expected:
            problem = self._problems[index]
            refs = [reference_index(problem.doc)]
            if problem.preset:
                refs.append(preset_oracle(self._eq, problem.preset, problem.order))
            self._expected[index] = refs
        return self._expected[index]

    def check(self, index: int, output) -> str | None:
        """None for a correct output; otherwise why it is wrong."""
        if not isinstance(output, str):
            return output[1]  # ("error", message) recorded in place of an output
        problem = self._problems[index]
        for ref in self._references(index):
            if problem.fmt == "json":
                verdict = check_json(output, ref, problem.doc)
                if verdict:
                    return verdict
            elif output != expected_text(ref):
                return f"text result differs from {expected_text(ref)[:60]!r}..."
        return None
