"""Extended nonnegative-real arithmetic with the measure-theoretic 0*inf = 0 convention."""

from __future__ import annotations

import math
from typing import Any, Iterable

INF = math.inf


def xmul(a: float, b: float) -> float:
    """Product with 0*inf = 0, the convention used for integrals against densities."""
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def xsum(terms: Iterable[float]) -> float:
    """Sum of extended nonnegative reals; any +inf term makes the result +inf."""
    total = 0.0
    for t in terms:
        if t == INF:
            return INF
        total += t
    return total


def rel_close(a: float, b: float, tol: float) -> bool:
    """|a - b| <= tol * max(1, |a|, |b|); an infinite side must match exactly."""
    if a == INF or b == INF:
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def encode_json(x: Any) -> Any:
    """Make a report JSON-safe: floats to 17 significant digits with inf/nan
    spelled out, recursing through dicts, lists and tuples."""
    if isinstance(x, float):
        if x == INF:
            return "inf"
        if x == -INF:
            return "-inf"
        if math.isnan(x):
            return "nan"
        return float(format(x, ".17g"))
    if isinstance(x, dict):
        return {k: encode_json(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [encode_json(v) for v in x]
    return x
