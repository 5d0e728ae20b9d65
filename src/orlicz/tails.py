"""Tail laws for functions on truncated countable spaces.

A tail law describes a function's values on atoms beyond the truncation
depth. Quantities over the tail are either resolved in closed form, summed
with a certified geometric remainder bound, or refused via UnresolvedTail.
Nothing is silently truncated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .extreal import INF, xmul

__all__ = [
    "UnresolvedTail",
    "TailLaw",
    "ZeroTail",
    "ConstantTail",
    "GeometricTail",
    "IndexPowerTail",
    "SparseGeometricTail",
    "PointwiseTail",
    "PatchedTail",
    "tail_scale",
    "tail_sum",
    "tail_product",
    "tail_power",
    "tail_nonnegative",
]


class UnresolvedTail(Exception):
    """A tail quantity could not be resolved in closed form.

    ``lower`` and ``upper`` are certified bounds on the true value (``upper``
    may be +inf when no upper bound is known).
    """

    def __init__(self, reason: str, lower: float = 0.0, upper: float = INF):
        super().__init__(reason)
        self.reason = reason
        self.lower = lower
        self.upper = upper


class TailLaw:
    """Values of a function on atoms n > depth of a countable space."""

    def value_at(self, n: int) -> float:
        raise NotImplementedError

    def is_zero(self) -> bool:
        return False

    def all_finite(self) -> tuple[bool, Optional[int]]:
        """(True, None) if finite at every tail atom, else (False, witness)."""
        raise NotImplementedError

    def sup(self) -> float:
        """A certified upper bound for |value| over the tail (may be +inf)."""
        raise NotImplementedError

    def major_at(self, n: int) -> float:
        """A nonnegative majorant of |value| carrying the decay certificate."""
        return abs(self.value_at(n))

    def decay_block(self) -> Optional[tuple[int, float]]:
        """(B, q): certified major(n+B) <= q * major(n) with q < 1, or None.

        The certificate attaches to the majorant, not the signed value:
        sums of decaying laws can cancel pointwise, but their absolute
        majorants still decay blockwise.
        """
        return None

    def decay_from(self) -> int:
        """First index from which the decay certificate applies."""
        return 0

    def support_in(self, lo: int, hi: int):
        """Iterate atoms n in (lo, hi] where the value may be nonzero."""
        return range(lo + 1, hi + 1)

    def descriptor(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroTail(TailLaw):
    def value_at(self, n: int) -> float:
        return 0.0

    def is_zero(self) -> bool:
        return True

    def all_finite(self):
        return True, None

    def sup(self) -> float:
        return 0.0

    def support_in(self, lo, hi):
        return ()

    def descriptor(self):
        return {"family": "zero"}


@dataclass(frozen=True)
class ConstantTail(TailLaw):
    value: float

    def value_at(self, n: int) -> float:
        return self.value

    def is_zero(self) -> bool:
        return self.value == 0.0

    def all_finite(self):
        return (True, None) if self.value != INF and self.value != -INF else (False, None)

    def sup(self) -> float:
        return abs(self.value)

    def descriptor(self):
        return {"family": "constant", "value": self.value}


@dataclass(frozen=True)
class GeometricTail(TailLaw):
    """value(n) = coeff * ratio**n with 0 < ratio < 1."""

    coeff: float
    ratio: float

    def __post_init__(self):
        if not (0.0 < self.ratio < 1.0):
            raise ValueError("GeometricTail requires 0 < ratio < 1")

    def value_at(self, n: int) -> float:
        return self.coeff * self.ratio**n

    def is_zero(self) -> bool:
        return self.coeff == 0.0

    def all_finite(self):
        return math.isfinite(self.coeff), None

    def sup(self) -> float:
        return abs(self.coeff) * self.ratio  # |value| decreasing; bound at n = 1

    def decay_block(self):
        return (1, self.ratio)

    def descriptor(self):
        return {"family": "geometric", "coeff": self.coeff, "ratio": self.ratio}


@dataclass(frozen=True)
class IndexPowerTail(TailLaw):
    """value(n) = coeff * n**exponent (monotone index law, e.g. f(n) = n)."""

    coeff: float
    exponent: float

    def value_at(self, n: int) -> float:
        return self.coeff * float(n) ** self.exponent

    def is_zero(self) -> bool:
        return self.coeff == 0.0

    def all_finite(self):
        return math.isfinite(self.coeff), None

    def sup(self) -> float:
        if self.coeff == 0.0:
            return 0.0
        return INF if self.exponent > 0 else abs(self.coeff)

    def descriptor(self):
        return {"family": "index_power", "coeff": self.coeff, "exponent": self.exponent}


@dataclass(frozen=True)
class SparseGeometricTail(TailLaw):
    """Support on n = base**k (k >= start) with value coeff * growth**k."""

    base: int
    coeff: float
    growth: float
    start: int = 1

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("SparseGeometricTail requires base >= 2")

    def value_at(self, n: int) -> float:
        k = round(math.log(n, self.base))
        for kk in (k - 1, k, k + 1):
            if kk >= self.start and self.base**kk == n:
                return self.coeff * self.growth**kk
        return 0.0

    def is_zero(self) -> bool:
        return self.coeff == 0.0

    def all_finite(self):
        return math.isfinite(self.coeff), None

    def sup(self) -> float:
        if self.coeff == 0.0:
            return 0.0
        g = abs(self.growth)
        return INF if g >= 1.0 else abs(self.coeff) * g**self.start

    def support_in(self, lo, hi):
        k = max(self.start, int(math.ceil(math.log(max(lo + 1, 2), self.base) - 1e-12)))
        out = []
        n = self.base**k
        while n <= hi:
            if n > lo:
                out.append(n)
            k += 1
            n = self.base**k
        return out

    def descriptor(self):
        return {
            "family": "sparse_geometric",
            "base": self.base,
            "coeff": self.coeff,
            "growth": self.growth,
            "start": self.start,
        }


@dataclass(frozen=True)
class PointwiseTail(TailLaw):
    """Law known only pointwise, with whatever certificates the constructor
    could derive: a supremum bound, finiteness, and an optional block-decay
    certificate valid from index ``block_from`` onward. The certificate
    covers ``major_fn`` (a nonnegative majorant of |value|) when one is set,
    else |value| itself."""

    fn: Callable[[int], float]
    sup_bound: float = INF
    finite: bool = True
    block: Optional[int] = None
    block_ratio: Optional[float] = None
    block_from: int = 0
    major_fn: Optional[Callable[[int], float]] = None
    name: str = "pointwise"

    def value_at(self, n: int) -> float:
        return self.fn(n)

    def major_at(self, n: int) -> float:
        if self.major_fn is not None:
            return self.major_fn(n)
        return abs(self.fn(n))

    def all_finite(self):
        return (True, None) if self.finite else (False, None)

    def sup(self) -> float:
        return self.sup_bound

    def decay_block(self):
        if self.block is not None and self.block_ratio is not None and self.block_ratio < 1.0:
            return (self.block, self.block_ratio)
        return None

    def decay_from(self) -> int:
        return self.block_from

    def descriptor(self):
        return {"family": self.name, "sup": self.sup_bound}


@dataclass(frozen=True)
class PatchedTail(TailLaw):
    """A base law with finitely many pointwise exceptions."""

    base: TailLaw
    patches: tuple[tuple[int, float], ...]

    def _patch_map(self):
        return dict(self.patches)

    def value_at(self, n: int) -> float:
        pm = self._patch_map()
        if n in pm:
            return pm[n]
        return self.base.value_at(n)

    def major_at(self, n: int) -> float:
        pm = self._patch_map()
        if n in pm:
            return abs(pm[n])
        return self.base.major_at(n)

    def is_zero(self) -> bool:
        return self.base.is_zero() and all(v == 0.0 for _, v in self.patches)

    def all_finite(self):
        for n, v in self.patches:
            if v == INF or v == -INF:
                return False, n
        return self.base.all_finite()

    def sup(self) -> float:
        s = self.base.sup()
        for _, v in self.patches:
            s = max(s, abs(v))
        return s

    def decay_block(self):
        # Patches are finitely many; decay certificates survive beyond them.
        return self.base.decay_block()

    def decay_from(self) -> int:
        last_patch = max((n for n, _ in self.patches), default=0)
        return max(self.base.decay_from(), last_patch + 1)

    def support_in(self, lo, hi):
        base_support = set(self.base.support_in(lo, hi))
        for n, v in self.patches:
            if lo < n <= hi:
                if v != 0.0:
                    base_support.add(n)
                else:
                    base_support.discard(n)
        return sorted(base_support)

    def descriptor(self):
        return {
            "family": "patched",
            "base": self.base.descriptor(),
            "patches": [[n, v] for n, v in self.patches],
        }


def tail_scale(tail: TailLaw, c: float) -> TailLaw:
    """The law of c * f on the tail, with 0 * inf = 0."""
    if c == 0.0 or tail.is_zero():
        return ZeroTail()
    if c == 1.0 or isinstance(tail, ZeroTail):
        return tail
    if isinstance(tail, ConstantTail):
        return ConstantTail(xmul(c, tail.value))
    if isinstance(tail, GeometricTail):
        return GeometricTail(xmul(c, tail.coeff), tail.ratio)
    if isinstance(tail, IndexPowerTail):
        return IndexPowerTail(xmul(c, tail.coeff), tail.exponent)
    if isinstance(tail, SparseGeometricTail):
        return SparseGeometricTail(tail.base, xmul(c, tail.coeff), tail.growth, tail.start)
    if isinstance(tail, PatchedTail):
        return PatchedTail(tail_scale(tail.base, c), tuple((n, xmul(c, v)) for n, v in tail.patches))
    if isinstance(tail, PointwiseTail):
        f = tail.fn
        maj = tail.major_fn
        return PointwiseTail(
            lambda n: xmul(c, f(n)),
            sup_bound=xmul(abs(c), tail.sup_bound),
            finite=tail.finite and math.isfinite(c),
            block=tail.block,
            block_ratio=tail.block_ratio,
            block_from=tail.block_from,
            major_fn=(lambda n: xmul(abs(c), maj(n))) if maj is not None else None,
            name=tail.name,
        )
    raise UnresolvedTail(f"cannot scale tail law {tail!r}")


def tail_sum(a: TailLaw, b: TailLaw) -> TailLaw:
    """The law of the pointwise sum on the tail."""
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if isinstance(a, ConstantTail) and isinstance(b, ConstantTail):
        return ConstantTail(a.value + b.value)
    if isinstance(a, GeometricTail) and isinstance(b, GeometricTail) and a.ratio == b.ratio:
        return GeometricTail(a.coeff + b.coeff, a.ratio)
    if isinstance(b, PatchedTail) and not isinstance(a, PatchedTail):
        a, b = b, a
    if isinstance(a, PatchedTail):
        return PatchedTail(tail_sum(a.base, b), tuple((n, v + b.value_at(n)) for n, v in a.patches))
    da, db = a.decay_block(), b.decay_block()
    block = block_ratio = None
    block_from = 0
    if da and db:
        # The decay certificate lives on the cancellation-free majorant
        # |a| + |b|; over B = Ba*Bb steps both components contract.
        block = da[0] * db[0]
        block_ratio = max(da[1] ** db[0], db[1] ** da[0])
        block_from = max(a.decay_from(), b.decay_from())
    return PointwiseTail(
        lambda n: a.value_at(n) + b.value_at(n),
        sup_bound=a.sup() + b.sup(),
        finite=a.all_finite()[0] and b.all_finite()[0],
        block=block,
        block_ratio=block_ratio,
        block_from=block_from,
        major_fn=lambda n: a.major_at(n) + b.major_at(n),
        name="sum",
    )


def tail_product(a: TailLaw, b: TailLaw) -> TailLaw:
    """The law of the pointwise product on the tail, with 0 * inf = 0."""
    if a.is_zero() or b.is_zero():
        return ZeroTail()
    if isinstance(b, PatchedTail) and not isinstance(a, PatchedTail):
        a, b = b, a
    if isinstance(a, PatchedTail):
        # Patches stay exact, so a finitely supported factor keeps the
        # product finitely supported.
        return PatchedTail(
            tail_product(a.base, b), tuple((n, xmul(v, b.value_at(n))) for n, v in a.patches)
        )
    if isinstance(a, ConstantTail) and math.isfinite(a.value):
        return tail_scale(b, a.value)
    if isinstance(b, ConstantTail) and math.isfinite(b.value):
        return tail_scale(a, b.value)
    if isinstance(a, GeometricTail) and isinstance(b, GeometricTail) and a.ratio * b.ratio > 0.0:
        return GeometricTail(a.coeff * b.coeff, a.ratio * b.ratio)
    sa, sb = a.sup(), b.sup()
    da, db = a.decay_block(), b.decay_block()
    block = block_ratio = None
    block_from = 0
    if da and db:
        # Majorants multiply without cancellation: over B = Ba*Bb steps the
        # a-side contracts Bb times and the b-side Ba times.
        block = da[0] * db[0]
        block_ratio = da[1] ** db[0] * db[1] ** da[0]
        block_from = max(a.decay_from(), b.decay_from())
    return PointwiseTail(
        lambda n: xmul(a.value_at(n), b.value_at(n)),
        sup_bound=sa * sb if (sa != INF and sb != INF) else INF,
        finite=a.all_finite()[0] and b.all_finite()[0],
        block=block,
        block_ratio=block_ratio,
        block_from=block_from,
        major_fn=lambda n: xmul(a.major_at(n), b.major_at(n)),
        name="product",
    )


def tail_power(t: TailLaw, e: float) -> TailLaw:
    """The law of |f|**e on the tail (e > 0); e = 1 is |f|."""
    if e <= 0.0:
        raise ValueError("tail_power requires e > 0")
    if t.is_zero():
        return ZeroTail()
    if isinstance(t, ConstantTail):
        return ConstantTail(abs(t.value) ** e)
    if isinstance(t, GeometricTail) and 0.0 < t.ratio**e < 1.0:
        return GeometricTail(abs(t.coeff) ** e, t.ratio**e)
    if isinstance(t, IndexPowerTail):
        return IndexPowerTail(abs(t.coeff) ** e, t.exponent * e)
    if isinstance(t, SparseGeometricTail):
        return SparseGeometricTail(t.base, abs(t.coeff) ** e, abs(t.growth) ** e, t.start)
    if isinstance(t, PatchedTail):
        return PatchedTail(tail_power(t.base, e), tuple((n, abs(v) ** e) for n, v in t.patches))
    db = t.decay_block()
    # |f|**e keeps the majorant's block decay with ratio q**e (while q**e
    # stays a usable certificate, i.e. does not underflow).
    keep = db is not None and db[1] ** e > 0.0
    return PointwiseTail(
        lambda n: abs(t.value_at(n)) ** e,
        sup_bound=t.sup() ** e,
        finite=t.all_finite()[0],
        block=db[0] if keep else None,
        block_ratio=db[1] ** e if keep else None,
        block_from=t.decay_from(),
        major_fn=lambda n: t.major_at(n) ** e,
        name="power",
    )


def tail_nonnegative(t: TailLaw) -> bool:
    """True when every value of the law is certified >= 0; False when a
    value may be negative or the law carries no sign certificate."""
    if t.is_zero():
        return True
    if isinstance(t, ConstantTail):
        return t.value >= 0.0
    if isinstance(t, (GeometricTail, IndexPowerTail)):
        return t.coeff >= 0.0
    if isinstance(t, SparseGeometricTail):
        return t.coeff >= 0.0 and t.growth >= 0.0
    if isinstance(t, PatchedTail):
        return tail_nonnegative(t.base) and all(v >= 0.0 for _, v in t.patches)
    return False
