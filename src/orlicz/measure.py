"""Discrete sigma-finite measure spaces, measurable transformations,
Radon-Nikodym derivatives, partitions, and conditional expectation.

Spaces are either finite atom lists or countable spaces given by a weight
law truncated at a prefix depth; everything beyond the prefix is governed by
closed-form laws, so infinite-valued phenomena stay representable.

This module owns the certified tail-sum kernel, ``_tail_modular_bounds``:
the one case analysis that sums phi(scale*|f|) * weight * mu beyond the
prefix. The modular (in norms) and the tail integrals here all go through it.
It also owns the operator itself: ``compose_apply`` evaluates f o phi as one
gather over the map's prefix-image array, and ``pullback_tail`` builds its
tail law. Every f o phi in the package, conditional expectation and the
adjoint's density index included, is read through them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .extreal import INF, xmul, xsum
from .tails import (
    ConstantTail,
    GeometricTail,
    PatchedTail,
    PointwiseTail,
    SparseGeometricTail,
    TailLaw,
    UnresolvedTail,
    ZeroTail,
    tail_nonnegative,
    tail_power,
    tail_product,
    tail_scale,
    tail_sum,
)
from .verdicts import ConsistencyError, Status, Verdict
from .young import _LOG_MAX, PowerAbs, YoungFunction

AtomId = Union[str, int]

__all__ = [
    "ConstantWeights",
    "GeometricWeights",
    "PowerLawWeights",
    "FiniteSpace",
    "CountableSpace",
    "SimpleFunction",
    "CoFinite",
    "Transformation",
    "Partition",
    "FiberPartition",
    "IdentityLaw",
    "CollapseLaw",
    "ShiftLaw",
    "DivCeilLaw",
    "PowerIndexLaw",
    "PairSwapLaw",
    "pullback_tail",
    "compose_apply",
    "weighted_measure",
    "nonsingular_check",
    "radon_nikodym",
    "iterated_rn",
    "inverse_rn",
    "fiber_partition",
    "conditional_expectation",
    "fiber_average",
    "sigma_finite_check",
    "exhaustion",
    "support",
    "SupportInfo",
]


# ---------------------------------------------------------------------------
# Weight laws and spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantWeights:
    """mu({n}) = c for every n; total mass is infinite."""

    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("constant weight must be positive")

    def weight(self, n: int) -> float:
        return self.c

    def log_weight(self, n: int) -> float:
        return math.log(self.c)

    def tail_mass(self, m: int) -> float:
        return INF

    def step_ratio_bound(self, m: int) -> float:
        return 1.0

    def descriptor(self):
        return {"family": "constant", "c": self.c}


@dataclass(frozen=True)
class GeometricWeights:
    """mu({n}) = a * r**n with 0 < r < 1."""

    a: float
    r: float

    def __post_init__(self):
        if not (self.a > 0 and 0 < self.r < 1):
            raise ValueError("geometric weights require a > 0 and 0 < r < 1")

    def weight(self, n: int) -> float:
        return self.a * self.r**n

    def log_weight(self, n: int) -> float:
        return math.log(self.a) + n * math.log(self.r)

    def tail_mass(self, m: int) -> float:
        return self.a * self.r ** (m + 1) / (1.0 - self.r)

    def step_ratio_bound(self, m: int) -> float:
        return self.r

    def descriptor(self):
        return {"family": "geometric", "a": self.a, "r": self.r}


# B_2j / (2j)! for j = 1..12, the Euler-Maclaurin coefficients.
_EM_COEFFS = (
    1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
    -691 / 1307674368000, 1 / 74724249600, -3617 / 10670622842880000,
    43867 / 5109094217170944000, -174611 / 802857662698291200000,
    77683 / 14101100039391805440000, -236364091 / 1693824136731743669452800000,
)
_EM_DIRECT = 9


def _hurwitz_zeta(s: float, a: float) -> float:
    """zeta(s, a) = sum_{k>=0} (a + k)**-s for real s > 1 and a >= 1.

    The first 9 terms are summed directly; the rest is the Euler-Maclaurin
    tail at b = a + 9,
        b**(1-s)/(s-1) + b**-s/2 + sum_j B_2j/(2j)! s(s+1)...(s+2j-2) b**(-s-2j+1).
    Every derivative of x**-s has constant sign, so the remainder after any
    correction term is bounded in magnitude by the next one. The series stops
    at the first term below 2**-53 of the running value, so the truncation
    error is below 2**-53 relative, on top of the rounding of the summed terms.
    """
    terms = [(a + k) ** -s for k in range(_EM_DIRECT)]
    b = a + _EM_DIRECT
    terms.append(b ** (1.0 - s) / (s - 1.0))
    terms.append(0.5 * b**-s)
    total = math.fsum(terms)
    rising, power = s, b ** (-s - 1.0)
    for j, coeff in enumerate(_EM_COEFFS):
        term = coeff * rising * power
        if abs(term) <= 2.0**-53 * total:
            return math.fsum(terms)
        terms.append(term)
        total += term
        rising *= (s + 2 * j + 1) * (s + 2 * j + 2)
        power /= b * b
    # Not reached: with b >= 10, no s > 1 needs more than 8 corrections.
    raise ArithmeticError(f"Euler-Maclaurin series for zeta({s}, {a}) did not converge")


@dataclass(frozen=True)
class PowerLawWeights:
    """mu({n}) = c * n**(-s); summable exactly when s > 1."""

    c: float
    s: float

    def __post_init__(self):
        if not (self.c > 0 and self.s > 0):
            raise ValueError("power-law weights require c > 0 and s > 0")

    def weight(self, n: int) -> float:
        return self.c * float(n) ** (-self.s)

    def log_weight(self, n: int) -> float:
        return math.log(self.c) - self.s * math.log(n)

    def tail_mass(self, m: int) -> float:
        if self.s <= 1.0:
            return INF
        return self.c * _hurwitz_zeta(self.s, m + 1.0)

    def step_ratio_bound(self, m: int) -> float:
        return 1.0

    def descriptor(self):
        return {"family": "power_law", "c": self.c, "s": self.s}


WeightLaw = Union[ConstantWeights, GeometricWeights, PowerLawWeights]


def _read_only(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FiniteSpace:
    """Finite measure space given by an ordered atom list with positive weights."""

    atoms: tuple[str, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.atoms) != len(self.weights) or not self.atoms:
            raise ValueError("atoms and weights must be parallel, nonempty sequences")
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("atom ids must be unique")
        for w in self.weights:
            if not (0.0 < w < INF):
                raise ValueError("atom weights must be strictly positive and finite")
        object.__setattr__(self, "_index", {a: i for i, a in enumerate(self.atoms)})

    @staticmethod
    def from_pairs(pairs: Sequence[tuple[str, float]]) -> "FiniteSpace":
        return FiniteSpace(tuple(a for a, _ in pairs), tuple(float(w) for _, w in pairs))

    @property
    def is_finite(self) -> bool:
        return True

    def prefix_ids(self) -> tuple[str, ...]:
        return self.atoms

    def index_of(self, atom: AtomId) -> int:
        try:
            return self._index[atom]
        except KeyError:
            raise KeyError(f"unknown atom {atom!r}")

    def weight(self, atom: AtomId) -> float:
        return self.weights[self.index_of(atom)]

    def log_weight(self, atom: AtomId) -> float:
        return math.log(self.weight(atom))

    @cached_property
    def weight_vector(self) -> np.ndarray:
        """Read-only float64 weights of the prefix atoms, in atom order."""
        return _read_only(self.weights)

    def total_mass(self) -> float:
        return sum(self.weights)

    def tail_mass(self) -> float:
        return 0.0

    def descriptor(self):
        return {"kind": "finite", "atoms": [[a, w] for a, w in zip(self.atoms, self.weights)]}


@dataclass(frozen=True)
class CountableSpace:
    """Countable space on atoms 1, 2, ... with a closed-form weight law,
    materialized on the prefix 1..depth."""

    law: WeightLaw
    depth: int

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("truncation depth must be >= 1")

    @property
    def is_finite(self) -> bool:
        return False

    def prefix_ids(self) -> tuple[int, ...]:
        return tuple(range(1, self.depth + 1))

    def index_of(self, atom: AtomId) -> int:
        n = int(atom)
        if not (1 <= n <= self.depth):
            raise KeyError(f"atom {atom} outside prefix 1..{self.depth}")
        return n - 1

    def weight(self, atom: AtomId) -> float:
        n = int(atom)
        if n < 1:
            raise KeyError(f"unknown atom {atom}")
        return self.law.weight(n)

    def log_weight(self, atom: AtomId) -> float:
        """log mu({n}), finite even where the weight itself underflows to 0.0."""
        n = int(atom)
        if n < 1:
            raise KeyError(f"unknown atom {atom}")
        return self.law.log_weight(n)

    @cached_property
    def weight_vector(self) -> np.ndarray:
        """Read-only float64 weights of the prefix atoms 1..depth."""
        return _read_only([self.law.weight(n) for n in range(1, self.depth + 1)])

    def total_mass(self) -> float:
        return xsum([self.law.weight(n) for n in range(1, self.depth + 1)] + [self.tail_mass()])

    def tail_mass(self) -> float:
        return self.law.tail_mass(self.depth)

    def descriptor(self):
        return {"kind": "countable", "weight_law": self.law.descriptor(), "depth": self.depth}


Space = Union[FiniteSpace, CountableSpace]


# ---------------------------------------------------------------------------
# Simple functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimpleFunction:
    """Atom-indexed extended-real values on the prefix plus a tail law."""

    space: Space
    values: tuple[float, ...]
    tail: Optional[TailLaw] = None

    def __post_init__(self):
        n = len(self.space.prefix_ids())
        if len(self.values) != n:
            raise ValueError(f"expected {n} prefix values, got {len(self.values)}")
        if any(map(math.isnan, self.values)):
            raise ValueError("function values must not be NaN")
        if self.space.is_finite:
            if self.tail is not None:
                raise ValueError("finite spaces carry no tail law")
        elif self.tail is None:
            object.__setattr__(self, "tail", ZeroTail())

    @staticmethod
    def from_dict(space: Space, values: dict, tail: Optional[TailLaw] = None) -> "SimpleFunction":
        vals = [0.0] * len(space.prefix_ids())
        for atom, v in values.items():
            vals[space.index_of(atom)] = float(v)
        return SimpleFunction(space, tuple(vals), tail)

    @staticmethod
    def constant(space: Space, c: float) -> "SimpleFunction":
        n = len(space.prefix_ids())
        tail = None if space.is_finite else ConstantTail(c)
        return SimpleFunction(space, (float(c),) * n, tail)

    @staticmethod
    def indicator(space: Space, atoms: Iterable[AtomId]) -> "SimpleFunction":
        vals = [0.0] * len(space.prefix_ids())
        for atom in atoms:
            vals[space.index_of(atom)] = 1.0
        return SimpleFunction(space, tuple(vals), None if space.is_finite else ZeroTail())

    @cached_property
    def value_vector(self) -> np.ndarray:
        """Read-only float64 prefix values, in atom order."""
        return _read_only(self.values)

    def value(self, atom: AtomId) -> float:
        if self.space.is_finite:
            return self.values[self.space.index_of(atom)]
        n = int(atom)
        if 1 <= n <= self.space.depth:
            return self.values[n - 1]
        if n > self.space.depth:
            return self.tail.value_at(n)
        raise KeyError(f"unknown atom {atom}")

    def items(self):
        return zip(self.space.prefix_ids(), self.values)

    def is_zero(self) -> bool:
        if self.value_vector.any():
            return False
        return self.space.is_finite or self.tail.is_zero()

    def all_finite(self) -> tuple[bool, Optional[AtomId]]:
        infinite = np.flatnonzero(np.isinf(self.value_vector))
        if infinite.size:
            return False, self.space.prefix_ids()[infinite[0]]
        if not self.space.is_finite:
            ok, w = self.tail.all_finite()
            if not ok:
                return False, w
        return True, None

    def sup_abs(self) -> float:
        s = float(np.max(np.abs(self.value_vector), initial=0.0))
        if not self.space.is_finite:
            s = max(s, self.tail.sup())
        return s

    def scaled(self, c: float) -> "SimpleFunction":
        """c * self, with 0 * inf = 0."""
        if math.isnan(c):
            raise ValueError("scale factor must not be NaN")
        tail = None if self.space.is_finite else tail_scale(self.tail, c)
        return SimpleFunction(self.space, tuple(xmul(c, v) for v in self.values), tail)

    def times(self, other: "SimpleFunction") -> "SimpleFunction":
        """The pointwise product self * other, with 0 * inf = 0."""
        if other.space != self.space:
            raise ValueError("functions live on different spaces")
        vals = tuple(xmul(a, b) for a, b in zip(self.values, other.values))
        tail = None if self.space.is_finite else tail_product(self.tail, other.tail)
        return SimpleFunction(self.space, vals, tail)

    def power(self, e: float) -> "SimpleFunction":
        """|self|**e for e > 0."""
        tail = None if self.space.is_finite else tail_power(self.tail, e)
        return SimpleFunction(self.space, tuple(abs(v) ** e for v in self.values), tail)

    def abs(self) -> "SimpleFunction":
        return self.power(1.0)

    def plus(self, other: "SimpleFunction", alpha: float = 1.0, beta: float = 1.0) -> "SimpleFunction":
        """alpha*self + beta*other."""
        if other.space != self.space:
            raise ValueError("functions live on different spaces")
        vals = tuple(alpha * a + beta * b for a, b in zip(self.values, other.values))
        if self.space.is_finite:
            return SimpleFunction(self.space, vals, None)
        tail = tail_sum(tail_scale(self.tail, alpha), tail_scale(other.tail, beta))
        return SimpleFunction(self.space, vals, tail)

    def minus(self, other: "SimpleFunction") -> "SimpleFunction":
        return self.plus(other, 1.0, -1.0)

    def to_dict(self) -> dict:
        d = {str(a): v for a, v in self.items() if v != 0.0}
        out: dict = {"values": d}
        if not self.space.is_finite:
            out["tail"] = self.tail.descriptor()
        return out


# ---------------------------------------------------------------------------
# Map laws and transformations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoFinite:
    """A fiber of a countable map holding every atom except the finitely
    many prefix atoms ``excluded`` (sorted)."""

    excluded: tuple[int, ...] = ()


ALL_ATOMS = CoFinite()


@dataclass(frozen=True)
class IdentityLaw:
    bijective = True

    def apply(self, n: int) -> int:
        return n

    def preimage(self, y: int):
        return (y,)

    def h_tail(self, space: CountableSpace) -> TailLaw:
        return ConstantTail(1.0)

    def label(self):
        return "identity"


@dataclass(frozen=True)
class CollapseLaw:
    """n -> target for every n."""

    target: int
    bijective = False

    def apply(self, n: int) -> int:
        return self.target

    def preimage(self, y: int):
        return ALL_ATOMS if y == self.target else ()

    def h_tail(self, space: CountableSpace) -> TailLaw:
        # Mass concentrates on the target atom; tail fibers are empty
        # (unless the target itself lies in the tail, handled by the caller).
        return ZeroTail()

    def label(self):
        return f"collapse:{self.target}"


@dataclass(frozen=True)
class ShiftLaw:
    """n -> n + k."""

    k: int
    bijective = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("shift requires k >= 1")

    def apply(self, n: int) -> int:
        return n + self.k

    def preimage(self, y: int):
        return (y - self.k,) if y > self.k else ()

    def prefix_hits(self, m: int) -> tuple[int, ...]:
        return ()

    def transfer_decay(self, block: int, ratio: float, start: int, m: int):
        # The majorant is read k atoms further on.
        return block, ratio, max(start - self.k, 0)

    def h_tail(self, space: CountableSpace) -> TailLaw:
        law = space.law
        if isinstance(law, ConstantWeights):
            return ConstantTail(1.0)
        if isinstance(law, GeometricWeights):
            return ConstantTail(law.r ** (-self.k))
        m = space.depth
        return PointwiseTail(
            lambda n: _density(space, self.preimage(n), n),
            sup_bound=law.weight(max(m + 1 - self.k, 1)) / law.weight(m + 1),
            finite=True,
            name="shift_h",
        )

    def label(self):
        return f"shift:{self.k}"


@dataclass(frozen=True)
class DivCeilLaw:
    """n -> ceil(n / d)."""

    d: int
    bijective = False

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("DivCeilLaw requires d >= 2")

    def apply(self, n: int) -> int:
        return -(-n // self.d)

    def preimage(self, y: int):
        lo = self.d * (y - 1) + 1
        return tuple(range(lo, self.d * y + 1))

    def prefix_hits(self, m: int) -> tuple[int, ...]:
        return tuple(range(m + 1, self.d * m + 1))

    def transfer_decay(self, block: int, ratio: float, start: int, m: int):
        # Pulled-back values repeat d times, so decay needs d-fold blocks and
        # only applies once ceil(n/d) has left the prefix.
        return self.d * block, ratio, max(self.d * m + 1, self.d * start)

    def h_tail(self, space: CountableSpace) -> TailLaw:
        law = space.law

        def h(n: int) -> float:
            return _density(space, self.preimage(n), n)

        if isinstance(law, ConstantWeights):
            return ConstantTail(float(self.d))
        if isinstance(law, GeometricWeights):
            # h(n) = r^{(d-1)n} * sum_{j=0}^{d-1} r^{j+1-d}: geometric decay.
            return PointwiseTail(h, sup_bound=h(space.depth + 1), finite=True,
                                 block=1, block_ratio=law.r ** (self.d - 1), name="divceil_h")
        return PointwiseTail(h, sup_bound=h(space.depth + 1), finite=True, name="divceil_h")

    def label(self):
        return f"div_ceil:{self.d}"


@dataclass(frozen=True)
class PowerIndexLaw:
    """n -> n**e; fibers are e-th powers, so the derivative is unbounded on
    decaying weight laws."""

    e: int
    bijective = False

    def __post_init__(self):
        if self.e < 2:
            raise ValueError("PowerIndexLaw requires e >= 2")

    def apply(self, n: int) -> int:
        return n**self.e

    def preimage(self, y: int):
        root = round(y ** (1.0 / self.e))
        for r in (root - 1, root, root + 1):
            if r >= 1 and r**self.e == y:
                return (r,)
        return ()

    def prefix_hits(self, m: int) -> tuple[int, ...]:
        return ()

    def transfer_decay(self, block: int, ratio: float, start: int, m: int):
        # One step of n spans (n+1)**e - n**e >= (m+2)**e - (m+1)**e steps of
        # a one-step certificate; longer blocks do not compose that way.
        if block != 1:
            return None
        return 1, ratio ** max((m + 2) ** self.e - (m + 1) ** self.e, 1), start

    def h_tail(self, space: CountableSpace) -> TailLaw:
        law = space.law

        def h(n: int) -> float:
            return _density(space, self.preimage(n), n)

        # On constant weights h is 1 on e-th powers and 0 elsewhere.
        sup = 1.0 if isinstance(law, ConstantWeights) else INF
        return PointwiseTail(h, sup_bound=sup, finite=True, name="power_index_h")

    def label(self):
        return f"power_index:{self.e}"


@dataclass(frozen=True)
class PairSwapLaw:
    """Swap 2k-1 <-> 2k; a self-inverse bijection."""

    bijective = True

    def apply(self, n: int) -> int:
        return n + 1 if n % 2 == 1 else n - 1

    def preimage(self, y: int):
        return (self.apply(y),)

    def prefix_hits(self, m: int) -> tuple[int, ...]:
        return (m + 1,) if m % 2 == 1 else ()

    def transfer_decay(self, block: int, ratio: float, start: int, m: int):
        # Swapping adjacent atoms preserves two-step decay once both members
        # of each pair lie inside the certified region.
        return 2 * block, ratio**2, max(m + 3, start + 1)

    def h_tail(self, space: CountableSpace) -> TailLaw:
        law = space.law

        def h(n: int) -> float:
            return _density(space, self.preimage(n), n)

        m = space.depth
        sup = max(h(m + 1), h(m + 2))
        if isinstance(law, GeometricWeights):
            sup = max(law.r, 1.0 / law.r)
        elif isinstance(law, PowerLawWeights):
            # h decreases along even atoms, whose first tail member is m+1
            # at odd depth and m+2 at even depth.
            sup = ((m + 1) / m) ** law.s if m % 2 else ((m + 2) / (m + 1)) ** law.s
        elif isinstance(law, ConstantWeights):
            sup = 1.0
        return PointwiseTail(h, sup_bound=sup, finite=True, name="pair_swap_h")

    def label(self):
        return "pair_swap"


MapLaw = Union[IdentityLaw, CollapseLaw, ShiftLaw, DivCeilLaw, PowerIndexLaw, PairSwapLaw]


def pullback_tail(f: SimpleFunction, law: MapLaw) -> TailLaw:
    """The tail law of f o phi on a countable space: n -> f(law(n)) for n > depth.

    Prefix overrides never touch the tail, so the law alone decides it. Tail
    atoms map into the tail except the law's prefix hits, so the pullback's
    sup, finiteness and majorant come from f's tail law and from f at the
    images of those hits. Collapse and identity are closed forms; so is a
    zero or constant tail of f, patched at the hits whose values differ.

    The other laws supply ``prefix_hits(m)``, the tail atoms they send into
    the prefix 1..m, and ``transfer_decay(block, ratio, start, m)``, which
    turns f's tail certificate major(t+block) <= ratio*major(t) for t >= start
    into the pullback's (block, ratio, start), or None.
    """
    m = f.space.depth
    ft = f.tail
    if isinstance(law, CollapseLaw):
        return ConstantTail(f.value(law.target))
    if isinstance(law, IdentityLaw):
        return ft
    hits = {n: f.value(law.apply(n)) for n in law.prefix_hits(m)}
    if ft.is_zero() or isinstance(ft, ConstantTail):
        base = ZeroTail() if ft.is_zero() else ft
        patches = tuple((n, v) for n, v in hits.items() if v != base.value_at(n))
        return PatchedTail(base, patches) if patches else base
    if isinstance(law, ShiftLaw) and isinstance(ft, GeometricTail):
        return GeometricTail(ft.coeff * ft.ratio**law.k, ft.ratio)
    if isinstance(law, PowerIndexLaw) and isinstance(ft, SparseGeometricTail):
        # Support n with n**e = base**k requires base to be an e-th power.
        root = round(ft.base ** (1.0 / law.e))
        if root >= 2 and root**law.e == ft.base:
            return SparseGeometricTail(root, ft.coeff, ft.growth, ft.start)
    db = ft.decay_block()
    cert = law.transfer_decay(db[0], db[1], ft.decay_from(), m) if db else None

    def major(n: int) -> float:
        return abs(hits[n]) if n in hits else ft.major_at(law.apply(n))

    return PointwiseTail(
        lambda n: f.value(law.apply(n)),
        sup_bound=max([ft.sup(), *map(abs, hits.values())]),
        finite=ft.all_finite()[0] and all(map(math.isfinite, hits.values())),
        block=cert[0] if cert else None,
        block_ratio=cert[1] if cert else None,
        block_from=cert[2] if cert else 0,
        major_fn=major,
        name="pullback",
    )


def compose_apply(f: SimpleFunction, phi: "Transformation") -> SimpleFunction:
    """(f o phi)(x) = f(phi(x)): one gather over phi's prefix-image array,
    with f read directly at the images beyond the prefix; on countable spaces
    the tail is the pullback of f's tail law under the map law."""
    space = phi.space
    if f.space != space:
        raise ValueError("function and transformation live on different spaces")
    idx = phi._target_index
    vals = np.take(f.value_vector, idx, mode="clip").tolist()
    # The index depth marks an image beyond the prefix (countable maps only).
    for i in np.flatnonzero(idx == len(vals)).tolist():
        vals[i] = f.value(phi.apply(i + 1))
    return SimpleFunction(space, tuple(vals), None if space.is_finite else pullback_tail(f, phi.law))


def _compose_laws(outer: "Transformation", inner_law: MapLaw) -> Optional[MapLaw]:
    """Law of x -> outer(inner(x)) on tail atoms, when expressible."""
    ol = outer.law
    if isinstance(inner_law, CollapseLaw):
        return CollapseLaw(outer.apply(inner_law.target))
    if isinstance(ol, CollapseLaw):
        return CollapseLaw(ol.target)
    if isinstance(inner_law, IdentityLaw):
        return ol
    if isinstance(ol, IdentityLaw):
        return inner_law
    if isinstance(ol, ShiftLaw) and isinstance(inner_law, ShiftLaw):
        return ShiftLaw(ol.k + inner_law.k)
    if isinstance(ol, DivCeilLaw) and isinstance(inner_law, DivCeilLaw):
        return DivCeilLaw(ol.d * inner_law.d)
    if isinstance(ol, PowerIndexLaw) and isinstance(inner_law, PowerIndexLaw):
        return PowerIndexLaw(ol.e * inner_law.e)
    if isinstance(ol, PairSwapLaw) and isinstance(inner_law, PairSwapLaw):
        return IdentityLaw()
    return None


@dataclass(frozen=True)
class Transformation:
    """Atom-to-atom measurable map. Finite spaces carry an explicit target
    tuple; countable spaces carry a map law plus prefix overrides."""

    space: Space
    targets: Optional[tuple[str, ...]] = None
    law: Optional[MapLaw] = None
    overrides: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.space.is_finite:
            if self.targets is None or self.law is not None:
                raise ValueError("finite transformations need explicit targets")
            if len(self.targets) != len(self.space.prefix_ids()):
                raise ValueError("targets must cover every atom")
            for t in self.targets:
                self.space.index_of(t)
        else:
            if self.law is None or self.targets is not None:
                raise ValueError("countable transformations need a map law")
            for n, t in self.overrides:
                if not (1 <= n <= self.space.depth):
                    raise ValueError("overrides may only rewrite prefix atoms")
                if t < 1:
                    raise ValueError("override targets must be atoms")

    @staticmethod
    def finite(space: FiniteSpace, mapping: dict) -> "Transformation":
        return Transformation(space, targets=tuple(mapping[a] for a in space.atoms))

    @staticmethod
    def from_law(space: CountableSpace, law: MapLaw, overrides: dict | None = None) -> "Transformation":
        ov = tuple(sorted((int(k), int(v)) for k, v in (overrides or {}).items()))
        return Transformation(space, law=law, overrides=ov)

    def apply(self, atom: AtomId) -> AtomId:
        if self.space.is_finite:
            return self.targets[self.space.index_of(atom)]
        n = int(atom)
        t = self._override_map.get(n)
        return self.law.apply(n) if t is None else t

    @cached_property
    def _override_map(self) -> dict:
        """Countable maps: prefix atom -> override target (the first one wins)."""
        return dict(reversed(self.overrides))

    def preimage(self, y: AtomId):
        """Full (untruncated) preimage of the atom y: a sorted tuple of atoms,
        or a CoFinite when the law collapses everything onto y."""
        if self.space.is_finite:
            return self._fibers.get(y, ())
        y = int(y)
        base = self.law.preimage(y)
        if isinstance(base, CoFinite):
            # Prefix overrides may divert finitely many atoms away; atoms
            # overridden back onto y are already in the full set.
            return CoFinite(tuple(sorted({k for k, v in self.overrides if v != y})))
        if not self.overrides:
            return base  # the law's preimages are sorted tuples
        ids = set(base)
        for k, v in self.overrides:
            if v == y:
                ids.add(k)
            elif k in ids:
                ids.discard(k)
        return tuple(sorted(ids))

    @cached_property
    def _fibers(self) -> dict:
        """Finite maps: each target atom -> its source atoms, in atom order."""
        fibers: dict = {}
        for a, t in zip(self.space.atoms, self.targets):
            fibers.setdefault(t, []).append(a)
        return {t: tuple(src) for t, src in fibers.items()}

    @cached_property
    def _target_index(self) -> np.ndarray:
        """The prefix index of phi(a) for every prefix atom a, in atom order.
        On countable spaces an image beyond the prefix is stored as depth, one
        past the last index (``min`` keeps huge law images out of the array),
        so only compose_apply reads the countable array: the marker must
        never reach np.bincount."""
        space = self.space
        if space.is_finite:
            return _read_only(list(map(space.index_of, self.targets)), np.intp)
        m = space.depth
        return _read_only([min(self.apply(n), m + 1) - 1 for n in range(1, m + 1)], np.intp)

    @cached_property
    def _fiber_mass(self) -> np.ndarray:
        """mu(phi^{-1}{y}) for every prefix atom y, summed in atom order: the
        fiber-mass table behind radon_nikodym."""
        space = self.space
        if not space.is_finite:
            return _read_only([self.fiber_measure(y) for y in space.prefix_ids()])
        return _read_only(np.bincount(self._target_index, weights=space.weight_vector,
                                      minlength=len(space.atoms)))

    def fiber_measure(self, y: AtomId) -> float:
        return _mass(self.space, self.preimage(y))

    @property
    def is_bijective(self) -> bool:
        if self.space.is_finite:
            return len(self._fibers) == len(self.targets)
        if not self.law.bijective:
            return False
        return all(v == self.law.apply(k) for k, v in self.overrides)

    def inverse_apply(self, y: AtomId) -> AtomId:
        if not self.is_bijective:
            raise ValueError("transformation is not bijective")
        return self.preimage(y)[0]

    def inverse(self) -> "Transformation":
        """The inverse map of a bijective transformation."""
        if not self.is_bijective:
            raise ValueError("transformation is not bijective")
        if self.space.is_finite:
            return Transformation.finite(self.space, dict(zip(self.targets, self.space.atoms)))
        # The bijective laws are involutions, and a bijective map's overrides
        # agree with its law, so the map is its own inverse.
        return self

    def compose_after(self, inner: "Transformation") -> "Transformation":
        """The map x -> self(inner(x))."""
        if inner.space != self.space:
            raise ValueError("transformations live on different spaces")
        if self.space.is_finite:
            return Transformation(
                self.space,
                targets=tuple(self.apply(inner.apply(a)) for a in self.space.atoms),
            )
        law = _compose_laws(self, inner.law)
        if law is None:
            raise UnresolvedTail(
                f"composite of {self.law.label()} after {inner.law.label()} has no closed tail law"
            )
        # Tail atoms whose inner image hits an overridden prefix atom would
        # deviate from the composed law; refuse those rather than guess.
        if self.overrides and not isinstance(inner.law, CollapseLaw):
            for k, _ in self.overrides:
                pre = inner.law.preimage(k)
                if isinstance(pre, CoFinite) or any(int(p) > self.space.depth for p in pre):
                    raise UnresolvedTail(
                        "outer overrides are reachable from the tail of the inner map"
                    )
        overrides = {}
        for n in self.space.prefix_ids():
            t = self.apply(inner.apply(n))
            if t != law.apply(n):
                overrides[n] = t
        return Transformation.from_law(self.space, law, overrides)

    def iterate(self, i: int) -> "Transformation":
        if i < 1:
            raise ValueError("iteration count must be >= 1")
        out = self
        for _ in range(i - 1):
            out = self.compose_after(out)
        return out

    def descriptor(self):
        if self.space.is_finite:
            return {"kind": "explicit", "map": {a: t for a, t in zip(self.space.atoms, self.targets)}}
        d = {"kind": "law", "law": self.law.label()}
        if self.overrides:
            d["overrides"] = {str(k): v for k, v in self.overrides}
        return d


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Explicit partition of a finite space into disjoint nonempty blocks."""

    space: Space
    blocks: tuple[frozenset, ...]

    def __post_init__(self):
        seen: set = set()
        for b in self.blocks:
            if not b:
                raise ValueError("blocks must be nonempty")
            if seen & b:
                raise ValueError("blocks must be disjoint")
            seen |= b
        if set(self.space.prefix_ids()) != seen:
            raise ValueError("blocks must cover the space")

    def iter_blocks(self):
        return self.blocks

    @cached_property
    def _labels(self) -> np.ndarray:
        """The block index of every prefix atom, in atom order."""
        index = {a: i for i, b in enumerate(self.blocks) for a in b}
        return _read_only(list(map(index.__getitem__, self.space.prefix_ids())), np.intp)


@dataclass(frozen=True)
class FiberPartition:
    """The partition into fibers of a transformation (its preimage algebra)."""

    transformation: Transformation

    @property
    def space(self) -> Space:
        return self.transformation.space


def fiber_partition(phi: Transformation):
    """Realize the preimage sigma-algebra of phi as a partition into fibers."""
    space = phi.space
    if not space.is_finite:
        return FiberPartition(phi)
    # Blocks in the atom order of their targets, and each atom's block index.
    hit, labels = np.unique(phi._target_index, return_inverse=True)
    part = Partition(space, tuple(frozenset(phi._fibers[space.atoms[y]]) for y in hit.tolist()))
    object.__setattr__(part, "_labels", _read_only(labels, np.intp))
    return part


# ---------------------------------------------------------------------------
# Integration primitives
# ---------------------------------------------------------------------------


def weighted_measure(f: SimpleFunction, atoms) -> float:
    """Integral of f >= 0 over a set of atoms: sum of f * mu, +inf permitted.

    ``atoms`` is an iterable of atom ids or ALL_ATOMS for the whole space.
    """
    space = f.space
    if atoms == ALL_ATOMS:
        if any(v < 0 for _, v in f.items()):
            raise ValueError("weighted_measure requires f >= 0")
        if not space.is_finite and not tail_nonnegative(f.tail):
            raise ValueError("weighted_measure requires a tail law certified >= 0")
        prefix = xsum(xmul(v, space.weight(a)) for a, v in f.items())
        if space.is_finite:
            return prefix
        lo, hi = _tail_integral_bounds(f.tail, space)
        if prefix == INF or lo == INF:
            return INF
        if lo == hi or hi - lo <= 1e-12 * max(1.0, abs(lo)):
            return prefix + lo
        raise UnresolvedTail("tail integral not resolvable", lower=prefix + lo)
    total = 0.0
    for a in atoms:
        v = f.value(a)  # raises KeyError for unknown atoms
        if v < 0:
            raise ValueError("weighted_measure requires f >= 0")
        total = xsum([total, xmul(v, space.weight(a))])
    return total


_ABS = PowerAbs(1.0)


def _tail_integral_bounds(tail: TailLaw, space: CountableSpace) -> tuple[float, float]:
    """Certified bounds for the sum of |tail value| times weight: the tail-sum
    kernel at phi = |x|."""
    return _tail_modular_bounds(_ABS, tail, 1.0, None, space)


def _tail_signed_integral(tail: TailLaw, space: CountableSpace) -> tuple[float, float]:
    """Certified bounds for the signed tail integral of laws with constant sign."""
    if tail.is_zero():
        return 0.0, 0.0
    if isinstance(tail, PatchedTail):
        base = tail.base
        if not (base.is_zero() or isinstance(base, ConstantTail)):
            raise UnresolvedTail("signed integral with patches over a series-summed base")
        # Exact bases admit exact per-term corrections.
        lo, hi = _tail_signed_integral(base, space)
        for n, v in tail.patches:
            if n > space.depth:
                delta = xmul(v, space.law.weight(n)) - xmul(base.value_at(n), space.law.weight(n))
                lo, hi = lo + delta, hi + delta
        return lo, hi
    if isinstance(tail, ConstantTail):
        sign = tail.value
    elif isinstance(tail, (GeometricTail, SparseGeometricTail)):
        sign = tail.coeff
    else:
        raise UnresolvedTail(f"signed tail integral unsupported for {tail.descriptor()}")
    lo, hi = _tail_integral_bounds(tail, space)
    return (lo, hi) if sign >= 0 else (-hi, -lo)


def _tail_modular_bounds(
    phi: YoungFunction,
    tail: TailLaw,
    scale: float,
    weight_tail: Optional[TailLaw],
    space: CountableSpace,
) -> tuple[float, float]:
    """Certified bounds for the sum over n > depth of
    phi(scale * |tail(n)|) * weight_tail(n) * mu(n).

    The one tail-sum case analysis: the modular sums its tail here, and the
    tail integrals are this sum at phi = |x|. A tail it cannot certify gets
    the trivial bounds (0, inf).
    """
    m = space.depth
    law = space.law
    wt = weight_tail

    def weight_at(n: int) -> float:
        return wt.value_at(n) if wt is not None else 1.0

    if tail.is_zero() or scale == 0.0:
        # phi vanishes at 0, so only the weight pattern is irrelevant.
        return 0.0, 0.0
    if wt is not None and wt.is_zero():
        return 0.0, 0.0
    if isinstance(tail, PatchedTail):
        base = tail.base
        if base.is_zero():
            # Finite support: the exact sum over the patch points.
            total = 0.0
            for n, v in tail.patches:
                if n <= m:
                    continue
                total = xsum([total, xmul(xmul(phi(scale * v), weight_at(n)), law.weight(n))])
            return total, total
        if isinstance(base, (ConstantTail, SparseGeometricTail)):
            # These base handlers sum the whole tail in closed form, so the
            # patch corrections are exact term replacements.
            lo, hi = _tail_modular_bounds(phi, base, scale, wt, space)
            for n, v in tail.patches:
                if n <= m:
                    continue
                old = xmul(xmul(phi(scale * base.value_at(n)), weight_at(n)), law.weight(n))
                new = xmul(xmul(phi(scale * v), weight_at(n)), law.weight(n))
                if new == INF or (old == INF and wt is None and isinstance(base, ConstantTail)):
                    # An infinite constant base term recurs on every other atom.
                    return INF, INF
                if old == INF:
                    return 0.0, INF  # the patch may remove one of few infinite terms
                lo, hi = lo - old + new, (hi - old + new if hi != INF else INF)
            return max(lo, 0.0), hi
        # Decay-certified bases fall through to the generic series, whose
        # certificate start already sits beyond the last patch.
    if isinstance(tail, ConstantTail):
        x = abs(scale * tail.value)
        c = phi(x)
        if c == 0.0 and x <= phi.zero_radius():
            return 0.0, 0.0
        wlo, whi = (law.tail_mass(m),) * 2 if wt is None else _tail_integral_bounds(wt, space)
        if c == 0.0:
            # An underflow: phi(x) is positive, so infinite mass still sums to +inf.
            return (INF if wlo == INF else 0.0), xmul(_underflow_cap(phi, x), whi)
        return xmul(c, wlo), xmul(c, whi)
    if isinstance(tail, SparseGeometricTail):
        power = phi.as_power()
        if power is not None and wt is None:
            return _sparse_series(tail, space, power=power, scale=abs(scale))
        if wt is None and tail.growth < 1.0:
            # Decaying sparse values: convexity-certified geometric sum in k.
            k0 = tail.start
            while tail.base**k0 <= m:
                k0 += 1

            def kterm(k: int) -> float:
                v = abs(scale * tail.coeff) * tail.growth**k
                return xmul(phi(v), law.weight(tail.base**k))

            return _certified_series(kterm, k0 - 1, 1, tail.growth)
        return 0.0, INF
    # Generic decaying laws: convexity gives phi(q*x) <= q*phi(x) for q < 1,
    # so a value-decay certificate turns into a term-decay certificate.
    block = tail.decay_block()
    if block is not None:
        b, q = block
        q_total = q * law.step_ratio_bound(m) ** b
        if q_total < 1.0:
            sup_w = 1.0 if wt is None else wt.sup()
            if sup_w == 0.0:
                return 0.0, 0.0
            if sup_w != INF:

                def term(n: int) -> float:
                    return xmul(
                        xmul(phi(scale * tail.value_at(n)), weight_at(n)), law.weight(n)
                    )

                def major(n: int) -> float:
                    # The decay certificate lives on the tail's majorant;
                    # the weight enters through its supremum.
                    return xmul(xmul(phi(scale * tail.major_at(n)), sup_w), law.weight(n))

                return _certified_series(
                    term, m, b, q_total, majorant=major, cert_from=tail.decay_from()
                )
    sup = tail.sup()
    if sup != INF:
        x = abs(scale * sup)
        c = phi(x)
        if c == 0.0:
            if x <= phi.zero_radius():
                return 0.0, 0.0  # the whole tail sits inside the zero set of phi
            c = _underflow_cap(phi, x)
        wsup = wt.sup() if wt is not None else 1.0
        if law.tail_mass(m) != INF and wsup != INF:
            explicit = sum(
                xmul(xmul(phi(scale * tail.value_at(n)), weight_at(n)), law.weight(n))
                for n in range(m + 1, m + 65)
            )
            bound = xmul(xmul(c, wsup), law.tail_mass(m + 64))
            return explicit, explicit + bound
    return 0.0, INF


def _underflow_cap(phi: YoungFunction, x: float) -> float:
    """A certified upper bound for phi(x) where it underflows to 0.0 beyond
    the zero set: phi(x) <= x * phi(1) for x <= 1 by convexity, doubled and
    raised by the least subnormal against rounding."""
    return 2.0 * x * phi(1.0) + math.ulp(0.0) if x <= 1.0 else INF


def _certified_series(term: Callable[[int], float], m: int, block: int, q: float,
                      rel: float = 1e-15, max_terms: int = 500_000,
                      majorant: Optional[Callable[[int], float]] = None,
                      cert_from: int = 0) -> tuple[float, float]:
    """Sum term(n) for n > m given a certified block decay.

    The decay certificate applies to ``majorant`` (defaults to ``term``
    itself) for indices >= cert_from: majorant(n+block) <= q * majorant(n)
    with q < 1, and term(n) <= majorant(n), so the majorant's remainder
    bounds the remainder of the series.
    """
    total = 0.0
    n = m + 1
    window: list[float] = []
    for _ in range(max_terms):
        t = term(n)
        if t == INF:
            return INF, INF
        total += t
        if n >= cert_from:
            mt = majorant(n) if majorant is not None else t
            window.append(mt)
            if len(window) > block:
                window.pop(0)
            if len(window) == block:
                rem = sum(window) * q / (1.0 - q)
                if rem <= rel * max(total, 1e-300):
                    return total, total + rem
        n += 1
    raise UnresolvedTail("certified series did not converge within the term budget", lower=total)


def _sparse_series(tail: SparseGeometricTail, space: CountableSpace,
                   power: tuple[float, float], scale: float) -> tuple[float, float]:
    """Exact sum of coeff_phi * |scale * value|^p * mu over the sparse support.

    ``power`` = (A, p) evaluates A*|x|**p; the terms form an exact geometric
    series in k for power-law and constant weights, and are dominated by one
    for geometric weights.
    """
    A, p = power
    law = space.law
    m = space.depth
    k0 = tail.start
    while tail.base**k0 <= m:
        k0 += 1
    base, growth = tail.base, tail.growth

    def term(k: int) -> float:
        v = abs(scale * tail.coeff) * growth**k
        return xmul(A * v**p, law.weight(base**k))

    if isinstance(law, (PowerLawWeights, ConstantWeights)):
        s = law.s if isinstance(law, PowerLawWeights) else 0.0
        ratio = growth**p * float(base) ** (-s)
        t0 = term(k0)
        if t0 == 0.0:
            return 0.0, 0.0
        if ratio >= 1.0:
            return (INF, INF) if t0 > 0 else (0.0, 0.0)
        v = t0 / (1.0 - ratio)
        return v, v
    if isinstance(law, GeometricWeights):
        # Weights decay super-exponentially along base**k; ratio shrinks.
        r0 = growth**p * law.r ** (base**(k0 + 1) - base**k0)
        if r0 >= 1.0:
            raise UnresolvedTail("sparse series over geometric weights did not contract")
        return _certified_series(lambda n: term(n), k0 - 1, 1, r0)
    raise UnresolvedTail("sparse series unsupported for this weight law")


# ---------------------------------------------------------------------------
# Radon-Nikodym derivatives
# ---------------------------------------------------------------------------


def nonsingular_check(phi: Transformation) -> Verdict:
    """All atom weights are positive, so the only null set is empty and every
    discrete transformation is non-singular."""
    return Verdict(Status.HOLDS, certificate="only null set is the empty set")


def radon_nikodym(phi: Transformation) -> SimpleFunction:
    """Density of mu o phi^{-1} against mu: fiber measure over atom weight."""
    space = phi.space
    # A prefix weight that underflows to 0.0 leaves h undefined: refuse it.
    with np.errstate(divide="raise", invalid="raise"):
        vals = tuple((phi._fiber_mass / space.weight_vector).tolist())
    if space.is_finite:
        return SimpleFunction(space, vals, None)
    tail = phi.law.h_tail(space)
    patches = _h_tail_patches(phi)
    if patches:
        tail = PatchedTail(tail, tuple(sorted(patches.items())))
    return SimpleFunction(space, vals, tail)


def _h_tail_patches(phi: Transformation) -> dict[int, float]:
    """Tail atoms whose fibers deviate from the law's tail description:
    override-touched atoms and a collapse target sitting beyond the prefix."""
    space = phi.space
    touched = {t for k, v in phi.overrides for t in (phi.law.apply(k), v) if t > space.depth}
    if isinstance(phi.law, CollapseLaw) and phi.law.target > space.depth:
        touched.add(phi.law.target)
    return {y: _density(space, phi.preimage(y), y) for y in touched}


def _density(space: CountableSpace, fiber, y: int) -> float:
    """h(y) = mu(fiber) / mu({y}) on the tail, for the map laws and the patches:
    the float quotient where mu({y}) is normal, else exp(log mu(fiber) - log
    mu({y})), which is 0.0 or +inf only where h leaves the float range."""
    if not fiber:
        return 0.0  # an empty fiber, also where mu({y}) underflows to 0.0
    w = space.weight(y)
    if w >= sys.float_info.min:
        return _mass(space, fiber) / w
    if isinstance(fiber, CoFinite):
        log_mass = math.log(_mass(space, fiber))
    else:
        top, scaled = _scaled_weights(space, fiber)
        log_mass = top + math.log(math.fsum(scaled))
    log_h = log_mass - space.log_weight(y)
    return math.exp(log_h) if log_h < _LOG_MAX else INF


def iterated_rn(phi: Transformation, i: int) -> SimpleFunction:
    """Radon-Nikodym derivative of the i-fold composite of phi."""
    return radon_nikodym(phi.iterate(i))


def inverse_rn(phi: Transformation) -> SimpleFunction:
    """h_{-1}(x) = mu({phi(x)}) / mu({x}), the derivative of the inverse map;
    requires a bijective phi."""
    return radon_nikodym(phi.inverse())


# ---------------------------------------------------------------------------
# Conditional expectation
# ---------------------------------------------------------------------------


def _mass(space: Space, fiber) -> float:
    """mu(fiber). A co-finite fiber is summed directly over its kept atoms:
    subtracting the excluded ones from the total cancels where the tail mass
    is light. Atom tuples are summed one by one in atom order, as np.bincount
    sums the fiber-mass table behind radon_nikodym, so the two agree to the
    last bit."""
    if isinstance(fiber, CoFinite):
        kept = [space.law.weight(n) for n in space.prefix_ids() if n not in fiber.excluded]
        return xsum(kept + [space.tail_mass()])
    total = 0.0
    for a in fiber:
        total += space.weight(a)
    return total


def _scaled_weights(space: Space, atoms) -> tuple[float, list[float]]:
    """The log of the largest weight among ``atoms``, and their weights
    divided by it: sums of weights below the normal range keep their digits."""
    logs = [space.log_weight(a) for a in atoms]
    top = max(logs)
    return top, [math.exp(lw - top) for lw in logs]


def _extended_total(terms: list[float]) -> float:
    """Sum in order; +-inf when a term is, refused when both signs are."""
    num = 0.0
    for t in terms:
        num += t
    if math.isfinite(num):
        return num
    pos, neg = INF in terms, -INF in terms
    if pos and neg:
        raise ValueError("block integrates +inf against -inf")
    return INF if pos else -INF if neg else num


def _block_average(f: SimpleFunction, block) -> float:
    space = f.space
    if isinstance(block, CoFinite):
        tlo, thi = _tail_signed_integral(f.tail, space)
        if thi - tlo > 1e-12 * max(1.0, abs(tlo)) and not tlo == thi:
            raise UnresolvedTail("block average needs a resolvable tail integral", lower=tlo, upper=thi)
        terms = [xmul(v, space.weight(a)) for a, v in f.items() if a not in block.excluded] + [tlo]
        den = _mass(space, block)
        if den == INF and all(map(math.isfinite, terms)):
            return 0.0  # a finite integral over infinite mass
        num = _extended_total(terms)
        return num if math.isinf(num) else num / den
    weights = [space.weight(a) for a in block]
    den = 0.0
    for w in weights:
        den += w
    if weights and den < sys.float_info.min:
        # The weights underflow: average against them scaled by the largest.
        _, weights = _scaled_weights(space, block)
        den = math.fsum(weights)
    num = _extended_total(list(map(xmul, map(f.value, block), weights)))
    return num if math.isinf(num) else num / den


def _block_means(f: SimpleFunction, labels: np.ndarray, nblocks: int) -> np.ndarray:
    """The weighted mean of f on each block ``labels == b`` of a finite space,
    0.0 on empty blocks.

    np.bincount sums f*w and w in atom order, as _block_average does, so each
    finite mean agrees with it to the last bit. A block whose sum is not
    finite (an infinite value, or f*w beyond the float range) or whose mass
    underflows below the normal range is left to _block_average, which owns
    the +-inf rules and the rescaling of tiny weights.
    """
    w = f.space.weight_vector
    with np.errstate(over="ignore", invalid="ignore"):
        num = np.bincount(labels, weights=f.value_vector * w, minlength=nblocks)
        den = np.bincount(labels, weights=w, minlength=nblocks)
        means = np.divide(num, den, out=np.zeros(nblocks), where=den > 0.0)
    for b in np.flatnonzero((den > 0.0) & ~(np.isfinite(num) & (den >= sys.float_info.min))):
        block = tuple(a for a, label in zip(f.space.atoms, labels) if label == b)
        means[b] = _block_average(f, block)
    return means


def conditional_expectation(f: SimpleFunction, partition) -> SimpleFunction:
    """Block-averaging projection: constant on each block with the weighted
    mean value, so the averaging identity holds exactly per block."""
    space = f.space
    if isinstance(partition, Partition):
        if not space.is_finite:
            raise ValueError("explicit partitions are only supported on finite spaces")
        # Average each block in atom order, not in (hash-seeded) frozenset order.
        labels = partition._labels
        means = _block_means(f, labels, len(partition.blocks))
        return SimpleFunction(space, tuple(means[labels].tolist()), None)
    if isinstance(partition, FiberPartition):
        # E(f | phi^{-1} Sigma) is the fiber average read at phi(x).
        phi = partition.transformation
        return compose_apply(fiber_average(f, phi), phi)
    raise TypeError(f"unsupported partition type {type(partition)!r}")


def fiber_average(g: SimpleFunction, phi: Transformation) -> SimpleFunction:
    """Per-target block value of the conditional expectation onto phi's fiber
    algebra, assigned at the fiber's image atom; 0 where the fiber is empty."""
    space = g.space
    if space.is_finite:
        means = _block_means(g, phi._target_index, len(space.atoms))
        return SimpleFunction(space, tuple(means.tolist()), None)
    cache: dict = {}

    def value(y) -> float:
        if y not in cache:
            pre = phi.preimage(y)
            cache[y] = _block_average(g, pre) if pre else 0.0
        return cache[y]

    vals = tuple(value(y) for y in space.prefix_ids())
    sup = g.sup_abs()
    tail = PointwiseTail(value, sup_bound=sup, finite=sup != INF, name="fiber_average")
    if isinstance(phi.law, CollapseLaw) and phi.law.target > space.depth:
        # The collapse fiber may have infinite mass, so its average is not
        # bounded by sup|g|; the patch keeps it in the tail's certificates.
        tail = PatchedTail(tail, ((phi.law.target, value(phi.law.target)),))
    return SimpleFunction(space, vals, tail)


# ---------------------------------------------------------------------------
# Sigma-finiteness of the fiber algebra (and the exhaustion lemma)
# ---------------------------------------------------------------------------


def sigma_finite_check(phi: Transformation) -> Verdict:
    """The restriction of mu to the fiber algebra is sigma-finite exactly when
    every fiber has finite measure; fibers then form the countable cover."""
    space = phi.space
    verdict = None
    for y in space.prefix_ids():
        fm = phi.fiber_measure(y)
        if fm == INF:
            verdict = Verdict(Status.FAILS, certificate=f"fiber over {y} has infinite measure", witness=y)
            break
    if verdict is None and not space.is_finite:
        # Tail fibers: every law here has finite fibers except collapse, whose
        # tail fibers are empty; infinite mass can only sit on the prefix target.
        if isinstance(phi.law, CollapseLaw) and phi.law.target > space.depth:
            fm = phi.fiber_measure(phi.law.target)
            if fm == INF:
                verdict = Verdict(Status.FAILS, certificate="collapse fiber has infinite measure",
                                  witness=phi.law.target)
    if verdict is None:
        verdict = Verdict(Status.HOLDS, certificate="every fiber has finite measure; fibers cover the space")
    h = radon_nikodym(phi)
    h_finite, _ = h.all_finite()
    if verdict.holds != h_finite:
        raise ConsistencyError(
            "sigma-finiteness of the fiber algebra disagrees with finiteness of the derivative"
        )
    return verdict


def exhaustion(f: SimpleFunction):
    """Increasing sets B_n with finite measure, f < n on B_n, union the space:
    B_n = (first n atoms) intersect {f < n}. Lazy in n."""
    ok, w = f.all_finite()
    if not ok:
        raise ValueError(f"exhaustion requires f finite everywhere; f({w}) is infinite")

    def generate():
        space = f.space
        n = 0
        while True:
            n += 1
            if space.is_finite:
                ids = space.atoms[: min(n, len(space.atoms))]
            else:
                ids = tuple(range(1, n + 1))
            yield tuple(a for a in ids if f.value(a) < n)

    return generate()


@dataclass(frozen=True)
class SupportInfo:
    """Support of a simple function: exact on the prefix, law-described tail."""

    prefix: frozenset
    tail: str  # "empty" | "all" | "law" | n/a for finite spaces

    def __contains__(self, atom) -> bool:
        return atom in self.prefix


def support(f: SimpleFunction) -> SupportInfo:
    prefix = frozenset(a for a, v in f.items() if v != 0.0)
    if f.space.is_finite:
        return SupportInfo(prefix, "n/a")
    t = f.tail
    if t.is_zero():
        return SupportInfo(prefix, "empty")
    if isinstance(t, (ConstantTail, GeometricTail)):
        return SupportInfo(prefix, "all")
    return SupportInfo(prefix, "law")
