"""Discrete sigma-finite measure spaces, measurable transformations,
Radon-Nikodym derivatives, partitions, and conditional expectation.

Spaces are either finite atom lists or countable spaces given by a weight
law truncated at a prefix depth; everything beyond the prefix is governed by
closed-form laws, so infinite-valued phenomena stay representable.

This module owns the certified tail-sum kernel, ``_tail_modular_bounds``:
the one case analysis that sums phi(scale*|f|) * weight * mu beyond the
prefix. The modular (in norms) and the tail integrals here all go through it.
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
    tail_power,
    tail_product,
    tail_scale,
    tail_sum,
)
from .verdicts import ConsistencyError, Status, Verdict
from .young import PowerAbs, YoungFunction

AtomId = Union[str, int]

__all__ = [
    "ConstantWeights",
    "GeometricWeights",
    "PowerLawWeights",
    "FiniteSpace",
    "CountableSpace",
    "SimpleFunction",
    "Transformation",
    "Partition",
    "FiberPartition",
    "IdentityLaw",
    "CollapseLaw",
    "ShiftLaw",
    "DivCeilLaw",
    "PowerIndexLaw",
    "PairSwapLaw",
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


def _read_only(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
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
        if any(v != 0.0 for v in self.values):
            return False
        return self.space.is_finite or self.tail.is_zero()

    def all_finite(self) -> tuple[bool, Optional[AtomId]]:
        for a, v in self.items():
            if v == INF or v == -INF:
                return False, a
        if not self.space.is_finite:
            ok, w = self.tail.all_finite()
            if not ok:
                return False, w
        return True, None

    def sup_abs(self) -> float:
        s = max((abs(v) for v in self.values), default=0.0)
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

    def restrict(self, keep: Callable[[AtomId], bool], tail: Optional[TailLaw] = None) -> "SimpleFunction":
        """Pointwise restriction on the prefix; the caller supplies the tail law."""
        vals = tuple(v if keep(a) else 0.0 for a, v in self.items())
        if self.space.is_finite:
            return SimpleFunction(self.space, vals, None)
        return SimpleFunction(self.space, vals, tail if tail is not None else ZeroTail())

    def to_dict(self) -> dict:
        d = {str(a): v for a, v in self.items() if v != 0.0}
        out: dict = {"values": d}
        if not self.space.is_finite:
            out["tail"] = self.tail.descriptor()
        return out


# ---------------------------------------------------------------------------
# Map laws and transformations
# ---------------------------------------------------------------------------

ALL_ATOMS = "all"


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

    def h_tail(self, space: CountableSpace) -> TailLaw:
        law = space.law
        if isinstance(law, ConstantWeights):
            return ConstantTail(1.0)
        if isinstance(law, GeometricWeights):
            return ConstantTail(law.r ** (-self.k))
        m = space.depth
        return PointwiseTail(
            lambda n: law.weight(n - self.k) / law.weight(n) if n > self.k else 0.0,
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

    def h_tail(self, space: CountableSpace) -> TailLaw:
        law = space.law
        d = self.d

        def h(n: int) -> float:
            return sum(law.weight(m) for m in self.preimage(n)) / law.weight(n)

        if isinstance(law, ConstantWeights):
            return ConstantTail(float(d))
        if isinstance(law, GeometricWeights):
            # h(n) = r^{(d-1)n} * sum_{j=0}^{d-1} r^{j+1-d}: geometric decay.
            return PointwiseTail(h, sup_bound=h(space.depth + 1), finite=True,
                                 block=1, block_ratio=law.r ** (d - 1), name="divceil_h")
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

    def h_tail(self, space: CountableSpace) -> TailLaw:
        law = space.law

        def h(n: int) -> float:
            pre = self.preimage(n)
            if not pre:
                return 0.0
            return law.weight(pre[0]) / law.weight(n)

        return PointwiseTail(h, sup_bound=INF, finite=True, name="power_index_h")

    def h_seek_at_least(self, space: CountableSpace, c: float, after: int) -> Optional[int]:
        """Smallest atom y > after with h(y) >= c (h is increasing along powers)."""
        law = space.law
        m = max(2, int(after ** (1.0 / self.e)))
        for _ in range(10000):
            y = m**self.e
            if y > after:
                h = law.weight(m) / law.weight(y)
                if h >= c:
                    return y
            m += 1
        return None

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

    def h_tail(self, space: CountableSpace) -> TailLaw:
        law = space.law

        def h(n: int) -> float:
            return law.weight(self.apply(n)) / law.weight(n)

        m = space.depth
        sup = max(h(m + 1), h(m + 2))
        if isinstance(law, GeometricWeights):
            sup = max(law.r, 1.0 / law.r)
        elif isinstance(law, PowerLawWeights):
            sup = ((m + 2) / (m + 1)) ** law.s
        elif isinstance(law, ConstantWeights):
            sup = 1.0
        return PointwiseTail(h, sup_bound=sup, finite=True, name="pair_swap_h")

    def label(self):
        return "pair_swap"


MapLaw = Union[IdentityLaw, CollapseLaw, ShiftLaw, DivCeilLaw, PowerIndexLaw, PairSwapLaw]


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
        for k, v in self.overrides:
            if k == n:
                return v
        return self.law.apply(n)

    def preimage(self, y: AtomId):
        """Full (untruncated) preimage of the atom y: a tuple of atoms, or
        ALL_ATOMS when the law collapses everything onto y."""
        if self.space.is_finite:
            return self._fibers.get(y, ())
        y = int(y)
        base = self.law.preimage(y)
        if base == ALL_ATOMS:
            # Prefix overrides may divert finitely many atoms away; atoms
            # overridden back onto y are already in the full set.
            diverted = {k for k, v in self.overrides if v != y}
            if not diverted:
                return ALL_ATOMS
            return ("all_except", tuple(sorted(diverted)))
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
    def _fiber_mass(self) -> np.ndarray:
        """Finite maps: mu(phi^{-1}{y}) for every atom y, summed in atom order."""
        space = self.space
        targets = np.fromiter((space.index_of(t) for t in self.targets), dtype=np.intp,
                              count=len(self.targets))
        return _read_only(np.bincount(targets, weights=space.weight_vector,
                                      minlength=len(space.atoms)))

    def fiber_measure(self, y: AtomId) -> float:
        pre = self.preimage(y)
        if pre == ALL_ATOMS:
            return self.space.total_mass()
        if isinstance(pre, tuple) and pre and pre[0] == "all_except":
            total = self.space.total_mass()
            removed = sum(self.space.weight(a) for a in pre[1])
            if total == INF:
                return INF
            return total - removed
        # Summed one by one in atom order, as np.bincount sums the fiber
        # masses behind radon_nikodym, so the two agree to the last bit.
        total = 0.0
        for a in pre:
            total += self.space.weight(a)
        return total

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
        pre = self.preimage(y)
        return pre[0]

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
                if pre == ALL_ATOMS or any(int(p) > self.space.depth for p in pre):
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

    def block_of(self, atom: AtomId) -> frozenset:
        for b in self.blocks:
            if atom in b:
                return b
        raise KeyError(atom)

    def iter_blocks(self):
        return self.blocks


@dataclass(frozen=True)
class FiberPartition:
    """The partition into fibers of a transformation (its preimage algebra)."""

    transformation: Transformation

    @property
    def space(self) -> Space:
        return self.transformation.space

    def block_of(self, atom: AtomId):
        return self.transformation.preimage(self.transformation.apply(atom))

    def iter_blocks(self):
        """Blocks meeting the prefix, each as the full untruncated fiber."""
        seen = set()
        for a in self.space.prefix_ids():
            t = self.transformation.apply(a)
            if t in seen:
                continue
            seen.add(t)
            yield self.transformation.preimage(t)


def fiber_partition(phi: Transformation):
    """Realize the preimage sigma-algebra of phi as a partition into fibers."""
    if phi.space.is_finite:
        fibers = phi._fibers
        return Partition(phi.space, tuple(frozenset(fibers[y]) for y in phi.space.atoms if y in fibers))
    return FiberPartition(phi)


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
        c = phi(scale * tail.value)
        if wt is None:
            v = xmul(c, law.tail_mass(m))
            return v, v
        if c == 0.0:
            return 0.0, 0.0
        wlo, whi = _tail_integral_bounds(wt, space)
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
        c = phi(scale * sup)
        if c == 0.0:
            return 0.0, 0.0  # the whole tail sits inside the zero set of phi
        wsup = wt.sup() if wt is not None else 1.0
        if law.tail_mass(m) != INF and wsup != INF:
            explicit = sum(
                xmul(xmul(phi(scale * tail.value_at(n)), weight_at(n)), law.weight(n))
                for n in range(m + 1, m + 65)
            )
            bound = xmul(xmul(c, wsup), law.tail_mass(m + 64))
            return explicit, explicit + bound
    return 0.0, INF


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
    if space.is_finite:
        h = phi._fiber_mass / space.weight_vector
        return SimpleFunction(space, tuple(h.tolist()), None)
    vals = []
    for y in space.prefix_ids():
        fm = phi.fiber_measure(y)
        w = space.weight(y)
        vals.append(fm / w if fm != INF else INF)
    tail = phi.law.h_tail(space)
    patches = _h_tail_patches(phi)
    if patches:
        tail = PatchedTail(tail, tuple(sorted(patches.items())))
    return SimpleFunction(space, tuple(vals), tail)


def _h_tail_patches(phi: Transformation) -> dict[int, float]:
    """Tail atoms whose fibers deviate from the law's tail description:
    override-touched atoms and a collapse target sitting beyond the prefix."""
    space = phi.space
    patches: dict[int, float] = {}
    touched: set[int] = set()
    for k, v in phi.overrides:
        lawt = phi.law.apply(k)
        if lawt > space.depth:
            touched.add(lawt)
        if v > space.depth:
            touched.add(v)
    if isinstance(phi.law, CollapseLaw) and phi.law.target > space.depth:
        touched.add(phi.law.target)
    for y in touched:
        fm = phi.fiber_measure(y)
        patches[y] = fm / space.weight(y) if fm != INF else INF
    return patches


def iterated_rn(phi: Transformation, i: int) -> SimpleFunction:
    """Radon-Nikodym derivative of the i-fold composite of phi."""
    return radon_nikodym(phi.iterate(i))


def inverse_rn(phi: Transformation) -> SimpleFunction:
    """h_{-1}(x) = mu({phi(x)}) / mu({x}); requires a bijective phi."""
    if not phi.is_bijective:
        raise ValueError("inverse derivative requires a bijective transformation")
    space = phi.space
    vals = tuple(space.weight(phi.apply(a)) / space.weight(a) for a in space.prefix_ids())
    if space.is_finite:
        return SimpleFunction(space, vals, None)
    law = phi.law

    def hv(n: int) -> float:
        return space.weight(law.apply(n)) / space.weight(n)

    if isinstance(law, IdentityLaw):
        tail: TailLaw = ConstantTail(1.0)
    else:
        tail = PointwiseTail(hv, sup_bound=_swap_sup(space), finite=True, name="inverse_rn")
    return SimpleFunction(space, vals, tail)


def _swap_sup(space: CountableSpace) -> float:
    law = space.law
    m = space.depth
    if isinstance(law, GeometricWeights):
        return max(law.r, 1.0 / law.r)
    if isinstance(law, ConstantWeights):
        return 1.0
    return ((m + 2) / (m + 1)) ** law.s


# ---------------------------------------------------------------------------
# Conditional expectation
# ---------------------------------------------------------------------------


def _block_average(f: SimpleFunction, block) -> float:
    space = f.space
    if block == ALL_ATOMS or (isinstance(block, tuple) and block and block[0] == "all_except"):
        excluded = set(block[1]) if block != ALL_ATOMS else set()
        num = 0.0
        has_pos_inf = has_neg_inf = False
        for a, v in f.items():
            if a in excluded:
                continue
            t = xmul(v, space.weight(a))
            if t == INF:
                has_pos_inf = True
            elif t == -INF:
                has_neg_inf = True
            else:
                num += t
        tlo, thi = _tail_signed_integral(f.tail, space)
        if thi - tlo > 1e-12 * max(1.0, abs(tlo)) and not tlo == thi:
            raise UnresolvedTail("block average needs a resolvable tail integral", lower=tlo, upper=thi)
        if tlo == INF:
            has_pos_inf = True
        elif tlo == -INF:
            has_neg_inf = True
        else:
            num += tlo
        if has_pos_inf and has_neg_inf:
            raise ValueError("block integrates +inf against -inf")
        if has_pos_inf:
            return INF
        if has_neg_inf:
            return -INF
        den = space.total_mass() - sum(space.weight(a) for a in excluded)
        if den == INF:
            return 0.0
        return num / den
    weights = [space.weight(a) for a in block]
    den = 0.0
    for w in weights:
        den += w
    if weights and den < sys.float_info.min:
        # The weights underflow: average against them scaled by the largest.
        logs = [space.log_weight(a) for a in block]
        top = max(logs)
        weights = [math.exp(lw - top) for lw in logs]
        den = math.fsum(weights)
    num = 0.0
    has_pos_inf = has_neg_inf = False
    for a, w in zip(block, weights):
        t = xmul(f.value(a), w)
        if t == INF:
            has_pos_inf = True
        elif t == -INF:
            has_neg_inf = True
        else:
            num += t
    if has_pos_inf and has_neg_inf:
        raise ValueError("block integrates +inf against -inf")
    if has_pos_inf:
        return INF
    if has_neg_inf:
        return -INF
    return num / den


def conditional_expectation(f: SimpleFunction, partition) -> SimpleFunction:
    """Block-averaging projection: constant on each block with the weighted
    mean value, so the averaging identity holds exactly per block."""
    space = f.space
    if isinstance(partition, Partition):
        if not space.is_finite:
            raise ValueError("explicit partitions are only supported on finite spaces")
        # Average each block in atom order, not in (hash-seeded) frozenset order.
        block_index = {a: i for i, b in enumerate(partition.iter_blocks()) for a in b}
        members: list[list] = [[] for _ in partition.iter_blocks()]
        for a in space.atoms:
            members[block_index[a]].append(a)
        averages = [_block_average(f, m) for m in members]
        return SimpleFunction(space, tuple(averages[block_index[a]] for a in space.atoms), None)
    if isinstance(partition, FiberPartition):
        phi = partition.transformation
        cache: dict = {}

        def avg_for(atom) -> float:
            t = phi.apply(atom)
            if t not in cache:
                cache[t] = _block_average(f, phi.preimage(t))
            return cache[t]

        vals = tuple(avg_for(a) for a in space.prefix_ids())
        if space.is_finite:
            return SimpleFunction(space, vals, None)
        sup = f.sup_abs()
        tail = PointwiseTail(lambda n: avg_for(n), sup_bound=sup,
                             finite=sup != INF, name="conditional_expectation")
        return SimpleFunction(space, vals, tail)
    raise TypeError(f"unsupported partition type {type(partition)!r}")


def fiber_average(g: SimpleFunction, phi: Transformation) -> SimpleFunction:
    """Per-target block value of the conditional expectation onto phi's fiber
    algebra, assigned at the fiber's image atom; 0 where the fiber is empty."""
    space = g.space
    cache: dict = {}

    def value(y) -> float:
        if y not in cache:
            pre = phi.preimage(y)
            if pre == () or pre == ("all_except", tuple()):
                cache[y] = 0.0
            else:
                cache[y] = _block_average(g, pre)
        return cache[y]

    vals = tuple(value(y) for y in space.prefix_ids())
    if space.is_finite:
        return SimpleFunction(space, vals, None)
    sup = g.sup_abs()
    return SimpleFunction(
        space, vals,
        PointwiseTail(lambda n: value(n), sup_bound=sup, finite=sup != INF, name="fiber_average"),
    )


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
