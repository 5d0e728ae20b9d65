"""Modular, Luxemburg norm, Orlicz norm, dual-ball tests, and convergence
checks on discrete Orlicz spaces.

The modular is the primitive: everything else is bracketed bisection against
it (Luxemburg) or constrained maximization over the complementary unit ball
(Orlicz norm). The modular sums its prefix here and its tail through the
certified tail-sum kernel that measure owns; tail contributions are certified
or refused, never truncated.

Both norms search one scale by the same dyadic bisection: k in modular(f/k)
<= 1 for the Luxemburg norm, the dual scale lambda of the stationarity family
for the Orlicz norm, whose constraint is one array expression over the atoms.
A point costs an evaluation only inside the call's certified bracket, which
a seed narrows around the root first (by homogeneity for coeff*|x|**p, by a
safeguarded secant on the log scale otherwise): a few evaluations per norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .extreal import INF, xmul
from .measure import (
    ConstantWeights,
    PowerLawWeights,
    SimpleFunction,
    _tail_integral_bounds,
    _tail_modular_bounds,
    _tail_signed_integral,
)
from .tails import ConstantTail, PatchedTail, SparseGeometricTail, UnresolvedTail, tail_product
from .young import HardCap, YoungFunction, delta2_probe

__all__ = [
    "NormResult",
    "modular",
    "modular_bounds",
    "luxemburg_norm",
    "orlicz_norm",
    "orlicz_norm_brute_oracle",
    "dual_ball_membership",
    "holder_pairing",
    "convergence_check",
    "ConvergenceReport",
]

DEFAULT_REL_TOL = 1e-12
# The dyadic search doubles and halves its scale through 2**+-1023, the
# widest powers of two whose reciprocals are finite.
_EXPAND = 1023
_K_MIN, _K_MAX = 2.0**-_EXPAND, 2.0**_EXPAND
# Seeds evaluate at r*(1 -+ _SEED_HALF_WIDTH) around a root estimate r; the
# width sits below DEFAULT_REL_TOL (about 2**-40), so the bisection then
# resolves inside the seeded bracket.
_SEED_HALF_WIDTH = 2.0**-44
# The secant seed stops after _SEED_STEPS evaluations (the bisection then
# evaluates inside whatever bracket it left), or once its step falls below
# _SEED_STEP_TOL in log k, where the secant's next estimate typically lies
# within _SEED_HALF_WIDTH of the root.
_SEED_STEPS = 16
_SEED_STEP_TOL = 2.0**-30


@dataclass(frozen=True)
class NormResult:
    """A computed norm value with its method and achieved tolerance.

    value is +inf when the function fails to belong to the space, and when a
    search found the norm beyond 2**1023; the note then says so.
    """

    value: float
    method: str  # analytic | bisection | dual-optimization | brute-force-oracle
    achieved_tol: float = 0.0
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "achieved_tol": self.achieved_tol,
            "note": self.note,
        }


# ---------------------------------------------------------------------------
# Modular
# ---------------------------------------------------------------------------


def modular_bounds(
    phi: YoungFunction,
    f: SimpleFunction,
    scale: float = 1.0,
    weight: Optional[SimpleFunction] = None,
) -> tuple[float, float]:
    """Certified bounds for the modular sum of phi(scale*|f|) (* weight) d mu."""
    space = f.space
    prefix = _prefix_modular(phi, f, scale, weight)
    if space.is_finite:
        return prefix, prefix
    lo, hi = _tail_modular_bounds(phi, f.tail, scale, weight.tail if weight is not None else None, space)
    if prefix == INF or lo == INF:
        return INF, INF
    return prefix + lo, prefix + hi if hi != INF else INF


def _xmul_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b elementwise with 0 * inf = 0 in either direction (xmul on
    arrays); call it under np.errstate(invalid="ignore")."""
    return np.where((a == 0.0) | (b == 0.0), 0.0, a * b)


def _prefix_modular(
    phi: YoungFunction, f: SimpleFunction, scale: float, weight: Optional[SimpleFunction]
) -> float:
    vals = f.value_vector
    with np.errstate(over="ignore", invalid="ignore"):
        # An infinite value gives phi(inf) at every scale, 0 included.
        xs = scale * np.abs(vals) if scale != 0.0 else np.where(np.isinf(vals), INF, 0.0)
        terms = phi.eval_array(xs)
        if weight is not None:
            wv = weight.value_vector
            if np.any(wv < 0):
                raise ValueError("modular weights must be nonnegative")
            terms = _xmul_array(terms, wv)
        return float(np.sum(_xmul_array(terms, f.space.weight_vector)))


def modular(
    phi: YoungFunction,
    f: SimpleFunction,
    scale: float = 1.0,
    weight: Optional[SimpleFunction] = None,
) -> float:
    """The modular sum of phi(scale*|f|) d mu; +inf permitted.

    Raises UnresolvedTail (carrying partial-sum bounds) when the tail cannot
    be certified to machine precision.
    """
    lo, hi = modular_bounds(phi, f, scale, weight)
    if lo == hi:
        return lo
    if hi - lo <= 1e-12 * max(1.0, lo):
        return lo
    raise UnresolvedTail("modular not resolved beyond certified bounds", lower=lo, upper=hi)


# ---------------------------------------------------------------------------
# Luxemburg norm
# ---------------------------------------------------------------------------


def _diverges_for_all_scalings(phi: YoungFunction, f: SimpleFunction) -> Optional[str]:
    """A certificate that the modular of every positive scaling of f is +inf."""
    ok, w = f.all_finite()
    if not ok:
        return f"f({w}) is infinite on an atom of positive measure"
    space = f.space
    if space.is_finite:
        return None
    t = f.tail
    if isinstance(t, PatchedTail):
        t = t.base  # finitely many patches cannot cancel infinite mass
    if isinstance(t, ConstantTail) and t.value != 0.0:
        if space.law.tail_mass(space.depth) == INF and phi.zero_radius() == 0.0:
            return "nonzero constant tail over infinite mass"
    if isinstance(t, SparseGeometricTail) and t.coeff != 0.0:
        power = phi.as_power()
        if power is not None:
            law = space.law
            s = law.s if isinstance(law, PowerLawWeights) else (0.0 if isinstance(law, ConstantWeights) else None)
            if s is not None:
                ratio = t.growth ** power[1] * float(t.base) ** (-s)
                if ratio >= 1.0:
                    return f"sparse tail series has scale-invariant ratio {ratio:g} >= 1"
    return None


class _Bracket:
    """The certified bracket of one dyadic search.

    ``bounds(k)`` gives certified (lower, upper) bounds on a quantity that is
    nonincreasing in the scale k > 0: the modular of f/k for the Luxemburg
    norm, the dual constraint for the Orlicz norm. ``infeasible`` is the
    largest k evaluated with the quantity proved > 1, ``feasible`` the
    smallest with it proved <= 1, so a k outside the open interval between
    them is decided without evaluating it. The state lives for one call only.
    """

    def __init__(self, bounds: Callable[[float], tuple[float, float]]):
        self.bounds = bounds
        self.infeasible, self.feasible = 0.0, INF

    def evaluate(self, k: float) -> tuple[float, float]:
        lo, hi = self.bounds(k)
        if hi <= 1.0:
            self.feasible = min(self.feasible, k)
        elif lo > 1.0:
            self.infeasible = max(self.infeasible, k)
        return lo, hi

    def le_one(self, k: float) -> bool:
        if k <= self.infeasible:
            return False
        if self.feasible <= k < INF:  # +inf is never proved feasible
            return True
        lo, hi = self.evaluate(k)
        if hi <= 1.0:
            return True
        if lo > 1.0:
            return False
        raise UnresolvedTail(
            "modular bounds straddle 1 at the bisection point", lower=lo, upper=hi
        )

    def probe(self, k: float) -> Optional[tuple[float, float]]:
        """A seed evaluation: the bounds at k, or None where k is outside the
        search range or the tail is unresolved. Never raises."""
        if not _K_MIN <= k <= _K_MAX:
            return None
        try:
            return self.evaluate(k)
        except UnresolvedTail:
            return None


def _seed_power(br: _Bracket, p: float, s: float) -> None:
    """Seed a bracket whose quantity is homogeneous of degree -p in k, as
    the modular of coeff*|x|**p is: q(k) = (s/k)**p * q(s), so the bounds at
    k = s place the root between s*lo**(1/p) and s*hi**(1/p)."""
    b = br.probe(s)
    if b is None:
        return
    lo, hi = b
    br.probe(s * lo ** (1.0 / p) * (1.0 - _SEED_HALF_WIDTH))
    br.probe(s * hi ** (1.0 / p) * (1.0 + _SEED_HALF_WIDTH))


def _seed_search(br: _Bracket, s: float) -> None:
    """Seed the bracket of a general Young function by a safeguarded secant
    search on g(u) = log q(s e**u), which decreases in u.

    For the modular q(k) = modular(f/k), convexity with phi(0) = 0 gives
    phi(x/c) <= phi(x)/c for c >= 1, so g falls by at least 1 per unit of u
    where it is finite: from a point with finite g, u + g(u) lies on the
    other side of the root. (The Orlicz dual constraint has no such proof;
    a wrong step there only costs evaluations, since the bracket stays
    certified whatever the seed probes.) Where g is -inf (q vanishes) or
    +inf, the search steps outward by doubling steps. Once both sides are
    known, it takes the secant through the last two points when that falls
    inside the bracket, else the midpoint. Once the step is below
    _SEED_STEP_TOL, the estimate r is close enough that
    r*(1 -+ _SEED_HALF_WIDTH) brackets the root.
    """

    def g(u: float) -> Optional[float]:
        b = br.probe(s * math.exp(u) if u < 700.0 else INF)
        if b is None or b[0] <= 1.0 < b[1]:
            return None
        return math.log(b[1]) if b[1] > 0.0 else -INF

    a = b = prev = None  # a: g > 0 (infeasible), b: g <= 0 (feasible)
    u, step = 0.0, 1.0
    for _ in range(_SEED_STEPS):
        gu = g(u)
        if gu is None:
            return
        if gu > 0.0:
            a = (u, gu)
        else:
            b = (u, gu)
        if a is None:
            nxt = b[0] + b[1] if b[1] != -INF else b[0] - step
        elif b is None:
            nxt = a[0] + a[1] if a[1] != INF else a[0] + step
        else:
            nxt = 0.5 * (a[0] + b[0])
            if prev is not None and math.isfinite(gu) and math.isfinite(prev[1]) and gu != prev[1]:
                sec = u - gu * (u - prev[0]) / (gu - prev[1])
                if a[0] < sec < b[0]:
                    nxt = sec
        step *= 2.0
        if abs(nxt - u) <= _SEED_STEP_TOL:
            r = s * math.exp(nxt)
            br.probe(r * (1.0 - _SEED_HALF_WIDTH))
            br.probe(r * (1.0 + _SEED_HALF_WIDTH))
            return
        prev, u = (u, gu), nxt


def _seed(br: _Bracket, p: Optional[float], s: float) -> None:
    """Narrow the bracket around the root, by homogeneity when the quantity
    scales as k**-p, else by the secant search; then, if no scale is proved
    infeasible, probe 2**-1023, so that the halving is not evaluated."""
    if p is not None:
        _seed_power(br, p, s)
    else:
        _seed_search(br, s)
    if br.infeasible == 0.0:
        br.probe(_K_MIN)


def _dyadic_search(le_one: Callable[[float], bool], rel_tol: float) -> tuple[float, float]:
    """The dyadic bracket (lo, hi) of a predicate that is false below a
    root and true above it: start at 1, double or halve through 2**+-1023,
    then bisect until hi - lo <= rel_tol*hi or no float lies strictly
    between the ends. lo = 0.0 when le_one held through 2**-1023, hi = +inf
    when it failed through 2**1023."""
    if le_one(1.0):
        hi = 1.0
        for _ in range(_EXPAND):
            if not le_one(hi / 2.0):
                lo = hi / 2.0
                break
            hi /= 2.0
        else:
            return 0.0, hi
    else:
        lo = 1.0
        for _ in range(_EXPAND):
            if le_one(lo * 2.0):
                hi = lo * 2.0
                break
            lo *= 2.0
        else:
            return lo, INF
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent floats: rel_tol is below their spacing
            break
        if le_one(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _magnitude(f: SimpleFunction) -> float:
    """sup|f| where it is certified finite, else the largest prefix value:
    the unit of k from which the seeds start."""
    s = f.sup_abs()
    if s == INF:
        s = float(np.max(np.abs(f.value_vector), initial=0.0))
    return s


def luxemburg_norm(
    phi: YoungFunction, f: SimpleFunction, rel_tol: float = DEFAULT_REL_TOL
) -> NormResult:
    """inf{k > 0 : modular(f/k) <= 1}, located by bracketed bisection on the
    nonincreasing map k -> modular(f/k); the returned value satisfies
    modular(f / value) <= 1.

    The dyadic search starts at k = 1, doubles or halves through 2**+-1023
    and bisects to rel_tol (or to adjacent floats). Each of its points is
    answered from the certified bracket of the call when it lies outside it,
    and by a modular evaluation only inside it. A seed first evaluates a few
    points around an estimate of the root, so most points cost a comparison,
    and the result is the dyadic bracket that evaluating every point would
    give.
    """
    if f.is_zero():
        return NormResult(0.0, "analytic", 0.0, "zero function")
    cert = _diverges_for_all_scalings(phi, f)
    if cert is not None:
        return NormResult(INF, "analytic", 0.0, f"not in the space: {cert}")

    br = _Bracket(lambda k: modular_bounds(phi, f, scale=1.0 / k))
    power = phi.as_power()
    _seed(br, power[1] if power is not None else None, _magnitude(f))
    lo, hi = _dyadic_search(br.le_one, rel_tol)
    if lo == 0.0:
        return NormResult(hi, "bisection", hi, "norm below bracket floor")
    if hi == INF:
        return NormResult(
            INF, "bisection", 0.0, f"modular stayed above 1 through k = 2**{_EXPAND}"
        )
    return NormResult(hi, "bisection", (hi - lo) / hi)


# ---------------------------------------------------------------------------
# Orlicz norm via the complementary unit ball
# ---------------------------------------------------------------------------


def _effective_support(f: SimpleFunction) -> tuple[np.ndarray, np.ndarray]:
    """(|values|, weights) where f is nonzero; requires a zero tail."""
    space = f.space
    if not space.is_finite and not f.tail.is_zero():
        raise ValueError("the dual-ball norm requires a finite space or a zero tail law")
    vals = np.abs(f.value_vector)
    nonzero = vals != 0.0
    return vals[nonzero], space.weight_vector[nonzero]


def _dual_modular(psi: YoungFunction, g: np.ndarray, weights: np.ndarray) -> float:
    """The sum of psi(g)*w with 0 * inf = 0; +inf if any term is."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sum(_xmul_array(psi.eval_array(g), weights)))


def _dual_point(
    psi: YoungFunction, vals: np.ndarray, weights: np.ndarray, lam: float
) -> tuple[np.ndarray, float]:
    """The stationarity point g = inv_subgradient(psi)(|f|/lam) and its dual
    constraint: one evaluation of the Orlicz norm's search."""
    with np.errstate(over="ignore"):
        g = psi.inv_subgradient(vals / lam)
    return g, _dual_modular(psi, g, weights)


def orlicz_norm(phi: YoungFunction, f: SimpleFunction, rel_tol: float = DEFAULT_REL_TOL) -> NormResult:
    """sup of the pairing with g over the complementary unit modular ball.

    Solved through the one-parameter stationarity family
    g_i = inv_subgradient(psi)(|f_i| / lambda): the dual constraint
    c(lambda), the psi-modular of g, is nonincreasing in lambda, and the
    dyadic search of the Luxemburg norm brackets its crossing of 1 on the
    same kind of certified bracket (seeded by c(lambda) = lambda**-p * c(1)
    when phi is coeff*|x|**p); a feasible convex blend repairs jump
    discontinuities.
    """
    vals, weights = _effective_support(f)
    if not vals.size:
        return NormResult(0.0, "analytic", 0.0, "zero function")
    ok, w = f.all_finite()
    if not ok:
        return NormResult(INF, "analytic", 0.0, f"f({w}) infinite")
    psi = phi.conjugate()

    power = psi.as_power()
    if power is not None and power[1] == 1.0:
        # Dual ball is an L1 ball: the pairing maximum sits on one atom.
        return NormResult(float(np.max(vals)) / power[0], "analytic", 0.0, "linear dual modular")
    if isinstance(psi, HardCap):
        # Dual ball is the sup ball of radius cap: the pairing is the L1 norm.
        with np.errstate(over="ignore"):
            val = psi.cap * float(np.sum(vals * weights))
        return NormResult(val, "analytic", 0.0, "sup-ball dual")

    def objective(g: np.ndarray) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.sum(_xmul_array(vals * g, weights)))

    def constraint(lam: float) -> tuple[float, float]:
        c = _dual_point(psi, vals, weights, lam)[1]
        return c, c  # exact, so both bounds

    br = _Bracket(constraint)
    # psi = coeff*|x|**q gives g ~ lambda**(-1/(q-1)), so c ~ lambda**(-p)
    # with p = q/(q-1), the exponent of phi.
    _seed(br, power[1] / (power[1] - 1.0) if power is not None else None, float(np.max(vals)))
    lo, hi = _dyadic_search(br.le_one, rel_tol)
    if lo == 0.0:
        # Constraint never reaches 1: the free configuration is optimal.
        g = _dual_point(psi, vals, weights, hi)[0]
        return NormResult(objective(g), "dual-optimization", 0.0,
                          "constraint slack at all scales")
    if hi == INF:
        # g(Lambda)/c(Lambda) is feasible by convexity, and Young's equality
        # gives it the pairing Lambda*(modular_phi(f/Lambda) + c)/c >= Lambda
        # at Lambda = 2**1023: the norm is at least 2**1023, reported as
        # +inf as the Luxemburg norm is.
        return NormResult(INF, "dual-optimization", 0.0,
                          f"dual constraint stayed above 1 through lambda = 2**{_EXPAND}")
    g_hi, c_hi = _dual_point(psi, vals, weights, hi)
    best = objective(g_hi)
    g_lo, c_lo = _dual_point(psi, vals, weights, lo)
    if c_lo != INF and c_lo > 1.0 and c_hi < 1.0:
        # Convex blend across the jump: feasible by convexity of the modular.
        t = (c_lo - 1.0) / (c_lo - c_hi)
        g_mix = t * g_hi + (1.0 - t) * g_lo
        if _dual_modular(psi, g_mix, weights) <= 1.0 + 1e-12:
            best = max(best, objective(g_mix))
    return NormResult(best, "dual-optimization", (hi - lo) / hi)


def _boundary_scale(psi: YoungFunction, dirs: np.ndarray, w: np.ndarray,
                    gmax: np.ndarray, iters: int = 50) -> np.ndarray:
    """Largest t per direction with the modular of t*u inside the unit ball.

    Vectorized bisection on t; the modular is nondecreasing in t, and
    t <= min_i gmax_i/u_i brackets every root.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        caps = np.where(dirs > 0, gmax / dirs, INF)
    hi = np.min(caps, axis=1) * (1.0 + 1e-9)
    hi = np.where(np.isfinite(hi), hi, 1e9)
    lo = np.zeros(len(dirs))

    def inside(ts: np.ndarray) -> np.ndarray:
        cost = np.zeros(len(dirs))
        for i in range(dirs.shape[1]):
            cost = cost + psi.eval_array(ts * dirs[:, i]) * w[i]
        return cost <= 1.0

    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        ok = inside(mid)
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    return lo


def orlicz_norm_brute_oracle(
    phi: YoungFunction, f: SimpleFunction, rounds: int = 24
) -> NormResult:
    """Test oracle: grid search over the boundary of the complementary unit
    ball, parametrized by ray directions scaled onto the boundary.

    The optimum of the linear objective lies on the boundary, and the value
    is quadratically flat in the direction there, so a zooming direction grid
    converges fast and every probe is feasible. Never a production path.
    """
    v, w = _effective_support(f)
    if not v.size:
        return NormResult(0.0, "brute-force-oracle", 0.0)
    psi = phi.conjugate()
    n = len(v)
    if n > 4:
        raise ValueError("brute-force oracle is restricted to <= 4 active atoms")
    gmax = np.array([psi.inverse(1.0 / wi) for wi in w])
    gmax = np.where(np.isfinite(gmax), gmax, 1e9)
    coef = v * w
    if n == 1:
        t = _boundary_scale(psi, np.ones((1, 1)), w, gmax)[0]
        return NormResult(float(coef[0] * t), "brute-force-oracle", 1e-12)
    pts = {2: 33, 3: 13, 4: 9}[n]
    lo = np.zeros(n)
    hi = np.ones(n)
    best = 0.0
    best_u = np.ones(n) / n
    for _ in range(rounds):
        axes = [np.linspace(lo[i], hi[i], pts) for i in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        dirs = np.stack([m.ravel() for m in mesh], axis=1)
        dirs = dirs[np.any(dirs > 0, axis=1)]
        ts = _boundary_scale(psi, dirs, w, gmax)
        objs = ts * (dirs @ coef)
        k = int(np.argmax(objs))
        if objs[k] > best:
            best = float(objs[k])
            best_u = dirs[k]
        span = (hi - lo) / (pts - 1)
        lo = np.maximum(best_u - 2.0 * span, 0.0)
        hi = np.minimum(best_u + 2.0 * span, 1.0)
    return NormResult(best, "brute-force-oracle", float(np.max(hi - lo)))


def dual_ball_membership(psi: YoungFunction, g: SimpleFunction) -> bool:
    """Membership in the complementary unit modular ball (boundary included)."""
    lo, hi = modular_bounds(psi, g.abs())
    if hi <= 1.0:
        return True
    if lo > 1.0:
        return False
    raise UnresolvedTail("membership undecided within certified bounds", lower=lo, upper=hi)


# ---------------------------------------------------------------------------
# Pairing and convergence facts
# ---------------------------------------------------------------------------


def holder_pairing(f: SimpleFunction, g: SimpleFunction) -> float:
    """Sum of f*g d mu; errors out unless absolutely summable."""
    if f.space != g.space:
        raise ValueError("pairing requires functions on the same space")
    space = f.space
    total = 0.0
    for (a, fv), (_, gv) in zip(f.items(), g.items()):
        t = xmul(xmul(fv, gv), space.weight(a))
        if t in (INF, -INF):
            raise ValueError("pairing has an infinite term")
        total += t
    if space.is_finite:
        return total
    ft, gt = f.tail, g.tail
    if ft.is_zero() or gt.is_zero():
        return total

    prod = tail_product(f.abs().tail, g.abs().tail)
    lo, hi = _tail_integral_bounds(prod, space)
    if hi == INF:
        raise ValueError("pairing tail is not certified absolutely summable")
    signed = tail_product(ft, gt)
    s = 0.0
    if hi > 0.0:
        try:
            slo, shi = _tail_signed_integral(signed, space)
            if shi - slo <= 1e-12 * max(1.0, abs(slo)):
                s = slo
            else:
                raise UnresolvedTail("signed pairing tail too loose")
        except UnresolvedTail:
            # Explicit summation; the absolute tail bound certifies the
            # remainder, which must be negligible or the pairing is refused.
            m = space.depth
            s = 0.0
            partial_abs = 0.0
            for nn in range(m + 1, m + 2049):
                term = ft.value_at(nn) * gt.value_at(nn) * space.law.weight(nn)
                s += term
                partial_abs += abs(term)
            residual = hi - partial_abs
            if not residual <= 1e-12 * max(1.0, abs(total) + abs(s)):
                raise ValueError(
                    "pairing tail remainder not certified below tolerance"
                )
    return total + s


@dataclass(frozen=True)
class ConvergenceReport:
    """Trends along a sequence: distances in norm, modulars, and the verdicts
    for the two convergence implications."""

    norm_distances: tuple[float, ...]
    modulars: tuple[float, ...]
    modular_limit: float
    norm_converges: bool
    modular_converges: bool
    doubling_holds: bool
    norm_implies_modular_ok: bool
    modular_plus_pointwise_implies_norm_ok: Optional[bool]

    def to_dict(self) -> dict:
        return {
            "norm_distances": list(self.norm_distances),
            "modulars": list(self.modulars),
            "modular_limit": self.modular_limit,
            "norm_converges": self.norm_converges,
            "modular_converges": self.modular_converges,
            "doubling_holds": self.doubling_holds,
            "norm_implies_modular_ok": self.norm_implies_modular_ok,
            "modular_plus_pointwise_implies_norm_ok": self.modular_plus_pointwise_implies_norm_ok,
        }


def convergence_check(
    phi: YoungFunction,
    fs: Sequence[SimpleFunction],
    f: SimpleFunction,
    tol: float = 1e-9,
) -> ConvergenceReport:
    """Executable form of the norm/modular convergence facts: norm convergence
    forces modular convergence; with the doubling condition, modular
    convergence plus pointwise convergence forces norm convergence."""
    dists = tuple(luxemburg_norm(phi, fn.minus(f)).value for fn in fs)
    mods = tuple(modular(phi, fn) for fn in fs)
    mod_f = modular(phi, f)
    norm_conv = dists[-1] <= tol and dists[-1] <= dists[0] + tol
    mod_conv = (
        abs(mods[-1] - mod_f) <= tol * max(1.0, abs(mod_f))
        if mod_f != INF
        else mods[-1] == INF
    )
    d2 = delta2_probe(phi)
    norm_implies_ok = (not norm_conv) or mod_conv
    pointwise_conv = all(
        abs(fs[-1].value(a) - f.value(a)) <= tol * max(1.0, abs(f.value(a)))
        for a in f.space.prefix_ids()
    )
    if d2.holds and mod_conv and pointwise_conv:
        mpn = norm_conv
    else:
        mpn = None
    return ConvergenceReport(
        norm_distances=dists,
        modulars=mods,
        modular_limit=mod_f,
        norm_converges=norm_conv,
        modular_converges=mod_conv,
        doubling_holds=d2.holds,
        norm_implies_modular_ok=norm_implies_ok,
        modular_plus_pointwise_implies_norm_ok=mpn,
    )
