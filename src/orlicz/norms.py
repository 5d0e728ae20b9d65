"""Modular, Luxemburg norm, Orlicz norm, dual-ball tests, and convergence
checks on discrete Orlicz spaces.

The modular is the primitive: everything else is bracketed bisection against
it (Luxemburg) or constrained maximization over the complementary unit ball
(Orlicz norm). The modular sums its prefix here and its tail through the
certified tail-sum kernel that measure owns; tail contributions are certified
or refused, never truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .extreal import INF, xmul, xsum
from .measure import (
    SimpleFunction,
    _tail_integral_bounds,
    _tail_modular_bounds,
    _tail_signed_integral,
)
from .tails import ConstantTail, SparseGeometricTail, UnresolvedTail, tail_product
from .young import YoungFunction

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
_MAX_EXPAND = 200


@dataclass(frozen=True)
class NormResult:
    """A computed norm value with its method and achieved tolerance.

    value is +inf exactly when the function fails to belong to the space.
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
            # 0 * inf = 0 in either direction.
            terms = np.where((terms == 0.0) | (wv == 0.0), 0.0, terms * wv)
        terms = np.where(terms == 0.0, 0.0, terms * f.space.weight_vector)
    return float(np.sum(terms))


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
    if isinstance(t, ConstantTail) and t.value != 0.0:
        if space.law.tail_mass(space.depth) == INF and phi.zero_radius() == 0.0:
            return "nonzero constant tail over infinite mass"
    if isinstance(t, SparseGeometricTail) and t.coeff != 0.0:
        power = phi.as_power()
        if power is not None:
            from .measure import PowerLawWeights, ConstantWeights

            law = space.law
            s = law.s if isinstance(law, PowerLawWeights) else (0.0 if isinstance(law, ConstantWeights) else None)
            if s is not None:
                ratio = t.growth ** power[1] * float(t.base) ** (-s)
                if ratio >= 1.0:
                    return f"sparse tail series has scale-invariant ratio {ratio:g} >= 1"
    return None


def luxemburg_norm(
    phi: YoungFunction, f: SimpleFunction, rel_tol: float = DEFAULT_REL_TOL
) -> NormResult:
    """inf{k > 0 : modular(f/k) <= 1}, located by bracketed bisection on the
    nonincreasing map k -> modular(f/k); the returned value satisfies
    modular(f / value) <= 1."""
    if f.is_zero():
        return NormResult(0.0, "analytic", 0.0, "zero function")
    cert = _diverges_for_all_scalings(phi, f)
    if cert is not None:
        return NormResult(INF, "analytic", 0.0, f"not in the space: {cert}")

    def le_one(k: float) -> bool:
        lo, hi = modular_bounds(phi, f, scale=1.0 / k)
        if hi <= 1.0:
            return True
        if lo > 1.0:
            return False
        raise UnresolvedTail(
            "modular bounds straddle 1 at the bisection point", lower=lo, upper=hi
        )

    k = 1.0
    if le_one(k):
        hi = k
        for _ in range(_MAX_EXPAND):
            if not le_one(hi / 2.0):
                lo = hi / 2.0
                break
            hi /= 2.0
        else:
            return NormResult(hi, "bisection", hi, "norm below bracket floor")
    else:
        lo = k
        for _ in range(_MAX_EXPAND):
            if le_one(lo * 2.0):
                hi = lo * 2.0
                break
            lo *= 2.0
        else:
            return NormResult(
                INF, "bisection", 0.0,
                f"modular stayed above 1 through k = 2**{_MAX_EXPAND}",
            )
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if le_one(mid):
            hi = mid
        else:
            lo = mid
    return NormResult(hi, "bisection", (hi - lo) / hi)


# ---------------------------------------------------------------------------
# Orlicz norm via the complementary unit ball
# ---------------------------------------------------------------------------


def _effective_support(f: SimpleFunction) -> tuple[list, list, list]:
    """(atoms, |values|, weights) where f is nonzero; requires a zero tail."""
    space = f.space
    if not space.is_finite and not f.tail.is_zero():
        raise ValueError("the dual-ball norm requires a finite space or a zero tail law")
    atoms, vals, weights = [], [], []
    for a, v in f.items():
        if v != 0.0:
            atoms.append(a)
            vals.append(abs(v))
            weights.append(space.weight(a))
    return atoms, vals, weights


def orlicz_norm(phi: YoungFunction, f: SimpleFunction, rel_tol: float = DEFAULT_REL_TOL) -> NormResult:
    """sup of the pairing with g over the complementary unit modular ball.

    Solved through the one-parameter stationarity family
    g_i = inv_subgradient(psi)(|f_i| / lambda) with scalar root finding on the
    modular constraint; a feasible convex blend repairs jump discontinuities.
    """
    atoms, vals, weights = _effective_support(f)
    if not atoms:
        return NormResult(0.0, "analytic", 0.0, "zero function")
    ok, w = f.all_finite()
    if not ok:
        return NormResult(INF, "analytic", 0.0, f"f({w}) infinite")
    psi = phi.conjugate()

    power = psi.as_power()
    if power is not None and power[1] == 1.0:
        # Dual ball is an L1 ball: the pairing maximum sits on one atom.
        val = max(v / power[0] for v in vals)
        return NormResult(val, "analytic", 0.0, "linear dual modular")
    from .young import HardCap

    if isinstance(psi, HardCap):
        # Dual ball is the sup ball of radius cap: the pairing is the L1 norm.
        val = psi.cap * sum(v * w for v, w in zip(vals, weights))
        return NormResult(val, "analytic", 0.0, "sup-ball dual")

    def g_of(lam: float) -> list[float]:
        return [psi.inv_subgradient(v / lam) for v in vals]

    def constraint(lam: float) -> float:
        return xsum(xmul(psi(g), w) for g, w in zip(g_of(lam), weights))

    def objective(gs: Sequence[float]) -> float:
        return sum(v * g * w for v, g, w in zip(vals, gs, weights))

    lam = 1.0
    if constraint(lam) <= 1.0:
        hi = lam
        lo = None
        for _ in range(_MAX_EXPAND):
            if constraint(hi / 2.0) > 1.0:
                lo = hi / 2.0
                break
            hi /= 2.0
        if lo is None:
            # Constraint never reaches 1: the free configuration is optimal.
            gs = g_of(hi)
            return NormResult(objective(gs), "dual-optimization", 0.0, "constraint slack at all scales")
    else:
        lo = lam
        hi = None
        for _ in range(_MAX_EXPAND):
            if constraint(lo * 2.0) <= 1.0:
                hi = lo * 2.0
                break
            lo *= 2.0
        if hi is None:
            return _projected_ascent(phi, psi, vals, weights, rel_tol)
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if constraint(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    g_hi = g_of(hi)
    best = objective(g_hi)
    c_hi = constraint(hi)
    c_lo = constraint(lo)
    if c_lo != INF and c_lo > 1.0 and c_hi < 1.0:
        # Convex blend across the jump: feasible by convexity of the modular.
        t = (c_lo - 1.0) / (c_lo - c_hi)
        g_lo = g_of(lo)
        g_mix = [t * a + (1.0 - t) * b for a, b in zip(g_hi, g_lo)]
        mix_modular = xsum(xmul(psi(g), w) for g, w in zip(g_mix, weights))
        if mix_modular <= 1.0 + 1e-12:
            best = max(best, objective(g_mix))
    return NormResult(best, "dual-optimization", (hi - lo) / hi)


def _projected_ascent(phi, psi, vals, weights, rel_tol, max_iter: int = 10_000) -> NormResult:
    """Fallback maximizer: gradient ascent with feasibility rescaling."""
    gs = [psi.inverse(1.0 / max(sum(weights), 1e-300)) for _ in vals]
    step = 1.0
    best = 0.0

    def feasible(cands):
        lo, hi = 0.0, 1.0
        def mod(t):
            return xsum(xmul(psi(t * g), w) for g, w in zip(cands, weights))
        if mod(1.0) <= 1.0:
            return cands
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mod(mid) <= 1.0:
                lo = mid
            else:
                hi = mid
        return [lo * g for g in cands]

    gs = feasible(gs)
    for _ in range(max_iter):
        cand = [g + step * v * w for g, v, w in zip(gs, vals, weights)]
        cand = feasible(cand)
        val = sum(v * g * w for v, g, w in zip(vals, cand, weights))
        if val > best * (1.0 + rel_tol):
            best = val
            gs = cand
        else:
            step /= 2.0
            if step < 1e-14:
                break
    return NormResult(best, "dual-optimization", rel_tol, "projected ascent fallback")


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
    atoms, vals, weights = _effective_support(f)
    if not atoms:
        return NormResult(0.0, "brute-force-oracle", 0.0)
    psi = phi.conjugate()
    n = len(atoms)
    if n > 4:
        raise ValueError("brute-force oracle is restricted to <= 4 active atoms")
    v = np.array(vals)
    w = np.array(weights)
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
    from .young import delta2_probe

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
