"""Young-function algebra: closed-form families, Legendre conjugation,
generalized inverses, and grid-certified growth-condition probes.

Every family is an even convex function vanishing at 0 and tending to +inf.
Conjugation of closed-form families is analytic (table-driven); the piecewise
linear family is conjugated by the exact breakpoint transform in rational
arithmetic, so double conjugation restores breakpoints exactly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .extreal import INF
from .verdicts import ConsistencyError

__all__ = [
    "YoungFunction",
    "PowerAbs",
    "PowerOverP",
    "ScaledPower",
    "ExpMinusOne",
    "XLogX",
    "HardCap",
    "PiecewiseLinearConvex",
    "AbsValue",
    "conjugate",
    "generalized_inverse",
    "young_inequality_gap",
    "GrowthStatus",
    "GrowthVerdict",
    "delta2_probe",
    "delta_prime_probe",
    "nabla_prime_probe",
    "n_function_probe",
    "sum_bound_constants",
    "DEFAULT_PROBE_RANGE",
    "DEFAULT_GRID_PER_DECADE",
]

DEFAULT_PROBE_RANGE = (1e-6, 1e6)
DEFAULT_GRID_PER_DECADE = 512
_LOG_OVERFLOW = 700.0
_FLOAT_MIN = sys.float_info.min
_LOG_MAX = math.log(sys.float_info.max)


def _float_array(x) -> np.ndarray:
    """x as a float array with at least one dimension."""
    return np.atleast_1d(np.asarray(x, dtype=float))


def _abs_array(x) -> np.ndarray:
    """|x| as a float array with at least one dimension."""
    return np.abs(_float_array(x))


def _shaped(x, out: np.ndarray):
    """``out`` in the form of the argument ``x``: a float for a scalar."""
    return float(out[0]) if np.ndim(x) == 0 else out


class YoungFunction:
    """Base interface. Instances are immutable and safe to share across threads."""

    def __call__(self, x: float) -> float:
        raise NotImplementedError

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        arr = np.asarray(xs, dtype=float)
        return np.array([self(float(x)) for x in arr.ravel()]).reshape(arr.shape)

    def conjugate(self) -> "YoungFunction":
        raise NotImplementedError

    def inverse(self, y: float) -> float:
        """Generalized inverse inf{x >= 0 : value(x) > y}."""
        raise NotImplementedError

    def inverse_log(self, log_y: float) -> float:
        """inverse(exp(log_y)), stable for arguments beyond float range."""
        if log_y == -INF:
            return self.inverse(0.0)
        if log_y > _LOG_OVERFLOW:
            return self.inverse(INF)
        return self.inverse(math.exp(log_y))

    def derivative(self, x: float) -> float:
        """A subgradient selection at x >= 0."""
        raise NotImplementedError

    def inv_subgradient(self, v):
        """Largest g >= 0 whose subdifferential contains v (right inverse of
        the slope), elementwise over an array of v >= 0, +inf where no finite
        g has slope v. A float gives a float."""
        raise NotImplementedError

    def zero_radius(self) -> float:
        """sup{x >= 0 : value(x) == 0}; 0 for functions vanishing only at the origin."""
        return 0.0

    def log_value(self, x):
        """ln(value(|x|)) elementwise over an array, computed stably: -inf
        where the value is 0, +inf where it is +inf. A float gives a float."""
        with np.errstate(divide="ignore"):
            return _shaped(x, np.log(self.eval_array(_abs_array(x))))

    def as_power(self) -> Optional[Tuple[float, float]]:
        """(coeff, p) when the function is exactly coeff*|x|**p, else None."""
        return None

    def label(self) -> str:
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError


class _Power(YoungFunction):
    """coeff * |x|**p with p >= 1: the conjugate, inverses, slopes and log
    values every power family shares. A subclass gives ``p`` and ``coeff``,
    the message of its argument check, and its own evaluation where the
    rounding of its formula differs."""

    _requires = "{name} requires p >= 1, got {p}"
    _p_above_one = False

    def __post_init__(self):
        # p is checked first: PowerOverP's coeff is 1/p.
        p = self.p
        if not (1.0 <= p < INF and (p > 1.0 or not self._p_above_one) and 0.0 < self.coeff < INF):
            raise ValueError(self._requires.format(name=type(self).__name__, p=p))

    def __call__(self, x: float) -> float:
        a = abs(x)
        if self.coeff == 1.0:
            return a**self.p
        try:
            t = a ** self.p
        except OverflowError:
            t = INF
        if _FLOAT_MIN <= t < INF or not 0.0 < a < INF:
            return self.coeff * t
        # |x|**p left the normal range; coeff*|x|**p may still be in it.
        lv = self.log_value(a)
        return math.exp(lv) if lv < _LOG_MAX else INF

    def eval_array(self, xs):
        a = np.abs(xs)
        if self.coeff == 1.0:
            return a**self.p
        with np.errstate(over="ignore", under="ignore"):
            t = a**self.p
            out = self.coeff * t
        odd = ~((_FLOAT_MIN <= t) & (t < INF)) & (0.0 < a) & (a < INF)
        if odd.any():
            # As in __call__: those values come from their logarithms.
            with np.errstate(over="ignore"):
                out = np.where(odd, np.exp(self.log_value(a)), out)
        return out

    def conjugate(self) -> YoungFunction:
        c, p = self.coeff, self.p
        if p == 1.0:
            return HardCap(c)
        q = p / (p - 1.0)
        try:
            t = (c * p) ** (-q)
        except OverflowError:
            t = INF
        b = c * (p - 1.0) * t
        if not (_FLOAT_MIN <= t < INF and _FLOAT_MIN <= b < INF):
            # (c*p)**(-q) or b left the normal float range; b itself may
            # still be in it, so take it from its logarithm.
            log_b = math.log(c) + math.log(p - 1.0) - q * (math.log(c) + math.log(p))
            b = math.exp(log_b) if log_b < _LOG_MAX else INF
            if not 0.0 < b < INF:
                raise ValueError(f"the conjugate of {self.label()} has coefficient "
                                 f"10**{log_b / math.log(10.0):.6g}, outside the float range")
        return ScaledPower(b, q)

    def inverse(self, y: float) -> float:
        if y == INF:
            return INF
        return (y / self.coeff) ** (1.0 / self.p)

    def inverse_log(self, log_y: float) -> float:
        if log_y == -INF:
            return 0.0
        try:
            return math.exp((log_y - math.log(self.coeff)) / self.p)
        except OverflowError:
            return INF

    def derivative(self, x: float) -> float:
        if self.p == 1.0:
            return self.coeff
        return self.coeff * self.p * x ** (self.p - 1.0)

    def inv_subgradient(self, v):
        # The slope jumps from 0 to +inf at coeff when p = 1.
        a = _float_array(v)
        if self.p == 1.0:
            return _shaped(v, np.where(a < self.coeff, 0.0, INF))
        cp = self.coeff * self.p
        if self.coeff != 1.0 and not _FLOAT_MIN <= cp < INF:
            # coeff*p left the normal range: take (v/(coeff*p))**(1/(p-1)) from logs.
            with np.errstate(divide="ignore", over="ignore"):
                log_cp = math.log(self.coeff) + math.log(self.p)
                return _shaped(v, np.exp((np.log(a) - log_cp) / (self.p - 1.0)))
        with np.errstate(over="ignore"):
            return _shaped(v, (a / cp) ** (1.0 / (self.p - 1.0)))

    def log_value(self, x):
        with np.errstate(divide="ignore"):
            return _shaped(x, math.log(self.coeff) + self.p * np.log(_abs_array(x)))

    def as_power(self):
        return (self.coeff, self.p)


@dataclass(frozen=True)
class PowerAbs(_Power):
    """|x|**p for p >= 1."""

    p: float
    coeff = 1.0

    def label(self) -> str:
        return f"power_abs:{self.p:g}"

    def descriptor(self) -> dict:
        return {"family": "power_abs", "p": self.p}


@dataclass(frozen=True)
class PowerOverP(_Power):
    """|x|**p / p for p > 1; closed under conjugation (p <-> q)."""

    p: float
    _requires = "{name} requires p > 1, got {p}"
    _p_above_one = True

    @property
    def coeff(self) -> float:
        return 1.0 / self.p

    def __call__(self, x: float) -> float:
        return abs(x) ** self.p / self.p

    def eval_array(self, xs):
        return np.abs(xs) ** self.p / self.p

    def conjugate(self) -> YoungFunction:
        return PowerOverP(self.p / (self.p - 1.0))

    def label(self) -> str:
        return f"power_over_p:{self.p:g}"

    def descriptor(self) -> dict:
        return {"family": "power_over_p", "p": self.p}


@dataclass(frozen=True)
class ScaledPower(_Power):
    """coeff * |x|**p; closed under conjugation, arises as the dual of PowerAbs."""

    coeff: float
    p: float
    _requires = "{name} requires coeff > 0 and p >= 1"

    def label(self) -> str:
        return f"scaled_power:{self.coeff:g}:{self.p:g}"

    def descriptor(self) -> dict:
        return {"family": "scaled_power", "coeff": self.coeff, "p": self.p}


@dataclass(frozen=True)
class ExpMinusOne(YoungFunction):
    """exp(|x|) - 1; grows too fast for the doubling condition."""

    def __call__(self, x: float) -> float:
        try:
            return math.expm1(abs(x))
        except OverflowError:
            return INF

    def eval_array(self, xs):
        with np.errstate(over="ignore"):
            return np.expm1(np.abs(xs))

    def conjugate(self) -> YoungFunction:
        return XLogX()

    def inverse(self, y: float) -> float:
        if y == INF:
            return INF
        return math.log1p(y)

    def inverse_log(self, log_y: float) -> float:
        if log_y == -INF:
            return 0.0
        if log_y > _LOG_OVERFLOW:
            # log(1 + e^L) = L up to e^-L
            return log_y
        return math.log1p(math.exp(log_y))

    def derivative(self, x: float) -> float:
        try:
            return math.exp(x)
        except OverflowError:
            return INF

    def inv_subgradient(self, v):
        # log(1) = 0 exactly, so clamping at 1 gives the flat branch v <= 1.
        return _shaped(v, np.log(np.maximum(_float_array(v), 1.0)))

    def log_value(self, x):
        a = _abs_array(x)
        # Each branch sees only its own side of 40, so neither overflows.
        near, far = np.minimum(a, 40.0), np.maximum(a, 40.0)
        with np.errstate(divide="ignore"):
            out = np.where(a > 40.0, far + np.log1p(-np.exp(-far)), np.log(np.expm1(near)))
        return _shaped(x, out)

    def label(self) -> str:
        return "exp_minus_one"

    def descriptor(self) -> dict:
        return {"family": "exp_minus_one"}


@dataclass(frozen=True)
class XLogX(YoungFunction):
    """|x| ln|x| - |x| + 1 beyond 1, zero on [0, 1]; the dual of exp(|x|) - 1."""

    def __call__(self, x: float) -> float:
        x = abs(x)
        if x <= 1.0:
            return 0.0
        if x == INF:
            return INF  # x log x - x is inf - inf in floating point
        return x * math.log(x) - x + 1.0

    def eval_array(self, xs):
        a = np.abs(np.asarray(xs, dtype=float))
        out = np.where(a == INF, INF, 0.0)
        m = (a > 1.0) & (a < INF)
        am = a[m]
        out[m] = am * np.log(am) - am + 1.0
        return out

    def conjugate(self) -> YoungFunction:
        return ExpMinusOne()

    def inverse(self, y: float) -> float:
        if y == INF:
            return INF
        if y <= 0.0:
            return 1.0
        # Halley steps on t = x - 1 > 0 for F(t) = (1 + t) log1p(t) - t - y,
        # from t = sqrt(2y) near the branch point (F ~ t^2/2) and from the
        # Lambert W asymptote x = (y - 1) / W((y - 1)/e), W(z) ~ ln z - ln ln z.
        if y < 4.0:
            t = math.sqrt(2.0 * y)
        else:
            z = (y - 1.0) / math.e
            w = math.log(z) - math.log(math.log(z)) if z > math.e else math.log1p(z)
            t = (y - 1.0) / w - 1.0
        for _ in range(8):
            lg = math.log1p(t)
            f = (1.0 + t) * lg - t - y
            step = f / (lg - f / (2.0 * (1.0 + t) * lg))
            t = t - step if step < t else 0.5 * t
            # x = 1 + t carries an absolute precision of ulp(x); stop there.
            if abs(step) <= 2.0**-50 * (1.0 + t):
                break
        return 1.0 + t

    def derivative(self, x: float) -> float:
        return math.log(x) if x > 1.0 else 0.0

    def inv_subgradient(self, v):
        a = _float_array(v)
        with np.errstate(over="ignore"):
            return _shaped(v, np.where(a <= 0.0, 1.0, np.exp(a)))

    def zero_radius(self) -> float:
        return 1.0

    def label(self) -> str:
        return "x_log_x"

    def descriptor(self) -> dict:
        return {"family": "x_log_x"}


@dataclass(frozen=True)
class HardCap(YoungFunction):
    """0 on [0, cap], +inf beyond; the dual of the absolute-value family."""

    cap: float

    def __post_init__(self):
        if not 0.0 < self.cap < INF:
            raise ValueError("HardCap requires cap > 0")

    def __call__(self, x: float) -> float:
        return 0.0 if abs(x) <= self.cap else INF

    def eval_array(self, xs):
        return np.where(np.abs(xs) <= self.cap, 0.0, INF)

    def conjugate(self) -> YoungFunction:
        return ScaledPower(self.cap, 1.0)

    def inverse(self, y: float) -> float:
        return self.cap

    def derivative(self, x: float) -> float:
        return 0.0 if x < self.cap else INF

    def inv_subgradient(self, v):
        return _shaped(v, np.full(_float_array(v).shape, self.cap))

    def zero_radius(self) -> float:
        return self.cap

    def label(self) -> str:
        return f"hard_cap:{self.cap:g}"

    def descriptor(self) -> dict:
        return {"family": "hard_cap", "cap": self.cap}


def AbsValue() -> PowerAbs:
    """The |x| family (PowerAbs with exponent 1)."""
    return PowerAbs(1.0)


class PiecewiseLinearConvex(YoungFunction):
    """Convex piecewise-linear function on [0, inf) given by breakpoints.

    ``points``: increasing (x, value) pairs starting at (0, 0) (the origin is
    prepended when omitted), with nondecreasing nonnegative slopes. Beyond the
    last breakpoint the function either continues with the last slope
    (extension="slope") or jumps to +inf (extension="inf").
    """

    def __init__(self, points: Sequence[Tuple[float, float]], extension: str = "slope"):
        if extension not in ("slope", "inf"):
            raise ValueError("extension must be 'slope' or 'inf'")
        pts = [
            (
                x if isinstance(x, Fraction) else Fraction(float(x)),
                v if isinstance(v, Fraction) else Fraction(float(v)),
            )
            for x, v in points
        ]
        pts.sort(key=lambda t: t[0])
        if not pts or pts[0][0] != 0:
            pts.insert(0, (Fraction(0), Fraction(0)))
        if pts[0][1] != 0:
            raise ValueError("piecewise-linear Young function must satisfy value(0) = 0")
        canon: list[tuple[Fraction, Fraction]] = [pts[0]]
        for x, v in pts[1:]:
            if x == canon[-1][0]:
                if v != canon[-1][1]:
                    raise ValueError("duplicate breakpoint abscissa with conflicting values")
                continue
            canon.append((x, v))
        slopes: list[Fraction] = []
        for (x0, v0), (x1, v1) in zip(canon, canon[1:]):
            s = (v1 - v0) / (x1 - x0)
            if s < 0:
                raise ValueError("slopes must be nonnegative on [0, inf)")
            if slopes and s < slopes[-1]:
                raise ValueError("slopes must be nondecreasing (convexity)")
            slopes.append(s)
        # Merge collinear segments so the representation is canonical.
        merged = [canon[0]]
        for i in range(1, len(canon)):
            if i < len(canon) - 1 and slopes[i - 1] == slopes[i]:
                continue
            merged.append(canon[i])
        self.points: tuple[tuple[Fraction, Fraction], ...] = tuple(merged)
        self.extension = extension
        self._slopes = tuple(
            (v1 - v0) / (x1 - x0)
            for (x0, v0), (x1, v1) in zip(self.points, self.points[1:])
        )
        if extension == "slope":
            last = self._slopes[-1] if self._slopes else Fraction(0)
            if last <= 0:
                raise ValueError("bounded piecewise function is not a Young function")

    def __eq__(self, other):
        return (
            isinstance(other, PiecewiseLinearConvex)
            and self.points == other.points
            and self.extension == other.extension
        )

    def __hash__(self):
        return hash((self.points, self.extension))

    def __repr__(self):
        pts = [(float(x), float(v)) for x, v in self.points]
        return f"PiecewiseLinearConvex({pts}, extension={self.extension!r})"

    def __call__(self, x: float) -> float:
        a = abs(x)
        pts = self.points
        last_x = float(pts[-1][0])
        if a > last_x:
            if self.extension == "inf":
                return INF
            xm, vm = pts[-1]
            return float(vm) + float(self._slopes[-1]) * (a - float(xm))
        for (x0, v0), (x1, v1), s in zip(pts, pts[1:], self._slopes):
            if a <= float(x1):
                return float(v0) + float(s) * (a - float(x0))
        return float(pts[-1][1])

    def eval_array(self, xs):
        a = np.abs(np.asarray(xs, dtype=float))
        px = np.array([float(x) for x, _ in self.points])
        pv = np.array([float(v) for _, v in self.points])
        out = np.interp(a, px, pv)
        beyond = a > px[-1]
        if beyond.any():
            if self.extension == "inf":
                out[beyond] = INF
            else:
                out[beyond] = pv[-1] + float(self._slopes[-1]) * (a[beyond] - px[-1])
        return out

    def value_exact(self, x) -> "Fraction | float":
        """Evaluate in rational arithmetic; +inf beyond an 'inf' extension."""
        a = abs(x if isinstance(x, Fraction) else Fraction(float(x)))
        pts = self.points
        if a > pts[-1][0]:
            if self.extension == "inf":
                return INF
            xm, vm = pts[-1]
            return vm + self._slopes[-1] * (a - xm)
        for (x0, v0), (x1, _), s in zip(pts, pts[1:], self._slopes):
            if a <= x1:
                return v0 + s * (a - x0)
        return pts[-1][1]

    def conjugate(self) -> "PiecewiseLinearConvex":
        pts = self.points
        slopes = list(self._slopes)
        xs = [x for x, _ in pts]
        vs = [v for _, v in pts]
        dual_pts: list[tuple[Fraction, Fraction]] = [(Fraction(0), Fraction(0))]
        for i, s in enumerate(slopes):
            xi, vi = xs[i + 1], vs[i + 1]
            dual_pts.append((s, xi * s - vi))
        if self.extension == "inf":
            # The dual continues forever with slope x_m; one synthetic knot
            # makes the "slope" extension carry that slope.
            xm = xs[-1]
            dual_pts.append((dual_pts[-1][0] + 1, dual_pts[-1][1] + xm))
            dual_ext = "slope"
        else:
            dual_ext = "inf"
        dedup: list[tuple[Fraction, Fraction]] = []
        for x, v in dual_pts:
            if dedup and dedup[-1][0] == x:
                continue
            dedup.append((x, v))
        return PiecewiseLinearConvex(dedup, extension=dual_ext)

    def inverse(self, y: float) -> float:
        """inf{x >= 0 : value(x) > y}; flat segments resolve to their right endpoint."""
        if y == INF:
            return INF
        pts = self.points
        for (x0, v0), (x1, v1) in zip(pts, pts[1:]):
            if float(v1) > y:
                s = (v1 - v0) / (x1 - x0)
                t = float(x0) + (y - float(v0)) / float(s)
                return max(t, float(x0))
        xm, vm = pts[-1]
        if self.extension == "inf":
            return float(xm)
        s = self._slopes[-1]
        return float(xm) + (y - float(vm)) / float(s)

    def derivative(self, x: float) -> float:
        pts = self.points
        for (_, _), (x1, _), s in zip(pts, pts[1:], self._slopes):
            if x <= float(x1):
                return float(s)
        if self.extension == "inf":
            return INF
        return float(self._slopes[-1]) if self._slopes else 0.0

    def inv_subgradient(self, v):
        a = _float_array(v)
        px = np.array([float(x) for x, _ in self.points])
        slopes = np.array([float(s) for s in self._slopes])
        # The largest breakpoint whose left slope is <= v; slopes are sorted.
        out = px[np.searchsorted(slopes, a, side="right")]
        if self.extension == "slope":
            out[a > slopes[-1]] = INF
        return _shaped(v, out)

    def zero_radius(self) -> float:
        pts = self.points
        r = 0.0
        for _, (x1, v1) in zip(pts, pts[1:]):
            if v1 == 0:
                r = float(x1)
            else:
                break
        return r

    def label(self) -> str:
        return "piecewise_linear"

    def descriptor(self) -> dict:
        return {
            "family": "piecewise_linear",
            "points": [[float(x), float(v)] for x, v in self.points],
            "extension": self.extension,
        }


def conjugate(phi: YoungFunction) -> YoungFunction:
    """Complementary function sup_{x>=0} (x|y| - phi(x)), resolved analytically."""
    return phi.conjugate()


def generalized_inverse(phi: YoungFunction, y: float) -> float:
    """inf{x >= 0 : phi(x) > y} for y >= 0."""
    if y < 0:
        raise ValueError("generalized inverse requires y >= 0")
    return phi.inverse(y)


def young_inequality_gap(phi: YoungFunction, x: float, y: float) -> float:
    """phi(x) + conj(phi)(y) - x*y; nonnegative for all x, y >= 0."""
    if x < 0 or y < 0:
        raise ValueError("young_inequality_gap requires x, y >= 0")
    psi = phi.conjugate()
    a, b = phi(x), psi(y)
    if a == INF or b == INF:
        return INF
    return a + b - x * y


# ---------------------------------------------------------------------------
# Growth-condition probes (all ratio arithmetic is done in log space so the
# exponential family cannot overflow its way into a wrong verdict; each grid
# is evaluated as one array)
# ---------------------------------------------------------------------------


class GrowthStatus(Enum):
    HOLDS_GLOBALLY = "holds_globally"
    HOLDS_BEYOND = "holds_beyond"
    VIOLATED_AT = "violated_at"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class GrowthVerdict:
    """Grid-certified verdict for a growth condition.

    ``constant`` is the smallest grid-certified constant on the certified
    region; ``threshold`` is the x0 beyond which the condition is certified
    when it does not hold globally; ``witness`` is a grid point at which the
    probed inequality fails against every constant up to ``violated_factor``.
    """

    status: GrowthStatus
    constant: Optional[float] = None
    threshold: Optional[float] = None
    witness: Optional[float] = None
    violated_factor: Optional[float] = None
    probe_lo: float = DEFAULT_PROBE_RANGE[0]
    probe_hi: float = DEFAULT_PROBE_RANGE[1]
    grid_points: int = 0
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.status in (GrowthStatus.HOLDS_GLOBALLY, GrowthStatus.HOLDS_BEYOND)

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "constant": self.constant,
            "threshold": self.threshold,
            "witness": self.witness,
            "violated_factor": self.violated_factor,
            "probe_range": [self.probe_lo, self.probe_hi],
            "grid_points": self.grid_points,
            "note": self.note,
        }


def _log_grid(lo: float, hi: float, per_decade: int) -> np.ndarray:
    if not (0.0 < lo < hi) or not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"degenerate probe range [{lo}, {hi}]")
    decades = math.log10(hi / lo)
    n = max(int(round(decades * per_decade)), 8) + 1
    return np.geomspace(lo, hi, n)


def _exp_capped(lv: float) -> float:
    if lv == -INF:
        return 0.0
    if lv > _LOG_OVERFLOW:
        return INF
    return math.exp(lv)


def _classify_grid(
    pts: np.ndarray,
    log_vals: np.ndarray,
    hard: np.ndarray,
    lo: float,
    hi: float,
    divergence_threshold: float,
    grid_points: int,
    diverging_note: str,
) -> GrowthVerdict:
    """Classify a per-point log-constant stream.

    ``pts`` locates each probe (for pair probes: min(x, y)); divergence is
    detected along the points whose location falls in the top decade.
    """
    log_thresh = math.log(divergence_threshold)
    # Divergence: large required constants that keep growing across the
    # top decade of probe locations.
    top = pts >= hi / 10.0
    top_logs = log_vals[top]
    top_pts = pts[top]
    if len(top_logs) >= 3:
        a, b = top_logs[0], top_logs[-1]
        growing = (b == INF and a > -INF) or (b - a > math.log(10.0))
        mx = float(np.max(top_logs))
        if growing and mx > log_thresh:
            idx = int(np.argmax(top_logs))
            return GrowthVerdict(
                GrowthStatus.VIOLATED_AT,
                witness=float(top_pts[idx]),
                violated_factor=divergence_threshold,
                probe_lo=lo,
                probe_hi=hi,
                grid_points=grid_points,
                note=diverging_note,
            )
    if hard.any():
        x0 = float(np.max(pts[hard]))
        region = pts > x0
        if not region.any():
            return GrowthVerdict(
                GrowthStatus.INCONCLUSIVE,
                probe_lo=lo,
                probe_hi=hi,
                grid_points=grid_points,
                note="no certified region beyond the last violation",
            )
        mx = float(np.max(log_vals[region]))
        if mx > log_thresh:
            return GrowthVerdict(
                GrowthStatus.INCONCLUSIVE,
                probe_lo=lo,
                probe_hi=hi,
                grid_points=grid_points,
                note="constants unbounded beyond every candidate threshold",
            )
        return GrowthVerdict(
            GrowthStatus.HOLDS_BEYOND,
            constant=_exp_capped(mx),
            threshold=x0,
            probe_lo=lo,
            probe_hi=hi,
            grid_points=grid_points,
        )
    mx = float(np.max(log_vals))
    if mx <= log_thresh:
        return GrowthVerdict(
            GrowthStatus.HOLDS_GLOBALLY,
            constant=_exp_capped(mx),
            probe_lo=lo,
            probe_hi=hi,
            grid_points=grid_points,
        )
    return GrowthVerdict(
        GrowthStatus.INCONCLUSIVE,
        probe_lo=lo,
        probe_hi=hi,
        grid_points=grid_points,
        note="constants exceed the divergence threshold without a certified growth trend",
    )


def _log_constants(num: np.ndarray, den: np.ndarray, diff: np.ndarray):
    """Per-point log constants K for lhs <= K * rhs, and the hard violations.

    ``num`` and ``den`` are ln lhs and ln rhs, ``diff`` their difference
    where ``den`` is finite. A vanishing rhs admits only a vanishing lhs; an
    infinite rhs is vacuous (constant 1); otherwise an infinite lhs is a hard
    violation and the constant is ``diff``.
    """
    hard = (den != INF) & ((num == INF) | ((den == -INF) & (num != -INF)))
    return np.where(hard, INF, np.where(np.isfinite(den), diff, 0.0)), hard


def delta2_probe(
    phi: YoungFunction,
    probe_range: tuple[float, float] = DEFAULT_PROBE_RANGE,
    grid_per_decade: int = DEFAULT_GRID_PER_DECADE,
    divergence_threshold: float = 1e8,
) -> GrowthVerdict:
    """Probe the doubling condition value(2x) <= K * value(x) on a log grid."""
    lo, hi = probe_range
    xs = _log_grid(lo, hi, grid_per_decade)
    n = len(xs)
    num, den = phi.log_value(2.0 * xs), phi.log_value(xs)
    with np.errstate(invalid="ignore"):
        log_ratio, hard = _log_constants(num, den, num - den)
    return _classify_grid(
        xs, log_ratio, hard, lo, hi, divergence_threshold, n,
        "doubling ratio exceeds the divergence threshold and grows across the last decade",
    )


def _pair_grid(phi: YoungFunction, lo: float, hi: float, grid_per_decade: int):
    """The subsampled pair grid xs, its log values, and the index arrays
    (i, j) of the pairs i <= j in row-major order."""
    # Pair probes square the grid; subsample to keep the search tractable.
    xs = _log_grid(lo, hi, max(grid_per_decade // 64, 4))
    i, j = np.triu_indices(len(xs))
    return xs, phi.log_value(xs), i, j


def delta_prime_probe(
    phi: YoungFunction,
    probe_range: tuple[float, float] = DEFAULT_PROBE_RANGE,
    grid_per_decade: int = DEFAULT_GRID_PER_DECADE,
    divergence_threshold: float = 1e8,
) -> GrowthVerdict:
    """Probe the product condition value(xy) <= d * value(x) * value(y).

    A success is cross-checked against the doubling probe, which it implies.
    """
    lo, hi = probe_range
    xs, lv, i, j = _pair_grid(phi, lo, hi, grid_per_decade)
    n = len(xs)
    num = phi.log_value(xs[i] * xs[j])
    la, lb = lv[i], lv[j]
    with np.errstate(invalid="ignore"):
        # value(x) * value(y) vanishes as soon as one factor does.
        den = np.where((la == -INF) | (lb == -INF), -INF, la + lb)
        logs, hard = _log_constants(num, den, num - la - lb)
    verdict = _classify_grid(
        xs[i], logs, hard, lo, hi, divergence_threshold, n * n,
        "product ratio grows without bound along the diagonal",
    )
    if verdict.holds:
        d2 = delta2_probe(phi, probe_range, grid_per_decade, divergence_threshold)
        if not d2.holds:
            raise ConsistencyError(
                "product condition certified but doubling condition failed on the same region"
            )
    return verdict


def nabla_prime_probe(
    phi: YoungFunction,
    probe_range: tuple[float, float] = DEFAULT_PROBE_RANGE,
    grid_per_decade: int = DEFAULT_GRID_PER_DECADE,
    divergence_threshold: float = 1e12,
) -> GrowthVerdict:
    """Probe the reverse product condition value(b*x*y) >= value(x) * value(y).

    Reports the smallest grid-certified b via the per-pair requirement
    b(x,y) = inverse(value(x) * value(y)) / (x*y).
    """
    lo, hi = probe_range
    xs, lv, ii, jj = _pair_grid(phi, lo, hi, grid_per_decade)
    n = len(xs)
    logs = []
    hard = []
    for i, j in zip(ii, jj):
        la, lb = lv[i], lv[j]
        h = False
        if la == -INF or lb == -INF:
            val = -INF  # rhs vanishes: b = 0 suffices at this pair
        elif la == INF or lb == INF:
            # rhs infinite: need value(bxy) = inf, possible only for
            # families that actually take the value inf
            need = phi.inverse(INF)
            if need == INF:
                val = INF
                h = True
            else:
                val = math.log(need / (float(xs[i]) * float(xs[j])))
        else:
            need = phi.inverse_log(la + lb)
            if need == INF:
                val = INF
                h = True
            elif need == 0.0:
                val = -INF
            else:
                val = math.log(need) - math.log(float(xs[i])) - math.log(float(xs[j]))
        logs.append(val)
        hard.append(h)
    return _classify_grid(
        xs[ii], np.array(logs), np.array(hard, dtype=bool), lo, hi,
        divergence_threshold, n * n, "required b grows without bound",
    )


def n_function_probe(
    phi: YoungFunction,
    grid_per_decade: int = DEFAULT_GRID_PER_DECADE,
    probe_range: tuple[float, float] = DEFAULT_PROBE_RANGE,
) -> GrowthVerdict:
    """Certify the nice-Young-function trends value(x)/x -> 0 at 0 and -> inf
    at inf, plus vanishing only at the origin on the grid.

    Trend certification: the ratio must at least halve from the grid midpoint
    down to the left edge, at least double up to the right edge, and be
    monotone within the outer decades (convexity makes it monotone overall).
    """
    lo, hi = probe_range
    xs = _log_grid(lo, hi, grid_per_decade)
    if phi.zero_radius() > 0.0:
        return GrowthVerdict(
            GrowthStatus.VIOLATED_AT,
            witness=phi.zero_radius(),
            probe_lo=lo,
            probe_hi=hi,
            grid_points=len(xs),
            note="vanishes on an interval of positive length",
        )
    ratios = np.array([phi(float(x)) / float(x) for x in xs])
    mid = float(ratios[len(ratios) // 2])
    r_lo, r_hi = float(ratios[0]), float(ratios[-1])
    low = ratios[xs <= lo * 10.0]
    low_monotone = np.all(np.diff(low) >= -1e-12 * np.abs(low[:-1]))
    if not (low_monotone and r_lo <= 0.5 * mid):
        return GrowthVerdict(
            GrowthStatus.VIOLATED_AT,
            witness=float(xs[0]),
            violated_factor=r_lo,
            probe_lo=lo,
            probe_hi=hi,
            grid_points=len(xs),
            note="value(x)/x does not vanish toward 0",
        )
    high = ratios[xs >= hi / 10.0]
    high_monotone = np.all(np.diff(high) >= -1e-12 * np.abs(high[:-1]))
    if not (high_monotone and (r_hi == INF or r_hi >= 2.0 * mid)):
        return GrowthVerdict(
            GrowthStatus.VIOLATED_AT,
            witness=float(xs[-1]),
            violated_factor=r_hi,
            probe_lo=lo,
            probe_hi=hi,
            grid_points=len(xs),
            note="value(x)/x does not grow toward infinity",
        )
    return GrowthVerdict(
        GrowthStatus.HOLDS_GLOBALLY, probe_lo=lo, probe_hi=hi, grid_points=len(xs)
    )


def sum_bound_constants(
    phi: YoungFunction,
    probe_range: tuple[float, float] = DEFAULT_PROBE_RANGE,
    grid_per_decade: int = DEFAULT_GRID_PER_DECADE,
    divergence_threshold: float = 1e8,
) -> tuple[GrowthVerdict, GrowthVerdict]:
    """Grid-certified constants K, L for value(a+b) <= K(value(a)+value(b))
    and inverse(a)+inverse(b) <= L*inverse(a+b).

    The always-true reverse directions (superadditivity of the value,
    subadditivity of the inverse) are asserted as cross-checks.
    """
    lo, hi = probe_range
    xs, lv, ii, jj = _pair_grid(phi, lo, hi, grid_per_decade)
    n = len(xs)
    num = phi.log_value(xs[ii] + xs[jj])
    den = np.logaddexp(lv[ii], lv[jj])
    with np.errstate(invalid="ignore"):
        k_logs, k_hard = _log_constants(num, den, num - den)
    if np.any(-k_logs > 1e-9):  # value(a)+value(b) <= value(a+b) must hold
        raise ConsistencyError("superadditivity cross-check failed")
    invs = np.array([phi.inverse(float(x)) for x in xs])
    l_logs, l_hard = [], []
    for i, j in zip(ii, jj):
        inv_sum = phi.inverse(float(xs[i]) + float(xs[j]))
        isum = invs[i] + invs[j]
        if inv_sum == 0.0:
            lval = 0.0 if isum == 0.0 else INF
            lh = isum != 0.0
        elif inv_sum == INF:
            lval = 0.0
            lh = False
        else:
            if inv_sum > isum * (1.0 + 1e-9) + 1e-300:
                raise ConsistencyError("inverse subadditivity cross-check failed")
            lval = math.log(isum / inv_sum) if isum > 0 else -INF
            lh = False
        l_logs.append(lval)
        l_hard.append(lh)
    pts = xs[ii]
    kv = _classify_grid(
        pts, k_logs, k_hard, lo, hi,
        divergence_threshold, n * n, "sum-splitting constant grows without bound",
    )
    lv_verdict = _classify_grid(
        pts, np.array(l_logs), np.array(l_hard, dtype=bool), lo, hi,
        divergence_threshold, n * n, "inverse-splitting constant grows without bound",
    )
    return kv, lv_verdict
