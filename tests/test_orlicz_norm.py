"""Orlicz norm: the bracketed array search against the scalar stationarity
solver, its evaluation count, sub-ulp tolerances, and extreme scales."""

import math
import subprocess
import sys

import numpy as np
import pytest

from orlicz import (
    ExpMinusOne,
    FiniteSpace,
    HardCap,
    PiecewiseLinearConvex,
    PowerAbs,
    PowerOverP,
    ScaledPower,
    SimpleFunction,
    XLogX,
    luxemburg_norm,
    modular,
    orlicz_norm,
)
from orlicz import norms
from orlicz.extreal import xmul, xsum
from orlicz.norms import NormResult

INF = math.inf


def scalar_orlicz_norm(phi, f, rel_tol=1e-12):
    """The Orlicz norm's stationarity solver with one scalar constraint
    evaluation per dyadic point: a Python loop over the atoms, at most 200
    doublings or halvings of the dual scale from 1 (its projected-ascent
    fallback beyond 2**200 is left out)."""
    vals, weights = [], []
    for a, v in f.items():
        if v != 0.0:
            vals.append(abs(v))
            weights.append(f.space.weight(a))
    if not vals:
        return NormResult(0.0, "analytic", 0.0, "zero function")
    psi = phi.conjugate()
    power = psi.as_power()
    if power is not None and power[1] == 1.0:
        return NormResult(max(v / power[0] for v in vals), "analytic", 0.0, "linear dual modular")
    if isinstance(psi, HardCap):
        return NormResult(psi.cap * sum(v * w for v, w in zip(vals, weights)), "analytic", 0.0,
                          "sup-ball dual")

    def g_of(lam):
        return [psi.inv_subgradient(v / lam) for v in vals]

    def constraint(lam):
        return xsum(xmul(psi(g), w) for g, w in zip(g_of(lam), weights))

    def objective(gs):
        return sum(v * g * w for v, g, w in zip(vals, gs, weights))

    if constraint(1.0) <= 1.0:
        hi, lo = 1.0, None
        for _ in range(200):
            if constraint(hi / 2.0) > 1.0:
                lo = hi / 2.0
                break
            hi /= 2.0
        if lo is None:
            return NormResult(objective(g_of(hi)), "dual-optimization", 0.0,
                              "constraint slack at all scales")
    else:
        lo, hi = 1.0, None
        for _ in range(200):
            if constraint(lo * 2.0) <= 1.0:
                hi = lo * 2.0
                break
            lo *= 2.0
        if hi is None:
            pytest.fail("the ascent fallback past lambda = 2**200 is not reached on these inputs")
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if constraint(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    g_hi = g_of(hi)
    best = objective(g_hi)
    c_hi, c_lo = constraint(hi), constraint(lo)
    if c_lo != INF and c_lo > 1.0 and c_hi < 1.0:
        t = (c_lo - 1.0) / (c_lo - c_hi)
        g_mix = [t * a + (1.0 - t) * b for a, b in zip(g_hi, g_of(lo))]
        if xsum(xmul(psi(g), w) for g, w in zip(g_mix, weights)) <= 1.0 + 1e-12:
            best = max(best, objective(g_mix))
    return NormResult(best, "dual-optimization", (hi - lo) / hi)


def random_piecewise(rng):
    """A convex piecewise-linear Young function with 1-4 kinks, a flat first
    segment half of the time, and either extension."""
    m = int(rng.integers(1, 5))
    xs = np.cumsum(rng.uniform(0.2, 2.0, m))
    slopes = np.sort(rng.uniform(0.1, 5.0, m))
    if m > 1 and rng.random() < 0.5:
        slopes[0] = 0.0
    vals = np.cumsum(slopes * np.diff(xs, prepend=0.0))
    return PiecewiseLinearConvex(list(zip(xs.tolist(), vals.tolist())),
                                 extension=("slope", "inf")[int(rng.integers(0, 2))])


FAMILIES = {
    "power_abs": lambda rng: PowerAbs(float(rng.uniform(1.1, 4.0))),
    "power_over_p": lambda rng: PowerOverP(float(rng.uniform(1.1, 4.0))),
    "scaled_power": lambda rng: ScaledPower(float(rng.uniform(0.1, 5.0)), float(rng.uniform(1.1, 4.0))),
    "exp_minus_one": lambda rng: ExpMinusOne(),
    "x_log_x": lambda rng: XLogX(),
    "piecewise_linear": random_piecewise,
}
POWER_FAMILIES = ("power_abs", "power_over_p", "scaled_power")


def random_finite(rng, max_atoms):
    n = int(np.exp(rng.uniform(0.0, np.log(max_atoms + 1))))
    sp = FiniteSpace(tuple(f"a{i}" for i in range(n)), tuple(10.0 ** rng.uniform(-2.0, 1.0, n)))
    vals = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-6.0, 6.0)
    vals[rng.random(n) < 0.2] = 0.0
    return SimpleFunction(sp, tuple(float(v) for v in vals))


class TestSameAsScalarSolver:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_finite(self, family):
        rng = np.random.default_rng([21, list(FAMILIES).index(family)])
        for _ in range(30):
            phi, f = FAMILIES[family](rng), random_finite(rng, 500)
            new, ref = orlicz_norm(phi, f), scalar_orlicz_norm(phi, f)
            assert (new.method, new.note) == (ref.method, ref.note)
            assert new.value == pytest.approx(ref.value, rel=1e-12, abs=0.0)
            assert new.achieved_tol == pytest.approx(ref.achieved_tol, rel=1e-12, abs=0.0)


class TestEvaluationCount:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_finite_spaces(self, family, monkeypatch):
        calls = []
        dual_point = norms._dual_point

        def counted(*args):
            calls.append(1)
            return dual_point(*args)

        monkeypatch.setattr(norms, "_dual_point", counted)
        # Limits sit just above the counts seen on these inputs (mean/max,
        # calls with at least one evaluation): 5.2/6 for the power families,
        # 10.6/14 for ExpMinusOne, 14.2/17 for XLogX, and 42/54 for
        # piecewise-linear functions, whose step constraint no seed can
        # place. The scalar solver took about 45 on every family.
        limit = {"exp_minus_one": 16, "x_log_x": 20, "piecewise_linear": 60}.get(family, 7)
        rng = np.random.default_rng([22, list(FAMILIES).index(family)])
        for _ in range(60):
            phi, f = FAMILIES[family](rng), random_finite(rng, 500)
            calls.clear()
            orlicz_norm(phi, f)
            assert len(calls) <= limit


class TestSubUlpTolerance:
    TWO = FiniteSpace(("a", "b"), (1.0, 1.0))

    @pytest.mark.parametrize("rel_tol", [1e-17, 0.0])
    @pytest.mark.parametrize("vals", [(3.0, 0.0), (3.0, 1.0)])
    def test_both_norms_stop_at_adjacent_floats(self, rel_tol, vals):
        f = SimpleFunction(self.TWO, vals)
        phi = PowerAbs(2.0)
        for norm in (luxemburg_norm, orlicz_norm):
            res, ref = norm(phi, f, rel_tol=rel_tol), norm(phi, f)
            assert res.value == pytest.approx(ref.value, rel=1e-12, abs=0.0)
            # The reported tolerance is the true gap of the final bracket,
            # one float spacing at the value.
            lo = res.value * (1.0 - res.achieved_tol)
            assert 0.0 < res.achieved_tol <= 2.0**-52
            assert math.nextafter(lo, INF) == res.value
        lux = luxemburg_norm(phi, f, rel_tol=rel_tol)
        assert modular(phi, f, scale=1.0 / lux.value) <= 1.0

    def test_cli_norm_with_sub_ulp_tol_exits(self):
        proc = subprocess.run(
            [sys.executable, "-m", "orlicz.cli", "norm", "f", "--scenario", "scenarios/finite_basic.json",
             "--young", "power_abs:2", "--tol", "1e-17"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "luxemburg" in proc.stdout


class TestScale:
    TWO = FiniteSpace(("a", "b"), (1.0, 1.0))

    @pytest.mark.parametrize("phi, vals", [
        (PowerAbs(2.0), (1e100, 0.0)),
        (PowerAbs(2.0), (1e-100, 0.0)),
        (ExpMinusOne(), (1e200, 1.0)),
        (PowerAbs(2.0), (1e155, 0.0)),
        (PowerAbs(2.0), (1e300, 1e300)),
        (PowerAbs(2.0), (1e-300, 0.0)),
    ])
    def test_sandwich_at_extreme_magnitudes(self, phi, vals):
        f = SimpleFunction(self.TWO, vals)
        lux = luxemburg_norm(phi, f).value
        orl = orlicz_norm(phi, f).value
        assert 0.0 < lux < INF
        assert lux * (1.0 - 1e-9) <= orl <= 2.0 * lux * (1.0 + 1e-9)

    def test_norm_beyond_the_float_range(self):
        # The dual scale of |x|**2 on (1e308, 1e308) is sqrt(2)*1e308 > 2**1023,
        # so the norm (2*sqrt(2)*1e308) overflows: +inf with a note, no exception.
        f = SimpleFunction(self.TWO, (1e308, 1e308))
        res = orlicz_norm(PowerAbs(2.0), f)
        assert res.value == INF
        assert res.note == "dual constraint stayed above 1 through lambda = 2**1023"
