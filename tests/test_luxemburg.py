"""Luxemburg norm: the seeded certified bracket against plain bisection,
its modular evaluation count, homogeneity, and extreme scales."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orlicz import (
    ConstantTail,
    ConstantWeights,
    CountableSpace,
    ExpMinusOne,
    FiniteSpace,
    GeometricTail,
    GeometricWeights,
    IndexPowerTail,
    PatchedTail,
    PowerAbs,
    PowerLawWeights,
    PowerOverP,
    ScaledPower,
    SimpleFunction,
    SparseGeometricTail,
    UnresolvedTail,
    XLogX,
    ZeroTail,
    luxemburg_norm,
    modular,
    modular_bounds,
)
from orlicz import norms
from orlicz.norms import NormResult, _diverges_for_all_scalings

INF = math.inf


def plain_bisection(phi, f, rel_tol=1e-12):
    """The Luxemburg search without a seeded bracket: every bracket and
    bisection point is a modular evaluation, at most 200 doublings or
    halvings from k = 1."""
    if f.is_zero():
        return NormResult(0.0, "analytic", 0.0, "zero function")
    cert = _diverges_for_all_scalings(phi, f)
    if cert is not None:
        return NormResult(INF, "analytic", 0.0, f"not in the space: {cert}")

    def le_one(k):
        lo, hi = modular_bounds(phi, f, scale=1.0 / k)
        if hi <= 1.0:
            return True
        if lo > 1.0:
            return False
        raise UnresolvedTail("modular bounds straddle 1 at the bisection point", lower=lo, upper=hi)

    k = 1.0
    if le_one(k):
        hi = k
        for _ in range(200):
            if not le_one(hi / 2.0):
                lo = hi / 2.0
                break
            hi /= 2.0
        else:
            return NormResult(hi, "bisection", hi, "norm below bracket floor")
    else:
        lo = k
        for _ in range(200):
            if le_one(lo * 2.0):
                hi = lo * 2.0
                break
            lo *= 2.0
        else:
            return NormResult(INF, "bisection", 0.0, "modular stayed above 1 through k = 2**200")
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if le_one(mid):
            hi = mid
        else:
            lo = mid
    return NormResult(hi, "bisection", (hi - lo) / hi)


FAMILIES = {
    "power_abs": lambda rng: PowerAbs(float(rng.uniform(1.0, 4.0))),
    "power_over_p": lambda rng: PowerOverP(float(rng.uniform(1.1, 4.0))),
    "scaled_power": lambda rng: ScaledPower(float(rng.uniform(0.1, 5.0)), float(rng.uniform(1.0, 4.0))),
    "exp_minus_one": lambda rng: ExpMinusOne(),
    "x_log_x": lambda rng: XLogX(),
}
POWER_FAMILIES = ("power_abs", "power_over_p", "scaled_power")


def random_finite(rng, max_atoms):
    n = int(rng.integers(1, max_atoms + 1))
    sp = FiniteSpace(tuple(f"a{i}" for i in range(n)), tuple(10.0 ** rng.uniform(-2.0, 1.0, n)))
    vals = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-6.0, 6.0)
    vals[rng.random(n) < 0.2] = 0.0
    return SimpleFunction(sp, tuple(float(v) for v in vals))


def random_countable(rng):
    law = (GeometricWeights(1.0, float(rng.uniform(0.3, 0.9))),
           PowerLawWeights(1.0, float(rng.uniform(1.5, 3.0))),
           ConstantWeights(1.0))[int(rng.integers(0, 3))]
    sp = CountableSpace(law, depth=int(rng.integers(1, 40)))
    mag = 10.0 ** rng.uniform(-6.0, 6.0)
    c = float(rng.uniform(-1.0, 1.0)) * mag
    tail = (ZeroTail(), ConstantTail(c), GeometricTail(c, float(rng.uniform(0.3, 0.9))),
            IndexPowerTail(c, -float(rng.uniform(0.5, 2.0))),
            SparseGeometricTail(2, c, float(rng.uniform(0.3, 1.2))),
            PatchedTail(GeometricTail(mag, 0.5), ((int(rng.integers(1, 80)), 2.0 * abs(c)),)),
            )[int(rng.integers(0, 6))]
    vals = rng.uniform(-1.0, 1.0, sp.depth) * mag
    vals[rng.random(sp.depth) < 0.2] = 0.0
    return SimpleFunction(sp, tuple(float(v) for v in vals), tail)


def outcome(phi, f, search):
    try:
        return search(phi, f)
    except UnresolvedTail as exc:
        return exc


def assert_same_result(new, ref):
    assert (new.method, new.note) == (ref.method, ref.note)
    assert new.value == pytest.approx(ref.value, rel=1e-12, abs=0.0)
    assert new.achieved_tol == pytest.approx(ref.achieved_tol, rel=1e-12, abs=0.0)


class TestSameAsPlainBisection:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_finite(self, family):
        rng = np.random.default_rng([11, list(FAMILIES).index(family)])
        for _ in range(40):
            phi, f = FAMILIES[family](rng), random_finite(rng, 60)
            assert_same_result(luxemburg_norm(phi, f), plain_bisection(phi, f))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_countable(self, family):
        rng = np.random.default_rng([12, list(FAMILIES).index(family)])
        for _ in range(40):
            phi, f = FAMILIES[family](rng), random_countable(rng)
            new, ref = outcome(phi, f, luxemburg_norm), outcome(phi, f, plain_bisection)
            if not isinstance(ref, UnresolvedTail):
                assert not isinstance(new, UnresolvedTail)
                assert_same_result(new, ref)
            elif not isinstance(new, UnresolvedTail):
                # The bracket decided points whose own bounds straddle 1: both
                # returned ends must still be certified by direct evaluation.
                lo = new.value * (1.0 - new.achieved_tol)
                assert modular_bounds(phi, f, scale=1.0 / new.value)[1] <= 1.0
                assert modular_bounds(phi, f, scale=1.0 / lo)[0] > 1.0


class TestEvaluationCount:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_finite_spaces(self, family, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return modular_bounds(*args, **kwargs)

        monkeypatch.setattr(norms, "modular_bounds", counted)
        limit = 6 if family in POWER_FAMILIES else 16
        rng = np.random.default_rng([13, list(FAMILIES).index(family)])
        for _ in range(60):
            phi, f = FAMILIES[family](rng), random_finite(rng, 50)
            calls.clear()
            luxemburg_norm(phi, f)
            assert len(calls) <= limit


class TestScale:
    TWO = FiniteSpace(("a", "b"), (1.0, 1.0))

    @pytest.mark.parametrize("phi, vals, want", [
        (PowerAbs(2.0), (1e100, 0.0), 1e100),
        (PowerAbs(2.0), (1e155, 0.0), 1e155),
        (PowerAbs(2.0), (1e-100, 0.0), 1e-100),
        # e**(1e200/k) - 1 + e**(1/k) - 1 = 1 at k = 1e200/ln 2 to 1e-200.
        (ExpMinusOne(), (1e200, 1.0), 1e200 / math.log(2.0)),
    ])
    def test_extreme_magnitudes(self, phi, vals, want):
        f = SimpleFunction(self.TWO, vals)
        res = luxemburg_norm(phi, f)
        assert res.value == pytest.approx(want, rel=1e-12, abs=0.0)
        assert modular(phi, f, scale=1.0 / res.value) <= 1.0

    def test_modular_sum_overflows_to_inf(self):
        # Two finite terms whose sum leaves the float range: the modular is
        # +inf with no RuntimeWarning, and the norm (2e308) is out of range.
        f = SimpleFunction(self.TWO, (1e308, 1e308))
        assert modular(PowerAbs(1.0), f) == INF
        res = luxemburg_norm(PowerAbs(1.0), f)
        assert res.value == INF
        assert res.note == "modular stayed above 1 through k = 2**1023"

    @given(
        family=st.sampled_from(POWER_FAMILIES + ("exp_minus_one",)),
        seed=st.integers(0, 2**32 - 1),
        exponent=st.floats(min_value=-300.0, max_value=300.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_homogeneity(self, family, seed, exponent):
        rng = np.random.default_rng(seed)
        phi = FAMILIES[family](rng)
        n = int(rng.integers(1, 20))
        sp = FiniteSpace(tuple(f"a{i}" for i in range(n)), tuple(10.0 ** rng.uniform(-2.0, 1.0, n)))
        vals = rng.uniform(-1.0, 1.0, n)
        vals[0] = 1.0  # sup|f| = 1, so sup|c*f| = c runs from 1e-300 to 1e300
        f = SimpleFunction(sp, tuple(float(v) for v in vals))
        c = 10.0**exponent
        scaled = luxemburg_norm(phi, f.scaled(c)).value
        assert scaled == pytest.approx(c * luxemburg_norm(phi, f).value, rel=1e-9, abs=0.0)
