"""Young-function algebra: evaluation, conjugation, inverses, and probes.

Conjugates are checked against an independent numerical Legendre transform
(dense grid supremum) before trusting the analytic tables.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orlicz import (
    AbsValue,
    ExpMinusOne,
    GrowthStatus,
    HardCap,
    PiecewiseLinearConvex,
    PowerAbs,
    PowerOverP,
    ScaledPower,
    XLogX,
    conjugate,
    delta2_probe,
    delta_prime_probe,
    generalized_inverse,
    n_function_probe,
    nabla_prime_probe,
    sum_bound_constants,
    young_inequality_gap,
)

INF = math.inf


def numeric_conjugate(phi, y, x_hi=1e4, rounds=30, n=2001):
    """Independent oracle: sup of x*y - phi(x) by zooming grid search.

    The objective is concave in x, so refining around the incumbent is sound.
    """
    lo, hi = 0.0, x_hi
    best = -INF
    for _ in range(rounds):
        xs = np.linspace(lo, hi, n)
        with np.errstate(invalid="ignore"):
            vals = xs * y - phi.eval_array(xs)
        vals = np.where(np.isfinite(vals), vals, -INF)
        k = int(np.argmax(vals))
        best = max(best, float(vals[k]))
        span = (hi - lo) / (n - 1)
        lo, hi = max(xs[k] - 2 * span, 0.0), min(xs[k] + 2 * span, x_hi)
    return best


FAMILIES = [
    PowerAbs(1.5),
    PowerAbs(2.0),
    PowerAbs(3.0),
    PowerOverP(2.0),
    PowerOverP(3.0),
    ExpMinusOne(),
    AbsValue(),
    ScaledPower(0.25, 2.0),
]


class TestEval:
    def test_power_over_p_at_two(self):
        assert PowerOverP(2.0)(2.0) == 2.0

    @pytest.mark.parametrize("phi", FAMILIES)
    def test_zero_at_origin(self, phi):
        assert phi(0.0) == 0.0

    def test_exp_minus_one_at_one(self):
        assert ExpMinusOne()(1.0) == pytest.approx(1.718281828459045, rel=1e-12)

    @pytest.mark.parametrize("phi", FAMILIES)
    def test_even(self, phi):
        for x in (0.3, 1.7, 9.0):
            assert phi(x) == phi(-x)

    @pytest.mark.parametrize("phi", FAMILIES)
    def test_monotone_and_midpoint_convex(self, phi):
        xs = np.geomspace(1e-3, 50.0, 200)
        vals = phi.eval_array(xs)
        finite = vals[np.isfinite(vals)]
        assert np.all(np.diff(finite) >= -1e-12)
        for a, b in zip(xs[:-2:7], xs[2::7]):
            fa, fb, fm = phi(a), phi(b), phi((a + b) / 2.0)
            if math.isfinite(fa) and math.isfinite(fb):
                assert fm <= 0.5 * (fa + fb) * (1 + 1e-12) + 1e-12

    def test_eval_array_matches_scalar(self):
        xs = np.array([0.0, 0.5, 1.0, 3.0, -2.0])
        for phi in FAMILIES + [XLogX(), HardCap(1.0)]:
            arr = phi.eval_array(xs)
            for x, v in zip(xs, arr):
                s = phi(float(x))
                if s == INF:
                    assert v == INF
                else:
                    # numpy and libm may disagree in the final ulp
                    assert v == pytest.approx(s, rel=1e-15, abs=0.0)


class TestConjugate:
    def test_power_over_p_two_self_dual(self):
        psi = conjugate(PowerOverP(2.0))
        assert isinstance(psi, PowerOverP) and psi.p == 2.0

    def test_power_over_p_exponent_pairing(self):
        psi = conjugate(PowerOverP(3.0))
        assert isinstance(psi, PowerOverP)
        assert psi.p == pytest.approx(1.5, rel=1e-15)

    def test_abs_value_conjugate_is_step(self):
        psi = conjugate(AbsValue())
        assert psi(0.5) == 0.0
        assert psi(1.0) == 0.0
        assert psi(1.0 + 1e-9) == INF

    def test_power_abs_two_conjugate_value(self):
        # sup_x (3x - x^2) attained at x = 1.5: value 2.25.
        psi = conjugate(PowerAbs(2.0))
        assert psi(3.0) == pytest.approx(2.25, rel=1e-12)

    @pytest.mark.parametrize(
        "phi", [PowerAbs(1.5), PowerAbs(2.0), PowerAbs(3.0), PowerOverP(2.5), ScaledPower(0.3, 2.0)]
    )
    def test_against_numeric_legendre(self, phi):
        psi = conjugate(phi)
        for y in (0.25, 1.0, 3.0, 7.5):
            oracle = numeric_conjugate(phi, y)
            assert psi(y) == pytest.approx(oracle, rel=1e-6, abs=1e-6)

    def test_exp_conjugate_against_numeric(self):
        psi = conjugate(ExpMinusOne())
        for y in (0.5, 1.0, 2.0, 5.0):
            oracle = numeric_conjugate(ExpMinusOne(), y, x_hi=50.0)
            assert psi(y) == pytest.approx(oracle, rel=1e-7, abs=1e-7)

    @pytest.mark.parametrize("phi", FAMILIES + [XLogX(), HardCap(2.0)])
    def test_involution_on_grid(self, phi):
        bidual = conjugate(conjugate(phi))
        for x in np.geomspace(1e-5, 1e4, 128):
            a, b = phi(float(x)), bidual(float(x))
            if a == INF or b == INF:
                assert a == b
            else:
                assert b == pytest.approx(a, rel=1e-10, abs=1e-300)


class TestPiecewiseLinear:
    def test_eval_and_extension(self):
        phi = PiecewiseLinearConvex([(0, 0), (1, 0), (2, 3)], extension="slope")
        assert phi(0.5) == 0.0
        assert phi(1.5) == pytest.approx(1.5)
        assert phi(4.0) == pytest.approx(9.0)
        cap = PiecewiseLinearConvex([(0, 0), (2, 4)], extension="inf")
        assert cap(2.0) == pytest.approx(4.0)
        assert cap(2.5) == INF

    def test_rejects_nonconvex(self):
        with pytest.raises(ValueError):
            PiecewiseLinearConvex([(0, 0), (1, 2), (2, 3)])  # slopes 2 then 1

    def test_rejects_bounded(self):
        with pytest.raises(ValueError):
            PiecewiseLinearConvex([(0, 0), (1, 0)], extension="slope")

    def test_conjugate_against_numeric(self):
        phi = PiecewiseLinearConvex([(0, 0), (1, 0.5), (2, 2), (3, 5)], extension="slope")
        psi = phi.conjugate()
        for y in (0.1, 0.5, 1.0, 2.0, 2.9):
            oracle = numeric_conjugate(phi, y, x_hi=100.0)
            assert psi(y) == pytest.approx(oracle, rel=1e-6, abs=1e-6)

    def test_involution_exact_at_breakpoints(self):
        # The representation may re-anchor a final collinear sample, so the
        # contract is exact value agreement at the original breakpoints.
        phi = PiecewiseLinearConvex([(0, 0), (0.5, 0.25), (2, 2.5), (7, 20)], extension="slope")
        back = phi.conjugate().conjugate()
        for x, v in phi.points:
            assert back.value_exact(x) == v
        for x in (0.3, 1.1, 5.0, 40.0):
            assert back.value_exact(x) == phi.value_exact(x)
        capped = PiecewiseLinearConvex([(0, 0), (1, 1), (2, 4)], extension="inf")
        back2 = capped.conjugate().conjugate()
        assert back2.points == capped.points
        assert back2.extension == capped.extension
        for x, v in capped.points:
            assert back2.value_exact(x) == v

    def test_young_inequality_for_pl(self):
        phi = PiecewiseLinearConvex([(0, 0), (1, 0.5), (3, 4)], extension="slope")
        for x in (0.2, 0.9, 1.5, 2.8):
            for y in (0.1, 0.5, 1.0, 1.3):
                assert young_inequality_gap(phi, x, y) >= -1e-12


class TestGeneralizedInverse:
    def test_square_root(self):
        assert generalized_inverse(PowerAbs(2.0), 4.0) == pytest.approx(2.0, rel=1e-15)

    def test_zero_for_strictly_increasing(self):
        assert generalized_inverse(PowerOverP(2.0), 0.0) == 0.0

    def test_flat_segment_resolves_right(self):
        phi = PiecewiseLinearConvex([(0, 0), (1, 0)], extension="inf")
        # value is max(0, indicator-style) with inf beyond 1; a flat run at 0
        # resolves to its right endpoint.
        assert generalized_inverse(phi, 0.0) == pytest.approx(1.0)
        ramp = PiecewiseLinearConvex([(0, 0), (1, 0), (3, 2)], extension="slope")
        assert generalized_inverse(ramp, 0.0) == pytest.approx(1.0)

    def test_x_log_x_inverse(self):
        psi = XLogX()
        assert psi.inverse(0.0) == pytest.approx(1.0)
        assert psi.inverse(1.0) == pytest.approx(math.e, rel=1e-12)

    @pytest.mark.parametrize("phi", FAMILIES + [XLogX(), HardCap(1.5)])
    def test_sandwich(self, phi):
        for y in np.geomspace(1e-6, 1e5, 60):
            x = phi.inverse(float(y))
            assert phi(x) <= y * (1 + 1e-9) + 1e-12
        for x in np.geomspace(1e-6, 1e2, 60):
            v = phi(float(x))
            if v != INF:
                assert x <= phi.inverse(v) * (1 + 1e-9) + 1e-12


class TestYoungInequality:
    def test_zero_pair(self):
        assert young_inequality_gap(PowerOverP(2.0), 0.0, 0.0) == 0.0

    def test_equality_at_matched_pair(self):
        assert young_inequality_gap(PowerOverP(2.0), 1.0, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_half_gap(self):
        assert young_inequality_gap(PowerOverP(2.0), 1.0, 2.0) == pytest.approx(0.5, rel=1e-12)

    @given(
        x=st.floats(min_value=1e-4, max_value=5.0),
        y=st.floats(min_value=1e-4, max_value=5.0),
        p=st.floats(min_value=1.1, max_value=3.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_gap_nonnegative_power(self, x, y, p):
        assert young_inequality_gap(PowerAbs(p), x, y) >= -1e-12

    @given(x=st.floats(min_value=1e-4, max_value=5.0), y=st.floats(min_value=1e-4, max_value=5.0))
    @settings(max_examples=200, deadline=None)
    def test_gap_nonnegative_exp(self, x, y):
        assert young_inequality_gap(ExpMinusOne(), x, y) >= -1e-12

    @pytest.mark.parametrize("phi", FAMILIES)
    def test_equality_at_subgradient(self, phi):
        for x in np.geomspace(1e-3, 20.0, 40):
            d = phi.derivative(float(x))
            if d == INF:
                continue
            gap = young_inequality_gap(phi, float(x), d)
            if gap != INF:
                assert abs(gap) <= 1e-9 * max(1.0, phi(float(x)) + d * x)


class TestGrowthProbes:
    def test_doubling_power(self):
        v = delta2_probe(PowerAbs(1.7))
        assert v.status is GrowthStatus.HOLDS_GLOBALLY
        assert v.constant == pytest.approx(2.0**1.7, rel=1e-9)

    def test_doubling_abs(self):
        v = delta2_probe(AbsValue())
        assert v.status is GrowthStatus.HOLDS_GLOBALLY
        assert v.constant == pytest.approx(2.0, rel=1e-9)

    def test_doubling_exp_violated(self):
        v = delta2_probe(ExpMinusOne())
        assert v.status is GrowthStatus.VIOLATED_AT
        assert v.witness is not None
        # Re-evaluating the witness must violate the probed factor.
        x = v.witness
        phi = ExpMinusOne()
        assert phi.log_value(2 * x) - phi.log_value(x) > math.log(v.violated_factor)

    def test_doubling_x_log_x_beyond(self):
        v = delta2_probe(XLogX())
        assert v.status is GrowthStatus.HOLDS_BEYOND
        assert v.threshold == pytest.approx(1.0, rel=1e-2)

    def test_product_condition_power(self):
        v = delta_prime_probe(PowerAbs(2.0))
        assert v.status is GrowthStatus.HOLDS_GLOBALLY
        assert v.constant == pytest.approx(1.0, rel=1e-9)

    def test_product_condition_exp_violated(self):
        v = delta_prime_probe(ExpMinusOne())
        assert v.status is GrowthStatus.VIOLATED_AT

    def test_reverse_product_power(self):
        v = nabla_prime_probe(PowerAbs(2.0))
        assert v.status is GrowthStatus.HOLDS_GLOBALLY
        assert v.constant == pytest.approx(1.0, rel=1e-9)

    def test_reverse_product_exp_finite_constant(self):
        # Required b peaks near 1/x at the small end of the range: finite.
        v = nabla_prime_probe(ExpMinusOne())
        assert v.holds
        assert v.constant == pytest.approx(1e6, rel=0.1)

    def test_product_condition_exp_conjugate_beyond(self):
        # The dual of the exponential family vanishes on [0, 1], so the
        # product condition is certified only beyond that threshold.
        v = delta_prime_probe(XLogX())
        assert v.status is GrowthStatus.HOLDS_BEYOND
        assert v.threshold == pytest.approx(1.0, rel=1e-2)

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            delta2_probe(PowerAbs(2.0), probe_range=(1.0, 1.0))

    def test_n_function_power(self):
        assert n_function_probe(PowerOverP(2.0)).holds

    def test_n_function_abs_violated(self):
        v = n_function_probe(AbsValue())
        assert v.status is GrowthStatus.VIOLATED_AT

    def test_n_function_exp_fails_at_origin(self):
        # (e^x - 1)/x tends to 1 at the origin, not 0, so the lower trend fails.
        v = n_function_probe(ExpMinusOne())
        assert v.status is GrowthStatus.VIOLATED_AT

    def test_conjugate_of_nice_function_is_nice(self):
        for p in (1.5, 2.0, 3.0):
            phi = PowerOverP(p)
            assert n_function_probe(phi).holds
            assert n_function_probe(conjugate(phi)).holds


class TestSumBounds:
    def test_power_two_constants(self):
        kv, lv = sum_bound_constants(PowerAbs(2.0))
        assert kv.holds and lv.holds
        assert kv.constant == pytest.approx(2.0, rel=1e-9)
        assert lv.constant == pytest.approx(math.sqrt(2.0), rel=1e-9)

    def test_abs_value_additive(self):
        kv, lv = sum_bound_constants(AbsValue())
        assert kv.constant == pytest.approx(1.0, rel=1e-9)
        assert lv.constant == pytest.approx(1.0, rel=1e-9)

    def test_exp_sum_constant_diverges(self):
        kv, _ = sum_bound_constants(ExpMinusOne())
        assert kv.status is GrowthStatus.VIOLATED_AT

    def test_implied_doubling_crosscheck(self):
        # Product-condition success implies the doubling condition holds too.
        v = delta_prime_probe(PowerAbs(2.5))
        assert v.holds
        assert delta2_probe(PowerAbs(2.5)).holds


class TestXLogXInverse:
    @pytest.mark.parametrize("y", [1e-300, 1e-17])
    def test_finite_near_zero(self, y):
        x = XLogX().inverse(y)
        assert math.isfinite(x) and x >= 1.0

    def test_round_trip_on_log_grid(self):
        psi = XLogX()
        for y in np.logspace(-12, 300, 937):
            x = psi.inverse(float(y))
            # Near x = 1, phi(x) ~ (x - 1)**2 / 2 is computed with an absolute
            # error of a few ulp(1), and x itself is only known to ulp(x), so a
            # purely relative 1e-13 is out of reach for y below about 1e-2.
            assert abs(psi(x) - y) <= 1e-13 * y + 4.0 * math.ulp(x)


def test_import_does_not_load_scipy(run_python):
    assert run_python("import sys, orlicz; print('scipy' in sys.modules)").strip() == "False"
