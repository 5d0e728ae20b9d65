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


LOG_VALUE_FAMILIES = [
    PowerAbs(1.0),
    PowerAbs(2.5),
    PowerOverP(3.0),
    ScaledPower(0.3, 2.5),
    ExpMinusOne(),
    XLogX(),
    HardCap(2.0),
    PiecewiseLinearConvex([(1, 0), (2, 1), (4, 5)], extension="slope"),
    PiecewiseLinearConvex([(1, 0), (2, 1), (3, 3)], extension="inf"),
]
LOG_VALUE_FUNCTIONS = LOG_VALUE_FAMILIES + [phi.conjugate() for phi in LOG_VALUE_FAMILIES]


class TestLogValueArray:
    """The array log_value against math.log of the scalar value."""

    @staticmethod
    def scalar_log(phi, x):
        v = phi(x)
        if v == 0.0:
            return -INF
        if v == INF and isinstance(phi, ExpMinusOne):
            return x  # e^x - 1 overflows the float range but is finite
        return math.log(v)

    @pytest.mark.parametrize("phi", LOG_VALUE_FUNCTIONS, ids=repr)
    def test_grid_matches_scalar(self, phi):
        xs = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 1201)])
        got = phi.log_value(xs)
        assert isinstance(got, np.ndarray) and got.shape == xs.shape
        assert np.array_equal(phi.log_value(-xs), got)
        for x, lv in zip(xs, got):
            ref = self.scalar_log(phi, float(x))
            if math.isinf(ref):
                assert lv == ref, (x, lv)
            else:
                # ln phi near 0 has no relative scale: 1e-13 absolute there
                # is 1e-13 relative on phi itself.
                assert math.isclose(lv, ref, rel_tol=1e-12, abs_tol=1e-13), (x, lv, ref)

    @pytest.mark.parametrize("phi", LOG_VALUE_FUNCTIONS, ids=repr)
    def test_float_gives_float(self, phi):
        assert isinstance(phi.log_value(1.5), float)
        assert phi.log_value(0.0) == -INF

    def test_exp_minus_one_branches(self):
        phi = ExpMinusOne()
        assert phi.log_value(40.0) == pytest.approx(math.log(math.expm1(40.0)), rel=1e-15)
        assert phi.log_value(41.0) == pytest.approx(41.0 + math.log1p(-math.exp(-41.0)), rel=1e-15)
        assert phi.log_value(800.0) == 800.0
        assert np.array_equal(phi.log_value(np.array([40.0, 41.0, 800.0, INF])),
                              [phi.log_value(40.0), phi.log_value(41.0), 800.0, INF])

    def test_hard_cap_edge(self):
        phi = HardCap(2.0)
        assert phi.log_value(2.0) == -INF
        assert phi.log_value(math.nextafter(2.0, INF)) == INF


class TestProbeClosedForms:
    """Probe constants against the closed forms of the power families."""

    @pytest.mark.parametrize("phi,p", [(PowerOverP(3.0), 3.0), (ScaledPower(0.3, 2.5), 2.5)])
    def test_doubling_constant(self, phi, p):
        v = delta2_probe(phi)
        assert v.status is GrowthStatus.HOLDS_GLOBALLY
        assert v.constant == pytest.approx(2.0**p, rel=1e-9)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_product_constant_power_over_p(self, p):
        v = delta_prime_probe(PowerOverP(p))
        assert v.status is GrowthStatus.HOLDS_GLOBALLY
        assert v.constant == pytest.approx(p, rel=1e-9)

    @pytest.mark.parametrize("coeff,p", [(0.3, 2.5), (2.0, 1.5)])
    def test_product_constant_scaled_power(self, coeff, p):
        v = delta_prime_probe(ScaledPower(coeff, p))
        assert v.status is GrowthStatus.HOLDS_GLOBALLY
        assert v.constant == pytest.approx(1.0 / coeff, rel=1e-9)

    def test_doubling_beyond_inf_extension(self):
        v = delta2_probe(PiecewiseLinearConvex([(1, 0), (2, 1)], extension="inf"))
        assert v.status is GrowthStatus.HOLDS_BEYOND
        assert v.threshold == pytest.approx(2.0, rel=1e-2)


def _loop_verdicts(phi, probe_range):
    """delta2 and delta' verdicts from the per-point scalar case tables, the
    reference the array kernels must reproduce."""
    from orlicz import young

    lo, hi = probe_range

    def case(num, den, diff):
        if den == -INF:
            return (0.0, False) if num == -INF else (INF, True)
        if den == INF:
            return 0.0, False
        if num == INF:
            return INF, True
        return diff, False

    xs = young._log_grid(lo, hi, young.DEFAULT_GRID_PER_DECADE)
    rows = [case(n, d, n - d) for n, d in
            ((phi.log_value(2.0 * float(x)), phi.log_value(float(x))) for x in xs)]
    d2 = young._classify_grid(
        xs, xs, np.array([r[0] for r in rows]), np.array([r[1] for r in rows]), lo, hi, 1e8,
        len(xs), "doubling ratio exceeds the divergence threshold and grows across the last decade")
    ys = young._log_grid(lo, hi, max(young.DEFAULT_GRID_PER_DECADE // 64, 4))
    pts, rows = [], []
    for i in range(len(ys)):
        for j in range(i, len(ys)):
            la, lb = phi.log_value(float(ys[i])), phi.log_value(float(ys[j]))
            num = phi.log_value(float(ys[i] * ys[j]))
            den = -INF if -INF in (la, lb) else la + lb
            rows.append(case(num, den, num - la - lb if math.isfinite(den) else 0.0))
            pts.append(float(ys[i]))
    dp = young._classify_grid(
        ys, np.array(pts), np.array([r[0] for r in rows]), np.array([r[1] for r in rows]), lo, hi,
        1e8, len(ys) ** 2, "product ratio grows without bound along the diagonal")
    return d2, dp


@pytest.mark.parametrize("phi", LOG_VALUE_FUNCTIONS, ids=repr)
@pytest.mark.parametrize("probe_range", [(1e-2, 1e2), (0.5, 50.0)])
def test_array_probes_match_scalar_loop(phi, probe_range):
    d2_ref, dp_ref = _loop_verdicts(phi, probe_range)
    for got, ref in ((delta2_probe(phi, probe_range), d2_ref),
                     (delta_prime_probe(phi, probe_range), dp_ref)):
        assert (got.status, got.threshold, got.witness, got.grid_points, got.note) == (
            ref.status, ref.threshold, ref.witness, ref.grid_points, ref.note)
        if ref.constant is None:
            assert got.constant is None
        else:
            assert got.constant == pytest.approx(ref.constant, rel=1e-12)


def test_x_log_x_at_infinity():
    phi = XLogX()
    assert phi(INF) == INF and phi(-INF) == INF
    assert list(phi.eval_array(np.array([INF, -INF, 0.5, 2.0]))) == [INF, INF, 0.0, phi(2.0)]
