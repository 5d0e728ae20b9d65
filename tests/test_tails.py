"""Tail-law algebra: values, certificates, and sound remainder bounds."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from orlicz import (
    ConstantTail,
    CountableSpace,
    GeometricTail,
    GeometricWeights,
    PointwiseTail,
    PowerAbs,
    SimpleFunction,
    SparseGeometricTail,
    ZeroTail,
    modular,
)
from orlicz.extreal import xmul
from orlicz.tails import IndexPowerTail, PatchedTail, tail_power, tail_product, tail_scale, tail_sum


class TestLaws:
    def test_values(self):
        assert ZeroTail().value_at(99) == 0.0
        assert ConstantTail(3.0).value_at(5) == 3.0
        g = GeometricTail(2.0, 0.5)
        assert g.value_at(3) == pytest.approx(0.25)
        s = SparseGeometricTail(4, 1.0, 3.0, start=1)
        assert s.value_at(16) == pytest.approx(9.0)
        assert s.value_at(17) == 0.0
        assert s.value_at(64) == pytest.approx(27.0)

    def test_sparse_support_enumeration(self):
        s = SparseGeometricTail(3, 1.0, 2.0, start=1)
        assert list(s.support_in(10, 300)) == [27, 81, 243]

    def test_scale(self):
        g = tail_scale(GeometricTail(2.0, 0.5), -3.0)
        assert g.value_at(2) == pytest.approx(-1.5)
        assert tail_scale(ConstantTail(2.0), 0.0).is_zero()

    def test_product(self):
        p = tail_product(GeometricTail(2.0, 0.5), GeometricTail(1.0, 0.5))
        assert isinstance(p, GeometricTail)
        assert p.ratio == 0.25

    def test_patched(self):
        p = PatchedTail(GeometricTail(1.0, 0.5), ((70, 0.0), (71, 9.0)))
        assert p.value_at(70) == 0.0
        assert p.value_at(71) == 9.0
        assert p.value_at(72) == pytest.approx(0.5**72)
        assert p.decay_from() >= 72


class TestSumCancellationSoundness:
    def test_cancelled_prefix_still_summed(self):
        # The summed tail vanishes identically up to index 70 and becomes
        # geometric beyond: an invalid value-level decay certificate would
        # truncate the series at the zeros and report 0.
        space = CountableSpace(GeometricWeights(1.0, 0.5), depth=64)
        a = SimpleFunction(space, (0.0,) * 64, GeometricTail(1.0, 0.5))
        cutoff = 70

        def neg_head(n):
            return -(0.5**n) if n <= cutoff else 0.0

        b_tail = PointwiseTail(neg_head, sup_bound=0.5**65, finite=True,
                               block=1, block_ratio=0.5)
        b = SimpleFunction(space, (0.0,) * 64, b_tail)
        total = a.plus(b)
        for n in (65, 68, 70):
            assert total.value(n) == 0.0
        assert total.value(71) == pytest.approx(0.5**71)
        got = modular(PowerAbs(2.0), total)
        oracle = sum((0.5**n) ** 2 * 0.5**n for n in range(cutoff + 1, 400))
        assert got == pytest.approx(oracle, rel=1e-10)
        assert got > 0.0

    def test_product_majorant(self):
        space = CountableSpace(GeometricWeights(1.0, 0.5), depth=16)
        a = GeometricTail(1.0, 0.6)

        def signed(n):
            return (0.8**n) * (1 if n % 2 == 0 else -1)

        b = PointwiseTail(signed, sup_bound=0.8**17, finite=True, block=1, block_ratio=0.8)
        prod = tail_product(a, b)
        f = SimpleFunction(space, (0.0,) * 16, prod)
        got = modular(PowerAbs(1.0), f.abs())
        oracle = sum(0.6**n * 0.8**n * 0.5**n for n in range(17, 300))
        assert got == pytest.approx(oracle, rel=1e-10)


# ---------------------------------------------------------------------------
# Property test of the pointwise algebra: every transform agrees with the
# scalar operation atom by atom and keeps sound sup, majorant and decay
# certificates.
# ---------------------------------------------------------------------------

INF = math.inf
SPAN = 200


def _signed(lo, hi):
    # Magnitudes stay >= lo so that no law value reaches the subnormal range
    # on the checked atoms, where the scalar reference loses its precision.
    mags = st.floats(lo, hi)
    return st.one_of(st.just(0.0), mags, mags.map(lambda x: -x))


coeffs = _signed(1e-3, 50.0)
ratios = st.floats(0.2, 0.95)
patch_values = st.one_of(st.just(0.0), st.just(INF), st.floats(-20.0, 20.0, allow_nan=False))


def _vanishing(c, r, k):
    # Zero on every k-th atom; the geometric majorant carries the decay.
    return PointwiseTail(lambda n: c * r**n if n % k else 0.0, sup_bound=abs(c) * r,
                         block=1, block_ratio=r, major_fn=lambda n: abs(c) * r**n,
                         name="vanishing")


def _oscillating(c):
    return PointwiseTail(lambda n: c * math.cos(n), sup_bound=abs(c), name="oscillating")


plain_tails = st.one_of(
    st.just(ZeroTail()),
    st.builds(ConstantTail, st.one_of(st.just(INF), coeffs)),
    st.builds(GeometricTail, coeffs, ratios),
    st.builds(IndexPowerTail, coeffs, st.floats(-2.0, 2.0)),
    st.builds(SparseGeometricTail, st.integers(2, 4), coeffs, _signed(0.05, 3.0), st.integers(1, 3)),
    st.builds(_vanishing, coeffs, ratios, st.integers(2, 5)),
    st.builds(_oscillating, coeffs),
)
patches = st.dictionaries(st.integers(1, 60 + SPAN), patch_values, max_size=4).map(
    lambda d: tuple(sorted(d.items()))
)
tails = st.one_of(plain_tails, st.builds(PatchedTail, plain_tails, patches))


def _same(got, want):
    if got == want:
        return True
    return (math.isfinite(got) and math.isfinite(want)
            and abs(got - want) <= 1e-9 * max(abs(got), abs(want)) + 1e-290)


def _check(t, scalar, m):
    ns = range(m + 1, m + SPAN + 1)
    sup = t.sup()
    for n in ns:
        v = t.value_at(n)
        assert _same(v, scalar(n)), (n, v, scalar(n))
        assert abs(v) <= sup * (1.0 + 1e-12), (n, v, sup)
        assert abs(v) <= t.major_at(n) * (1.0 + 1e-12), (n, v, t.major_at(n))
    block = t.decay_block()
    if block is not None:
        b, q = block
        assert 0.0 < q < 1.0
        for n in range(max(t.decay_from(), m + 1), m + SPAN + 1 - b):
            assert t.major_at(n + b) <= q * t.major_at(n) * (1.0 + 1e-9) + 1e-290, n


depths = st.integers(0, 60)


class TestPointwiseAlgebra:
    @settings(max_examples=150, deadline=None)
    @given(tails, st.floats(-100.0, 100.0, allow_nan=False), depths)
    def test_scale(self, a, c, m):
        _check(tail_scale(a, c), lambda n: xmul(c, a.value_at(n)), m)

    @settings(max_examples=150, deadline=None)
    @given(tails, tails, depths)
    def test_sum(self, a, b, m):
        _check(tail_sum(a, b), lambda n: a.value_at(n) + b.value_at(n), m)

    @settings(max_examples=150, deadline=None)
    @given(tails, tails, depths)
    def test_product(self, a, b, m):
        _check(tail_product(a, b), lambda n: xmul(a.value_at(n), b.value_at(n)), m)

    @settings(max_examples=150, deadline=None)
    @given(tails, st.floats(0.25, 4.0), depths)
    def test_power(self, a, e, m):
        _check(tail_power(a, e), lambda n: abs(a.value_at(n)) ** e, m)

    def test_product_keeps_finite_support_through_inf(self):
        # 0 * inf = 0: a finitely supported infinite factor times a law that
        # vanishes there stays finitely supported and finite.
        h = PatchedTail(ZeroTail(), ((20, INF), (21, 2.0)))
        p = tail_product(h, _vanishing(1.0, 0.5, 5))
        assert p == PatchedTail(ZeroTail(), ((20, 0.0), (21, 2.0 * 0.5**21)))
        assert p.all_finite() == (True, None)
