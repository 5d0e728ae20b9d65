"""The fiber-mass table behind radon_nikodym and the one fiber-averaging
path behind conditional expectation, on countable maps."""

import math

import pytest

from orlicz import (
    CollapseLaw,
    ConstantTail,
    ConstantWeights,
    CountableSpace,
    GeometricTail,
    GeometricWeights,
    IdentityLaw,
    PairSwapLaw,
    PowerAbs,
    PowerIndexLaw,
    PowerLawWeights,
    ShiftLaw,
    SimpleFunction,
    Transformation,
    ZeroTail,
    conditional_expectation,
    fiber_average,
    fiber_partition,
    luxemburg_norm,
    radon_nikodym,
)
from orlicz.measure import DivCeilLaw

INF = math.inf


@pytest.fixture
def geo():
    return CountableSpace(GeometricWeights(1.0, 0.5), depth=64)


@pytest.fixture
def const_space():
    return CountableSpace(ConstantWeights(1.0), depth=64)


# The grid of countable maps the fiber-mass table is checked over: three
# weight laws, odd and even depths, collapse targets inside and beyond the
# prefix, and override sets that divert nothing, some atoms, or every atom.
GRID_WEIGHTS = (ConstantWeights(1.0), GeometricWeights(1.0, 0.5), PowerLawWeights(1.0, 2.0))
GRID_LAWS = ("identity", "collapse_in", "collapse_out", "shift", "div_ceil", "power_index", "pair_swap")


def _grid_law(name, m):
    return {"identity": IdentityLaw(), "collapse_in": CollapseLaw(3),
            "collapse_out": CollapseLaw(m + 2), "shift": ShiftLaw(1), "div_ceil": DivCeilLaw(2),
            "power_index": PowerIndexLaw(2), "pair_swap": PairSwapLaw()}[name]


def _grid_maps(weights, law, m):
    space = CountableSpace(weights, m)
    for ov in ({}, {2: 5, 4: 1}, {n: n for n in range(1, m + 1)}):
        yield Transformation.from_law(space, _grid_law(law, m), ov)


def _grid_functions(space):
    vals = tuple(float((n * 7) % 9 - 3) for n in range(1, space.depth + 1))
    for tail in (ZeroTail(), ConstantTail(2.0), GeometricTail(1.5, 0.5)):
        yield SimpleFunction(space, vals, tail)


class TestFiberMassTable:
    @pytest.mark.parametrize("depth", [7, 8, 64])
    @pytest.mark.parametrize("weights", GRID_WEIGHTS)
    @pytest.mark.parametrize("law", GRID_LAWS)
    def test_h_is_fiber_measure_over_weight(self, weights, law, depth):
        for tr in _grid_maps(weights, law, depth):
            h = radon_nikodym(tr)
            for y in tr.space.prefix_ids():
                assert h.values[y - 1] == tr.fiber_measure(y) / tr.space.weight(y)

    @pytest.mark.parametrize("depth", [7, 8, 64])
    @pytest.mark.parametrize("weights", GRID_WEIGHTS)
    @pytest.mark.parametrize("law", GRID_LAWS)
    def test_conditional_expectation_is_fiber_average_at_the_image(self, weights, law, depth):
        for tr in _grid_maps(weights, law, depth):
            for f in _grid_functions(tr.space):
                avg = fiber_average(f, tr)
                ce = conditional_expectation(f, fiber_partition(tr))
                for x in range(1, depth + 11):
                    assert ce.value(x) == avg.value(tr.apply(x))

    def test_table_is_built_once_and_read_only(self, geo):
        tr = Transformation.from_law(geo, DivCeilLaw(2), {3: 1})
        table = tr._fiber_mass
        assert table is tr._fiber_mass and not table.flags.writeable
        assert radon_nikodym(tr).values == radon_nikodym(tr).values

    def test_light_tail_fiber_is_summed_not_subtracted(self):
        # Every prefix atom is diverted from the collapse target 66, whose
        # fiber is the tail n > 64 of mass 2**-64 = 4 * mu({66}). Subtracting
        # the prefix from the total mass cancelled it to 0.0.
        space = CountableSpace(GeometricWeights(1.0, 0.5), depth=64)
        tr = Transformation.from_law(space, CollapseLaw(66), {n: n for n in range(1, 65)})
        assert tr.fiber_measure(66) == 2.0**-64
        assert radon_nikodym(tr).value(66) == 4.0
        g = SimpleFunction(space, (0.0,) * 64, ConstantTail(2.0))
        assert fiber_average(g, tr).value(66) == 2.0

    def test_prefix_weights_that_underflow_are_refused(self):
        # 0.5**n is 0.0 from n = 1075 on, so h is undefined there.
        tr = Transformation.from_law(CountableSpace(GeometricWeights(1.0, 0.5), 1100), IdentityLaw())
        with pytest.raises(ArithmeticError):
            radon_nikodym(tr)

    def test_override_lookup_matches_the_first_override(self, geo):
        ov = ((1, 7), (2, 9), (1, 5), (60, 3))
        tr = Transformation(geo, law=ShiftLaw(1), overrides=ov)
        for n in range(1, 80):
            want = next((v for k, v in ov if k == n), n + 1)
            assert tr.apply(n) == want


class TestFiberCertificates:
    """Tail certificates over a collapse fiber of infinite mass, where the
    fiber average is +inf and no finite sup holds."""

    @staticmethod
    def _constant_space_collapse(overrides):
        space = CountableSpace(ConstantWeights(1.0), 8)
        tr = Transformation.from_law(space, CollapseLaw(10), overrides)
        g = SimpleFunction(space, tuple(float(n) for n in range(1, 9)), ConstantTail(2.0))
        return tr, g

    @pytest.mark.parametrize("overrides", [{}, {2: 3}, {n: n for n in range(1, 9)}])
    def test_fiber_average_tail_carries_the_infinite_target(self, overrides):
        tr, g = self._constant_space_collapse(overrides)
        avg = fiber_average(g, tr)
        assert avg.value(10) == INF
        assert avg.tail.sup() == INF
        assert avg.tail.all_finite() == (False, 10)
        assert luxemburg_norm(PowerAbs(2.0), avg).value == INF

    def test_conditional_expectation_tail_is_the_infinite_average(self):
        tr, f = self._constant_space_collapse({n: n for n in range(1, 9)})
        ce = conditional_expectation(f, fiber_partition(tr))
        assert ce.values == f.values
        assert ce.value(11) == INF
        assert ce.tail.sup() == INF and not ce.tail.all_finite()[0]
        assert luxemburg_norm(PowerAbs(2.0), ce).value == INF

    def test_collapse_inside_the_prefix_has_an_exact_tail(self, const_space):
        f = SimpleFunction(const_space, (1.0,) * 64, ConstantTail(2.0))
        ce = conditional_expectation(f, fiber_partition(Transformation.from_law(const_space, CollapseLaw(3))))
        assert ce.value(3) == INF and ce.value(70) == INF
        assert ce.tail.sup() == INF and not ce.tail.all_finite()[0]
        g = f.times(SimpleFunction(const_space, (1.0,) * 64, GeometricTail(1.0, 0.5)))
        ce = conditional_expectation(g, fiber_partition(Transformation.from_law(const_space, CollapseLaw(3))))
        assert ce.tail == ConstantTail(0.0) and ce.value(3) == 0.0

    def test_finite_integral_over_infinite_mass_averages_to_zero(self, const_space):
        # The prefix sum overflows to +inf, but no value is infinite: the
        # integral is finite, so its average over infinite mass is 0.
        f = SimpleFunction(const_space, (1e308, 1e308) + (0.0,) * 62, ZeroTail())
        avg = fiber_average(f, Transformation.from_law(const_space, CollapseLaw(1)))
        assert avg.value(1) == 0.0
        g = SimpleFunction(const_space, (INF,) + (0.0,) * 63, ConstantTail(-1.0))
        with pytest.raises(ValueError, match="inf against -inf"):
            fiber_average(g, Transformation.from_law(const_space, CollapseLaw(1)))
