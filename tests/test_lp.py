"""The p-th power specialization and weighted composition operators."""

import math

import numpy as np
import pytest

from orlicz import (
    CollapseLaw,
    ConstantWeights,
    CountableSpace,
    DomainStatus,
    FiniteSpace,
    GeometricWeights,
    PowerAbs,
    SimpleFunction,
    Transformation,
    WeightedCompositionSpec,
    density_verdict,
    lp_density_verdict,
    lp_norm,
    luxemburg_norm,
    multiplication_equivalence_check,
    radon_nikodym,
    weighted_comp_index,
    weighted_density_verdict,
)
from orlicz.lp import weighted_norm_identity_check

INF = math.inf


@pytest.fixture
def uniform3():
    return FiniteSpace(("1", "2", "3"), (1.0, 1.0, 1.0))


@pytest.fixture
def collapse3(uniform3):
    return Transformation.finite(uniform3, {"1": "1", "2": "1", "3": "3"})


class TestLpNorm:
    def test_indicator(self):
        sp = FiniteSpace(("a",), (4.0,))
        chi = SimpleFunction.indicator(sp, ["a"])
        assert lp_norm(chi, 2.0) == pytest.approx(2.0)

    def test_zero(self, uniform3):
        assert lp_norm(SimpleFunction.constant(uniform3, 0.0), 1.5) == 0.0

    def test_matches_luxemburg(self, uniform3):
        f = SimpleFunction.from_dict(uniform3, {"1": 1.0, "2": -2.0, "3": 0.5})
        for p in (1.0, 1.5, 2.0, 3.0):
            lux = luxemburg_norm(PowerAbs(p), f, rel_tol=1e-13).value
            assert lp_norm(f, p) == pytest.approx(lux, rel=1e-12)

    def test_requires_p_at_least_one(self, uniform3):
        with pytest.raises(ValueError):
            lp_norm(SimpleFunction.constant(uniform3, 1.0), 0.5)


class TestMultiplicationEquivalence:
    def test_identity_map(self, uniform3):
        ident = Transformation.finite(uniform3, {a: a for a in uniform3.atoms})
        f = SimpleFunction.from_dict(uniform3, {"1": 1.0, "2": 2.0, "3": 3.0})
        rep = multiplication_equivalence_check(f, ident, 2.0)
        assert rep.norms_equal and rep.identity_holds
        assert rep.composed_norm == pytest.approx(lp_norm(f, 2.0))

    def test_three_atom_collapse(self, uniform3, collapse3):
        f = SimpleFunction.from_dict(uniform3, {"1": 1.0, "2": 2.0, "3": 3.0})
        rep = multiplication_equivalence_check(f, collapse3, 2.0)
        # |f o phi|_2^2 = 1 + 1 + 9 = 11 = |f * h^(1/2)|_2^2 = 1*2 + 9*1.
        assert rep.composed_norm == pytest.approx(math.sqrt(11.0), rel=1e-12)
        assert rep.norms_equal and rep.identity_holds

    def test_zero(self, uniform3, collapse3):
        z = SimpleFunction.constant(uniform3, 0.0)
        rep = multiplication_equivalence_check(z, collapse3, 2.0)
        assert rep.composed_norm == rep.multiplier_norm == 0.0

    def test_various_exponents(self, uniform3, collapse3):
        rng = np.random.default_rng(5)
        f = SimpleFunction(uniform3, tuple(rng.uniform(-3, 3, 3)), None)
        for p in (1.0, 1.5, 2.0, 3.0):
            rep = multiplication_equivalence_check(f, collapse3, p)
            assert rep.norms_equal and rep.identity_holds


class TestLpDensity:
    def test_finite(self, collapse3):
        assert lp_density_verdict(collapse3, 2.0).densely_defined

    def test_constant_collapse(self):
        sp = CountableSpace(ConstantWeights(1.0), depth=32)
        tr = Transformation.from_law(sp, CollapseLaw(1))
        dv = lp_density_verdict(tr, 2.0)
        assert dv.status is DomainStatus.NOT_DENSELY_DEFINED
        assert dict(dv.extra_facets)["mu_h_sigma_finite"] == "fails"

    def test_geometric_collapse(self):
        sp = CountableSpace(GeometricWeights(1.0, 0.5), depth=32)
        tr = Transformation.from_law(sp, CollapseLaw(1))
        dv = lp_density_verdict(tr, 2.0)
        assert dv.densely_defined
        assert dict(dv.extra_facets)["mu_h_sigma_finite"] == "holds"

    def test_matches_general_verdict(self, uniform3, collapse3):
        for p in (1.0, 2.0, 3.0):
            assert (
                lp_density_verdict(collapse3, p).status
                == density_verdict(PowerAbs(p), collapse3).status
            )


class TestWeightedIndex:
    def test_unit_weight_reduces_to_h(self, uniform3, collapse3):
        ones = SimpleFunction.constant(uniform3, 1.0)
        spec = WeightedCompositionSpec(ones, collapse3, 2.0, 2.0)
        j = weighted_comp_index(spec)
        h = radon_nikodym(collapse3)
        assert tuple(j.values) == tuple(h.values)

    def test_identity_map_gives_uq(self, uniform3):
        ident = Transformation.finite(uniform3, {a: a for a in uniform3.atoms})
        u = SimpleFunction.from_dict(uniform3, {"1": 1.0, "2": -2.0, "3": 3.0})
        spec = WeightedCompositionSpec(u, ident, 2.0, 2.0)
        j = weighted_comp_index(spec)
        assert tuple(j.values) == pytest.approx((1.0, 4.0, 9.0))

    def test_three_atom_example(self, uniform3, collapse3):
        u = SimpleFunction.from_dict(uniform3, {"1": 1.0, "2": 3.0, "3": 0.0})
        spec = WeightedCompositionSpec(u, collapse3, 2.0, 2.0)
        j = weighted_comp_index(spec)
        assert tuple(j.values) == pytest.approx((10.0, 0.0, 0.0))

    def test_norm_identity_random(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            sp = FiniteSpace(
                tuple(f"a{i}" for i in range(n)),
                tuple(float(10 ** rng.uniform(-2, 2)) for _ in range(n)),
            )
            ids = sp.atoms
            tr = Transformation(sp, targets=tuple(ids[i] for i in rng.integers(0, n, n)))
            u = SimpleFunction(sp, tuple(rng.uniform(-4, 4, n)), None)
            f = SimpleFunction(sp, tuple(rng.uniform(-4, 4, n)), None)
            q = float(rng.uniform(1.0, 3.0))
            spec = WeightedCompositionSpec(u, tr, 2.0, q)
            rep = weighted_norm_identity_check(spec, f)
            assert rep["equal"], rep


class TestWeightedDensity:
    def test_unit_weight(self, uniform3, collapse3):
        ones = SimpleFunction.constant(uniform3, 1.0)
        spec = WeightedCompositionSpec(ones, collapse3, 2.0, 2.0)
        assert weighted_density_verdict(spec).densely_defined

    def test_zero_weight(self, uniform3, collapse3):
        zero = SimpleFunction.constant(uniform3, 0.0)
        spec = WeightedCompositionSpec(zero, collapse3, 2.0, 2.0)
        dv = weighted_density_verdict(spec)
        assert dv.densely_defined

    def test_constant_collapse_unit_weight(self):
        sp = CountableSpace(ConstantWeights(1.0), depth=32)
        tr = Transformation.from_law(sp, CollapseLaw(1))
        ones = SimpleFunction.constant(sp, 1.0)
        spec = WeightedCompositionSpec(ones, tr, 2.0, 2.0)
        dv = weighted_density_verdict(spec)
        assert dv.status is DomainStatus.NOT_DENSELY_DEFINED
        assert dv.witness == 1

    def test_rejects_bad_exponents(self, uniform3, collapse3):
        u = SimpleFunction.constant(uniform3, 1.0)
        with pytest.raises(ValueError):
            WeightedCompositionSpec(u, collapse3, 0.5, 2.0)

    def test_zero_weight_on_collapse_into_the_tail(self):
        # h is +inf at the tail atom 20; the index multiplies it by the zero
        # fiber average there, and 0 * inf = 0 keeps the index finite.
        sp = CountableSpace(ConstantWeights(1.0), depth=8)
        zero = SimpleFunction.constant(sp, 0.0)
        for target in (3, 20):
            spec = WeightedCompositionSpec(zero, Transformation.from_law(sp, CollapseLaw(target)), 2.0, 2.0)
            dv = weighted_density_verdict(spec)
            assert dv.status is DomainStatus.DENSELY_DEFINED, target
            assert weighted_comp_index(spec).value(20) == 0.0
