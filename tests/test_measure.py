"""Spaces, derivatives, partitions, and conditional expectation."""

import math

import numpy as np
import pytest

from orlicz import (
    ALL_ATOMS,
    CollapseLaw,
    ConstantTail,
    ConstantWeights,
    CountableSpace,
    FiniteSpace,
    GeometricTail,
    GeometricWeights,
    IdentityLaw,
    IndexPowerTail,
    PairSwapLaw,
    PowerIndexLaw,
    PowerLawWeights,
    ShiftLaw,
    SimpleFunction,
    Transformation,
    conditional_expectation,
    exhaustion,
    fiber_average,
    fiber_partition,
    inverse_rn,
    iterated_rn,
    nonsingular_check,
    radon_nikodym,
    sigma_finite_check,
    support,
    weighted_measure,
)
from orlicz.measure import DivCeilLaw, Partition
from orlicz.verdicts import Status

INF = math.inf


@pytest.fixture
def uniform3():
    return FiniteSpace(("1", "2", "3"), (1.0, 1.0, 1.0))


@pytest.fixture
def collapse3(uniform3):
    return Transformation.finite(uniform3, {"1": "1", "2": "1", "3": "3"})


@pytest.fixture
def geo():
    return CountableSpace(GeometricWeights(1.0, 0.5), depth=64)


@pytest.fixture
def const_space():
    return CountableSpace(ConstantWeights(1.0), depth=64)


class TestSpaces:
    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            FiniteSpace(("a",), (0.0,))
        with pytest.raises(ValueError):
            FiniteSpace(("a",), (INF,))

    def test_rejects_duplicate_atoms(self):
        with pytest.raises(ValueError):
            FiniteSpace(("a", "a"), (1.0, 2.0))

    def test_geometric_tail_mass(self, geo):
        # Sum of (1/2)^n for n > 64 equals (1/2)^64.
        assert geo.tail_mass() == pytest.approx(0.5**64, rel=1e-12)
        assert geo.total_mass() == pytest.approx(1.0, rel=1e-12)

    def test_constant_tail_mass_infinite(self, const_space):
        assert const_space.tail_mass() == INF
        assert const_space.total_mass() == INF

    def test_power_law_tail_mass(self):
        sp = CountableSpace(PowerLawWeights(1.0, 2.0), depth=50)
        # Oracle: direct summation plus the midpoint estimate of the rest
        # (error O(N^-3), far below the comparison tolerance).
        cut = 2_000_000
        oracle = sum(n**-2.0 for n in range(51, cut)) + 1.0 / (cut - 0.5)
        assert sp.tail_mass() == pytest.approx(oracle, rel=1e-9)
        heavy = CountableSpace(PowerLawWeights(1.0, 0.9), depth=50)
        assert heavy.tail_mass() == INF


class TestWeightedMeasure:
    def test_unit_function(self):
        sp = FiniteSpace(("a", "b"), (1.0, 2.0))
        one = SimpleFunction.constant(sp, 1.0)
        assert weighted_measure(one, ["a", "b"]) == 3.0

    def test_empty_set(self, uniform3):
        f = SimpleFunction.constant(uniform3, 5.0)
        assert weighted_measure(f, []) == 0.0

    def test_divergent_tail(self, const_space):
        one = SimpleFunction.constant(const_space, 1.0)
        assert weighted_measure(one, ALL_ATOMS) == INF

    def test_unknown_atom_errors(self, uniform3):
        f = SimpleFunction.constant(uniform3, 1.0)
        with pytest.raises(KeyError):
            weighted_measure(f, ["nope"])

    def test_geometric_total(self, geo):
        one = SimpleFunction.constant(geo, 1.0)
        assert weighted_measure(one, ALL_ATOMS) == pytest.approx(1.0, rel=1e-12)

    def test_negative_tail_refused(self):
        # A zero prefix hides the sign: the tail law alone must certify f >= 0.
        sp = CountableSpace(GeometricWeights(1.0, 0.5), depth=4)
        f = SimpleFunction(sp, (0.0,) * 4, ConstantTail(-1.0))
        with pytest.raises(ValueError):
            weighted_measure(f, ALL_ATOMS)


class TestRadonNikodym:
    def test_nonsingular_always(self, collapse3):
        assert nonsingular_check(collapse3).status is Status.HOLDS

    def test_three_atom_example(self, uniform3, collapse3):
        h = radon_nikodym(collapse3)
        assert tuple(h.values) == (2.0, 0.0, 1.0)

    def test_identity(self, uniform3):
        ident = Transformation.finite(uniform3, {a: a for a in uniform3.atoms})
        assert tuple(radon_nikodym(ident).values) == (1.0, 1.0, 1.0)

    def test_collapse_constant_weights_infinite(self, const_space):
        tr = Transformation.from_law(const_space, CollapseLaw(1))
        h = radon_nikodym(tr)
        assert h.value(1) == INF
        assert h.value(2) == 0.0
        assert h.value(1000) == 0.0

    def test_collapse_geometric(self, geo):
        tr = Transformation.from_law(geo, CollapseLaw(1))
        h = radon_nikodym(tr)
        assert h.value(1) == pytest.approx(2.0, rel=1e-12)
        assert h.value(2) == 0.0

    def test_consistency_against_pushforward(self, geo):
        # mu(phi^-1 A) must equal the h-weighted measure of A.
        for law in (IdentityLaw(), ShiftLaw(1), PairSwapLaw(), CollapseLaw(3)):
            tr = Transformation.from_law(geo, law)
            h = radon_nikodym(tr)
            for A in ([1], [2, 3], [1, 4, 9], list(range(1, 20))):
                pre = []
                for y in A:
                    p = tr.preimage(y)
                    assert p != ALL_ATOMS or law.label().startswith("collapse")
                    if p == ALL_ATOMS:
                        pre = ALL_ATOMS
                        break
                    pre.extend(p)
                lhs = (
                    geo.total_mass()
                    if pre == ALL_ATOMS
                    else sum(geo.weight(a) for a in pre)
                )
                rhs = sum(h.value(y) * geo.weight(y) for y in A)
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_iterated_identity(self, uniform3):
        ident = Transformation.finite(uniform3, {a: a for a in uniform3.atoms})
        assert tuple(iterated_rn(ident, 5).values) == (1.0, 1.0, 1.0)

    def test_iterated_swap_is_identity(self):
        sp = FiniteSpace(("1", "2"), (1.0, 1.0))
        swap = Transformation.finite(sp, {"1": "2", "2": "1"})
        assert tuple(iterated_rn(swap, 2).values) == (1.0, 1.0)

    def test_iterated_collapse(self, uniform3, collapse3):
        # The collapse squares to itself.
        assert tuple(iterated_rn(collapse3, 2).values) == (2.0, 0.0, 1.0)

    def test_iterated_law_composition(self, geo):
        from orlicz import DivCeilLaw

        halve = Transformation.from_law(geo, DivCeilLaw(2))
        h2 = iterated_rn(halve, 2)
        # Oracle: the two-fold map is ceil(n/4); compare fiber measures.
        law4 = DivCeilLaw(4)
        for y in (1, 2, 5, 20, 70):
            fiber = law4.preimage(y)
            oracle = sum(geo.weight(a) for a in fiber) / geo.weight(y)
            assert h2.value(y) == pytest.approx(oracle, rel=1e-12)

    def test_iterated_square_law(self):
        sp = CountableSpace(PowerLawWeights(1.0, 2.0), depth=64)
        sq = Transformation.from_law(sp, PowerIndexLaw(2))
        assert sq.iterate(2).law.label() == "power_index:4"
        h = iterated_rn(sq, 2)
        # Fiber of 16 under n -> n^4 is {2}: h = mu(2)/mu(16) = 64.
        assert h.value(16) == pytest.approx(64.0, rel=1e-12)
        assert h.value(17) == 0.0

    def test_inverse_rn_swap_weights(self):
        sp = FiniteSpace(("1", "2"), (1.0, 2.0))
        swap = Transformation.finite(sp, {"1": "2", "2": "1"})
        hm = inverse_rn(swap)
        assert tuple(hm.values) == (2.0, 0.5)
        h = radon_nikodym(swap)
        for a in sp.atoms:
            assert hm.value(a) * h.value(swap.apply(a)) == pytest.approx(1.0, rel=1e-12)

    def test_inverse_rn_requires_bijection(self, collapse3, geo):
        with pytest.raises(ValueError):
            inverse_rn(collapse3)
        shift = Transformation.from_law(geo, ShiftLaw(1))
        with pytest.raises(ValueError):
            inverse_rn(shift)

    def test_identity_inverse_rn(self, geo):
        ident = Transformation.from_law(geo, IdentityLaw())
        hm = inverse_rn(ident)
        assert all(v == 1.0 for v in hm.values)

    def test_overrides_patch_h(self, geo):
        # Diverting atom 3 to atom 5 moves its mass between fibers.
        tr = Transformation.from_law(geo, IdentityLaw(), overrides={3: 5})
        h = radon_nikodym(tr)
        assert h.value(3) == 0.0
        assert h.value(5) == pytest.approx((geo.weight(3) + geo.weight(5)) / geo.weight(5))
        assert h.value(4) == 1.0


class TestFiberPartition:
    def test_identity_singletons(self, uniform3):
        ident = Transformation.finite(uniform3, {a: a for a in uniform3.atoms})
        part = fiber_partition(ident)
        assert all(len(b) == 1 for b in part.iter_blocks())

    def test_collapse_fibers(self, uniform3, collapse3):
        part = fiber_partition(collapse3)
        blocks = {frozenset(b) for b in part.iter_blocks()}
        assert blocks == {frozenset({"1", "2"}), frozenset({"3"})}

    def test_full_collapse_single_block(self, uniform3):
        tr = Transformation.finite(uniform3, {a: "1" for a in uniform3.atoms})
        part = fiber_partition(tr)
        assert {frozenset(b) for b in part.iter_blocks()} == {frozenset(uniform3.atoms)}


class TestConditionalExpectation:
    def test_block_average_example(self, uniform3):
        part = Partition(uniform3, (frozenset({"1", "2"}), frozenset({"3"})))
        f = SimpleFunction.from_dict(uniform3, {"1": 4.0, "2": 0.0, "3": 7.0})
        ef = conditional_expectation(f, part)
        assert tuple(ef.values) == (2.0, 2.0, 7.0)

    def test_finest_partition_identity(self, uniform3):
        part = Partition(uniform3, tuple(frozenset({a}) for a in uniform3.atoms))
        f = SimpleFunction.from_dict(uniform3, {"1": 1.5, "2": -2.0, "3": 0.25})
        assert conditional_expectation(f, part).values == f.values

    def test_constant_function(self, uniform3):
        part = Partition(uniform3, (frozenset({"1", "2", "3"}),))
        f = SimpleFunction.constant(uniform3, 3.25)
        assert all(v == pytest.approx(3.25) for v in conditional_expectation(f, part).values)

    def test_weighted_average(self):
        sp = FiniteSpace(("a", "b"), (1.0, 3.0))
        part = Partition(sp, (frozenset({"a", "b"}),))
        f = SimpleFunction.from_dict(sp, {"a": 4.0, "b": 0.0})
        ef = conditional_expectation(f, part)
        assert ef.value("a") == pytest.approx(1.0)

    def test_mixed_divergence_errors(self):
        sp = FiniteSpace(("a", "b"), (1.0, 1.0))
        part = Partition(sp, (frozenset({"a", "b"}),))
        f = SimpleFunction(sp, (INF, -INF), None)
        with pytest.raises(ValueError):
            conditional_expectation(f, part)

    def test_countable_collapse_average(self, geo):
        tr = Transformation.from_law(geo, CollapseLaw(1))
        f = SimpleFunction(geo, tuple(0.5**n for n in range(1, 65)), GeometricTail(1.0, 0.5))
        ef = conditional_expectation(f, fiber_partition(tr))
        # One block: the weighted mean of f over the whole space.
        oracle = sum(0.5**n * 0.5**n for n in range(1, 200)) / 1.0
        assert ef.value(1) == pytest.approx(oracle, rel=1e-10)
        assert ef.value(40) == pytest.approx(oracle, rel=1e-10)


class TestSigmaFinite:
    def test_finite_always(self, collapse3):
        assert sigma_finite_check(collapse3).status is Status.HOLDS

    def test_geometric_collapse_holds(self, geo):
        tr = Transformation.from_law(geo, CollapseLaw(1))
        assert sigma_finite_check(tr).status is Status.HOLDS

    def test_constant_collapse_fails(self, const_space):
        tr = Transformation.from_law(const_space, CollapseLaw(1))
        v = sigma_finite_check(tr)
        assert v.status is Status.FAILS
        assert v.witness == 1

    def test_square_map_holds(self):
        sp = CountableSpace(PowerLawWeights(1.0, 2.0), depth=64)
        tr = Transformation.from_law(sp, PowerIndexLaw(2))
        assert sigma_finite_check(tr).status is Status.HOLDS


class TestExhaustion:
    def test_zero_function_full_space(self, uniform3):
        f = SimpleFunction.constant(uniform3, 0.0)
        gen = exhaustion(f)
        b1 = next(gen)
        assert set(b1) == {"1"}
        b3 = next(gen), next(gen)
        assert set(b3[1]) == {"1", "2", "3"}

    def test_linear_growth(self, const_space):
        f = SimpleFunction(
            const_space,
            tuple(float(n) for n in range(1, 65)),
            IndexPowerTail(1.0, 1.0),
        )
        gen = exhaustion(f)
        sets = [next(gen) for _ in range(10)]
        # B_n = {1, ..., n-1} since f(k) = k.
        for n, b in enumerate(sets, start=1):
            assert b == tuple(range(1, n))

    def test_late_entry(self, uniform3):
        f = SimpleFunction.from_dict(uniform3, {"1": 1000.0})
        gen = exhaustion(f)
        b5 = None
        for n in range(1, 1002):
            b5 = next(gen)
            if n <= 1000:
                assert "1" not in b5
        assert "1" in b5

    def test_monotone_and_properties(self, geo):
        f = SimpleFunction(geo, tuple(float(n % 7) for n in range(1, 65)), ConstantTail(3.0))
        gen = exhaustion(f)
        prev: set = set()
        for n in range(1, 30):
            b = set(next(gen))
            assert prev <= b
            assert all(f.value(a) < n for a in b)
            prev = b

    def test_infinite_value_rejected(self, uniform3):
        f = SimpleFunction(uniform3, (1.0, INF, 0.0), None)
        with pytest.raises(ValueError):
            exhaustion(f)


class TestSupport:
    def test_zero(self, uniform3):
        f = SimpleFunction.constant(uniform3, 0.0)
        assert support(f).prefix == frozenset()

    def test_single_atom(self, uniform3):
        f = SimpleFunction.from_dict(uniform3, {"2": 3.0})
        assert support(f).prefix == frozenset({"2"})

    def test_support_inclusion_under_averaging(self, uniform3):
        part = Partition(uniform3, (frozenset({"1", "2"}), frozenset({"3"})))
        for vals in [(1.0, 0.0, 0.0), (0.0, 2.0, 1.0), (0.0, 0.0, 0.5)]:
            f = SimpleFunction(uniform3, vals, None)
            ef = conditional_expectation(f, part)
            assert support(f).prefix <= support(ef).prefix


class TestIndexedCore:
    """The fiber index and the weight vector on a seeded 500-atom space,
    against numpy bincount references; targets avoid the last 50 atoms so
    some fibers are empty."""

    N = 500

    @pytest.fixture
    def case(self):
        rng = np.random.default_rng(20221114)
        ids = tuple(f"x{i:03d}" for i in range(self.N))
        w = 10.0 ** rng.uniform(-3.0, 3.0, self.N)
        t = rng.integers(0, self.N - 50, self.N)
        f = rng.uniform(-10.0, 10.0, self.N)
        space = FiniteSpace(ids, tuple(float(x) for x in w))
        tr = Transformation(space, targets=tuple(ids[i] for i in t))
        return space, tr, SimpleFunction(space, tuple(float(x) for x in f)), w, t, f

    def test_rn_and_fiber_measure_match_bincount_exactly(self, case):
        space, tr, _, w, t, _ = case
        mass = np.bincount(t, weights=w, minlength=self.N)
        assert radon_nikodym(tr).values == tuple((mass / w).tolist())
        assert [tr.fiber_measure(a) for a in space.atoms] == mass.tolist()

    def test_block_averages_match_bincount_means(self, case):
        space, tr, f_fn, w, t, f = case
        mass = np.bincount(t, weights=w, minlength=self.N)
        num = np.bincount(t, weights=f * w, minlength=self.N)
        hit = mass > 0
        means = np.where(hit, num / np.where(hit, mass, 1.0), 0.0)
        assert fiber_average(f_fn, tr).values == tuple(means.tolist())
        ce = conditional_expectation(f_fn, fiber_partition(tr)).values
        assert ce == pytest.approx(means[t].tolist(), rel=1e-12, abs=1e-12)

    def test_preimage_of_unhit_atom_is_empty(self, case):
        space, tr, _, _, t, _ = case
        missed = [a for i, a in enumerate(space.atoms) if i not in set(t.tolist())]
        assert missed and all(tr.preimage(a) == () for a in missed)
        assert tr.fiber_measure(missed[0]) == 0.0
        hit = space.atoms[int(t[0])]
        assert tr.preimage(hit) == tuple(a for a, j in zip(space.atoms, t) if j == t[0])

    def test_is_bijective(self, case):
        space, tr, _, _, _, _ = case
        perm = np.random.default_rng(5).permutation(self.N)
        assert Transformation(space, targets=tuple(space.atoms[i] for i in perm)).is_bijective
        assert not tr.is_bijective

    def test_fiber_partition_blocks_in_target_order(self, case):
        space, tr, _, _, t, _ = case
        hit = sorted(set(t.tolist()))
        blocks = fiber_partition(tr).blocks
        assert blocks == tuple(frozenset(a for a, j in zip(space.atoms, t) if j == i) for i in hit)

    @pytest.mark.parametrize("space", [
        FiniteSpace(("a", "b", "c"), (0.5, 2.0, 1e-300)),
        CountableSpace(GeometricWeights(1.5, 0.3), depth=40),
        CountableSpace(PowerLawWeights(2.0, 1.5), depth=40),
    ])
    def test_weight_vector_read_only_and_exact(self, space):
        vec = space.weight_vector
        assert vec.dtype == np.float64 and vec is space.weight_vector
        assert vec.tolist() == [space.weight(a) for a in space.prefix_ids()]
        with pytest.raises(ValueError):
            vec[0] = 1.0


class TestBlockAverageUnderflow:
    def test_fiber_average_where_fiber_weights_underflow(self):
        # ceil(n/3) fibers of y > 358 lie beyond n = 1074, where 0.5**n is 0.0.
        space = CountableSpace(GeometricWeights(1.0, 0.5), depth=512)
        vals = tuple(float((n % 7) - 3) for n in range(1, 513))
        g = SimpleFunction(space, vals, GeometricTail(1.0, 0.5))
        tr = Transformation.from_law(space, DivCeilLaw(3))
        avg = fiber_average(g, tr)
        for y in (1, 200, 400, 512):
            fiber = range(3 * y - 2, 3 * y + 1)
            scaled = [0.5 ** (n - fiber[0]) for n in fiber]
            want = sum(g.value(n) * s for n, s in zip(fiber, scaled)) / sum(scaled)
            assert avg.value(y) == pytest.approx(want, rel=1e-12, abs=1e-15)


class TestHashSeedIndependence:
    # A seeded 200-atom space cut into 5 explicit blocks of string atoms.
    CODE = """
import numpy as np
from orlicz import FiniteSpace, SimpleFunction, conditional_expectation
from orlicz.measure import Partition
rng = np.random.default_rng(20221114)
ids = tuple(f"x{i:03d}" for i in range(200))
space = FiniteSpace(ids, tuple(float(w) for w in 10.0 ** rng.uniform(-3, 3, 200)))
label = rng.integers(0, 5, 200)
blocks = tuple(frozenset(a for a, k in zip(ids, label) if k == b) for b in range(5))
f = SimpleFunction(space, tuple(float(v) for v in rng.uniform(-1, 1, 200)))
print(repr(conditional_expectation(f, Partition(space, blocks)).values))
"""

    def test_explicit_partition_average_ignores_hash_seed(self, run_python):
        outs = {run_python(self.CODE, hash_seed) for hash_seed in range(4)}
        assert len(outs) == 1


class TestHurwitzZeta:
    """PowerLawWeights(1, s).tail_mass(m) is zeta(s, m + 1). The oracle adds
    the first K terms exactly rounded (math.fsum) to the midpoint tail
    sum_{k >= n} k**-s ~ c**(1-s)/(s-1) - s c**(-s-1)/24 at c = n - 1/2,
    whose error, about 7 s**4 c**(-s-3)/5760, is far below 1e-14 here."""

    K = 20000

    @pytest.mark.parametrize("s", [1.1, 1.5, 2.0, 3.0, 6.0, 20.0])
    @pytest.mark.parametrize("m", [0, 50, 64, 512])
    def test_tail_mass_matches_direct_sum(self, s, m):
        terms = (np.arange(m + 1, m + 1 + self.K, dtype=float) ** -s).tolist()
        c = m + 1 + self.K - 0.5
        tail = c ** (1.0 - s) / (s - 1.0) - s * c ** (-s - 1.0) / 24.0
        want = math.fsum(terms + [tail])
        assert PowerLawWeights(1.0, s).tail_mass(m) == pytest.approx(want, rel=1e-14, abs=0.0)


class TestPointwiseAlgebra:
    def test_abs_keeps_finite_support(self):
        from orlicz import PowerAbs, dual_ball_membership, modular
        from orlicz.tails import PatchedTail, ZeroTail

        sp = CountableSpace(ConstantWeights(1.0), depth=8)
        g = SimpleFunction(sp, (0.1,) * 8, PatchedTail(ZeroTail(), ((12, -0.2),)))
        assert g.abs().tail == PatchedTail(ZeroTail(), ((12, 0.2),))
        assert modular(PowerAbs(2.0), g.abs()) == modular(PowerAbs(2.0), g)
        assert modular(PowerAbs(2.0), g) == pytest.approx(0.12, rel=1e-15)
        assert dual_ball_membership(PowerAbs(2.0), g) is True

    def test_times_and_power_match_prefix_arithmetic(self, uniform3):
        f = SimpleFunction(uniform3, (0.0, -2.0, INF), None)
        g = SimpleFunction(uniform3, (INF, 3.0, 0.5), None)
        assert f.times(g).values == (0.0, -6.0, INF)
        assert f.power(0.5).values == (0.0, 2.0**0.5, INF)
        assert f.abs().values == (0.0, 2.0, INF)

    def test_nan_values_refused(self, uniform3, geo):
        with pytest.raises(ValueError, match="NaN"):
            SimpleFunction(uniform3, (math.nan, 0.0, 1.0), None)
        with pytest.raises(ValueError, match="NaN"):
            SimpleFunction.from_dict(geo, {1: math.nan})

    def test_value_vector_read_only_and_exact(self, uniform3):
        f = SimpleFunction(uniform3, (0.25, -2.0, INF), None)
        vec = f.value_vector
        assert vec.dtype == np.float64 and vec is f.value_vector
        assert not vec.flags.writeable
        assert vec.tolist() == list(f.values)

    def test_scaled_by_inf_keeps_zero_patches(self):
        from orlicz.tails import PatchedTail, PointwiseTail, tail_scale

        sp = CountableSpace(ConstantWeights(1.0), 4)
        f = SimpleFunction(sp, (1.0, 0.0, -1.0, 0.0), PatchedTail(GeometricTail(1.0, 0.5), ((6, 0.0),)))
        g = f.scaled(INF)
        assert g.values == (INF, 0.0, -INF, 0.0)
        assert [g.value(n) for n in (5, 6, 7)] == [INF, 0.0, INF]
        assert f.scaled(-INF).value(6) == 0.0
        pw = tail_scale(PointwiseTail(lambda n: float(n % 2), sup_bound=1.0, major_fn=lambda n: 1.0), INF)
        assert [pw.value_at(n) for n in (5, 6)] == [INF, 0.0]
        assert pw.sup() == INF and pw.major_at(6) == INF

    def test_scaled_by_nan_refused(self, uniform3, geo):
        # A zero prefix keeps NaN out of the prefix values, so only the
        # factor itself can be refused.
        zero_prefix = SimpleFunction(geo, (0.0,) * geo.depth, ConstantTail(1.0))
        for f in (SimpleFunction.constant(uniform3, 1.0), zero_prefix):
            with pytest.raises(ValueError, match="NaN"):
                f.scaled(math.nan)


class TestIsZero:
    def test_signed_zeros_and_infinities(self, uniform3, geo):
        from orlicz.tails import ZeroTail

        assert SimpleFunction(uniform3, (0.0, -0.0, 0.0), None).is_zero()
        assert not SimpleFunction(uniform3, (0.0, 5e-324, 0.0), None).is_zero()
        assert not SimpleFunction(uniform3, (-INF, 0.0, 0.0), None).is_zero()
        zero_prefix = (-0.0,) * geo.depth
        assert SimpleFunction(geo, zero_prefix, ZeroTail()).is_zero()
        assert not SimpleFunction(geo, zero_prefix, ConstantTail(1.0)).is_zero()
