"""Modular, Luxemburg norm, Orlicz norm, pairing, convergence facts."""

import math

import numpy as np
import pytest

from orlicz import (
    AbsValue,
    ConstantTail,
    CountableSpace,
    ExpMinusOne,
    FiniteSpace,
    GeometricTail,
    GeometricWeights,
    ConstantWeights,
    PowerAbs,
    PowerOverP,
    SimpleFunction,
    UnresolvedTail,
    ZeroTail,
    convergence_check,
    dual_ball_membership,
    holder_pairing,
    luxemburg_norm,
    modular,
    orlicz_norm,
    orlicz_norm_brute_oracle,
)

INF = math.inf


def fs(pairs):
    atoms = tuple(a for a, _ in pairs)
    weights = tuple(w for _, w in pairs)
    return FiniteSpace(atoms, weights)


class TestModular:
    def test_zero_function(self):
        sp = fs([("a", 2.0)])
        assert modular(PowerAbs(2.0), SimpleFunction.constant(sp, 0.0)) == 0.0

    def test_indicator_mass_four(self):
        sp = fs([("a", 4.0)])
        chi = SimpleFunction.indicator(sp, ["a"])
        assert modular(PowerAbs(2.0), chi) == pytest.approx(4.0, rel=1e-15)

    def test_single_atom(self):
        sp = fs([("a", 1.0)])
        f = SimpleFunction.from_dict(sp, {"a": 2.0})
        assert modular(PowerOverP(2.0), f) == pytest.approx(2.0, rel=1e-15)

    def test_infinite_value(self):
        sp = fs([("a", 1.0)])
        f = SimpleFunction(sp, (INF,), None)
        assert modular(PowerAbs(2.0), f) == INF

    def test_geometric_tail_matches_bruteforce(self):
        sp = CountableSpace(GeometricWeights(1.0, 0.5), depth=8)
        f = SimpleFunction(sp, tuple(0.7**n for n in range(1, 9)), GeometricTail(1.0, 0.7))
        got = modular(PowerAbs(2.0), f)
        oracle = sum((0.7**n) ** 2 * 0.5**n for n in range(1, 400))
        assert got == pytest.approx(oracle, rel=1e-12)

    def test_constant_tail_infinite_mass(self):
        sp = CountableSpace(ConstantWeights(1.0), depth=4)
        f = SimpleFunction(sp, (1.0,) * 4, ConstantTail(1.0))
        assert modular(PowerAbs(2.0), f) == INF

    def test_weighted_modular(self):
        sp = fs([("a", 1.0), ("b", 2.0)])
        f = SimpleFunction.from_dict(sp, {"a": 1.0, "b": 2.0})
        w = SimpleFunction.from_dict(sp, {"a": 3.0, "b": 0.5})
        got = modular(PowerAbs(2.0), f, weight=w)
        assert got == pytest.approx(1 * 3 * 1 + 4 * 0.5 * 2, rel=1e-15)

    def test_zero_value_kills_infinite_weight(self):
        sp = fs([("a", 1.0), ("b", 1.0)])
        f = SimpleFunction.from_dict(sp, {"b": 2.0})
        w = SimpleFunction(sp, (INF, 1.0), None)
        assert modular(PowerAbs(2.0), f, weight=w) == pytest.approx(4.0)

    def test_zero_weight_kills_infinite_term(self):
        sp = fs([("a", 1.0), ("b", 1.0)])
        f = SimpleFunction(sp, (1000.0, 2.0), None)  # exp overflows at a
        w = SimpleFunction(sp, (0.0, 1.0), None)
        got = modular(ExpMinusOne(), f, weight=w)
        assert got == pytest.approx(math.expm1(2.0), rel=1e-15)


class TestLuxemburg:
    def test_indicator_mass_four(self):
        sp = fs([("a", 4.0)])
        chi = SimpleFunction.indicator(sp, ["a"])
        res = luxemburg_norm(PowerAbs(2.0), chi)
        assert res.value == pytest.approx(2.0, rel=1e-11)
        assert res.method == "bisection"

    def test_zero(self):
        sp = fs([("a", 1.0)])
        res = luxemburg_norm(PowerAbs(2.0), SimpleFunction.constant(sp, 0.0))
        assert res.value == 0.0

    def test_matches_p_norm(self):
        sp = fs([("a", 0.5), ("b", 2.0), ("c", 3.0)])
        f = SimpleFunction.from_dict(sp, {"a": 1.0, "b": -2.0, "c": 0.5})
        for p in (1.0, 1.5, 2.0, 3.0):
            res = luxemburg_norm(PowerAbs(p), f, rel_tol=1e-13)
            classic = sum(abs(v) ** p * sp.weight(a) for a, v in f.items()) ** (1.0 / p)
            assert res.value == pytest.approx(classic, rel=1e-12)

    def test_contract_at_value(self):
        sp = fs([("a", 1.0), ("b", 3.0)])
        f = SimpleFunction.from_dict(sp, {"a": 2.0, "b": 0.7})
        for phi in (PowerAbs(2.0), ExpMinusOne(), AbsValue()):
            res = luxemburg_norm(phi, f)
            assert modular(phi, f, scale=1.0 / res.value) <= 1.0 + 1e-9

    def test_indicator_closed_form_all_families(self):
        sp = fs([("a", 4.0)])
        chi = SimpleFunction.indicator(sp, ["a"])
        for phi in (PowerAbs(2.0), PowerOverP(3.0), ExpMinusOne(), AbsValue()):
            res = luxemburg_norm(phi, chi)
            oracle = 1.0 / phi.inverse(1.0 / 4.0)
            assert res.value == pytest.approx(oracle, rel=1e-9)

    def test_not_in_space_constant_tail(self):
        sp = CountableSpace(ConstantWeights(1.0), depth=8)
        f = SimpleFunction(sp, (1.0,) * 8, ConstantTail(1.0))
        res = luxemburg_norm(PowerAbs(2.0), f)
        assert res.value == INF
        assert "not in the space" in res.note

    def test_infinite_atom_value(self):
        sp = fs([("a", 1.0)])
        f = SimpleFunction(sp, (INF,), None)
        assert luxemburg_norm(PowerAbs(2.0), f).value == INF

    def test_countable_geometric(self):
        sp = CountableSpace(GeometricWeights(1.0, 0.5), depth=32)
        f = SimpleFunction(sp, tuple(0.5**n for n in range(1, 33)), GeometricTail(1.0, 0.5))
        res = luxemburg_norm(PowerAbs(2.0), f)
        # rho(f/k) = sum (1/8)^n / k^2 = (1/7)/k^2 <= 1  iff  k >= 1/sqrt(7).
        assert res.value == pytest.approx(1.0 / math.sqrt(7.0), rel=1e-11)


class TestOrlicz:
    def test_zero(self):
        sp = fs([("a", 1.0)])
        assert orlicz_norm(PowerAbs(2.0), SimpleFunction.constant(sp, 0.0)).value == 0.0

    def test_single_atom_self_dual(self):
        sp = fs([("a", 1.0)])
        f = SimpleFunction.from_dict(sp, {"a": 1.0})
        res = orlicz_norm(PowerOverP(2.0), f)
        # sup g subject to g^2/2 <= 1: g = sqrt(2).
        assert res.value == pytest.approx(math.sqrt(2.0), rel=1e-9)
        nf = luxemburg_norm(PowerOverP(2.0), f).value
        assert nf <= res.value <= 2 * nf + 1e-12

    def test_abs_value_is_l1(self):
        sp = fs([("a", 2.0), ("b", 0.5)])
        f = SimpleFunction.from_dict(sp, {"a": 3.0, "b": -4.0})
        res = orlicz_norm(AbsValue(), f)
        assert res.value == pytest.approx(3 * 2 + 4 * 0.5, rel=1e-12)

    def test_sandwich_random(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            sp = fs([(f"a{i}", float(10 ** rng.uniform(-2, 2))) for i in range(n)])
            f = SimpleFunction(sp, tuple(rng.uniform(-5, 5, n)), None)
            for phi in (PowerAbs(2.0), PowerOverP(1.7), ExpMinusOne(), AbsValue()):
                nf = luxemburg_norm(phi, f).value
                of = orlicz_norm(phi, f).value
                assert nf <= of * (1 + 1e-9) + 1e-9
                assert of <= 2 * nf * (1 + 1e-9) + 1e-9

    def test_matches_brute_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            sp = fs([(f"a{i}", float(10 ** rng.uniform(-1.5, 1.5))) for i in range(n)])
            f = SimpleFunction(sp, tuple(rng.uniform(-3, 3, n)), None)
            for phi in (PowerAbs(2.0), PowerOverP(2.5), ExpMinusOne()):
                opt = orlicz_norm(phi, f).value
                grid = orlicz_norm_brute_oracle(phi, f).value
                assert opt == pytest.approx(grid, abs=1e-4, rel=1e-4)

    def test_requires_zero_tail(self):
        sp = CountableSpace(GeometricWeights(1.0, 0.5), depth=8)
        f = SimpleFunction(sp, (1.0,) * 8, GeometricTail(1.0, 0.5))
        with pytest.raises(ValueError):
            orlicz_norm(PowerAbs(2.0), f)


class TestDualBall:
    def test_zero_inside(self):
        sp = fs([("a", 1.0)])
        assert dual_ball_membership(PowerAbs(2.0), SimpleFunction.constant(sp, 0.0))

    def test_boundary_inclusive(self):
        sp = fs([("a", 1.0)])
        chi = SimpleFunction.indicator(sp, ["a"])
        assert dual_ball_membership(PowerAbs(2.0), chi)

    def test_outside(self):
        sp = fs([("a", 1.0)])
        g = SimpleFunction.from_dict(sp, {"a": 2.0})
        assert not dual_ball_membership(PowerAbs(2.0), g)


class TestPairing:
    def test_zero(self):
        sp = fs([("a", 3.0)])
        z = SimpleFunction.constant(sp, 0.0)
        f = SimpleFunction.from_dict(sp, {"a": 5.0})
        assert holder_pairing(z, f) == 0.0

    def test_indicator_mass(self):
        sp = fs([("a", 3.0)])
        chi = SimpleFunction.indicator(sp, ["a"])
        assert holder_pairing(chi, chi) == pytest.approx(3.0)

    def test_bound_by_orlicz_norm(self):
        rng = np.random.default_rng(3)
        sp = fs([(f"a{i}", float(rng.uniform(0.1, 3))) for i in range(5)])
        f = SimpleFunction(sp, tuple(rng.uniform(-4, 4, 5)), None)
        phi = PowerOverP(2.0)
        psi = phi.conjugate()
        of = orlicz_norm(phi, f).value
        for _ in range(20):
            g = SimpleFunction(sp, tuple(rng.uniform(-1, 1, 5)), None)
            if dual_ball_membership(psi, g):
                assert abs(holder_pairing(f, g)) <= of * (1 + 1e-9) + 1e-9

    def test_geometric_tails(self):
        sp = CountableSpace(GeometricWeights(1.0, 0.5), depth=16)
        f = SimpleFunction(sp, tuple(0.5**n for n in range(1, 17)), GeometricTail(1.0, 0.5))
        got = holder_pairing(f, f)
        oracle = sum((0.5**n) ** 2 * 0.5**n for n in range(1, 200))
        assert got == pytest.approx(oracle, rel=1e-10)


class TestConvergence:
    def test_constant_sequence(self):
        sp = fs([("a", 1.0), ("b", 2.0)])
        f = SimpleFunction.from_dict(sp, {"a": 1.0, "b": 0.5})
        rep = convergence_check(PowerAbs(2.0), [f, f, f], f)
        assert rep.norm_converges and rep.modular_converges
        assert rep.norm_implies_modular_ok
        assert rep.modular_plus_pointwise_implies_norm_ok is True

    def test_truncations_on_geometric(self):
        sp = CountableSpace(GeometricWeights(1.0, 0.5), depth=32)
        full = tuple(0.5**n for n in range(1, 33))
        f = SimpleFunction(sp, full, GeometricTail(1.0, 0.5))
        fs_seq = []
        for cut in (4, 8, 16, 32):
            vals = tuple(v if n <= cut else 0.0 for n, v in enumerate(full, start=1))
            fs_seq.append(SimpleFunction(sp, vals, ZeroTail()))
        rep = convergence_check(PowerAbs(2.0), fs_seq, f, tol=1e-4)
        assert rep.doubling_holds
        assert rep.norm_converges
        assert rep.modular_converges

    def test_divergent_sequence_flagged(self):
        sp = fs([("a", 1.0)])
        f = SimpleFunction.from_dict(sp, {"a": 1.0})
        g = SimpleFunction.from_dict(sp, {"a": 3.0})
        rep = convergence_check(PowerAbs(2.0), [g, g, g], f)
        assert not rep.norm_converges
        assert rep.norm_implies_modular_ok  # vacuous


class TestTailKernel:
    def test_unresolvable_tail_gives_certified_upper_inf(self):
        # No decay certificate and no finite supremum: the kernel cannot sum
        # the tail, so the prefix is a certified lower bound and +inf the upper.
        from orlicz import PointwiseTail, modular_bounds

        sp = CountableSpace(ConstantWeights(1.0), depth=4)
        f = SimpleFunction(sp, (1.0, 0.0, 0.0, 0.0), PointwiseTail(lambda n: 2.0**-n))
        assert modular_bounds(PowerAbs(2.0), f) == (1.0, INF)
        with pytest.raises(UnresolvedTail) as err:
            modular(PowerAbs(2.0), f)
        assert (err.value.lower, err.value.upper) == (1.0, INF)

    def test_weighted_sparse_tail_gives_certified_upper_inf(self):
        from orlicz import SparseGeometricTail, modular_bounds

        sp = CountableSpace(ConstantWeights(1.0), depth=4)
        f = SimpleFunction(sp, (0.0, 2.0, 0.0, 0.0), SparseGeometricTail(2, 1.0, 0.5, start=3))
        w = SimpleFunction(sp, (1.0,) * 4, GeometricTail(1.0, 0.5))
        assert modular_bounds(PowerAbs(2.0), f, weight=w) == (4.0, INF)
        with pytest.raises(UnresolvedTail) as err:
            modular(PowerAbs(2.0), f, weight=w)
        assert (err.value.lower, err.value.upper) == (4.0, INF)

    def test_x_log_x_of_infinite_value(self):
        from orlicz import XLogX

        sp = fs([("a", 1.0), ("b", 1.0)])
        g = SimpleFunction(sp, (INF, 1.0), None)
        assert modular(XLogX(), g) == INF


class TestTailUnderflow:
    """phi(x) = 0.0 beyond the zero set of phi is an underflow, not a zero."""

    def test_constant_tail_over_infinite_mass_at_tiny_scale(self):
        from orlicz import modular_bounds

        sp = CountableSpace(ConstantWeights(1.0), depth=4)
        f = SimpleFunction(sp, (0.0,) * 4, ConstantTail(1.0))
        assert modular_bounds(PowerAbs(2.0), f, scale=1e-200) == (INF, INF)

    def test_constant_tail_over_finite_mass_at_tiny_scale(self):
        from orlicz import modular_bounds

        sp = CountableSpace(GeometricWeights(1.0, 0.5), depth=4)
        f = SimpleFunction(sp, (0.0,) * 4, ConstantTail(1.0))
        lo, hi = modular_bounds(PowerAbs(2.0), f, scale=1e-200)
        assert lo == 0.0 and 0.0 < hi <= 1e-199

    def test_sup_bound_over_infinite_mass_at_tiny_scale(self):
        from orlicz import PointwiseTail, modular_bounds

        sp = CountableSpace(ConstantWeights(1.0), depth=4)
        f = SimpleFunction(sp, (0.0,) * 4, PointwiseTail(lambda n: 1.0, sup_bound=1.0))
        assert modular_bounds(PowerAbs(2.0), f, scale=1e-200) == (0.0, INF)

    def test_patched_constant_tail_over_infinite_mass_is_not_in_the_space(self):
        from orlicz import PatchedTail

        sp = CountableSpace(ConstantWeights(1.0), depth=4)
        f = SimpleFunction(sp, (0.0,) * 4, PatchedTail(ConstantTail(1.0), ((5, 2.0),)))
        nr = luxemburg_norm(PowerAbs(2.0), f)
        assert nr.value == INF
        assert nr.note.startswith("not in the space")
