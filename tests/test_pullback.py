"""The pullback of a tail law under a map law: the tail of f o phi."""

import itertools
import math

import pytest

from orlicz import (
    CollapseLaw,
    ConstantTail,
    ConstantWeights,
    CountableSpace,
    DivCeilLaw,
    ExpMinusOne,
    FiniteSpace,
    GeometricTail,
    GeometricWeights,
    IdentityLaw,
    IndexPowerTail,
    PairSwapLaw,
    PatchedTail,
    PointwiseTail,
    PowerAbs,
    PowerIndexLaw,
    PowerLawWeights,
    ShiftLaw,
    SimpleFunction,
    SparseGeometricTail,
    Transformation,
    ZeroTail,
    boundedness_verdict,
    change_of_variable_check,
    compose_apply,
    inverse_rn,
    luxemburg_norm,
    radon_nikodym,
)
from orlicz.compop import BoundednessStatus
from orlicz.measure import pullback_tail

INF = math.inf
WINDOW = 200

LAWS = {
    "identity": IdentityLaw(),
    "collapse": CollapseLaw(3),
    "shift": ShiftLaw(2),
    "div_ceil": DivCeilLaw(3),
    "power_index": PowerIndexLaw(2),
    "pair_swap": PairSwapLaw(),
}
WEIGHTS = {
    "geometric": GeometricWeights(1.0, 0.5),
    "power_law": PowerLawWeights(1.0, 2.0),
    "constant": ConstantWeights(1.0),
}


def _tails(m):
    """The five tail families, a patched and a pointwise law."""
    return {
        "zero": ZeroTail(),
        "constant": ConstantTail(-0.7),
        "geometric": GeometricTail(1.3, 0.6),
        "index_power": IndexPowerTail(1.1, -1.5),
        "sparse_geometric": SparseGeometricTail(4, 0.9, 0.8),
        "patched": PatchedTail(GeometricTail(1.5, 0.7), ((m + 2, -3.0), (m + 9, 0.0))),
        "pointwise": PointwiseTail(
            lambda n: (-0.5) ** n, sup_bound=0.5 ** (m + 1), block=1, block_ratio=0.5
        ),
    }


def _prefixes(m):
    """Prefix values: a finite one, and one infinite on atom 1, which no
    tail atom reaches under these laws at depth >= 7."""
    finite = tuple(float((-1) ** n * (n % 4)) for n in range(1, m + 1))
    return {"finite": finite, "infinite_at_1": (INF,) + finite[1:]}


def _check_pullback(f, tr):
    m = f.space.depth
    t = compose_apply(f, tr).tail
    images = [f.value(tr.apply(n)) for n in range(m + 1, m + WINDOW + 1)]
    for n, want in zip(range(m + 1, m + WINDOW + 1), images):
        got = t.value_at(n)
        # Closed forms (a shifted geometric law) may round differently.
        assert got == pytest.approx(want, rel=1e-12), (n, got, want)
        assert abs(got) <= t.sup(), (n, got, t.sup())
        assert abs(got) <= t.major_at(n), (n, got, t.major_at(n))
    if not t.all_finite()[0]:
        assert any(math.isinf(v) for v in images)
    db = t.decay_block()
    if db is not None:
        b, q = db
        for n in range(max(m + 1, t.decay_from()), m + WINDOW + 1 - b):
            hi = t.major_at(n)
            assert t.major_at(n + b) <= q * hi * (1.0 + 1e-12), (n, b, q)


@pytest.mark.parametrize("weights", sorted(WEIGHTS))
@pytest.mark.parametrize("overrides", [False, True])
@pytest.mark.parametrize("law", sorted(LAWS))
def test_pullback_properties(law, overrides, weights):
    """For n beyond the prefix: the value is f(phi(n)) (to rounding), bounded by the sup and
    the majorant; finiteness fails only on an infinite image; the decay
    certificate holds from decay_from() on."""
    for m in (7, 8):
        sp = CountableSpace(WEIGHTS[weights], m)
        ov = {1: 5, 4: m + 3} if overrides else None
        tr = Transformation.from_law(sp, LAWS[law], ov)
        for tail, vals in itertools.product(_tails(m).values(), _prefixes(m).values()):
            _check_pullback(SimpleFunction(sp, vals, tail), tr)


def test_pair_swap_odd_depth_pulls_prefix_atom_into_tail():
    # Tail atom 4 maps to prefix atom 3: the pullback is 5 there, not the
    # constant tail 1, so both sides of the change of variable read 1.75.
    sp = CountableSpace(GeometricWeights(1.0, 0.5), 3)
    f = SimpleFunction(sp, (0.0, 0.0, 5.0), ConstantTail(1.0))
    tr = Transformation.from_law(sp, PairSwapLaw())
    assert compose_apply(f, tr).value(4) == 5.0
    rep = change_of_variable_check(PowerAbs(2.0), f, tr)
    assert rep.exact
    assert rep.lhs == pytest.approx(1.75, rel=1e-12)


def test_power_index_finiteness_reads_only_the_image():
    # f is infinite on prefix atom 2, which no tail atom n -> n**2 reaches.
    sp = CountableSpace(GeometricWeights(1.0, 0.5), 8)
    f = SimpleFunction(sp, (1.0, INF) + (0.0,) * 6, GeometricTail(1.0, 0.5))
    tr = Transformation.from_law(sp, PowerIndexLaw(2))
    g = compose_apply(f, tr)
    assert g.tail.all_finite()[0]
    nr = luxemburg_norm(PowerAbs(2.0), g)
    assert nr.value == pytest.approx(0.7071071, rel=1e-6)


def test_constant_tail_pullback_is_patched_at_the_hits():
    # Tail atoms 5..12 of n -> ceil(n/3) land on prefix atoms 2..4.
    sp = CountableSpace(ConstantWeights(1.0), 4)
    f = SimpleFunction(sp, (9.0, 2.0, 1.0, 2.0), ConstantTail(2.0))
    t = pullback_tail(f, DivCeilLaw(3))
    assert t == PatchedTail(ConstantTail(2.0), ((7, 1.0), (8, 1.0), (9, 1.0)))


def test_closed_forms_survive():
    sp = CountableSpace(GeometricWeights(1.0, 0.5), 8)
    f = SimpleFunction(sp, (1.0,) * 8, GeometricTail(2.0, 0.5))
    assert pullback_tail(f, ShiftLaw(3)) == GeometricTail(0.25, 0.5)
    assert pullback_tail(f, IdentityLaw()) is f.tail
    assert pullback_tail(f, CollapseLaw(9)) == ConstantTail(2.0 * 0.5**9)
    g = SimpleFunction(sp, (0.0,) * 8, SparseGeometricTail(9, 1.0, 0.5))
    assert pullback_tail(g, PowerIndexLaw(2)) == SparseGeometricTail(3, 1.0, 0.5)


class TestInverse:
    def test_finite_inverse(self):
        sp = FiniteSpace(("a", "b", "c"), (1.0, 2.0, 4.0))
        tr = Transformation.finite(sp, {"a": "b", "b": "c", "c": "a"})
        inv = tr.inverse()
        assert all(inv.apply(tr.apply(x)) == x for x in sp.atoms)
        assert inverse_rn(tr).values == (2.0, 2.0, 0.25)

    def test_countable_involution_is_its_own_inverse(self):
        sp = CountableSpace(PowerLawWeights(1.0, 2.0), 7)
        tr = Transformation.from_law(sp, PairSwapLaw())
        assert tr.inverse() is tr
        h = inverse_rn(tr)
        for n in range(1, 40):
            assert h.value(n) == pytest.approx(sp.weight(tr.apply(n)) / sp.weight(n), rel=1e-12)
            assert h.value(n) <= h.sup_abs()

    def test_non_bijective_has_no_inverse(self):
        sp = CountableSpace(ConstantWeights(1.0), 4)
        with pytest.raises(ValueError):
            Transformation.from_law(sp, ShiftLaw(1)).inverse()


@pytest.mark.parametrize("young", [PowerAbs(2.0), ExpMinusOne()], ids=["square", "exp"])
def test_power_index_on_counting_measure_is_bounded(young):
    # h = mu(root) / mu(n) is 1 on squares and 0 elsewhere.
    sp = CountableSpace(ConstantWeights(1.0), 16)
    tr = Transformation.from_law(sp, PowerIndexLaw(2))
    assert radon_nikodym(tr).sup_abs() == 1.0
    bd = boundedness_verdict(young, tr)
    assert bd.status is BoundednessStatus.EVERYWHERE_DEFINED_AND_BOUNDED
    assert bd.norm_bound == 1.0


def test_inconclusive_boundedness_does_not_claim_h_unbounded():
    # No closed-form witness for exp(x) - 1: the verdict stays open and says
    # only that sup h is not certified.
    sp = CountableSpace(GeometricWeights(1.0, 0.5), 16)
    bd = boundedness_verdict(ExpMinusOne(), Transformation.from_law(sp, PowerIndexLaw(2)))
    assert bd.status is BoundednessStatus.INCONCLUSIVE
    assert bd.certificate.startswith("sup h not certified")
    assert "h unbounded" not in bd.certificate
