"""Maps as one target-index array: f o phi as a gather on finite and countable
spaces, fiber averages and conditional expectation on finite spaces as one
bincount kernel, and the prefix scans of SimpleFunction as numpy reductions.
Each is checked bit for bit against a per-atom reference loop."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicz import (
    CollapseLaw,
    ConstantTail,
    ConstantWeights,
    CountableSpace,
    DivCeilLaw,
    FiberPartition,
    DomainStatus,
    FiniteSpace,
    GeometricTail,
    GeometricWeights,
    IdentityLaw,
    PairSwapLaw,
    Partition,
    PatchedTail,
    PowerAbs,
    PowerIndexLaw,
    PowerLawWeights,
    ShiftLaw,
    SimpleFunction,
    Transformation,
    ZeroTail,
    compose_apply,
    conditional_expectation,
    density_verdict,
    fiber_average,
    fiber_partition,
)
from orlicz.measure import _block_average, _block_means

INF = math.inf
TINY = 5e-324  # the least subnormal


def bits(xs):
    """The IEEE bit patterns of a float sequence, so -0.0 and 0.0 differ."""
    return [struct.pack("<d", x) for x in xs]


def reference_means(f, labels, nblocks):
    """Per-block _block_average over the atoms of each block in atom order,
    0.0 on empty blocks."""
    out = []
    for b in range(nblocks):
        block = tuple(a for a, label in zip(f.space.atoms, labels) if label == b)
        out.append(_block_average(f, block) if block else 0.0)
    return out


def assert_same_outcome(got_fn, want_fn):
    """Both raise ValueError, or both return the same bits."""
    try:
        want = want_fn()
    except ValueError:
        with pytest.raises(ValueError, match=r"\+inf against -inf"):
            got_fn()
        return
    assert bits(got_fn()) == bits(want)


# Values: ordinary, signed zeros, +-inf and magnitudes whose product with a
# large weight leaves the float range.
VALUES = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, -0.0, INF, -INF, 1e308, -1e308, 1e-300]),
)
# Weights: ordinary, large, and subnormal (the underflow branch).
WEIGHTS = st.one_of(
    st.floats(1e-3, 1e3),
    st.sampled_from([1e300, 1e-310, TINY, 3 * TINY]),
)


@st.composite
def finite_cases(draw):
    n = draw(st.integers(1, 10))
    weights = tuple(draw(st.lists(WEIGHTS, min_size=n, max_size=n)))
    values = tuple(draw(st.lists(VALUES, min_size=n, max_size=n)))
    targets = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    ids = tuple(f"a{i}" for i in range(n))
    space = FiniteSpace(ids, weights)
    phi = Transformation(space, targets=tuple(ids[t] for t in targets))
    return SimpleFunction(space, values), phi


@settings(max_examples=300, deadline=None)
@given(finite_cases())
def test_block_means_matches_block_average_over_fibers(case):
    g, phi = case
    labels = phi._target_index
    n = len(g.space.atoms)
    assert_same_outcome(lambda: _block_means(g, labels, n).tolist(),
                        lambda: reference_means(g, labels, n))

    def loop_fiber_average():
        return [_block_average(g, phi.preimage(y)) if phi.preimage(y) else 0.0
                for y in g.space.atoms]

    assert_same_outcome(lambda: fiber_average(g, phi).values, loop_fiber_average)


@settings(max_examples=300, deadline=None)
@given(finite_cases(), st.data())
def test_block_means_matches_block_average_over_partitions(case, data):
    f, _ = case
    atoms = f.space.atoms
    labels = data.draw(st.lists(st.integers(0, len(atoms) - 1), min_size=len(atoms),
                                max_size=len(atoms)))
    # Renumber the used labels in a drawn order, so blocks come in any order.
    order = data.draw(st.permutations(sorted(set(labels))))
    blocks = tuple(frozenset(a for a, label in zip(atoms, labels) if label == b) for b in order)
    partition = Partition(f.space, blocks)

    def loop_conditional_expectation():
        members = [tuple(a for a in atoms if a in b) for b in blocks]
        averages = [_block_average(f, m) for m in members]
        return [averages[next(i for i, b in enumerate(blocks) if a in b)] for a in atoms]

    assert_same_outcome(lambda: conditional_expectation(f, partition).values,
                        loop_conditional_expectation)


def _space(weights, first="a0"):
    ids = (first,) + tuple(f"a{i}" for i in range(1, len(weights)))
    return FiniteSpace(ids, tuple(weights))


@pytest.mark.parametrize("weights, values, targets", [
    # +inf and a finite value share a fiber: the mean is +inf.
    ((1.0, 2.0, 3.0), (INF, 1.0, 5.0), (0, 0, 2)),
    # -inf alone, and an empty fiber at atom 1.
    ((1.0, 2.0, 3.0), (-INF, 1.0, 5.0), (0, 2, 2)),
    # f*w overflows to +inf in one fiber and to -inf in another.
    ((1e300, 1e300, 1.0), (1e10, -1e10, 0.0), (0, 1, 1)),
    # Finite terms whose running sum overflows.
    ((1e308, 1e308, 1.0), (1.5, 1.5, 0.0), (2, 2, 2)),
    # Subnormal weights: the mass underflows and the weights are rescaled.
    ((TINY, 3 * TINY, 1.0), (2.0, 4.0, 7.0), (1, 1, 2)),
    ((1e-310, 2e-310, 1.0), (-0.0, 0.0, 0.0), (0, 0, 0)),
    # Every atom in one fiber, the others empty.
    ((1.0, 2.0, 4.0, 8.0), (1.0, -2.0, 3.0, 0.5), (3, 3, 3, 3)),
])
def test_block_means_branches(weights, values, targets):
    space = _space(weights)
    f = SimpleFunction(space, values)
    labels = np.array(targets, dtype=np.intp)
    got = _block_means(f, labels, len(weights))
    assert bits(got.tolist()) == bits(reference_means(f, labels, len(weights)))


def test_block_means_mixed_infinities_refused():
    space = _space((1.0, 2.0, 3.0))
    f = SimpleFunction(space, (INF, -INF, 1.0))
    with pytest.raises(ValueError, match=r"\+inf against -inf"):
        _block_means(f, np.array([1, 1, 0], dtype=np.intp), 3)
    phi = Transformation(space, targets=("a1", "a1", "a0"))
    with pytest.raises(ValueError, match=r"\+inf against -inf"):
        fiber_average(f, phi)
    with pytest.raises(ValueError, match=r"\+inf against -inf"):
        conditional_expectation(f, fiber_partition(phi))


def test_empty_fibers_average_to_zero():
    space = _space((1.0, 2.0, 3.0))
    phi = Transformation(space, targets=("a2", "a2", "a2"))
    g = SimpleFunction(space, (1.0, 4.0, -2.0))
    assert fiber_average(g, phi).values == (0.0, 0.0, (1.0 + 8.0 - 6.0) / 6.0)


def test_fiber_partition_labels_match_its_blocks():
    space = _space((1.0, 2.0, 3.0, 4.0, 5.0))
    phi = Transformation(space, targets=("a4", "a1", "a4", "a1", "a0"))
    part = fiber_partition(phi)
    # Blocks in the atom order of their targets: a0, a1, a4.
    assert part.blocks == (frozenset({"a4"}), frozenset({"a1", "a3"}),
                           frozenset({"a0", "a2"}))
    seeded = part._labels.tolist()
    assert seeded == Partition(space, part.blocks)._labels.tolist() == [2, 1, 2, 1, 0]


# ---------------------------------------------------------------------------
# An atom named "all_except" on a finite space
# ---------------------------------------------------------------------------


def test_atom_named_all_except_is_a_plain_atom():
    space = FiniteSpace(("all_except", "b"), (1.0, 1.0))
    swap = Transformation.finite(space, {"all_except": "b", "b": "all_except"})
    assert swap.fiber_measure("b") == 1.0
    g = SimpleFunction(space, (1.0, 2.0))
    assert fiber_average(g, swap).values == (2.0, 1.0)
    assert density_verdict(PowerAbs(2.0), swap).status is DomainStatus.DENSELY_DEFINED
    # An infinite value takes the per-block fallback, which reads the same tuple.
    assert fiber_average(SimpleFunction(space, (INF, 2.0)), swap).values == (2.0, INF)


# ---------------------------------------------------------------------------
# f o phi as a gather
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(finite_cases())
def test_compose_apply_gather_matches_per_atom_lookup(case):
    f, phi = case
    want = tuple(f.value(phi.apply(a)) for a in f.space.atoms)
    got = compose_apply(f, phi)
    assert bits(got.values) == bits(want)
    assert all(type(v) is float for v in got.values)


def test_compose_apply_countable_path_unchanged():
    space = CountableSpace(GeometricWeights(1.0, 0.5), depth=8)
    f = SimpleFunction(space, tuple(float(n) for n in range(1, 9)), GeometricTail(1.0, 0.5))
    phi = Transformation.from_law(space, ShiftLaw(2), {3: 1})
    got = compose_apply(f, phi)
    assert got.values == tuple(f.value(phi.apply(n)) for n in range(1, 9))
    assert got.value(20) == f.value(22)


# ---------------------------------------------------------------------------
# Countable maps: the same gather, images beyond the prefix read from f
# ---------------------------------------------------------------------------


COUNTABLE_WEIGHTS = {
    "geometric": GeometricWeights(1.0, 0.5),
    "power_law": PowerLawWeights(1.0, 2.0),
    "constant": ConstantWeights(1.0),
}
COUNTABLE_LAWS = {
    "identity": lambda m: IdentityLaw(),
    "collapse:3": lambda m: CollapseLaw(3),
    "collapse:depth+5": lambda m: CollapseLaw(m + 5),
    "shift:2": lambda m: ShiftLaw(2),
    "div_ceil:2": lambda m: DivCeilLaw(2),
    "power_index:2": lambda m: PowerIndexLaw(2),
    "pair_swap": lambda m: PairSwapLaw(),
}
COUNTABLE_OVERRIDES = {
    "none": lambda m: {},
    "{2: 5}": lambda m: {2: 5},
    "{3: depth+3}": lambda m: {3: m + 3},
}
COUNTABLE_TAILS = {
    "zero": lambda m: ZeroTail(),
    "constant": lambda m: ConstantTail(-2.5),
    "geometric": lambda m: GeometricTail(3.0, 0.7),
    "patched": lambda m: PatchedTail(ConstantTail(1.25), ((m + 1, 7.0), (m + 3, -0.0), (m + 6, 4.5))),
}


def countable_function(space, tail):
    """Distinct prefix values with both signed zeros, so a misplaced read
    shows up in the bits."""
    vals = tuple((-1.0) ** n * n / 3.0 for n in range(1, space.depth + 1))
    vals = (0.0, -0.0) + vals[2:]
    return SimpleFunction(space, vals, tail)


def countable_grid():
    for w in COUNTABLE_WEIGHTS:
        for law in COUNTABLE_LAWS:
            for depth in (9, 64):
                yield pytest.param(w, law, depth, id=f"{w}-{law}-{depth}")


@pytest.mark.parametrize("weights, law, depth", countable_grid())
def test_countable_compose_apply_matches_per_atom_lookup(weights, law, depth):
    space = CountableSpace(COUNTABLE_WEIGHTS[weights], depth)
    tail_atoms = (depth + 1, depth + 2, depth + 3, depth + 6, 2 * depth + 1)
    for overrides in COUNTABLE_OVERRIDES.values():
        phi = Transformation.from_law(space, COUNTABLE_LAWS[law](depth), overrides(depth))
        for tail in COUNTABLE_TAILS.values():
            f = countable_function(space, tail(depth))
            got = compose_apply(f, phi)
            want = [f.value(phi.apply(n)) for n in range(1, depth + 1)]
            assert bits(got.values) == bits(want)
            assert all(type(v) is float for v in got.values)
            tail_got = [got.value(n) for n in tail_atoms]
            tail_want = [f.value(phi.apply(n)) for n in tail_atoms]
            if isinstance(phi.law, ShiftLaw) and isinstance(f.tail, GeometricTail):
                # The pullback's closed form coeff*r**k * r**n rounds apart
                # from coeff * r**(n+k) in the last place.
                assert all(map(lambda a, b: math.isclose(a, b, rel_tol=1e-15), tail_got, tail_want))
            else:
                assert bits(tail_got) == bits(tail_want)


@pytest.mark.parametrize("weights, law, depth", countable_grid())
def test_countable_conditional_expectation_is_fiber_average_at_phi(weights, law, depth):
    space = CountableSpace(COUNTABLE_WEIGHTS[weights], depth)
    tail_atoms = (depth + 1, depth + 2, depth + 5, 2 * depth + 1)
    for overrides in COUNTABLE_OVERRIDES.values():
        phi = Transformation.from_law(space, COUNTABLE_LAWS[law](depth), overrides(depth))
        for tail in COUNTABLE_TAILS.values():
            f = countable_function(space, tail(depth))
            avg = fiber_average(f, phi)
            want = [avg.value(phi.apply(n)) for n in range(1, depth + 1)]
            got = conditional_expectation(f, FiberPartition(phi))
            assert bits(got.values) == bits(want)
            assert bits([got.value(n) for n in tail_atoms]) == \
                bits([avg.value(phi.apply(n)) for n in tail_atoms])


def test_countable_target_index_marks_images_beyond_the_prefix():
    space = CountableSpace(GeometricWeights(1.0, 0.5), depth=6)
    phi = Transformation.from_law(space, ShiftLaw(2), {1: 6, 2: 40})
    assert phi._target_index.tolist() == [5, 6, 4, 5, 6, 6]
    assert not phi._target_index.flags.writeable


def test_iterated_power_index_image_array_does_not_overflow():
    space = CountableSpace(PowerLawWeights(1.0, 2.0), depth=16)
    phi = Transformation.from_law(space, PowerIndexLaw(2)).iterate(6)
    assert phi.apply(16) == 16**64  # far beyond int64
    assert phi._target_index.tolist() == [0] + [16] * 15
    f = countable_function(space, GeometricTail(3.0, 0.7))
    got = compose_apply(f, phi)
    assert bits(got.values) == bits([f.value(phi.apply(n)) for n in range(1, 17)])


# ---------------------------------------------------------------------------
# sup_abs and all_finite as reductions over value_vector
# ---------------------------------------------------------------------------


def loop_all_finite(f):
    for a, v in f.items():
        if v == INF or v == -INF:
            return False, a
    if not f.space.is_finite:
        ok, w = f.tail.all_finite()
        if not ok:
            return False, w
    return True, None


def loop_sup_abs(f):
    s = max((abs(v) for v in f.values), default=0.0)
    if not f.space.is_finite:
        s = max(s, f.tail.sup())
    return s


def assert_scans_match(f):
    ok, witness = f.all_finite()
    want_ok, want_witness = loop_all_finite(f)
    assert ok is want_ok and witness == want_witness
    assert type(witness) is type(want_witness)
    assert bits([f.sup_abs()]) == bits([loop_sup_abs(f)])


@settings(max_examples=200, deadline=None)
@given(finite_cases())
def test_scans_match_generators_on_finite_spaces(case):
    f, _ = case
    assert_scans_match(f)


_GEO = CountableSpace(GeometricWeights(1.0, 0.5), depth=6)


@pytest.mark.parametrize("values, tail", [
    ((1.0, -3.0, 0.0, 2.0, 0.0, -0.0), ZeroTail()),
    ((1.0, -INF, 0.0, INF, 0.0, 2.0), ZeroTail()),
    ((1.0, 2.0, 0.0, 0.0, 0.0, 0.0), ConstantTail(INF)),
    ((1.0, 2.0, 0.0, 0.0, 0.0, 0.0), ConstantTail(-5.0)),
    ((INF, 2.0, 0.0, 0.0, 0.0, 0.0), ConstantTail(-INF)),
    ((1.0, 2.0, 0.0, 0.0, 0.0, 0.0), PatchedTail(ZeroTail(), ((9, INF), (11, -INF)))),
    ((0.5, 9.0, 0.0, 0.0, 0.0, 0.0), GeometricTail(30.0, 0.5)),
    ((-0.0,) * 6, ZeroTail()),
])
def test_scans_match_generators_on_countable_spaces(values, tail):
    assert_scans_match(SimpleFunction(_GEO, values, tail))


def test_all_finite_witness_is_first_infinite_atom():
    space = _space((1.0,) * 5, first="all_except")
    f = SimpleFunction(space, (1.0, 2.0, -INF, INF, 3.0))
    assert f.all_finite() == (False, "a2")
    g = SimpleFunction(_GEO, (0.0, 0.0, 0.0, INF, -INF, 1.0), ConstantTail(INF))
    assert g.all_finite() == (False, 4)
