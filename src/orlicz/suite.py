"""Verification batteries: randomized finite instances plus the hand-built
canonical corpus, each checked against the library's structural identities.

verify_suite is deterministic for a given (seed, count): instances derive
from a seeded generator and the aggregation is keyed and sorted.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import adjoint as adjoint_mod
from . import compop, lp, measure, norms, young
from .extreal import INF, rel_close
from .measure import (
    ALL_ATOMS,
    CollapseLaw,
    ConstantWeights,
    CountableSpace,
    FiniteSpace,
    GeometricWeights,
    IdentityLaw,
    PairSwapLaw,
    PowerIndexLaw,
    PowerLawWeights,
    SimpleFunction,
    Transformation,
    conditional_expectation,
    fiber_partition,
    inverse_rn,
    radon_nikodym,
    weighted_measure,
)
from .tails import GeometricTail, UnresolvedTail
from .verdicts import PreconditionError
from .young import ExpMinusOne, PowerAbs, PowerOverP, YoungFunction

__all__ = [
    "CheckResult",
    "SuiteReport",
    "random_finite_instance",
    "instance_checks",
    "corpus_checks",
    "verify_suite",
]


@dataclass(frozen=True)
class CheckResult:
    instance_id: str
    name: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "instance": self.instance_id,
            "check": self.name,
            "passed": self.passed,
            "detail": self.detail,
        }


@dataclass
class Instance:
    ident: str
    space: FiniteSpace
    phi_fn: YoungFunction
    f: SimpleFunction
    g: SimpleFunction
    u: SimpleFunction
    map1: Transformation
    map2: Transformation
    perm: Transformation
    p: float


def _sample_young(rng) -> YoungFunction:
    kind = rng.integers(0, 4)
    if kind == 0:
        return PowerAbs(float(np.round(rng.uniform(1.2, 3.5), 6)))
    if kind == 1:
        return PowerOverP(float(np.round(rng.uniform(1.2, 3.5), 6)))
    if kind == 2:
        return ExpMinusOne()
    return PowerAbs(1.0)


def random_finite_instance(rng, index: int, max_atoms: int = 50) -> Instance:
    """Instance distribution: 2..max_atoms atoms, log-uniform weights in
    [1e-3, 1e3], uniform atom-valued maps, values uniform in [-10, 10]."""
    n = int(rng.integers(2, max_atoms + 1))
    ids = tuple(f"x{i:02d}" for i in range(1, n + 1))
    weights = tuple(float(w) for w in 10.0 ** rng.uniform(-3.0, 3.0, n))
    space = FiniteSpace(ids, weights)

    def rand_map():
        return Transformation(space, targets=tuple(ids[i] for i in rng.integers(0, n, n)))

    def rand_fn(zero_prob=0.15):
        vals = rng.uniform(-10.0, 10.0, n)
        mask = rng.random(n) < zero_prob
        vals[mask] = 0.0
        return SimpleFunction(space, tuple(float(v) for v in vals), None)

    perm_targets = tuple(ids[i] for i in rng.permutation(n))
    return Instance(
        ident=f"i{index:04d}",
        space=space,
        phi_fn=_sample_young(rng),
        f=rand_fn(),
        g=rand_fn(),
        u=rand_fn(zero_prob=0.3),
        map1=rand_map(),
        map2=rand_map(),
        perm=Transformation(space, targets=perm_targets),
        p=float(np.round(rng.uniform(1.0, 3.0), 6)),
    )


def _check(out: list, inst_id: str, name: str, passed: bool, detail: str = ""):
    out.append(CheckResult(inst_id, name, bool(passed), detail))


# ---------------------------------------------------------------------------
# Per-instance batteries
# ---------------------------------------------------------------------------


def young_checks(inst: Instance) -> list[CheckResult]:
    out: list[CheckResult] = []
    phi = inst.phi_fn
    psi = phi.conjugate()
    bidual = psi.conjugate()
    xs = np.geomspace(1e-4, 1e3, 64)
    involution_ok = True
    for x in xs:
        a, b = phi(float(x)), bidual(float(x))
        if a == INF or b == INF:
            if a != b:
                involution_ok = False
                break
        elif abs(a - b) > 1e-8 * max(1.0, a):
            involution_ok = False
            break
    _check(out, inst.ident, "young.involution", involution_ok)
    gap_ok = True
    eq_ok = True
    for x in np.geomspace(1e-3, 5.0, 24):
        for y in np.geomspace(1e-3, 5.0, 8):
            g = young.young_inequality_gap(phi, float(x), float(y))
            if g < -1e-12:
                gap_ok = False
        d = phi.derivative(float(x))
        if d != INF:
            g = young.young_inequality_gap(phi, float(x), d)
            if g != INF and abs(g) > 1e-9 * max(1.0, phi(float(x))):
                eq_ok = False
    _check(out, inst.ident, "young.gap_nonnegative", gap_ok)
    _check(out, inst.ident, "young.gap_equality_at_subgradient", eq_ok)
    inv_ok = True
    for yv in np.geomspace(1e-4, 1e3, 24):
        x = phi.inverse(float(yv))
        if phi(x) > yv * (1.0 + 1e-9) + 1e-12:
            inv_ok = False
        v = phi(float(yv))
        if v != INF and yv > phi.inverse(v) * (1.0 + 1e-9) + 1e-12:
            inv_ok = False
    _check(out, inst.ident, "young.inverse_sandwich", inv_ok)
    return out


def norm_checks(inst: Instance) -> list[CheckResult]:
    out: list[CheckResult] = []
    phi, f = inst.phi_fn, inst.f
    nf = norms.luxemburg_norm(phi, f)
    onf = norms.orlicz_norm(phi, f)
    _check(
        out, inst.ident, "norms.sandwich",
        nf.value <= onf.value * (1.0 + 1e-9) + 1e-9
        and onf.value <= 2.0 * nf.value * (1.0 + 1e-9) + 1e-9,
        f"N={nf.value:.6g} O={onf.value:.6g}",
    )
    if nf.value not in (0.0, INF):
        rho = norms.modular(phi, f, scale=1.0 / nf.value)
        _check(out, inst.ident, "norms.luxemburg_contract", rho <= 1.0 + 1e-9, f"rho={rho:.6g}")
        k_below = nf.value * (1.0 - 10.0 * max(nf.achieved_tol, 1e-12))
        rho_below = norms.modular(phi, f, scale=1.0 / k_below)
        _check(out, inst.ident, "norms.luxemburg_infimum_sharp", rho_below > 1.0 - 1e-9)
    power = phi.as_power()
    if power is not None and power[0] == 1.0:
        p = power[1]
        classic = sum(abs(v) ** p * w for v, w in zip(f.values, inst.space.weights)) ** (1.0 / p)
        _check(
            out, inst.ident, "norms.pnorm_closed_form",
            rel_close(nf.value, classic, 2e-12), f"N={nf.value!r} vs {classic!r}",
        )
    atom = inst.space.atoms[0]
    chi = SimpleFunction.indicator(inst.space, [atom])
    n_chi = norms.luxemburg_norm(phi, chi).value
    oracle = 1.0 / phi.inverse(1.0 / inst.space.weight(atom))
    _check(out, inst.ident, "norms.indicator_formula", rel_close(n_chi, oracle, 1e-9))
    if len(inst.space.atoms) <= 4:
        brute = norms.orlicz_norm_brute_oracle(phi, f).value
        _check(
            out, inst.ident, "norms.orlicz_vs_oracle",
            onf.value >= brute - 1e-4 * max(1.0, brute)
            and brute >= onf.value - 1e-4 * max(1.0, onf.value),
            f"opt={onf.value:.8g} grid={brute:.8g}",
        )
    scal = norms.luxemburg_norm(phi, f.scaled(3.5)).value
    _check(out, inst.ident, "norms.homogeneity", rel_close(scal, 3.5 * nf.value, 1e-9))
    ng = norms.luxemburg_norm(phi, inst.g).value
    nsum = norms.luxemburg_norm(phi, f.plus(inst.g)).value
    _check(out, inst.ident, "norms.triangle", nsum <= nf.value + ng + 1e-9 * max(1.0, nf.value + ng))
    pair = norms.holder_pairing(f, inst.g)
    if norms.dual_ball_membership(phi.conjugate(), inst.g):
        _check(
            out, inst.ident, "norms.pairing_bound",
            abs(pair) <= onf.value * (1.0 + 1e-9) + 1e-9,
        )
    return out


def measure_checks(inst: Instance) -> list[CheckResult]:
    out: list[CheckResult] = []
    space, phi = inst.space, inst.phi_fn
    part = fiber_partition(inst.map2)
    f_abs = inst.f.abs()
    ef = conditional_expectation(inst.f, part)
    avg_ok = True
    for block in part.iter_blocks():
        lhs = sum(inst.f.value(a) * space.weight(a) for a in block)
        rhs = sum(ef.value(a) * space.weight(a) for a in block)
        if not rel_close(lhs, rhs, 1e-10):
            avg_ok = False
    _check(out, inst.ident, "measure.ce_averaging", avg_ok)
    g_meas = conditional_expectation(inst.g, part)
    prod = SimpleFunction(space, tuple(a * b for a, b in zip(inst.f.values, g_meas.values)), None)
    lhs_f = conditional_expectation(prod, part)
    rhs_f = SimpleFunction(space, tuple(a * b for a, b in zip(ef.values, g_meas.values)), None)
    _check(
        out, inst.ident, "measure.ce_pull_out",
        all(rel_close(a, b, 1e-10) for a, b in zip(lhs_f.values, rhs_f.values)),
    )
    phi_f = SimpleFunction(space, tuple(phi(v) for v in inst.f.values), None)
    e_phi_f = conditional_expectation(phi_f, part)
    jensen_ok = all(
        phi(ev) <= epv * (1.0 + 1e-10) + 1e-10 for ev, epv in zip(ef.values, e_phi_f.values)
    )
    _check(out, inst.ident, "measure.ce_jensen", jensen_ok)
    e_abs = conditional_expectation(f_abs, part)
    _check(out, inst.ident, "measure.ce_positivity", all(v >= -1e-12 for v in e_abs.values))
    pos = SimpleFunction(space, tuple(abs(v) + 0.1 for v in inst.f.values), None)
    e_pos = conditional_expectation(pos, part)
    _check(out, inst.ident, "measure.ce_strict_positivity", all(v > 0 for v in e_pos.values))
    e_e = conditional_expectation(ef, part)
    _check(
        out, inst.ident, "measure.ce_idempotent",
        all(rel_close(a, b, 1e-12) for a, b in zip(ef.values, e_e.values)),
    )
    supp_ok = measure.support(f_abs).prefix <= measure.support(e_abs).prefix
    _check(out, inst.ident, "measure.ce_support", supp_ok)
    n_ef = norms.luxemburg_norm(phi, ef).value
    n_f = norms.luxemburg_norm(phi, inst.f).value
    _check(
        out, inst.ident, "measure.ce_norm_contraction",
        n_ef <= n_f * (1.0 + 1e-9) + 1e-10, f"{n_ef:.6g} <= {n_f:.6g}",
    )
    o_ef = norms.orlicz_norm(phi, ef).value
    o_f = norms.orlicz_norm(phi, inst.f).value
    _check(out, inst.ident, "measure.ce_orlicz_contraction", o_ef <= o_f * (1.0 + 1e-9) + 1e-9)
    h = radon_nikodym(inst.map1)
    rng = np.random.default_rng(zlib.crc32(inst.ident.encode()))
    rn_ok = True
    for _ in range(6):
        mask = rng.random(len(space.atoms)) < 0.5
        subset = [a for a, m in zip(space.atoms, mask) if m]
        pre = [a for a in space.atoms if inst.map1.apply(a) in set(subset)]
        lhs = sum(space.weight(a) for a in pre)
        rhs = sum(h.value(a) * space.weight(a) for a in subset)
        if not rel_close(lhs, rhs, 1e-12):
            rn_ok = False
    _check(out, inst.ident, "measure.rn_consistency", rn_ok)
    return out


def compop_checks(inst: Instance) -> list[CheckResult]:
    out: list[CheckResult] = []
    phi, f, tr = inst.phi_fn, inst.f, inst.map1
    cv = compop.change_of_variable_check(phi, f, tr)
    _check(out, inst.ident, "compop.change_of_variable", cv.exact, f"gap={cv.relative_gap:.3g}")
    _check(out, inst.ident, "compop.domain_membership_finite", compop.domain_membership(phi, tr, f))
    dv = compop.density_verdict(phi, tr)
    _check(out, inst.ident, "compop.densely_defined_finite", dv.densely_defined)
    nf = norms.luxemburg_norm(phi, f).value
    prev = None
    mono_ok = True
    bound_ok = True
    for n in (2, 4, 8):
        _, diag = compop.truncation_approximants(phi, tr, f, n)
        if prev is not None and diag.distance.value > prev + 1e-9:
            mono_ok = False
        prev = diag.distance.value
        bound_ok = bound_ok and diag.bound_holds
    _check(out, inst.ident, "compop.approximant_monotone", mono_ok)
    _check(out, inst.ident, "compop.approximant_bound", bound_ok)
    bd = compop.boundedness_verdict(phi, tr, probe_count=3)
    _check(
        out, inst.ident, "compop.bounded_on_finite",
        bd.status is compop.BoundednessStatus.EVERYWHERE_DEFINED_AND_BOUNDED,
    )
    est = compop.operator_norm_estimate(phi, tr, probe_count=3)
    _check(
        out, inst.ident, "compop.norm_estimate_within_bound",
        est <= bd.norm_bound * (1.0 + 1e-9) + 1e-12, f"est={est:.6g} bound={bd.norm_bound:.6g}",
    )
    sd = compop.sum_domain_check(phi, 1.0, tr, 2.0, inst.map2, f)
    _check(out, inst.ident, "compop.sum_domain_agree", sd.agree is True and sd.direct_member is True)
    cd = compop.composite_domain_check(phi, tr, inst.perm, f)
    _check(out, inst.ident, "compop.composite_domain_agree", cd.agree is True and cd.direct_member is True)
    cd2 = compop.composite_domain_check(phi, tr, inst.map2, f)
    _check(out, inst.ident, "compop.composite_direct_finite", cd2.direct_member is True)
    return out


def adjoint_checks(inst: Instance) -> list[CheckResult]:
    out: list[CheckResult] = []
    phi, f, g = inst.phi_fn, inst.f, inst.g
    d2 = young.delta2_probe(phi)
    if not d2.holds:
        raised = False
        try:
            adjoint_mod.adjoint_apply(phi, inst.map1, g)
        except PreconditionError:
            raised = True
        _check(out, inst.ident, "adjoint.requires_doubling", raised)
        return out
    rep = adjoint_mod.duality_pairing_check(phi, inst.map1, f, g)
    _check(
        out, inst.ident, "adjoint.duality_residual",
        rep.within_tolerance, f"residual={rep.residual:.3g}",
    )
    adj = adjoint_mod.adjoint_apply(phi, inst.perm, g)
    h = radon_nikodym(inst.perm)
    h_inv = inverse_rn(inst.perm)
    red_ok = True
    for a in inst.space.atoms:
        pre = inst.perm.inverse_apply(a)
        if not rel_close(adj.value(a), h.value(a) * g.value(pre), 1e-10):
            red_ok = False
    _check(out, inst.ident, "adjoint.bijective_reduction", red_ok)
    cons_ok = all(
        rel_close(hi * hp, 1.0, 1e-10)
        for hi, hp in zip(h_inv.values, compop.compose_apply(h, inst.perm).values)
    )
    _check(out, inst.ident, "adjoint.inverse_derivative_consistency", cons_ok)
    psi = phi.conjugate()
    dprime = young.delta_prime_probe(psi)
    if dprime.holds:
        j, verdict, checks = adjoint_mod.adjoint_density_index(phi, inst.perm, samples=[g])
        finite, _ = j.all_finite()
        _check(out, inst.ident, "adjoint.index_matches_verdict", finite == verdict.holds)
        if dprime.status is young.GrowthStatus.HOLDS_GLOBALLY:
            # Globally certified product condition: the dual function is
            # finite-valued, so the index is finite on finite instances.
            _check(out, inst.ident, "adjoint.index_finite_on_finite", verdict.holds)
        chain_ok = all(c.get("chain_verdict") != "violated" for c in checks)
        _check(out, inst.ident, "adjoint.containment_chain", chain_ok)
    return out


def lp_checks(inst: Instance) -> list[CheckResult]:
    out: list[CheckResult] = []
    f, tr = inst.f, inst.map1
    for p in (1.0, 1.5, 2.0, 3.0, inst.p):
        rep = lp.multiplication_equivalence_check(f, tr, p)
        if not (rep.norms_equal and rep.identity_holds):
            _check(out, inst.ident, f"lp.multiplication_equivalence[p={p:g}]", False)
            return out
    _check(out, inst.ident, "lp.multiplication_equivalence", True)
    dv = lp.lp_density_verdict(tr, inst.p)
    dv2 = compop.density_verdict(PowerAbs(inst.p), tr)
    _check(out, inst.ident, "lp.density_matches_general", dv.status == dv2.status)
    ones = SimpleFunction.constant(inst.space, 1.0)
    spec = lp.WeightedCompositionSpec(ones, tr, inst.p, 2.0)
    j = lp.weighted_comp_index(spec)
    h = radon_nikodym(tr)
    _check(
        out, inst.ident, "lp.unit_weight_reduces_to_h",
        all(rel_close(a, b, 1e-10) for a, b in zip(j.values, h.values)),
    )
    spec_u = lp.WeightedCompositionSpec(inst.u, tr, inst.p, 2.0)
    rep = lp.weighted_norm_identity_check(spec_u, f)
    _check(out, inst.ident, "lp.weighted_norm_identity", rep["equal"])
    wdv = lp.weighted_density_verdict(spec_u)
    _check(out, inst.ident, "lp.weighted_densely_defined_finite", wdv.densely_defined)
    return out


def instance_checks(inst: Instance) -> list[CheckResult]:
    out: list[CheckResult] = []
    out.extend(young_checks(inst))
    out.extend(norm_checks(inst))
    out.extend(measure_checks(inst))
    out.extend(compop_checks(inst))
    out.extend(adjoint_checks(inst))
    out.extend(lp_checks(inst))
    return out


# ---------------------------------------------------------------------------
# Canonical corpus
# ---------------------------------------------------------------------------


def three_atom_collapse():
    space = FiniteSpace(("1", "2", "3"), (1.0, 1.0, 1.0))
    tr = Transformation.finite(space, {"1": "1", "2": "1", "3": "3"})
    return space, tr


def corpus_checks() -> list[CheckResult]:
    out: list[CheckResult] = []
    cid = "corpus"
    phi2 = PowerAbs(2.0)

    space, tr = three_atom_collapse()
    h = radon_nikodym(tr)
    _check(out, cid, "corpus.rn_three_atom", tuple(h.values) == (2.0, 0.0, 1.0), str(h.values))
    f = SimpleFunction.from_dict(space, {"1": 4.0, "2": 0.0, "3": 7.0})
    ef = conditional_expectation(f, fiber_partition(tr))
    _check(out, cid, "corpus.ce_block_average", tuple(ef.values) == (2.0, 2.0, 7.0), str(ef.values))
    adj = adjoint_mod.adjoint_apply(phi2, tr, f)
    _check(out, cid, "corpus.adjoint_values", tuple(adj.values) == (4.0, 0.0, 7.0), str(adj.values))
    ff = SimpleFunction.from_dict(space, {"1": 1.0, "2": 2.0, "3": 3.0})
    rep = adjoint_mod.duality_pairing_check(phi2, tr, ff, f)
    _check(
        out, cid, "corpus.duality_25",
        rel_close(rep.pairing_lhs, 25.0, 1e-12) and rel_close(rep.pairing_rhs, 25.0, 1e-12),
        f"lhs={rep.pairing_lhs} rhs={rep.pairing_rhs}",
    )
    u = SimpleFunction.from_dict(space, {"1": 1.0, "2": 3.0, "3": 0.0})
    spec = lp.WeightedCompositionSpec(u, tr, 2.0, 2.0)
    j = lp.weighted_comp_index(spec)
    _check(out, cid, "corpus.weighted_index", tuple(j.values) == (10.0, 0.0, 0.0), str(j.values))
    chi1 = SimpleFunction.indicator(space, ["1"])
    ratio = (
        norms.luxemburg_norm(phi2, compop.compose_apply(chi1, tr)).value
        / norms.luxemburg_norm(phi2, chi1).value
    )
    _check(out, cid, "corpus.opnorm_probe_sqrt2", rel_close(ratio, math.sqrt(2.0), 1e-9), f"{ratio}")
    f_n, diag = compop.truncation_approximants(phi2, tr, ff, 2)
    _check(out, cid, "corpus.truncation_set", tuple(f_n.values) == (0.0, 2.0, 0.0), str(f_n.values))

    geo = CountableSpace(GeometricWeights(1.0, 0.5), depth=64)
    ident = Transformation.from_law(geo, IdentityLaw())
    _check(
        out, cid, "corpus.identity_densely_defined",
        compop.density_verdict(phi2, ident).densely_defined,
    )
    collapse_geo = Transformation.from_law(geo, CollapseLaw(1))
    dv = compop.density_verdict(phi2, collapse_geo)
    hgeo = radon_nikodym(collapse_geo)
    _check(out, cid, "corpus.geometric_collapse_densely_defined", dv.densely_defined)
    _check(out, cid, "corpus.geometric_collapse_h", rel_close(hgeo.values[0], 2.0, 1e-12))

    const = CountableSpace(ConstantWeights(1.0), depth=64)
    collapse_const = Transformation.from_law(const, CollapseLaw(1))
    dvc = compop.density_verdict(phi2, collapse_const)
    _check(
        out, cid, "corpus.constant_collapse_not_densely_defined",
        dvc.status is compop.DomainStatus.NOT_DENSELY_DEFINED and dvc.witness == 1,
    )
    chi = SimpleFunction.indicator(const, [1])
    _check(
        out, cid, "corpus.constant_collapse_membership",
        compop.domain_membership(phi2, collapse_const, chi) is False,
    )
    sd = compop.sum_domain_check(phi2, 1.0, collapse_const,
                                 1.0, Transformation.from_law(const, IdentityLaw()), chi)
    _check(
        out, cid, "corpus.constant_collapse_sum_domain",
        sd.weighted_member is False and sd.direct_member is False and sd.agree is True,
    )

    # Geometric collapse approximants with a geometric-tail function.
    fgeo = SimpleFunction(
        geo, tuple(0.5**n for n in range(1, 65)), GeometricTail(1.0, 0.5)
    )
    dists = []
    bounds_ok = True
    for n in (2, 3, 4, 8):
        _, diag = compop.truncation_approximants(phi2, collapse_geo, fgeo, n)
        dists.append(diag.distance.value)
        bounds_ok = bounds_ok and diag.bound_holds
    _check(
        out, cid, "corpus.geometric_truncation_converges",
        all(b <= a + 1e-12 for a, b in zip(dists, dists[1:])) and dists[-1] <= 1e-6,
        str(dists),
    )
    _check(out, cid, "corpus.geometric_truncation_bound", bounds_ok)

    # Unbounded composition on power-law weights under the squaring map.
    plaw = CountableSpace(PowerLawWeights(1.0, 2.0), depth=64)
    square = Transformation.from_law(plaw, PowerIndexLaw(2))
    dvs = compop.density_verdict(phi2, square)
    _check(out, cid, "corpus.square_map_densely_defined", dvs.densely_defined)
    bd = compop.boundedness_verdict(phi2, square)
    _check(
        out, cid, "corpus.square_map_unbounded",
        bd.status is compop.BoundednessStatus.NOT_EVERYWHERE_DEFINED
        and bd.witness is not None
        and bd.witness_modular is not None
        and bd.witness_modular <= 1.0 + 1e-9,
        bd.certificate,
    )

    # Bijective tail-law map: the adjoint's density index is finite.
    swap = Transformation.from_law(geo, PairSwapLaw())
    j, verdict, _ = adjoint_mod.adjoint_density_index(phi2, swap)
    _check(out, cid, "corpus.pair_swap_adjoint_index", verdict.holds)
    return out


# ---------------------------------------------------------------------------
# Failure minimization
# ---------------------------------------------------------------------------


def _run_named_check(inst: Instance, name: str) -> Optional[CheckResult]:
    for c in instance_checks(inst):
        if c.name == name:
            return c
    return None


def _shrink_instance(inst: Instance, name: str) -> Instance:
    """Drop atoms while the named check keeps failing; greedy, deterministic."""
    current = inst
    changed = True
    while changed and len(current.space.atoms) > 2:
        changed = False
        for drop in current.space.atoms:
            keep = [a for a in current.space.atoms if a != drop]
            if len(keep) < 2:
                continue
            try:
                smaller = _project_instance(current, keep)
                res = _run_named_check(smaller, name)
            except Exception:
                continue
            if res is not None and not res.passed:
                current = smaller
                changed = True
                break
    return current


def _project_instance(inst: Instance, keep: list) -> Instance:
    keep_set = set(keep)
    idx = [i for i, a in enumerate(inst.space.atoms) if a in keep_set]
    space = FiniteSpace(tuple(keep), tuple(inst.space.weights[i] for i in idx))

    def proj_fn(f: SimpleFunction) -> SimpleFunction:
        return SimpleFunction(space, tuple(f.values[i] for i in idx), None)

    def proj_map(t: Transformation) -> Transformation:
        targets = []
        for a in keep:
            tgt = t.apply(a)
            targets.append(tgt if tgt in keep_set else keep[0])
        return Transformation(space, targets=tuple(targets))

    def proj_perm(t: Transformation) -> Transformation:
        # Restriction of a permutation is not one; remap missing targets to
        # preserve bijectivity on the kept atoms.
        images = [t.apply(a) for a in keep]
        missing = [a for a in keep if a not in set(images)]
        targets = []
        for img in images:
            targets.append(img if img in keep_set else missing.pop())
        return Transformation(space, targets=tuple(targets))

    return Instance(
        ident=inst.ident + f"-shrunk{len(keep)}",
        space=space,
        phi_fn=inst.phi_fn,
        f=proj_fn(inst.f),
        g=proj_fn(inst.g),
        u=proj_fn(inst.u),
        map1=proj_map(inst.map1),
        map2=proj_map(inst.map2),
        perm=proj_perm(inst.perm),
        p=inst.p,
    )


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------


@dataclass
class SuiteReport:
    seed: int
    count: int
    total_checks: int
    passed: int
    failed: int
    failures: list = field(default_factory=list)
    elapsed_seconds: float = 0.0
    scenario_results: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "total_checks": self.total_checks,
            "passed": self.passed,
            "failed": self.failed,
            "failures": self.failures,
            "elapsed_seconds": self.elapsed_seconds,
            "scenario_results": self.scenario_results,
        }


def _scenario_checks(sc, tag: str) -> list[CheckResult]:
    out: list[CheckResult] = []
    for yname, yfn in sc.youngs.items():
        for mname, tr in sc.maps.items():
            try:
                dv = compop.density_verdict(yfn, tr)
                _check(out, tag, f"scenario.density[{yname},{mname}]", True, dv.status.value)
            except UnresolvedTail:
                _check(out, tag, f"scenario.density[{yname},{mname}]", True, "inconclusive tail")
            for fname, f in sc.functions.items():
                try:
                    cv = compop.change_of_variable_check(yfn, f, tr)
                    _check(
                        out, tag, f"scenario.change_of_variable[{yname},{mname},{fname}]", cv.exact
                    )
                except UnresolvedTail:
                    _check(
                        out, tag,
                        f"scenario.change_of_variable[{yname},{mname},{fname}]",
                        True, "inconclusive tail",
                    )
    return out


def verify_suite(seed: int = 42, count: int = 200, scenarios: Sequence = (),
                 minimize: bool = True) -> SuiteReport:
    """Run the full property battery: seeded random instances, the canonical
    corpus, and any extra scenarios. Failures carry minimized witnesses."""
    t0 = time.monotonic()
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    instances: dict[str, Instance] = {}
    for i in range(count):
        inst = random_finite_instance(rng, i)
        instances[inst.ident] = inst
        results.extend(instance_checks(inst))
    results.extend(corpus_checks())
    for k, sc in enumerate(scenarios):
        results.extend(_scenario_checks(sc, f"scenario{k:02d}"))
    results.sort(key=lambda c: (c.instance_id, c.name))
    failures = []
    minimized_done = False
    for c in results:
        if c.passed:
            continue
        entry = c.to_dict()
        if minimize and not minimized_done and c.instance_id in instances:
            small = _shrink_instance(instances[c.instance_id], c.name)
            entry["minimized_witness"] = {
                "atoms": list(small.space.atoms),
                "weights": list(small.space.weights),
                "young": small.phi_fn.label(),
                "f": {a: v for a, v in small.f.items()},
                "map": small.map1.descriptor(),
            }
            minimized_done = True
        failures.append(entry)
    passed = sum(1 for c in results if c.passed)
    return SuiteReport(
        seed=seed,
        count=count,
        total_checks=len(results),
        passed=passed,
        failed=len(results) - passed,
        failures=failures,
        elapsed_seconds=time.monotonic() - t0,
    )
