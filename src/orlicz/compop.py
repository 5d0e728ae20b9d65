"""Composition operators: domains, dense definedness, truncation
approximants, closedness, and the boundedness/everywhere-defined dichotomy.

The operator sends f to f o phi. Its analysis runs through the derivative h
of the pushforward measure: dense definedness is finiteness of h, membership
is a weighted-space condition against (1 + h), and boundedness is equivalent
to everywhere-definedness, witnessed constructively in the unbounded case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .extreal import INF
from .measure import (
    CollapseLaw,
    DivCeilLaw,
    IdentityLaw,
    PairSwapLaw,
    PowerIndexLaw,
    ShiftLaw,
    SimpleFunction,
    Transformation,
    radon_nikodym,
    sigma_finite_check,
)
from .norms import (
    NormResult,
    _diverges_for_all_scalings,
    luxemburg_norm,
    modular,
    modular_bounds,
)
from .tails import (
    ConstantTail,
    GeometricTail,
    PatchedTail,
    PointwiseTail,
    SparseGeometricTail,
    TailLaw,
    UnresolvedTail,
    ZeroTail,
)
from .verdicts import ConsistencyError, PreconditionError, Status, Verdict
from .young import YoungFunction

__all__ = [
    "compose_apply",
    "change_of_variable_check",
    "domain_membership",
    "DomainStatus",
    "DomainVerdict",
    "density_verdict",
    "truncation_approximants",
    "ApproximantDiagnostics",
    "closure_identity_check",
    "dense_weighted_subspace_check",
    "sum_domain_check",
    "composite_domain_check",
    "closedness_demo",
    "BoundednessStatus",
    "BoundednessVerdict",
    "boundedness_verdict",
    "operator_norm_estimate",
]


# ---------------------------------------------------------------------------
# The operator itself
# ---------------------------------------------------------------------------


def _tail_atoms_hitting_prefix(law, m: int):
    """Tail atoms the law sends into the prefix, or None when unbounded."""
    if isinstance(law, (IdentityLaw, ShiftLaw, PowerIndexLaw)):
        return ()
    if isinstance(law, PairSwapLaw):
        return (m + 1,) if (m + 1) % 2 == 0 else ()
    if isinstance(law, DivCeilLaw):
        return tuple(range(m + 1, law.d * m + 1))
    return None


def _composed_tail(f: SimpleFunction, phi: Transformation) -> TailLaw:
    """Tail law of f o phi, derived per map law."""
    space = phi.space
    m = space.depth
    law = phi.law
    ft = f.tail
    if isinstance(law, CollapseLaw):
        return ConstantTail(f.value(law.target))
    if isinstance(law, IdentityLaw):
        return ft
    if ft.is_zero():
        # Beyond the prefix the pullback can only be nonzero where the law
        # maps back into the prefix, which is a finite, law-described set.
        hits = _tail_atoms_hitting_prefix(law, m)
        if hits is not None:
            patches = tuple(
                (n, f.value(law.apply(n))) for n in hits if f.value(law.apply(n)) != 0.0
            )
            return PatchedTail(ZeroTail(), patches) if patches else ZeroTail()
    if isinstance(law, ShiftLaw):
        if isinstance(ft, ZeroTail):
            return ZeroTail()
        if isinstance(ft, ConstantTail):
            return ft
        if isinstance(ft, GeometricTail):
            return GeometricTail(ft.coeff * ft.ratio**law.k, ft.ratio)
        db = ft.decay_block()
        return PointwiseTail(
            lambda n: f.value(n + law.k), sup_bound=ft.sup(), finite=ft.all_finite()[0],
            block=db[0] if db else None, block_ratio=db[1] if db else None,
            block_from=max(ft.decay_from() - law.k, 0),
            major_fn=lambda n: ft.major_at(n + law.k),
            name="shifted",
        )
    if isinstance(law, PairSwapLaw):
        if isinstance(ft, (ZeroTail, ConstantTail)):
            return ft
        db = ft.decay_block()
        block = block_ratio = None
        block_from = 0
        if db is not None:
            # Swapping adjacent atoms preserves two-step decay once both
            # members of each pair lie inside the certified region.
            block, block_ratio = 2 * db[0], db[1] ** 2
            block_from = max(m + 3, ft.decay_from() + 1)

        def swapped_major(n: int) -> float:
            t = law.apply(n)
            return abs(f.value(t)) if t <= m else ft.major_at(t)

        boundary = abs(f.values[-1]) if f.values else 0.0
        return PointwiseTail(
            lambda n: f.value(law.apply(n)),
            sup_bound=max(ft.sup(), boundary),
            finite=ft.all_finite()[0],
            block=block,
            block_ratio=block_ratio,
            block_from=block_from,
            major_fn=swapped_major,
            name="pair_swapped",
        )
    if isinstance(law, DivCeilLaw):
        d = law.d
        if isinstance(ft, ZeroTail) and all(v == 0.0 for v in f.values):
            return ZeroTail()
        if isinstance(ft, ConstantTail) and all(v == ft.value for v in f.values):
            return ft
        db = ft.decay_block()
        block = block_ratio = None
        block_from = 0
        if db is not None:
            # Pulled-back values repeat d times, so decay needs d-fold blocks
            # and only applies once ceil(n/d) has left the prefix.
            block, block_ratio = d * db[0], db[1]
            block_from = max(d * m + 1, d * ft.decay_from())

        def divceil_major(n: int) -> float:
            t = law.apply(n)
            return abs(f.value(t)) if t <= m else ft.major_at(t)

        return PointwiseTail(
            lambda n: f.value(law.apply(n)),
            sup_bound=max(f.sup_abs(), ft.sup()),
            finite=f.all_finite()[0],
            block=block,
            block_ratio=block_ratio,
            block_from=block_from,
            major_fn=divceil_major,
            name="div_ceil_pullback",
        )
    if isinstance(law, PowerIndexLaw):
        if isinstance(ft, ZeroTail) and all(v == 0.0 for v in f.values):
            return ZeroTail()
        if isinstance(ft, SparseGeometricTail):
            # Support n with n**e = base**k requires base to be an e-th power.
            root = round(ft.base ** (1.0 / law.e))
            if root >= 2 and root**law.e == ft.base:
                return SparseGeometricTail(root, ft.coeff, ft.growth, ft.start)
        db = ft.decay_block()
        block = block_ratio = None
        if db is not None and isinstance(ft, GeometricTail):
            # value(n**e) decays at least as fast as value(n) along n.
            block, block_ratio = 1, ft.ratio ** max((m + 2) ** law.e - (m + 1) ** law.e, 1)
        return PointwiseTail(
            lambda n: f.value(law.apply(n)),
            sup_bound=max(f.sup_abs(), ft.sup()),
            finite=f.all_finite()[0],
            block=block,
            block_ratio=block_ratio,
            major_fn=lambda n: ft.major_at(law.apply(n)),
            name="power_index_pullback",
        )
    raise UnresolvedTail(f"no composed tail law for {law.label()}")


def compose_apply(f: SimpleFunction, phi: Transformation) -> SimpleFunction:
    """(f o phi)(x) = f(phi(x)), with tail-law composition where resolvable."""
    space = phi.space
    if f.space != space:
        raise ValueError("function and transformation live on different spaces")
    vals = tuple(f.value(phi.apply(a)) for a in space.prefix_ids())
    if space.is_finite:
        return SimpleFunction(space, vals, None)
    return SimpleFunction(space, vals, _composed_tail(f, phi))


@dataclass(frozen=True)
class ChangeOfVariableReport:
    lhs: float
    rhs: float
    relative_gap: float
    exact: bool

    def to_dict(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "relative_gap": self.relative_gap, "exact": self.exact}


def change_of_variable_check(
    phi_fn: YoungFunction, f: SimpleFunction, phi: Transformation, rel_tol: float = 1e-12
) -> ChangeOfVariableReport:
    """modular(f o phi) equals the h-weighted modular of f; grouping the sum
    by fibers makes this an identity on discrete spaces."""
    h = radon_nikodym(phi)
    lhs = modular(phi_fn, compose_apply(f, phi))
    rhs = modular(phi_fn, f, weight=h)
    if lhs == INF or rhs == INF:
        gap = 0.0 if lhs == rhs else INF
    else:
        gap = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
    return ChangeOfVariableReport(lhs, rhs, gap, gap <= rel_tol)


# ---------------------------------------------------------------------------
# Domain membership and dense definedness
# ---------------------------------------------------------------------------


def _exists_finite_scaling(
    probe: Callable[[float], tuple[float, float]], max_halvings: int = 60
) -> Optional[bool]:
    """Is probe(k) finite for some k = 2^-j? probe returns certified bounds.

    Monotone in k (smaller k shrinks the modular), so halving is exhaustive
    up to the certificate horizon; None means undecided.
    """
    k = 1.0
    for _ in range(max_halvings):
        try:
            lo, hi = probe(k)
        except UnresolvedTail:
            return None
        if hi < INF:
            return True
        if lo == INF and hi == INF:
            k /= 2.0
            continue
        return None
    return None


def _direct_member(phi_fn: YoungFunction, g: SimpleFunction) -> Optional[bool]:
    """Some scaling of g has finite modular; None when undecided."""
    if _diverges_for_all_scalings(phi_fn, g) is not None:
        return False
    return _exists_finite_scaling(lambda k: modular_bounds(phi_fn, g, scale=k))


def _weighted_member(phi_fn: YoungFunction, f: SimpleFunction, w: SimpleFunction) -> Optional[bool]:
    """Some scaling of f has finite w-weighted modular; None when undecided."""
    member = _exists_finite_scaling(lambda k: modular_bounds(phi_fn, f, scale=k, weight=w))
    if member is None and _weighted_divergence_certificate(phi_fn, f, w):
        return False
    return member


def domain_membership(
    phi_fn: YoungFunction, phi: Transformation, f: SimpleFunction
) -> bool:
    """f belongs to the operator domain: some scaling of f o phi has finite
    modular. Cross-checked against membership in the (1+h)-weighted space."""
    direct = _direct_member(phi_fn, compose_apply(f, phi))
    one_plus_h = SimpleFunction.constant(f.space, 1.0).plus(radon_nikodym(phi))
    try:
        weighted = _weighted_member(phi_fn, f, one_plus_h)
    except ValueError:
        weighted = None
    if direct is None and weighted is None:
        raise UnresolvedTail("domain membership undecided on both routes")
    if direct is not None and weighted is not None and direct != weighted:
        raise ConsistencyError(
            "direct membership and weighted-space membership disagree"
        )
    result = direct if direct is not None else weighted
    return bool(result)


def _weighted_divergence_certificate(
    phi_fn: YoungFunction, f: SimpleFunction, w: SimpleFunction
) -> bool:
    """True when some atom has w = inf and f != 0 there (with phi vanishing
    only at 0): every scaling of the weighted modular is then infinite."""
    if phi_fn.zero_radius() > 0.0:
        return False
    for (a, fv), wv in zip(f.items(), w.values):
        if wv == INF and fv != 0.0:
            return True
    return False


class DomainStatus(Enum):
    DENSELY_DEFINED = "densely_defined"
    NOT_DENSELY_DEFINED = "not_densely_defined"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class DomainVerdict:
    """Dense-definedness trichotomy with its two facets, which must agree:
    pointwise finiteness of h and sigma-finiteness of the fiber algebra."""

    status: DomainStatus
    witness: Optional[object] = None
    h_finite: Optional[Verdict] = None
    sigma_finite: Optional[Verdict] = None
    extra_facets: tuple[tuple[str, str], ...] = ()
    nu_description: str = ""

    @property
    def densely_defined(self) -> bool:
        return self.status is DomainStatus.DENSELY_DEFINED

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "witness": self.witness,
            "h_finite": self.h_finite.to_dict() if self.h_finite else None,
            "sigma_finite": self.sigma_finite.to_dict() if self.sigma_finite else None,
            "extra_facets": dict(self.extra_facets),
            "nu": self.nu_description,
        }


def density_verdict(phi_fn: YoungFunction, phi: Transformation) -> DomainVerdict:
    """Densely defined exactly when h is finite at every atom, equivalently
    when the fiber algebra is sigma-finite; facets computed independently."""
    h = radon_nikodym(phi)
    finite, witness = h.all_finite()
    h_fact = (
        Verdict(Status.HOLDS, "h finite at every atom")
        if finite
        else Verdict(Status.FAILS, "h infinite at an atom", witness=witness)
    )
    sf = sigma_finite_check(phi)
    if h_fact.holds != sf.holds:
        raise ConsistencyError("h-finiteness and sigma-finiteness facets disagree")
    status = DomainStatus.DENSELY_DEFINED if finite else DomainStatus.NOT_DENSELY_DEFINED
    return DomainVerdict(
        status=status,
        witness=witness,
        h_finite=h_fact,
        sigma_finite=sf,
        nu_description="(1 + h) d mu",
    )


# ---------------------------------------------------------------------------
# Truncation approximants and closure identities
# ---------------------------------------------------------------------------


def _restrict_to_h_below(f: SimpleFunction, h: SimpleFunction, cut: float) -> SimpleFunction:
    """f restricted to {h < cut}; the tail restriction stays law-described."""
    space = f.space
    vals = tuple(v if h.values[i] < cut else 0.0 for i, v in enumerate(f.values))
    if space.is_finite:
        return SimpleFunction(space, vals, None)
    ht = h.tail
    m = space.depth
    if ht.sup() < cut:
        return SimpleFunction(space, vals, f.tail)
    if isinstance(ht, ConstantTail):
        tail = f.tail if ht.value < cut else ZeroTail()
        return SimpleFunction(space, vals, tail)
    from .tails import IndexPowerTail

    if isinstance(ht, IndexPowerTail) and ht.exponent > 0 and ht.coeff > 0:
        # Increasing law: {h < cut} meets the tail in a bounded range.
        cutoff = (cut / ht.coeff) ** (1.0 / ht.exponent)
        kept = tuple(
            (n, f.value(n))
            for n in range(m + 1, int(math.floor(cutoff)) + 1)
            if ht.value_at(n) < cut and f.value(n) != 0.0
        )
        tail = PatchedTail(ZeroTail(), kept) if kept else ZeroTail()
        return SimpleFunction(space, vals, tail)
    if isinstance(ht, (GeometricTail,)) or (
        isinstance(ht, PatchedTail) and isinstance(ht.base, (ZeroTail, ConstantTail, GeometricTail))
    ):
        # Decreasing law: only finitely many tail atoms can reach the cut.
        exceptions = []
        n = m + 1
        scan_limit = m + 100_000
        while n <= scan_limit:
            if ht.value_at(n) >= cut:
                exceptions.append((n, 0.0))
            elif not isinstance(ht, PatchedTail) and ht.value_at(n) < cut:
                break
            n += 1
        if n > scan_limit:
            raise UnresolvedTail("could not bound {h >= cut} in the tail")
        tail = PatchedTail(f.tail, tuple(exceptions)) if exceptions else f.tail
        return SimpleFunction(space, vals, tail)
    raise UnresolvedTail("tail of h too irregular for the truncation set")


@dataclass(frozen=True)
class ApproximantDiagnostics:
    cut: float
    distance: NormResult
    in_domain: bool
    composed_norm: NormResult
    bound_rhs: float
    bound_holds: bool

    def to_dict(self) -> dict:
        return {
            "cut": self.cut,
            "distance": self.distance.to_dict(),
            "in_domain": self.in_domain,
            "composed_norm": self.composed_norm.to_dict(),
            "bound_rhs": self.bound_rhs,
            "bound_holds": self.bound_holds,
        }


def truncation_approximants(
    phi_fn: YoungFunction,
    phi: Transformation,
    f: SimpleFunction,
    n: int,
    tol: float = 1e-9,
) -> tuple[SimpleFunction, ApproximantDiagnostics]:
    """The approximant f restricted to {h < n-1}, with diagnostics: distance
    to f, domain membership, and the norm bound against (n-1) times the norm."""
    if n < 2:
        raise PreconditionError("approximant index must be >= 2")
    dv = density_verdict(phi_fn, phi)
    if not dv.densely_defined:
        raise PreconditionError("truncation approximants require a densely defined operator")
    h = radon_nikodym(phi)
    f_n = _restrict_to_h_below(f, h, float(n - 1))
    dist = luxemburg_norm(phi_fn, f_n.minus(f))
    member = domain_membership(phi_fn, phi, f_n)
    comp = luxemburg_norm(phi_fn, compose_apply(f_n, phi))
    nf = luxemburg_norm(phi_fn, f)
    rhs = (n - 1) * nf.value
    holds = comp.value <= rhs * (1.0 + tol) + tol
    return f_n, ApproximantDiagnostics(float(n - 1), dist, member, comp, rhs, holds)


@dataclass(frozen=True)
class ClosureReport:
    entries: tuple[dict, ...]
    all_achieved: bool

    def to_dict(self) -> dict:
        return {"entries": list(self.entries), "all_achieved": self.all_achieved}


def closure_identity_check(
    phi_fn: YoungFunction,
    phi: Transformation,
    fs: Sequence[SimpleFunction],
    epsilons: Sequence[float] = (1e-2, 1e-4, 1e-6),
    cap: int = 2**20,
) -> ClosureReport:
    """For each f, exhibit a truncation approximant (a member of the weighted
    space and of the domain) within each requested distance."""
    entries = []
    ok = True
    for idx, f in enumerate(fs):
        for eps in epsilons:
            n = 2
            achieved = None
            while n <= cap:
                f_n, diag = truncation_approximants(phi_fn, phi, f, n)
                if diag.distance.value <= eps:
                    achieved = (n, diag.distance.value)
                    break
                n *= 2
            entries.append(
                {
                    "function": idx,
                    "epsilon": eps,
                    "achieved_n": achieved[0] if achieved else None,
                    "achieved_distance": achieved[1] if achieved else None,
                }
            )
            ok = ok and achieved is not None
    return ClosureReport(tuple(entries), ok)


def dense_weighted_subspace_check(
    phi_fn: YoungFunction,
    g: SimpleFunction,
    sample: Optional[SimpleFunction] = None,
) -> tuple[Verdict, tuple[float, ...]]:
    """The g-weighted space is dense exactly when g is finite at every atom.

    When it holds and a sample f is given, the truncations f * 1_{g < n}
    are shown to converge to f in norm; the distances are returned.
    """
    finite, witness = g.all_finite()
    if not finite:
        return (
            Verdict(Status.FAILS, "g infinite at an atom", witness=witness),
            (),
        )
    verdict = Verdict(Status.HOLDS, "g finite at every atom")
    distances: list[float] = []
    if sample is not None:
        f = sample
        for n in (2, 8, 32, 128):
            try:
                f_n = _restrict_to_h_below(f, g, float(n))
            except UnresolvedTail:
                break
            distances.append(luxemburg_norm(phi_fn, f_n.minus(f)).value)
    return verdict, tuple(distances)


# ---------------------------------------------------------------------------
# Sum and composite domains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MembershipReport:
    weighted_member: Optional[bool]
    direct_member: Optional[bool]
    agree: Optional[bool]
    weight_description: str
    weight: Optional[SimpleFunction] = None
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "weighted_member": self.weighted_member,
            "direct_member": self.direct_member,
            "agree": self.agree,
            "weight": self.weight_description,
            "weight_values": self.weight.to_dict() if self.weight is not None else None,
            "note": self.note,
        }


def sum_domain_check(
    phi_fn: YoungFunction,
    alpha1: float,
    phi: Transformation,
    alpha2: float,
    psi: Transformation,
    f: SimpleFunction,
) -> MembershipReport:
    """Membership in the domain of alpha1*C_phi + alpha2*C_psi versus
    membership in the (1 + h1 + h2)-weighted space, computed independently."""
    if alpha1 <= 0 or alpha2 <= 0:
        raise PreconditionError("sum coefficients must be positive")
    h1 = radon_nikodym(phi)
    h2 = radon_nikodym(psi)
    j = SimpleFunction.constant(f.space, 1.0).plus(h1).plus(h2)
    weighted = _weighted_member(phi_fn, f, j)
    combo = compose_apply(f, phi).plus(compose_apply(f, psi), alpha1, alpha2)
    direct = _direct_member(phi_fn, combo)
    agree = None if (weighted is None or direct is None) else weighted == direct
    return MembershipReport(weighted, direct, agree, "(1 + h1 + h2) d mu", weight=j)


def composite_domain_check(
    phi_fn: YoungFunction,
    phi: Transformation,
    psi: Transformation,
    f: SimpleFunction,
) -> MembershipReport:
    """Membership of f in the domain of the composite operator f -> (f o psi) o phi.

    The direct facet needs no bijectivity. The weighted facet uses
    1 + h2 + h1 o psi^{-1} and is only computable for bijective psi; a
    disagreement is reported, never suppressed.
    """
    tau = psi.compose_after(phi)  # x -> psi(phi(x))
    direct = _direct_member(phi_fn, compose_apply(f, tau))
    note = ""
    weighted: Optional[bool] = None
    j0: Optional[SimpleFunction] = None
    if psi.is_bijective:
        h1 = radon_nikodym(phi)
        h2 = radon_nikodym(psi)
        space = f.space
        h1_pull = SimpleFunction(
            space,
            tuple(h1.value(psi.inverse_apply(a)) for a in space.prefix_ids()),
            None
            if space.is_finite
            else PointwiseTail(
                lambda nn: h1.value(psi.inverse_apply(nn)),
                sup_bound=h1.sup_abs(),
                finite=h1.all_finite()[0],
                name="h1_pullback",
            ),
        )
        j0 = SimpleFunction.constant(space, 1.0).plus(h2).plus(h1_pull)
        weighted = _weighted_member(phi_fn, f, j0)
    else:
        note = "inner map not bijective: weighted facet skipped"
    agree = None if (weighted is None or direct is None) else weighted == direct
    if agree is False:
        note = (note + "; " if note else "") + "facets disagree: flagged for investigation"
    return MembershipReport(
        weighted, direct, agree, "(1 + h2 + h1 o psi^{-1}) d mu", weight=j0, note=note
    )


# ---------------------------------------------------------------------------
# Closedness demonstrations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosednessReport:
    sequences: tuple[dict, ...]
    all_consistent: bool

    def to_dict(self) -> dict:
        return {"sequences": list(self.sequences), "all_consistent": self.all_consistent}


def closedness_demo(
    phi_fn: YoungFunction,
    phi: Transformation,
    f: SimpleFunction,
    builders: Sequence[str] = ("truncation", "perturbation"),
    steps: int = 6,
    tol: float = 1e-7,
) -> ClosednessReport:
    """Graph-limit identity on constructively convergent sequences: when
    f_n -> f and f_n o phi -> g in norm, the limit g is f o phi atomwise."""
    dv = density_verdict(phi_fn, phi)
    if not dv.densely_defined:
        raise PreconditionError("closedness demo requires a densely defined operator")
    h = radon_nikodym(phi)
    reports = []
    consistent = True
    for builder in builders:
        if builder == "truncation":
            seq = []
            for j in range(steps):
                try:
                    seq.append(_restrict_to_h_below(f, h, float(2 ** (j + 1))))
                except UnresolvedTail:
                    break
        elif builder == "perturbation":
            bump = SimpleFunction.indicator(f.space, [f.space.prefix_ids()[0]])
            factors = [float(x) for x in np.geomspace(1.0, tol / 10.0, steps)]
            seq = [f.plus(bump, 1.0, eps) for eps in factors]
        else:
            raise ValueError(f"unknown sequence builder {builder!r}")
        if not seq:
            reports.append({"builder": builder, "status": "unresolved"})
            continue
        dist_f = luxemburg_norm(phi_fn, seq[-1].minus(f)).value
        comp_limit = compose_apply(f, phi)
        dist_g = luxemburg_norm(phi_fn, compose_apply(seq[-1], phi).minus(comp_limit)).value
        converged = dist_f <= tol and dist_g <= tol
        if not converged:
            reports.append(
                {"builder": builder, "status": "not convergent", "dist_f": dist_f, "dist_g": dist_g}
            )
            continue
        # Pointwise identification of the graph limit on the prefix.
        last = compose_apply(seq[-1], phi)
        identified = all(
            abs(last.value(a) - comp_limit.value(a)) <= max(tol, dist_g) * max(1.0, abs(comp_limit.value(a)))
            for a in f.space.prefix_ids()
        )
        consistent = consistent and identified
        reports.append(
            {
                "builder": builder,
                "status": "converged",
                "dist_f": dist_f,
                "dist_g": dist_g,
                "graph_limit_identified": identified,
            }
        )
    return ClosednessReport(tuple(reports), consistent)


# ---------------------------------------------------------------------------
# Boundedness versus everywhere-definedness
# ---------------------------------------------------------------------------


class BoundednessStatus(Enum):
    EVERYWHERE_DEFINED_AND_BOUNDED = "everywhere_defined_and_bounded"
    NOT_EVERYWHERE_DEFINED = "not_everywhere_defined"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class BoundednessVerdict:
    status: BoundednessStatus
    norm_bound: Optional[float] = None
    witness: Optional[SimpleFunction] = None
    witness_modular: Optional[float] = None
    witness_scalings_probed: tuple[float, ...] = ()
    probe_log: tuple[tuple[str, float], ...] = ()
    certificate: str = ""

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "norm_bound": self.norm_bound,
            "witness": self.witness.to_dict() if self.witness is not None else None,
            "witness_modular": self.witness_modular,
            "witness_scalings_probed": list(self.witness_scalings_probed),
            "probe_log": [list(t) for t in self.probe_log],
            "certificate": self.certificate,
        }


def boundedness_verdict(
    phi_fn: YoungFunction, phi: Transformation, probe_count: int = 8
) -> BoundednessVerdict:
    """Bounded (with an explicit norm bound) when h is bounded; otherwise a
    witness in the space whose composition falls outside it for every scaling,
    emitted only with a closed-form tail certificate."""
    dv = density_verdict(phi_fn, phi)
    if not dv.densely_defined:
        raise PreconditionError("boundedness analysis requires a densely defined operator")
    h = radon_nikodym(phi)
    sup_h = h.sup_abs()  # h >= 0
    probes = _probe_ratios(phi_fn, phi, probe_count)
    if sup_h < INF:
        bound = max(1.0, sup_h)
        return BoundednessVerdict(
            BoundednessStatus.EVERYWHERE_DEFINED_AND_BOUNDED,
            norm_bound=bound,
            probe_log=probes,
            certificate=(
                f"sup h = {sup_h:g}: composed modular <= sup h * modular, "
                f"norm ratio <= max(1, sup h)"
            ),
        )
    witness = _build_unbounded_witness(phi_fn, phi)
    if witness is None:
        return BoundednessVerdict(
            BoundednessStatus.INCONCLUSIVE,
            probe_log=probes,
            certificate="h unbounded but no closed-form witness certificate available",
        )
    f_w, rho_f, scalings = witness
    return BoundednessVerdict(
        BoundednessStatus.NOT_EVERYWHERE_DEFINED,
        witness=f_w,
        witness_modular=rho_f,
        witness_scalings_probed=scalings,
        probe_log=probes,
        certificate=(
            "sparse geometric mass on atoms of geometrically growing h: the "
            "witness modular is a geometric series with ratio 1/2, while the "
            "composed modular is a geometric series with scale-invariant "
            "ratio >= 1 (certified infinite for every probed scaling)"
        ),
    )


def _build_unbounded_witness(phi_fn: YoungFunction, phi: Transformation, budget: float = 1.0):
    """Greedy mass placement in closed form.

    For a power family A|x|^p on power-law weights w*n^(-s) under the index
    map n -> n^e, put value C0 * g^k on the atom B^k where B = a^e. Choosing
    g so each witness term costs exactly 2^-k makes the witness modular a
    convergent geometric series, while the composed modular's terms sit on
    the (geometrically larger) fiber atoms a^k and form a geometric series
    with ratio a^{s(e-1)}/2 >= 1: certified divergence for every scaling,
    since a scaling multiplies every term by the same power factor.
    """
    from .measure import PowerLawWeights

    power = phi_fn.as_power()
    space = phi.space
    if (
        power is None
        or space.is_finite
        or not isinstance(phi.law, PowerIndexLaw)
        or not isinstance(space.law, PowerLawWeights)
        or phi.overrides
    ):
        return None
    A, p = power
    w, s = space.law.c, space.law.s
    e = phi.law.e
    a = 2
    while float(a) ** (s * (e - 1)) < 2.0:
        a += 1
        if a > 1_000_000:
            return None
    base = a**e
    growth = (float(base) ** s / 2.0) ** (1.0 / p)
    coeff = (A * w) ** (-1.0 / p)
    k0 = 1
    while base**k0 <= space.depth:
        k0 += 1
    # Normalize so the witness modular is budget * sum_{k>=k0} 2^-k <= budget.
    coeff *= budget ** (1.0 / p)
    tail = SparseGeometricTail(base, coeff, growth, start=k0)
    f_w = SimpleFunction(space, (0.0,) * space.depth, tail)
    lo, hi = modular_bounds(phi_fn, f_w)
    if not (hi <= 1.0 + 1e-12):
        return None
    composed = compose_apply(f_w, phi)
    scalings = (0.25, 0.5, 1.0, 2.0)
    for t in scalings:
        clo, chi = modular_bounds(phi_fn, composed, scale=t)
        if clo != INF:
            return None
    return f_w, hi, scalings


def _probe_ratios(
    phi_fn: YoungFunction, phi: Transformation, probe_count: int
) -> tuple[tuple[str, float], ...]:
    space = phi.space
    out = []
    ids = list(space.prefix_ids())[: max(probe_count, 1)]
    for a in ids:
        f = SimpleFunction.indicator(space, [a])
        nf = luxemburg_norm(phi_fn, f).value
        if nf == 0.0 or nf == INF:
            continue
        nc = luxemburg_norm(phi_fn, compose_apply(f, phi)).value
        out.append((f"indicator:{a}", nc / nf))
    return tuple(out)


def operator_norm_estimate(
    phi_fn: YoungFunction,
    phi: Transformation,
    probe_count: int = 16,
    rng=None,
) -> float:
    """Certified lower bound for the operator norm: the best ratio of norms
    over indicator and random simple-function probes (zero probes excluded)."""
    space = phi.space
    best = max((r for _, r in _probe_ratios(phi_fn, phi, probe_count)), default=0.0)
    ids = list(space.prefix_ids())
    gen = rng if rng is not None else np.random.default_rng(0)
    for _ in range(probe_count):
        vals = gen.uniform(-10.0, 10.0, size=len(ids))
        f = SimpleFunction(
            space, tuple(float(v) for v in vals), None if space.is_finite else ZeroTail()
        )
        nf = luxemburg_norm(phi_fn, f).value
        if nf <= 0.0 or nf == INF:
            continue
        nc = luxemburg_norm(phi_fn, compose_apply(f, phi)).value
        best = max(best, nc / nf)
    return best
