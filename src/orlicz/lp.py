"""The p-th power specialization: multiplication-operator equivalence and
weighted composition operators between L^p and L^q on discrete spaces."""

from __future__ import annotations

from dataclasses import dataclass
from .compop import DomainStatus, DomainVerdict, compose_apply, density_verdict
from .extreal import INF, rel_close
from .measure import (
    SimpleFunction,
    Transformation,
    fiber_average,
    radon_nikodym,
)
from .norms import modular
from .verdicts import ConsistencyError, Status, Verdict
from .young import PowerAbs

__all__ = [
    "WeightedCompositionSpec",
    "lp_norm",
    "multiplication_equivalence_check",
    "lp_density_verdict",
    "weighted_comp_index",
    "weighted_density_verdict",
]


@dataclass(frozen=True)
class WeightedCompositionSpec:
    """f -> u * (f o phi) acting from L^p into L^q."""

    u: SimpleFunction
    phi: Transformation
    p: float
    q: float

    def __post_init__(self):
        if self.p < 1.0 or self.q < 1.0:
            raise ValueError("exponents must satisfy p, q >= 1")


def lp_norm(f: SimpleFunction, p: float) -> float:
    """(sum |f|^p d mu)^(1/p); equals the Luxemburg norm of the |x|^p family."""
    if p < 1.0:
        raise ValueError("p must be >= 1")
    m = modular(PowerAbs(p), f)
    if m == INF:
        return INF
    return m ** (1.0 / p)


@dataclass(frozen=True)
class MultiplicationEquivalenceReport:
    composed_norm: float
    multiplier_norm: float
    norms_equal: bool
    domain_identity_lhs: float
    domain_identity_rhs: float
    identity_holds: bool

    def to_dict(self) -> dict:
        return {
            "composed_norm": self.composed_norm,
            "multiplier_norm": self.multiplier_norm,
            "norms_equal": self.norms_equal,
            "domain_identity_lhs": self.domain_identity_lhs,
            "domain_identity_rhs": self.domain_identity_rhs,
            "identity_holds": self.identity_holds,
        }


def multiplication_equivalence_check(
    f: SimpleFunction, phi: Transformation, p: float, rel_tol: float = 1e-12
) -> MultiplicationEquivalenceReport:
    """The composed p-norm equals the norm of f multiplied by h^(1/p), and
    the p-th powers satisfy |f|_p^p + |f o phi|_p^p = integral of |f|^p (1+h)."""
    h = radon_nikodym(phi)
    lhs = lp_norm(compose_apply(f, phi), p)
    rhs = lp_norm(f.times(h.power(1.0 / p)), p)
    equal = rel_close(lhs, rhs, rel_tol)
    one_plus_h = SimpleFunction.constant(f.space, 1.0).plus(h)
    lhs2 = modular(PowerAbs(p), f, weight=one_plus_h)
    rhs2 = _safe_pow(lp_norm(f, p), p) + _safe_pow(lhs, p)
    return MultiplicationEquivalenceReport(
        lhs, rhs, equal, lhs2, rhs2, rel_close(lhs2, rhs2, rel_tol)
    )


def _safe_pow(x: float, p: float) -> float:
    return INF if x == INF else x**p


def lp_density_verdict(phi: Transformation, p: float) -> DomainVerdict:
    """Dense definedness on L^p: the usual trichotomy plus the independent
    facet that the measure with density h is sigma-finite."""
    base = density_verdict(PowerAbs(p), phi)
    h = radon_nikodym(phi)
    # mu_h is sigma-finite iff every singleton has finite h-mass.
    finite, witness = h.all_finite()
    mu_h = (
        Verdict(Status.HOLDS, "h * mu finite on every atom")
        if finite
        else Verdict(Status.FAILS, "mu_h infinite on an atom", witness=witness)
    )
    if mu_h.holds != base.densely_defined:
        raise ConsistencyError("mu_h sigma-finiteness facet disagrees with the trichotomy")
    return DomainVerdict(
        status=base.status,
        witness=base.witness,
        h_finite=base.h_finite,
        sigma_finite=base.sigma_finite,
        extra_facets=(("mu_h_sigma_finite", mu_h.status.value),),
        nu_description=base.nu_description,
    )


def weighted_comp_index(spec: WeightedCompositionSpec) -> SimpleFunction:
    """The density h * E(|u|^q over fibers) assigned at fiber images: the
    weighted composition operator has the same q-norm as multiplication by
    its q-th root."""
    return radon_nikodym(spec.phi).times(fiber_average(spec.u.power(spec.q), spec.phi))


def weighted_norm_identity_check(
    spec: WeightedCompositionSpec, f: SimpleFunction, rel_tol: float = 1e-12
) -> dict:
    """On finite instances: |u * (f o phi)|_q^q equals the J-weighted q-modular."""
    j = weighted_comp_index(spec)
    lhs = _safe_pow(lp_norm(spec.u.times(compose_apply(f, spec.phi)), spec.q), spec.q)
    rhs = modular(PowerAbs(spec.q), f, weight=j)
    return {"lhs": lhs, "rhs": rhs, "equal": rel_close(lhs, rhs, rel_tol)}


def weighted_density_verdict(spec: WeightedCompositionSpec) -> DomainVerdict:
    """Trichotomy on the weighted index J: densely defined iff J is finite
    at every atom iff the J-weighted measure is sigma-finite."""
    j = weighted_comp_index(spec)
    finite, witness = j.all_finite()
    j_fact = (
        Verdict(Status.HOLDS, "index finite at every atom")
        if finite
        else Verdict(Status.FAILS, "index infinite at an atom", witness=witness)
    )
    mu_j = (
        Verdict(Status.HOLDS, "J * mu finite on every atom")
        if finite
        else Verdict(Status.FAILS, "mu_J infinite on an atom", witness=witness)
    )
    status = DomainStatus.DENSELY_DEFINED if finite else DomainStatus.NOT_DENSELY_DEFINED
    return DomainVerdict(
        status=status,
        witness=witness,
        h_finite=j_fact,
        sigma_finite=mu_j,
        nu_description="J d mu",
    )
