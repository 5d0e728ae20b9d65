"""The adjoint of a densely defined composition operator: multiplication by
h after conditional expectation onto the fiber algebra, with the duality
pairing verified numerically and the adjoint's own density index."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .compop import density_verdict
from .extreal import INF, xmul
from .measure import (
    SimpleFunction,
    Transformation,
    compose_apply,
    fiber_average,
    inverse_rn,
    radon_nikodym,
)
from .norms import holder_pairing, modular
from .tails import PointwiseTail, UnresolvedTail
from .verdicts import PreconditionError, Status, Verdict
from .young import GrowthStatus, YoungFunction, delta2_probe, delta_prime_probe

__all__ = [
    "adjoint_apply",
    "AdjointReport",
    "duality_pairing_check",
    "adjoint_density_index",
]


def _require_doubling(phi_fn: YoungFunction, probe_range=None) -> None:
    kwargs = {} if probe_range is None else {"probe_range": probe_range}
    verdict = delta2_probe(phi_fn, **kwargs)
    if not verdict.holds:
        raise PreconditionError(
            "adjoint formula requires the doubling condition; probe said "
            f"{verdict.status.value}"
        )


def adjoint_apply(
    phi_fn: YoungFunction, phi: Transformation, g: SimpleFunction, probe_range=None
) -> SimpleFunction:
    """(adjoint g)(y) = h(y) * (fiber average of g over the fiber at y);
    empty fibers contribute 0, matching h = 0 there. For bijective maps this
    reduces to h * (g o phi^{-1})."""
    _require_doubling(phi_fn, probe_range)
    dv = density_verdict(phi_fn, phi)
    if not dv.densely_defined:
        raise PreconditionError("adjoint requires a densely defined operator")
    return radon_nikodym(phi).times(fiber_average(g, phi))


@dataclass(frozen=True)
class AdjointReport:
    adjoint_values: SimpleFunction
    pairing_lhs: float
    pairing_rhs: float
    residual: float
    within_tolerance: bool
    density_index: Optional[SimpleFunction] = None
    density_verdict: Optional[Verdict] = None

    def to_dict(self) -> dict:
        return {
            "adjoint": self.adjoint_values.to_dict(),
            "pairing_lhs": self.pairing_lhs,
            "pairing_rhs": self.pairing_rhs,
            "residual": self.residual,
            "within_tolerance": self.within_tolerance,
            "density_index": self.density_index.to_dict() if self.density_index else None,
            "density_verdict": self.density_verdict.to_dict() if self.density_verdict else None,
        }


def duality_pairing_check(
    phi_fn: YoungFunction,
    phi: Transformation,
    f: SimpleFunction,
    g: SimpleFunction,
    tol: float = 1e-10,
    probe_range=None,
) -> AdjointReport:
    """<f o phi, g> = <f, adjoint g>: both pairings computed independently."""
    adj = adjoint_apply(phi_fn, phi, g, probe_range)
    lhs = holder_pairing(compose_apply(f, phi), g)
    rhs = holder_pairing(f, adj)
    residual = abs(lhs - rhs)
    ok = residual <= tol * max(1.0, abs(lhs), abs(rhs))
    report = AdjointReport(adj, lhs, rhs, residual, ok)
    return report


def adjoint_density_index(
    phi_fn: YoungFunction,
    phi: Transformation,
    samples: Sequence[SimpleFunction] = (),
    tol: float = 1e-9,
    probe_range=None,
) -> tuple[SimpleFunction, Verdict, tuple[dict, ...]]:
    """The adjoint's density index 1 + E(h_{-1}) * psi(h) o phi for bijective
    maps (where the fiber expectation of h_{-1} is h_{-1} itself), with the
    dense-definedness verdict via pointwise finiteness, plus containment
    checks: sampled members of the index-weighted dual space map into the
    dual space under the adjoint.

    Requires the complementary function to satisfy the product condition and
    the map to be bijective; sampled containment checks falling below the
    product condition's certified threshold are flagged, not asserted.
    """
    psi = phi_fn.conjugate()
    kwargs = {} if probe_range is None else {"probe_range": probe_range}
    dprime = delta_prime_probe(psi, **kwargs)
    if not dprime.holds:
        raise PreconditionError(
            "adjoint density index requires the product condition on the "
            f"complementary function; probe said {dprime.status.value}"
        )
    if not phi.is_bijective:
        raise PreconditionError("adjoint density index requires a bijective map")
    _require_doubling(phi_fn, probe_range)
    h = radon_nikodym(phi)
    h_inv = inverse_rn(phi)
    h_phi = compose_apply(h, phi)
    space = phi.space

    def psi_ext(x: float) -> float:
        return psi(x) if x != INF else INF

    # The chain weight h_{-1} * psi(h o phi); the index is 1 + chain.
    chain_tail = None
    if not space.is_finite:
        hit = h_inv.tail
        # phi can send tail atoms into the prefix, so bound h o phi by sup h
        # over every atom, not by the tail's sup.
        sh, shi = h.sup_abs(), hit.sup()
        chain_tail = PointwiseTail(
            lambda n: xmul(hit.value_at(n), psi_ext(h_phi.tail.value_at(n))),
            sup_bound=xmul(shi, psi(sh)) if (sh != INF and shi != INF) else INF,
            finite=h.tail.all_finite()[0] and hit.all_finite()[0],
            name="chain_weight",
        )
    chain = SimpleFunction(
        space, tuple(xmul(hv, psi_ext(hp)) for hv, hp in zip(h_inv.values, h_phi.values)), chain_tail
    )
    j = SimpleFunction.constant(space, 1.0).plus(chain)
    finite, witness = j.all_finite()
    verdict = (
        Verdict(Status.HOLDS, "index finite at every atom: adjoint densely defined")
        if finite
        else Verdict(Status.FAILS, "index infinite at an atom", witness=witness)
    )
    checks = []
    d_const = dprime.constant if dprime.constant is not None else 1.0
    x0 = dprime.threshold if dprime.status is GrowthStatus.HOLDS_BEYOND else 0.0
    for g in samples:
        try:
            rho_g_weighted = modular(psi, g, weight=j)
        except UnresolvedTail:
            checks.append({"in_weighted_space": None, "note": "unresolved tail"})
            continue
        if rho_g_weighted == INF:
            checks.append({"in_weighted_space": False})
            continue
        adj = adjoint_apply(phi_fn, phi, g)
        lhs = modular(psi, adj)
        # Chain bound: psi(adjoint g) <= d * psi(g) * h_{-1} * psi(h o phi).
        rhs = d_const * modular(psi, g, weight=chain)
        below_threshold = x0 > 0.0 and any(
            0.0 < abs(v) < x0 or 0.0 < hp < x0 for v, hp in zip(g.values, h_phi.values)
        )
        entry = {
            "in_weighted_space": True,
            "adjoint_modular": lhs,
            "chain_bound": rhs,
            "adjoint_in_dual_space": lhs != INF,
        }
        if below_threshold:
            entry["chain_verdict"] = "inconclusive: values below certified threshold"
        else:
            entry["chain_verdict"] = "holds" if lhs <= rhs * (1.0 + tol) + tol else "violated"
        checks.append(entry)
    return j, verdict, tuple(checks)
