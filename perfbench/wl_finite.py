"""finite_large: analysis requests on finite spaces of 500 atoms.

Why: at the ROADMAP's large size the quadratic ``Transformation.preimage``
scans in ``measure`` dominate the fiber-scanning requests, which set
latency_p90_ms, while the cheap norm requests that make up the majority set
latency_p50_ms; the growth probes do almost no work here.
"""

from __future__ import annotations

import math

from common import Op, expect, rel_close

WHY = ("500-atom finite spaces: measure's quadratic preimage scans set p90, "
       "the cheap norm requests that are the majority set p50")
ATOMS = 500
CASES = 32  # input sets per stream; one per cycle, so a run reuses none

# One cycle: 13 cheap requests around 6 fiber-scanning ones. The counts put
# the median inside the luxemburg block and the p90 among the slowest
# fiber-scanning requests, whatever the order within the cycle.
CHEAP = (["modular"] * 3 + ["luxemburg_norm"] * 6 + ["orlicz_norm"] * 2
         + ["conditional_expectation"] * 2)
SCANNING = ["radon_nikodym", "fiber_average", "density_verdict",
            "truncation_approximants", "adjoint_apply", "boundedness_verdict"]


def _young(o, family, p):
    return {"power_abs": lambda: o.PowerAbs(p), "power_over_p": lambda: o.PowerOverP(p),
            "exp_minus_one": o.ExpMinusOne}[family]()


def _phi_values(family, p, x):
    """Reference Young function values on a nonnegative array."""
    import numpy as np

    if family == "power_abs":
        return x ** p
    if family == "power_over_p":
        return x ** p / p
    return np.expm1(x)


def build(o, seed: int, stream: int):
    import numpy as np

    rng = np.random.default_rng([seed, stream, 500])
    cases = []
    ids = tuple(f"a{i:03d}" for i in range(ATOMS))
    for _ in range(CASES):
        w = 10.0 ** rng.uniform(-3.0, 3.0, ATOMS)
        t = rng.integers(0, ATOMS, ATOMS)
        f = rng.uniform(-10.0, 10.0, ATOMS)
        f[rng.random(ATOMS) < 0.15] = 0.0
        g = rng.uniform(-10.0, 10.0, ATOMS)
        space = o.FiniteSpace(ids, tuple(float(x) for x in w))
        cases.append({
            "space": space, "w": w, "t": t, "f": f, "g": g,
            "F": o.SimpleFunction(space, tuple(float(x) for x in f)),
            "G": o.SimpleFunction(space, tuple(float(x) for x in g)),
            "T": o.Transformation(space, targets=tuple(ids[i] for i in t)),
            "p": [float(np.round(x, 6)) for x in rng.uniform(1.2, 3.5, 6)],
            "cut": int(rng.integers(2, 5)),
            "order": rng.permutation(len(CHEAP) + len(SCANNING)),
        })
    return cases


class _Ref:
    """Independent references for one case, computed with numpy bincounts."""

    def __init__(self, case):
        import numpy as np

        self.np = np
        w, t = case["w"], case["t"]
        self.w, self.t = w, t
        self.fiber_w = np.bincount(t, weights=w, minlength=len(w))
        self.h = self.fiber_w / w

    def fiber_mean(self, vals):
        np = self.np
        num = np.bincount(self.t, weights=vals * self.w, minlength=len(self.w))
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(self.fiber_w > 0, num / self.fiber_w, 0.0)

    def modular(self, family, p, vals, k=1.0):
        return math.fsum(_phi_values(family, p, self.np.abs(vals) / k) * self.w)

    def luxemburg(self, family, p, vals):
        if family != "exp_minus_one":
            a = 1.0 if family == "power_abs" else 1.0 / p
            return (a * math.fsum(self.np.abs(vals) ** p * self.w)) ** (1.0 / p)
        lo = hi = 1.0
        if self.modular(family, p, vals, hi) > 1.0:
            while self.modular(family, p, vals, hi) > 1.0:
                lo, hi = hi, hi * 2.0
        else:
            while self.modular(family, p, vals, lo) <= 1.0:
                hi, lo = lo, lo / 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.modular(family, p, vals, mid) <= 1.0:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-14 * hi:
                break
        return hi


def make_cycles(o, cases):
    families = ("power_abs", "power_over_p", "exp_minus_one")
    refs: dict[int, _Ref] = {}

    def ref(i):
        if i not in refs:
            refs.clear()
            refs[i] = _Ref(cases[i])
        return refs[i]

    def cycle(c):
        i = c % len(cases)
        case = cases[i]
        F, G, T, f, g, p = case["F"], case["G"], case["T"], case["f"], case["g"], case["p"]
        phi = o.PowerAbs(p[0])
        ops = []
        slot = {"modular": 0, "luxemburg_norm": 0, "orlicz_norm": 0}
        for kind in CHEAP + SCANNING:
            k = slot.get(kind, 0)
            if kind in slot:
                slot[kind] += 1
            fam = families[k % 3] if kind != "orlicz_norm" else families[k % 2]
            ops.append(_op(o, kind, fam, p[k % len(p)], F, G, T, f, g, phi, case, lambda: ref(i)))
        return [ops[j] for j in case["order"]]

    return cycle


def _op(o, kind, fam, p, F, G, T, f, g, phi, case, ref):
    young = _young(o, fam, p)
    if kind == "modular":
        def check(out, raised):
            expect(not raised, f"raised {out!r}")
            expect(rel_close(out, ref().modular(fam, p, f), 1e-10), "modular differs from the reference sum")
            return "ok"
        return Op(kind, lambda: o.modular(young, F), check)
    if kind == "luxemburg_norm":
        def check(out, raised):
            expect(not raised, f"raised {out!r}")
            r = ref()
            n = out.value
            expect(0.0 < n < math.inf, f"norm {n}")
            expect(r.modular(fam, p, f, n) <= 1.0 + 1e-10, "modular(f/N) > 1")
            expect(r.modular(fam, p, f, n * (1.0 - 1e-9)) > 1.0, "modular just below N is not above 1")
            expect(rel_close(n, r.luxemburg(fam, p, f), 1e-9), "norm differs from the reference")
            return "ok"
        return Op(kind, lambda: o.luxemburg_norm(young, F), check)
    if kind == "orlicz_norm":
        def check(out, raised):
            expect(not raised, f"raised {out!r}")
            n = ref().luxemburg(fam, p, f)
            expect(n * (1 - 1e-9) <= out.value <= 2 * n * (1 + 1e-9), "sandwich N <= O <= 2N violated")
            return "ok"
        return Op(kind, lambda: o.orlicz_norm(young, F), check)
    if kind == "conditional_expectation":
        def call():
            return o.conditional_expectation(F, o.fiber_partition(T))
        def check(out, raised):
            expect(not raised, f"raised {out!r}")
            r = ref()
            exp_vals = r.fiber_mean(f)[case["t"]]
            got = r.np.asarray(out.values)
            expect(r.np.all(r.np.abs(got - exp_vals) <= 1e-10 * r.np.maximum(1.0, r.np.abs(exp_vals))),
                   "block averages differ")
            # Averaging identity per block: integral of E f equals integral of f.
            lhs = r.np.bincount(case["t"], weights=got * r.w, minlength=len(r.w))
            rhs = r.np.bincount(case["t"], weights=f * r.w, minlength=len(r.w))
            scale = r.np.bincount(case["t"], weights=r.np.abs(f) * r.w, minlength=len(r.w))
            expect(r.np.all(r.np.abs(lhs - rhs) <= 1e-10 * r.np.maximum(1.0, scale)),
                   "block-average identity violated")
            return "ok"
        return Op(kind, call, check)
    if kind == "radon_nikodym":
        def check(out, raised):
            expect(not raised, f"raised {out!r}")
            r = ref()
            got = r.np.asarray(out.values)
            expect(r.np.allclose(got, r.h, rtol=1e-12, atol=0.0), "h differs from bincount / weights")
            return "ok"
        return Op(kind, lambda: o.radon_nikodym(T), check)
    if kind == "fiber_average":
        def check(out, raised):
            expect(not raised, f"raised {out!r}")
            r = ref()
            exp_vals = r.fiber_mean(g)
            got = r.np.asarray(out.values)
            expect(r.np.all(r.np.abs(got - exp_vals) <= 1e-10 * r.np.maximum(1.0, r.np.abs(exp_vals))),
                   "fiber averages differ")
            return "ok"
        return Op(kind, lambda: o.fiber_average(G, T), check)
    if kind == "density_verdict":
        def check(out, raised):
            expect(not raised, f"raised {out!r}")
            expect(out.status is o.DomainStatus.DENSELY_DEFINED, f"status {out.status}")
            return "ok"
        return Op(kind, lambda: o.density_verdict(phi, T), check)
    if kind == "truncation_approximants":
        n = case["cut"]
        def check(out, raised):
            expect(not raised, f"raised {out!r}")
            f_n, diag = out
            r = ref()
            expected = r.np.where(r.h < n - 1, f, 0.0)
            expect(r.np.array_equal(r.np.asarray(f_n.values), expected), "approximant support differs")
            expect(diag.in_domain and diag.bound_holds, "approximant diagnostics fail")
            return "ok"
        return Op(kind, lambda: o.truncation_approximants(phi, T, F, n), check)
    if kind == "adjoint_apply":
        def check(out, raised):
            expect(not raised, f"raised {out!r}")
            r = ref()
            exp_vals = r.h * r.fiber_mean(g)
            got = r.np.asarray(out.values)
            expect(r.np.all(r.np.abs(got - exp_vals) <= 1e-10 * r.np.maximum(1.0, r.np.abs(exp_vals))),
                   "adjoint differs from h times the fiber average")
            return "ok"
        return Op(kind, lambda: o.adjoint_apply(phi, T, G), check, (o.PreconditionError,))
    if kind == "boundedness_verdict":
        def check(out, raised):
            expect(not raised, f"raised {out!r}")
            expect(out.status is o.BoundednessStatus.EVERYWHERE_DEFINED_AND_BOUNDED, f"status {out.status}")
            expect(rel_close(out.norm_bound, max(1.0, float(ref().h.max())), 1e-12), "norm bound differs")
            return "ok"
        return Op(kind, lambda: o.boundedness_verdict(phi, T), check)
    raise ValueError(kind)
