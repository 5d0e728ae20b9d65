"""countable_tails: requests on countable spaces with law-described tails.

Why: this is the workload of tail certificates and law-based preimages.
Geometric, power-law and constant weights at depth 64 and 512 meet the five
function-tail families and the six map laws (with prefix overrides). A rewrite
of the finite core should not move it; changes to tail certification (a zeta
replacement, the Amemiya norm on nonzero tails) should. It is the only
workload whose outcomes include inconclusive results.

References are computed by the benchmark itself: fibers by enumerating
candidate preimages under the map, tail sums in closed form with mpmath's
zeta and Lerch transcendent, never through the library.

Known defect: the library's fiber_average raises ZeroDivisionError where
the float weights of a fiber all underflow to 0.0, as for div_ceil(3) fibers
deep into geometric weights at depth 512. Every case issues exactly one
request that meets it (UNDERFLOW_WITNESS); the rotating fiber_average
requests on that space draw div_ceil(2), whose fibers keep nonzero weights.
So each case holds one failed request, and failed/attempted is the same on
every seed and every run length. Any other undocumented error makes the run
incorrect. The references average over such fibers with scaled weights, so
they hold once the library is fixed.
"""

from __future__ import annotations

import math

from common import STREAM_WARMUP, Op, expect, rel_close

WHY = ("countable spaces (3 weight laws x depth 64/512, 5 tail families, 6 map laws "
       "with overrides): tail certificates and law-based preimages")
INF = math.inf
TAILS = ("zero", "constant", "geometric", "index_power", "sparse_geometric")
MAPS = ("identity", "collapse", "shift", "div_ceil", "power_index", "pair_swap")
# A cycle is ROTATION cases: the map laws rotate over the spaces from case
# to case, and the cost of a request depends on its (space, map) pair, so a
# cycle of a whole rotation costs the same on every seed and a run does not
# depend on where in the rotation it stops.
ROTATION = len(MAPS)
CASES = 4 * ROTATION
# The space and map of the per-case request that shows the known defect.
UNDERFLOW_WITNESS = {"space": ("geometric", 512), "map": ("div_ceil", 3)}

# Per space, one case issues these requests. The norm requests sit in the
# middle of the latency order, so they set the median.
KINDS = (["modular"] * 2 + ["radon_nikodym", "fiber_average", "density_verdict",
          "domain_membership"] + ["luxemburg_norm"] * 4
         + ["truncation_approximants", "adjoint_density_index", "boundedness_verdict"])


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


# The weight laws of the bundled scenarios; the seed varies everything else.
WEIGHT_LAWS = {"geometric": {"kind": "geometric", "a": 1.0, "r": 0.5},
               "power_law": {"kind": "power_law", "c": 1.0, "s": 2.0},
               "constant": {"kind": "constant", "c": 1.0}}


def _tail(kind, rng):
    c = round(float(rng.uniform(0.1, 2.0)), 6)
    if kind == "zero":
        return {"kind": kind}
    if kind == "constant":
        return {"kind": kind, "value": c if rng.random() < 0.5 else -c}
    if kind == "geometric":
        return {"kind": kind, "coeff": c, "ratio": round(float(rng.uniform(0.3, 0.9)), 6)}
    if kind == "index_power":
        return {"kind": kind, "coeff": c, "exponent": round(float(rng.uniform(-2.0, -0.5)), 6)}
    return {"kind": kind, "base": int(rng.integers(2, 4)), "coeff": c,
            "growth": round(float(rng.uniform(0.3, 1.5)), 6), "start": 1}


def _map(kind, rng, depth, overrides=True, max_d=3):
    law = {"kind": kind}
    if kind == "collapse":
        law["target"] = int(rng.integers(1, 5))
    elif kind == "shift":
        law["k"] = int(rng.integers(1, 4))
    elif kind == "div_ceil":
        law["d"] = int(rng.integers(2, max_d + 1))
    elif kind == "power_index":
        law["e"] = int(rng.integers(2, 4))
    ov = {}
    if overrides:
        for _ in range(int(rng.integers(0, 3))):
            ov[int(rng.integers(1, 11))] = int(rng.integers(1, depth + 1))
    law["overrides"] = ov
    return law


def build(o, seed: int, stream: int):
    import numpy as np

    rng = np.random.default_rng([seed, stream, 64])
    cases = []
    # Warm-up needs every code path once, not a whole rotation.
    for c in range(1 if stream == STREAM_WARMUP else CASES):
        spaces = []
        for law_kind in ("geometric", "power_law", "constant"):
            for depth in (64, 512):
                spaces.append(_space_case(o, rng, law_kind, depth, len(spaces), c))
        witness = _witness(o, rng, spaces)
        cases.append({"spaces": spaces, "order": rng.permutation(len(KINDS)),
                      "witness": witness, "witness_at": int(rng.integers(0, len(KINDS) * 6 + 1))})
    return cases


def _witness(o, rng, spaces):
    """The case's one request that meets the known underflow defect."""
    sp = next(s for s in spaces
              if (s["law"]["kind"], s["depth"]) == UNDERFLOW_WITNESS["space"])
    kind, d = UNDERFLOW_WITNESS["map"]
    p = round(float(rng.uniform(1.5, 3.0)), 6)
    vals = rng.uniform(-2.0, 2.0, sp["depth"])
    mp = _map(kind, rng, sp["depth"])
    mp["d"] = d
    item = {"kind": "fiber_average", "family": "power_abs", "p": p,
            "f": (vals, {"kind": "zero"}), "map": mp, "cut": 2}
    item["F"] = _make_function(o, sp["space"], *item["f"])
    item["T"] = _make_map(o, sp["space"], mp)
    item["young"] = o.PowerAbs(p)
    return {"space": sp, "item": item}


def _space_case(o, rng, law_kind, depth, s, c):
    """The requests on space ``s`` of case ``c``. Tail and Young families
    rotate with the request slot and the space, map laws also with the case,
    so every case issues each family equally often and every rotation meets
    each space with each map law; the seed draws the parameters and the
    values."""
    import numpy as np

    wl = WEIGHT_LAWS[law_kind]
    space = o.CountableSpace(_make_law(o, wl), depth)
    items = []
    for j, kind in enumerate(KINDS):
        p = round(float(rng.uniform(1.5, 3.0)), 6)
        family = ("power_abs", "power_over_p")[(j + s) % 2]
        item = {"kind": kind, "family": family, "p": p}
        tail = _tail(TAILS[(j + s) % len(TAILS)], rng)
        vals = rng.uniform(-2.0, 2.0, depth)
        vals[rng.random(depth) < 0.2] = 0.0
        if kind in ("modular", "luxemburg_norm"):
            item["f"] = (vals, tail)
        elif kind == "domain_membership":
            support = np.zeros(depth)
            m = min(depth, 16)
            support[:m] = np.where(rng.random(m) < 0.5, vals[:m], 0.0)
            item["f"] = (support, {"kind": "zero"})
        else:
            gt = ({"kind": "geometric", "coeff": round(float(rng.uniform(0.1, 2.0)), 6),
                   "ratio": round(float(rng.uniform(0.3, 0.9)), 6)}
                  if rng.random() < 0.5 else {"kind": "zero"})
            item["f"] = (vals, gt)
        if kind == "adjoint_density_index":
            item["map"] = _map(("identity", "pair_swap")[(s + c) % 2], rng, depth, overrides=False)
        elif kind not in ("modular", "luxemburg_norm"):
            # Only the witness meets the known defect (see the module docstring).
            max_d = (2 if kind == "fiber_average"
                     and (law_kind, depth) == UNDERFLOW_WITNESS["space"] else 3)
            item["map"] = _map(MAPS[(j + s + c) % len(MAPS)], rng, depth, max_d=max_d)
        item["cut"] = int(rng.choice([2, 3, 5]))
        item["F"] = _make_function(o, space, *item["f"])
        if "map" in item:
            item["T"] = _make_map(o, space, item["map"])
        item["young"] = (o.PowerAbs(p) if family == "power_abs" else o.PowerOverP(p))
        items.append(item)
    return {"law": wl, "depth": depth, "space": space, "items": items}


def _make_law(o, wl):
    if wl["kind"] == "geometric":
        return o.GeometricWeights(wl["a"], wl["r"])
    if wl["kind"] == "power_law":
        return o.PowerLawWeights(wl["c"], wl["s"])
    return o.ConstantWeights(wl["c"])


def _make_function(o, space, vals, tail):
    k = tail["kind"]
    law = {"zero": lambda: o.ZeroTail(),
           "constant": lambda: o.ConstantTail(tail["value"]),
           "geometric": lambda: o.GeometricTail(tail["coeff"], tail["ratio"]),
           "index_power": lambda: o.IndexPowerTail(tail["coeff"], tail["exponent"]),
           "sparse_geometric": lambda: o.SparseGeometricTail(tail["base"], tail["coeff"],
                                                              tail["growth"], tail["start"]),
           }[k]()
    return o.SimpleFunction(space, tuple(float(v) for v in vals), law)


def _make_map(o, space, m):
    law = {"identity": lambda: o.IdentityLaw(),
           "collapse": lambda: o.CollapseLaw(m["target"]),
           "shift": lambda: o.ShiftLaw(m["k"]),
           "div_ceil": lambda: o.measure.DivCeilLaw(m["d"]),
           "power_index": lambda: o.PowerIndexLaw(m["e"]),
           "pair_swap": lambda: o.PairSwapLaw()}[m["kind"]]()
    return o.Transformation.from_law(space, law, m["overrides"])


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


class Ref:
    """Closed-form and enumerated references for one space."""

    def __init__(self, wl, depth):
        self.wl, self.m = wl, depth

    def w(self, n: int) -> float:
        wl = self.wl
        if wl["kind"] == "geometric":
            return wl["a"] * wl["r"] ** n
        if wl["kind"] == "power_law":
            return wl["c"] * float(n) ** (-wl["s"])
        return wl["c"]

    def log_w(self, n: int) -> float:
        """log w(n), finite where w(n) itself underflows to 0.0."""
        wl = self.wl
        if wl["kind"] == "geometric":
            return math.log(wl["a"]) + n * math.log(wl["r"])
        if wl["kind"] == "power_law":
            return math.log(wl["c"]) - wl["s"] * math.log(n)
        return math.log(wl["c"])

    def mean_over(self, fib, value) -> float:
        """The w-weighted mean of value(x) over a finite fiber, with the
        weights scaled by the largest, so that fibers whose weights underflow
        still have a mean."""
        logs = [self.log_w(x) for x in fib]
        top = max(logs)
        scaled = [math.exp(lw - top) for lw in logs]
        return math.fsum(value(x) * e for x, e in zip(fib, scaled)) / math.fsum(scaled)

    def zero_mass_fiber(self, mp) -> bool:
        """Whether some nonempty prefix fiber has float weights summing to 0.0."""
        for y in range(1, self.m + 1):
            fib = self.fiber(mp, y)
            if fib and not isinstance(fib, tuple) and math.fsum(self.w(x) for x in fib) == 0.0:
                return True
        return False

    def total_mass(self) -> float:
        import mpmath

        wl = self.wl
        if wl["kind"] == "geometric":
            return wl["a"] * wl["r"] / (1.0 - wl["r"])
        if wl["kind"] == "power_law":
            return wl["c"] * float(mpmath.zeta(wl["s"]))
        return INF

    # -- function values and power sums ------------------------------------

    @staticmethod
    def tail_value(t, n: int) -> float:
        k = t["kind"]
        if k == "zero":
            return 0.0
        if k == "constant":
            return t["value"]
        if k == "geometric":
            return t["coeff"] * t["ratio"] ** n
        if k == "index_power":
            return t["coeff"] * float(n) ** t["exponent"]
        b, j = t["base"], 0
        while b ** j < n:
            j += 1
        return t["coeff"] * t["growth"] ** j if b ** j == n and j >= t["start"] else 0.0

    def value(self, f, n: int) -> float:
        vals, t = f
        return float(vals[n - 1]) if n <= self.m else self.tail_value(t, n)

    def tail_power_sum(self, t, p: float) -> float:
        """sum over n > depth of |value(n)|**p * w(n), in closed form."""
        import mpmath

        wl, m, k = self.wl, self.m, t["kind"]
        law = wl["kind"]
        if k == "zero":
            return 0.0
        if k == "constant":
            c = abs(t["value"]) ** p
            if law == "geometric":
                return c * wl["a"] * wl["r"] ** (m + 1) / (1.0 - wl["r"])
            if law == "power_law":
                return c * wl["c"] * float(mpmath.zeta(wl["s"], m + 1))
            return INF
        if k == "geometric":
            c, z = abs(t["coeff"]) ** p, t["ratio"] ** p
            if law == "geometric":
                z *= wl["r"]
                return c * wl["a"] * z ** (m + 1) / (1.0 - z)
            if law == "power_law":
                return c * wl["c"] * float(z ** (m + 1) * mpmath.lerchphi(z, wl["s"], m + 1))
            return c * wl["c"] * z ** (m + 1) / (1.0 - z)
        if k == "index_power":
            c, e = abs(t["coeff"]) ** p, t["exponent"] * p
            if law == "geometric":
                r = wl["r"]
                return c * wl["a"] * float(r ** (m + 1) * mpmath.lerchphi(r, -e, m + 1))
            s = wl["s"] if law == "power_law" else 0.0
            if s - e <= 1.0:
                return INF
            return c * wl["c"] * float(mpmath.zeta(s - e, m + 1))
        # sparse geometric: terms on n = base**j, j >= start, n > depth
        b, g, c = t["base"], t["growth"], abs(t["coeff"]) ** p
        j = t["start"]
        while b ** j <= m:
            j += 1
        term0 = c * g ** (p * j) * self.w(b ** j)
        if law == "geometric":
            total = 0.0
            for jj in range(j, j + 200):
                term = c * g ** (p * jj) * self.w(b ** jj)
                total += term
                if term <= 1e-18 * total or term == 0.0:
                    return total
            return INF
        ratio = g ** p * (float(b) ** (-wl["s"]) if law == "power_law" else 1.0)
        return INF if ratio >= 1.0 else term0 / (1.0 - ratio)

    def power_sum(self, f, p: float) -> float:
        vals, t = f
        prefix = math.fsum(abs(float(v)) ** p * self.w(n) for n, v in enumerate(vals, 1))
        return prefix + self.tail_power_sum(t, p)

    # -- fibers ------------------------------------------------------------

    @staticmethod
    def apply(mp, x: int) -> int:
        ov = mp["overrides"]
        if x in ov:
            return ov[x]
        k = mp["kind"]
        if k == "identity":
            return x
        if k == "collapse":
            return mp["target"]
        if k == "shift":
            return x + mp["k"]
        if k == "div_ceil":
            return -(-x // mp["d"])
        if k == "power_index":
            return x ** mp["e"]
        return x + 1 if x % 2 == 1 else x - 1

    def fiber(self, mp, y: int):
        """The preimage of y: a sorted list, or ("all_except", diverted)."""
        k = mp["kind"]
        if k == "collapse" and y == mp["target"]:
            return ("all_except", sorted(x for x, v in mp["overrides"].items() if v != y))
        cand = set(mp["overrides"])
        if k == "identity":
            cand.add(y)
        elif k == "shift":
            cand.add(y - mp["k"])
        elif k == "div_ceil":
            cand.update(range(mp["d"] * (y - 1) + 1, mp["d"] * y + 1))
        elif k == "power_index":
            r = round(y ** (1.0 / mp["e"]))
            cand.update((r - 1, r, r + 1))
        elif k == "pair_swap":
            cand.update((y - 1, y + 1))
        return sorted(x for x in cand if x >= 1 and self.apply(mp, x) == y)

    def h(self, mp, y: int) -> float:
        fib = self.fiber(mp, y)
        if isinstance(fib, tuple):
            tm = self.total_mass()
            return INF if tm == INF else (tm - math.fsum(self.w(x) for x in fib[1])) / self.w(y)
        return math.fsum(self.w(x) for x in fib) / self.w(y)

    def densely_defined(self, mp) -> bool:
        return not (mp["kind"] == "collapse" and self.total_mass() == INF)

    def bounded(self, mp) -> bool:
        # Only the index-power law has h unbounded, and only on decaying weights.
        return not (mp["kind"] == "power_index" and self.wl["kind"] != "constant")


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


def case_ops(o, case):
    ops = []
    for sp in case["spaces"]:
        ref = Ref(sp["law"], sp["depth"])
        items = sp["items"]
        ops.extend(_op(o, ref, items[j]) for j in case["order"])
    w = case["witness"]
    ops.insert(case["witness_at"], _op(o, Ref(w["space"]["law"], w["space"]["depth"]), w["item"]))
    return ops


def make_cycles(o, cases):
    per_cycle = min(ROTATION, len(cases))

    def cycle(c):
        return [op for i in range(per_cycle)
                for op in case_ops(o, cases[(c * per_cycle + i) % len(cases)])]

    return cycle


def _a(item):
    return 1.0 if item["family"] == "power_abs" else 1.0 / item["p"]


def _conj(item, y: float) -> float:
    p = item["p"]
    q = p / (p - 1.0)
    if item["family"] == "power_abs":
        return (p - 1.0) * (y / p) ** q
    return y ** q / q


def _op(o, ref, item):
    op = _request(o, ref, item)
    if "map" in item:
        mp = item["map"]
        op.known_defect = lambda exc: (isinstance(exc, ZeroDivisionError)
                                       and ref.zero_mass_fiber(mp))
    return op


def _request(o, ref, item):
    kind, young, F = item["kind"], item["young"], item["F"]
    T, mp = item.get("T"), item.get("map")
    p, m = item["p"], ref.m
    unresolved, precond = o.UnresolvedTail, o.PreconditionError

    if kind in ("modular", "luxemburg_norm"):
        def check(out, raised):
            if isinstance(out, unresolved):
                return "inconclusive"
            expect(not raised, f"raised {out!r}")
            s = ref.power_sum(item["f"], p)
            got = out if kind == "modular" else out.value
            want = _a(item) * s if kind == "modular" else (_a(item) * s) ** (1.0 / p)
            if math.isinf(got):
                expect(math.isinf(want), "claims not in the space, reference is finite")
            else:
                expect(rel_close(got, want, 1e-9), f"{got!r} != reference {want!r}")
            return "ok"
        call = ((lambda: o.modular(young, F)) if kind == "modular"
                else (lambda: o.luxemburg_norm(young, F)))
        return Op(kind, call, check, (unresolved,))

    if kind == "radon_nikodym":
        def check(out, raised):
            if isinstance(out, unresolved):
                return "inconclusive"
            expect(not raised, f"raised {out!r}")
            for y in list(range(1, m + 1)) + list(range(m + 1, m + 5)):
                got = out.values[y - 1] if y <= m else out.value(y)
                expect(rel_close(got, ref.h(mp, y), 1e-9), f"h({y}) = {got!r}, reference {ref.h(mp, y)!r}")
            return "ok"
        return Op(kind, lambda: o.radon_nikodym(T), check, (unresolved,))

    if kind == "density_verdict":
        def check(out, raised):
            if isinstance(out, unresolved):
                return "inconclusive"
            expect(not raised, f"raised {out!r}")
            want = ref.densely_defined(mp)
            expect(out.densely_defined == want, f"status {out.status.value}")
            if not want:
                expect(out.witness == mp["target"], f"witness {out.witness!r}")
            return "ok"
        return Op(kind, lambda: o.density_verdict(young, T), check, (unresolved,))

    if kind == "domain_membership":
        def check(out, raised):
            if isinstance(out, unresolved):
                return "inconclusive"
            expect(not raised, f"raised {out!r}")
            vals = item["f"][0]
            want = all(ref.h(mp, y) < INF for y in range(1, m + 1) if vals[y - 1] != 0.0)
            expect(out == want, f"membership {out}, reference {want}")
            return "ok"
        return Op(kind, lambda: o.domain_membership(young, T, F), check, (unresolved,))

    if kind == "fiber_average":
        def check(out, raised):
            if isinstance(out, unresolved):
                return "inconclusive"
            expect(not raised, f"raised {out!r}")
            for y in range(1, m + 1):
                want = _fiber_average(ref, item["f"], mp, y)
                got = out.values[y - 1]
                expect(abs(got - want) <= 1e-9 * max(1.0, abs(want)), f"E g at {y}: {got!r} != {want!r}")
            return "ok"
        return Op(kind, lambda: o.fiber_average(F, T), check, (unresolved,))

    if kind == "truncation_approximants":
        n = item["cut"]

        def check(out, raised):
            if isinstance(out, precond):
                expect(not ref.densely_defined(mp), "refused a densely defined operator")
                return "ok"
            if isinstance(out, unresolved):
                return "inconclusive"
            expect(not raised, f"raised {out!r}")
            expect(ref.densely_defined(mp), "approximated a not densely defined operator")
            f_n, diag = out
            vals = item["f"][0]
            for y in range(1, m + 1):
                want = float(vals[y - 1]) if ref.h(mp, y) < n - 1 else 0.0
                expect(f_n.values[y - 1] == want, f"approximant at {y}")
            expect(diag.in_domain and diag.bound_holds, "approximant diagnostics fail")
            return "ok"
        return Op(kind, lambda: o.truncation_approximants(young, T, F, n), check,
                  (unresolved, precond))

    if kind == "boundedness_verdict":
        def check(out, raised):
            if isinstance(out, precond):
                expect(not ref.densely_defined(mp), "refused a densely defined operator")
                return "ok"
            if isinstance(out, unresolved):
                return "inconclusive"
            expect(not raised, f"raised {out!r}")
            expect(ref.densely_defined(mp), "analysed a not densely defined operator")
            st = o.BoundednessStatus
            if out.status is st.INCONCLUSIVE:
                return "inconclusive"
            if out.status is st.EVERYWHERE_DEFINED_AND_BOUNDED:
                expect(ref.bounded(mp), "claims bounded, h is unbounded")
                sup = max(ref.h(mp, y) for y in range(1, m + 1))
                expect(out.norm_bound >= max(1.0, sup) * (1.0 - 1e-9), "norm bound below sup h")
                return "ok"
            expect(not ref.bounded(mp), "claims unbounded, h is bounded")
            wf = out.witness
            s = ref.power_sum((wf.values, _tail_dict(wf.tail)), p)
            expect(rel_close(out.witness_modular, _a(item) * s, 1e-9), "witness modular differs")
            return "ok"
        return Op(kind, lambda: o.boundedness_verdict(young, T), check, (unresolved, precond))

    if kind == "adjoint_density_index":
        def check(out, raised):
            if isinstance(out, unresolved):
                return "inconclusive"
            expect(not raised, f"raised {out!r}")
            j, verdict, _ = out
            expect(verdict.holds, f"verdict {verdict.status.value}")
            for x in range(1, m + 1):
                fx = ref.apply(mp, x)
                r = ref.w(fx) / ref.w(x)
                want = 1.0 + r * _conj(item, 1.0 / r)
                expect(rel_close(j.values[x - 1], want, 1e-9), f"index at {x}")
            return "ok"
        return Op(kind, lambda: o.adjoint_density_index(young, T), check, (unresolved,))
    raise ValueError(kind)


def _tail_dict(t):
    d = dict(t.descriptor())
    d["kind"] = d.pop("family")
    return d


def _fiber_average(ref, g, mp, y):
    vals, t = g
    fib = ref.fiber(mp, y)
    if isinstance(fib, tuple):
        tm = ref.total_mass()
        if tm == INF:
            return 0.0
        div = fib[1]
        num = (math.fsum(float(v) * ref.w(n) for n, v in enumerate(vals, 1))
               + math.copysign(ref.tail_power_sum(t, 1.0), t.get("coeff", 1.0))
               - math.fsum(ref.value(g, x) * ref.w(x) for x in div))
        return num / (tm - math.fsum(ref.w(x) for x in div))
    if not fib:
        return 0.0
    return ref.mean_over(fib, lambda x: ref.value(g, x))
