"""In-memory span tracer that wraps the public functions of the orlicz layers.

The tracer lives in the benchmark, not in the library: it rebinds every
``orlicz.*`` module-namespace entry that *is* one of a layer's public
function objects (``from .measure import radon_nikodym`` makes one binding per
importing module), wraps three public methods on their classes, and restores
every original binding on ``restore()``.

A span is ``[name, start, end, parent, request]``; ``parent`` is the index of
the enclosing span or -1, ``request`` the id of the benchmark request that
caused it. Self time is a span's duration minus the union of its children's
intervals.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# Layer modules whose public functions are wrapped, in import order.
LAYERS = ("young", "measure", "tails", "norms", "compop", "lp", "adjoint",
          "suite", "scenario", "cli")
PROBES = ("delta2_probe", "delta_prime_probe", "nabla_prime_probe",
          "n_function_probe", "sum_bound_constants")


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus the union of its children's
    intervals, each child clipped to the parent's interval."""
    children: dict[int, list] = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        kids = [(max(lo, start), min(hi, end)) for lo, hi in children.get(i, ())]
        covered = union_length([(lo, hi) for lo, hi in kids if hi > lo])
        out.append((end - start) - covered)
    return out


def _probe_key(name, args, kwargs):
    phi = args[0] if args else kwargs.get("phi")
    rest = tuple(args[1:]) + tuple(sorted(kwargs.items()))
    return (name, phi.label(), repr(rest))


class Tracer:
    """Wraps the layers of an imported ``orlicz`` package while installed."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.probe_keys: list[tuple] = []
        self.unresolved = 0
        self.request = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn, key_fn=None):
        spans, stack = self.spans, self._stack
        unresolved_cls = sys.modules[self.package.__name__ + ".tails"].UnresolvedTail
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key_fn is not None:
                self.probe_keys.append(key_fn(name, args, kwargs))
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.request])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except unresolved_cls as exc:
                # One exception crosses several wrapped calls; count it once.
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    self.unresolved += 1
                raise
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == prefix or k.startswith(prefix + "."))]

    def public_functions(self):
        """(layer, name, function) for every public function a layer defines."""
        out = []
        for layer in LAYERS:
            mod = sys.modules.get(f"{self.package.__name__}.{layer}")
            if mod is None:
                continue
            for name, obj in sorted(vars(mod).items()):
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    out.append((layer, name, obj))
        return out

    def install(self) -> None:
        """Rebind every namespace entry that is a wrapped original."""
        modules = self._modules()
        for layer, name, fn in self.public_functions():
            key_fn = _probe_key if (layer == "young" and name in PROBES) else None
            wrapper = self._span_wrapper(f"{layer}.{name}", fn, key_fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        measure = sys.modules[self.package.__name__ + ".measure"]
        tails = sys.modules[self.package.__name__ + ".tails"]
        for meth in ("preimage", "fiber_measure"):
            orig = vars(measure.Transformation)[meth]
            self._restore.append((measure.Transformation, meth, orig))
            setattr(measure.Transformation, meth, self._span_wrapper(f"measure.{meth}", orig))
        # value_at runs once per tail atom, so it is counted rather than spanned.
        for cls in [tails.TailLaw, *_subclasses(tails.TailLaw)]:
            if "value_at" in vars(cls):
                orig = vars(cls)["value_at"]
                self._restore.append((cls, "value_at", orig))
                setattr(cls, "value_at", self._count_wrapper("tails.value_at", orig))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans compactly: names as indexes into ``names``, times
        as integer microseconds from the first span's start."""
        import json

        names: dict[str, int] = {}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[names.setdefault(n, len(names)), round((a - t0) * 1e6), round((b - t0) * 1e6),
                 parent, req] for n, a, b, parent, req in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_us", "end_us", "parent", "request"],
                       "names": list(names), "spans": rows, "summary": self.summary()},
                      fh, separators=(",", ":"))

    # -- aggregation --------------------------------------------------------

    def summary(self) -> dict:
        """Per-span-name call counts and self time in milliseconds, plus the
        number of modular_bounds spans nested inside a luxemburg_norm span."""
        selfs = self_times(self.spans)
        calls: dict[str, int] = {}
        self_ms: dict[str, float] = {}
        lux_idx = set()
        nested_modular = 0
        for i, (s, st) in enumerate(zip(self.spans, selfs)):
            name = s[0]
            calls[name] = calls.get(name, 0) + 1
            self_ms[name] = self_ms.get(name, 0.0) + st * 1e3
            if name == "norms.luxemburg_norm":
                lux_idx.add(i)
            elif name == "norms.modular_bounds":
                p = s[3]
                while p >= 0:
                    if p in lux_idx:
                        nested_modular += 1
                        break
                    p = self.spans[p][3]
        seen = set()
        repeats = 0
        for k in self.probe_keys:
            if k in seen:
                repeats += 1
            seen.add(k)
        return {"calls": calls, "self_ms": self_ms, "counts": dict(self.counts),
                "modular_in_luxemburg": nested_modular,
                "probe_calls": len(self.probe_keys), "probe_repeats": repeats,
                "unresolved": self.unresolved}


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
