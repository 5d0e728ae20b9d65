"""Shared pieces of the benchmark: the request loop, the percentile rule,
relative comparison, and the environment record."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

# Reported percentiles need at least this many samples beyond them.
MIN_BEYOND = 10

# Seed streams: warm-up and traced inputs never coincide with timed inputs,
# so an input-keyed cache cannot be pre-filled with what is timed.
STREAM_TIMED, STREAM_WARMUP, STREAM_TRACE = 0, 1, 2


def percentile(values, q: float):
    """Nearest-rank q-quantile, or None when fewer than MIN_BEYOND samples lie
    beyond it (so p50 needs 20 samples and p90 needs 100)."""
    n = len(values)
    rank = math.ceil(round(q * n, 9))  # nearest rank, immune to 0.9 * 100 > 90
    if n == 0 or n - rank < MIN_BEYOND:
        return None
    if q == 0.5:
        return statistics.median(values)
    return sorted(values)[max(0, rank - 1)]


def rel_close(a: float, b: float, tol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


class Gate(Exception):
    """A result that disagrees with the benchmark's independent reference."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Gate(what)


@dataclass
class Op:
    """One request: ``call`` runs it through the library; ``check`` receives
    the result (or the exception raised) and returns "ok", "inconclusive" or
    KNOWN_DEFECT, raising on a wrong result. ``documented`` lists exception
    types the library documents for this request. ``known_defect`` tells
    whether any other exception is a known library defect, which counts as a
    failed request; every other exception makes the run incorrect."""

    kind: str
    call: object
    check: object
    documented: tuple = ()
    units: object = None  # operations in one result, when not 1
    known_defect: object = None


# Returned by a check for a result that shows a known library defect.
KNOWN_DEFECT = "known_defect"


@dataclass
class RunResult:
    latencies: list = field(default_factory=list)
    failed: int = 0
    inconclusive: int = 0
    wrong: list = field(default_factory=list)
    known_defects: list = field(default_factory=list)
    busy: float = 0.0
    wall: float = 0.0
    cycles: int = 0
    units: int = 0
    spans: list = field(default_factory=list)  # (start, end) of each request


def run_cycles(make_cycle, seconds=None, cycles=None, tracer=None, min_ops=1,
               res=None, meter=None) -> RunResult:
    """Closed loop with one client: issue each request after the previous
    returns. Runs whole cycles until ``cycles`` more are done, or until the
    time spent inside requests reaches ``seconds`` and at least ``min_ops``
    requests ran; checks run outside the timed part. Passing ``res``
    continues a run at its next cycle. With an active speed.SpeedMeter
    ``meter`` the speed chunks run during a request are not counted in its
    latency.

    A request fails when it raises an undocumented error, shows a known
    defect or fails its check; only the known defects leave the run correct,
    every other failure goes to ``wrong``."""
    res = res or RunResult()
    stop = None if cycles is None else res.cycles + cycles
    clock = time.perf_counter
    t_start = clock()
    while True:
        if stop is not None and res.cycles >= stop:
            break
        if cycles is None and res.busy >= seconds and len(res.latencies) >= min_ops:
            break
        for op in make_cycle(res.cycles):
            if tracer is not None:
                tracer.request = len(res.latencies)
            raised = undocumented = None
            t0 = clock()
            try:
                out = op.call()
            except op.documented as exc:
                out, raised = exc, exc
            except Exception as exc:
                out, undocumented = exc, exc
            t1 = clock()
            dt = t1 - t0
            if meter is not None:
                dt -= meter.busy(t0, t1)
            res.spans.append((t0, t1))
            units = op.units(out) if (op.units and raised is None and undocumented is None) else 1
            res.latencies.append(dt)
            res.busy += dt
            res.units += units
            if undocumented is not None:
                res.failed += units
                what = f"{op.kind}: {type(out).__name__}: {out}"
                if op.known_defect is not None and op.known_defect(out):
                    res.known_defects.append(what)
                else:
                    res.wrong.append("undocumented error " + what)
                continue
            try:
                status = op.check(out, raised is not None)
            except Exception as exc:  # a Gate, or a result the check cannot read
                res.failed += units
                res.wrong.append(f"{op.kind}: {type(exc).__name__}: {exc}")
                continue
            if status == KNOWN_DEFECT:
                res.failed += units
                res.known_defects.append(f"{op.kind}: {out!r}"[:300])
            elif status == "inconclusive":
                res.inconclusive += 1
        res.cycles += 1
    res.wall += clock() - t_start
    return res


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None  # a checkout without .git is identified by src_sha256_16 alone
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": commit,
        "src_sha256_16": source_digest(root),
        "load": ("closed loop, one client, one process, no worker pool; cli commands and "
                 "set-up children run one at a time on one CPU shared with the benchmark"),
    }
