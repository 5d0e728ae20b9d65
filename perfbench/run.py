"""Benchmark of the orlicz library: four seeded workloads through its public API.

Run from the root of a source checkout (the library is imported from ./src):

    python3 perfbench/run.py --workload finite_large --seed 1 --seconds 20 --trace 0

Workloads: verify, finite_large, countable_tails, cli (see each wl_*.py for
why it exists). Every request is a closed loop with one client in one
process. With ``--trace 0`` the requests run with tracing off and the run
reports the end-to-end metrics. Set-up time, throughput and latencies are
reported both as measured and at reference speed (speed.SpeedMeter); the
summary line carries the latter, which swings in the CPU speed of a shared
host move far less. With ``--trace 1`` a fixed number of cycles of requests
runs twice, untraced and traced, and the run reports the per-layer metrics
from their spans, which it also writes to ``.perfbench_out/``.

Every result is checked against a reference the benchmark computes itself or
recorded at the seed commit. A wrong result or an error that is not a
known library defect makes the run incorrect; known defects count as
failed requests. The next-to-last stdout line is the full report
(``perfbench {...}``): every metric by name and unit, including those that do
not apply to the workload, and the environment. The last line is the summary
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import speed  # noqa: E402
import wl_cli  # noqa: E402
import wl_countable  # noqa: E402
import wl_finite  # noqa: E402
import wl_verify  # noqa: E402
from tracer import PROBES, Tracer  # noqa: E402

WORKLOADS = {"verify": wl_verify, "finite_large": wl_finite,
             "countable_tails": wl_countable, "cli": wl_cli}
SETUP_REPEATS = 3
# Samples needed so the reported percentiles have 10 samples beyond them.
MIN_SAMPLES = {"verify": 20, "finite_large": 100, "countable_tails": 100, "cli": 20}
# Cycles the per-layer figures are taken over: a fixed amount of work, so
# that a faster commit does not show more calls or layer time.
TRACE_CYCLES = {"verify": 2, "finite_large": 5, "countable_tails": 1, "cli": 8}

END_TO_END = {  # name -> unit; the summary line carries every one of these
    "setup_s": "s", "ops_per_s_ref": "1/s", "latency_p50_ms_ref": "ms", "peak_rss_mb": "MB"}
REPORT_ONLY = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
               "latency_p90_ms_ref": "ms", "setup_s_raw": "s", "speed_chunk_median_us": "us",
               "failed_frac": "ratio", "inconclusive_frac": "ratio"}
PER_LAYER = {
    "young.probe.calls": "count", "young.probe.self_ms": "ms", "young.probe.repeat_frac": "ratio",
    "young.conjugate.calls": "count",
    "measure.radon_nikodym.calls": "count", "measure.radon_nikodym.self_ms": "ms",
    "measure.preimage.calls": "count", "measure.preimage.self_ms": "ms",
    "measure.fiber_average.self_ms": "ms",
    "norms.modular_bounds.calls": "count", "norms.modular_bounds.self_ms": "ms",
    "norms.luxemburg_norm.calls": "count", "norms.luxemburg_norm.self_ms": "ms",
    "norms.modular_per_luxemburg": "ratio", "norms.orlicz_norm.calls": "count",
    "tails.value_at.calls": "count", "tails.unresolved.count": "count",
    "compop.calls": "count", "compop.self_ms": "ms", "adjoint.calls": "count",
    "adjoint.self_ms": "ms", "cli.interpreter_ms": "ms", "cli.import_ms": "ms",
    "trace.overhead_frac": "ratio",
}
# Layer times that are zero where the layer does no work; reported in the full
# report for the workloads where they apply.
PER_LAYER_REPORT_ONLY = {
    "measure.conditional_expectation.self_ms": "ms", "norms.orlicz_norm.self_ms": "ms",
    "lp.self_ms": "ms", "suite.self_ms": "ms", "scenario.load_ms": "ms", "cli.command_ms": "ms",
}


def load_orlicz(root: Path):
    src = root / "src"
    if not (src / "orlicz" / "__init__.py").is_file():
        print(f"perfbench: no orlicz sources under {src}; run from a source checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import orlicz

    if Path(orlicz.__file__).resolve().parent != (src / "orlicz").resolve():
        print(f"perfbench: imported orlicz from {orlicz.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return orlicz


def setup_probe(root: Path, workload: str, seed: int) -> None:
    """Child process: import orlicz and build the timed inputs; print the
    perf_counter readings (a system-wide clock) before and after."""
    t0 = time.perf_counter()
    o = load_orlicz(root)
    WORKLOADS[workload].build(o, seed, common.STREAM_TIMED)
    print(t0, time.perf_counter())


def setup_seconds(root: Path, workload: str, seed: int) -> tuple[float, float]:
    """Medians over fresh processes of the time to import orlicz and build the
    timed inputs, less the speed chunks this process ran meanwhile on the
    same CPU: as measured, and at reference speed."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    env = wl_cli.child_env(root)
    raw, ref = [], []
    with one_cpu(), speed.SpeedMeter() as meter:
        for _ in range(SETUP_REPEATS):
            t0, t1 = map(float, wl_cli.run_checked(argv, root, env).split())
            raw.append(t1 - t0 - meter.busy(t0, t1))
            ref.append(raw[-1] * meter.factor(t0, t1))
    return statistics.median(raw), statistics.median(ref)


@contextlib.contextmanager
def one_cpu():
    """Run this process, and the children it starts meanwhile, on one CPU,
    so that the speed chunks sample the CPU the children run on."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def make_cycles(o, name, inputs, root=None, rss=None):
    """The workload's requests; cli commands run as subprocesses in ``root``
    when it is given, else in this process."""
    if name == "cli":
        return wl_cli.make_cycles(o, inputs, root, rss)
    return WORKLOADS[name].make_cycles(o, inputs)


def warm_up(o, name: str, seed: int) -> None:
    """One pass over inputs from the warm-up seed stream, never the timed ones;
    the cli commands run in-process here."""
    inputs = WORKLOADS[name].build(o, seed, common.STREAM_WARMUP)
    common.run_cycles(make_cycles(o, name, inputs), cycles=1)


def timed_run(o, name, root, inputs, seconds):
    """The timed requests, tracing off; enough of them for the percentiles.
    Returns the run and its peak RSS in MB: this process's, or on cli the
    largest of the command subprocesses'."""
    rss = []
    with one_cpu() if name == "cli" else contextlib.nullcontext(), speed.SpeedMeter() as meter:
        res = common.run_cycles(make_cycles(o, name, inputs, root, rss), seconds=seconds,
                                min_ops=MIN_SAMPLES[name], meter=meter)
    return res, meter, max(rss) if name == "cli" else common.peak_rss_mb()


def end_to_end(name, res, meter, peak_rss, setup) -> dict:
    values = {"setup_s_raw": setup[0], "setup_s": setup[1], "peak_rss_mb": peak_rss,
              "speed_chunk_median_us": statistics.median(meter.times) * 1e6,
              "failed_frac": res.failed / res.units,
              "inconclusive_frac": res.inconclusive / res.units}
    scaled = [dt * meter.factor(t0, t1) for dt, (t0, t1) in zip(res.latencies, res.spans)]
    for suffix, lat in (("", res.latencies), ("_ref", scaled)):
        p50, p90 = common.percentile(lat, 0.5), common.percentile(lat, 0.9)
        values["ops_per_s" + suffix] = res.units / sum(lat)
        values["latency_p50_ms" + suffix] = None if p50 is None else p50 * 1e3
        values["latency_p90_ms" + suffix] = (None if p90 is None or name in ("verify", "cli")
                                             else p90 * 1e3)
    return values


def per_layer(summary: dict) -> dict:
    calls, self_ms = summary["calls"], summary["self_ms"]

    def c(prefix):
        return sum(v for k, v in calls.items() if k == prefix or k.startswith(prefix + "."))

    def t(prefix):
        return sum(v for k, v in self_ms.items() if k == prefix or k.startswith(prefix + "."))

    lux = calls.get("norms.luxemburg_norm", 0)
    return {
        "young.probe.calls": sum(calls.get(f"young.{p}", 0) for p in PROBES),
        "young.probe.self_ms": sum(self_ms.get(f"young.{p}", 0.0) for p in PROBES),
        "young.probe.repeat_frac": (summary["probe_repeats"] / summary["probe_calls"]
                                    if summary["probe_calls"] else None),
        "young.conjugate.calls": calls.get("young.conjugate", 0),
        "measure.radon_nikodym.calls": calls.get("measure.radon_nikodym", 0),
        "measure.radon_nikodym.self_ms": self_ms.get("measure.radon_nikodym", 0.0),
        "measure.preimage.calls": calls.get("measure.preimage", 0),
        "measure.preimage.self_ms": self_ms.get("measure.preimage", 0.0),
        "measure.fiber_average.self_ms": self_ms.get("measure.fiber_average", 0.0),
        "measure.conditional_expectation.self_ms": self_ms.get("measure.conditional_expectation", 0.0),
        "norms.modular_bounds.calls": calls.get("norms.modular_bounds", 0),
        "norms.modular_bounds.self_ms": self_ms.get("norms.modular_bounds", 0.0),
        "norms.luxemburg_norm.calls": lux,
        "norms.luxemburg_norm.self_ms": self_ms.get("norms.luxemburg_norm", 0.0),
        "norms.modular_per_luxemburg": summary["modular_in_luxemburg"] / lux if lux else None,
        "norms.orlicz_norm.calls": calls.get("norms.orlicz_norm", 0),
        "norms.orlicz_norm.self_ms": self_ms.get("norms.orlicz_norm", 0.0),
        "tails.value_at.calls": summary["counts"].get("tails.value_at", 0),
        "tails.unresolved.count": summary["unresolved"],
        "compop.calls": c("compop"), "compop.self_ms": t("compop"),
        "adjoint.calls": c("adjoint"), "adjoint.self_ms": t("adjoint"),
        "lp.self_ms": t("lp"), "suite.self_ms": t("suite"),
    }


def scenario_load_ms(o, root: Path) -> float:
    times = []
    for path in sorted((root / "scenarios").glob("*.json")):
        for _ in range(3):
            t0 = time.perf_counter()
            o.load_scenario(str(path))
            times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def traced_run(o, name, root, seed, seconds):
    """The per-layer figures come from TRACE_CYCLES[name] traced cycles of the
    trace stream, the same number on every commit, so that counts and self
    times describe a fixed amount of work. Each cycle also runs untraced, in
    alternating order, on the same inputs. More such pairs, whose spans are
    dropped, run while another one fits in ``seconds`` of requests; all pairs
    give trace.overhead_frac. The cli commands run in-process here so that
    they can be traced."""
    env = wl_cli.child_env(root)
    layer = {
        "cli.interpreter_ms": wl_cli.median_child_ms([sys.executable, "-c", "pass"], root, env),
        "cli.import_ms": wl_cli.median_child_ms(wl_cli.import_probe_argv(), root, env, inner=True),
    }
    warm_up(o, name, seed)
    make_cycle = make_cycles(o, name, WORKLOADS[name].build(o, seed, common.STREAM_TRACE))
    runs = {False: None, True: None}  # untraced, traced

    def pair(i, tracer):
        for use_tracer in ((False, True) if i % 2 == 0 else (True, False)):
            if use_tracer:
                with tracer:
                    runs[True] = common.run_cycles(make_cycle, cycles=1, tracer=tracer,
                                                   res=runs[True])
            else:
                runs[False] = common.run_cycles(make_cycle, cycles=1, res=runs[False])

    tracer = Tracer(o)
    for i in range(TRACE_CYCLES[name]):
        pair(i, tracer)
    layer.update(per_layer(tracer.summary()))
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"trace_{name}_{seed}.json")
    i = TRACE_CYCLES[name]
    per_pair = (runs[False].busy + runs[True].busy) / i
    while runs[False].busy + runs[True].busy + per_pair <= seconds:
        pair(i, Tracer(o))
        i += 1
    plain, traced = runs[False], runs[True]
    for k in PER_LAYER_REPORT_ONLY:
        if not layer.get(k):
            layer[k] = None  # the layer did no work on this workload
    layer["trace.overhead_frac"] = (traced.busy - plain.busy) / plain.busy
    if name == "cli":
        layer["scenario.load_ms"] = scenario_load_ms(o, root)
        layer["cli.command_ms"] = statistics.median(plain.latencies) * 1e3
    return plain, traced, layer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    root = Path.cwd()
    name = args.workload
    if args.setup_probe:
        setup_probe(root, name, args.seed)
        return 0
    o = load_orlicz(root)
    env = common.environment(root)
    report = {"workload": name, "why": WORKLOADS[name].WHY, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "environment": env,
              "waiting": "none: single-threaded, no queues or locks, so no layer waits"}
    if args.trace == 0:
        setup = setup_seconds(root, name, args.seed)
        warm_up(o, name, args.seed)
        res, meter, peak_rss = timed_run(o, name, root,
                                         WORKLOADS[name].build(o, args.seed, common.STREAM_TIMED),
                                         seconds=args.seconds)
        values = end_to_end(name, res, meter, peak_rss, setup)
        units = {**END_TO_END, **REPORT_ONLY}
        summary_names = END_TO_END
        runs = [res]
    else:
        plain, traced, values = traced_run(o, name, root, args.seed, args.seconds)
        units = {**PER_LAYER, **PER_LAYER_REPORT_ONLY}
        summary_names = PER_LAYER
        runs = [plain, traced]
    attempted = sum(r.units for r in runs)
    failed = sum(r.failed for r in runs)
    wrong = [w for r in runs for w in r.wrong]
    report.update({
        "samples": [{"requests": len(r.latencies), "operations": r.units, "cycles": r.cycles,
                     "busy_s": r.busy, "wall_s": r.wall} for r in runs],
        "metrics": {k: {"value": values.get(k), "unit": u,
                        **({"note": "does not apply to this workload"}
                           if values.get(k) is None else {})}
                    for k, u in units.items()},
        "wrong": wrong[:20],
        "known_defects": sorted({e for r in runs for e in r.known_defects})[:20],
    })
    if args.trace == 1:
        report["layer_cycles"] = TRACE_CYCLES[name]
    print("perfbench " + json.dumps(report, sort_keys=True))
    missing = [k for k in summary_names if values.get(k) is None]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": values[k], "unit": u}
                                  for k, u in summary_names.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
