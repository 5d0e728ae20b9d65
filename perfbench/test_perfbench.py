"""Tests of the benchmark's own arithmetic and of the tracer's rebinding.

Run from the repository root:  python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import common  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer, self_times, union_length  # noqa: E402
from wl_cli import parse_text_report, same_report  # noqa: E402


def span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 2), (1, 3)]) == 3.0
    assert union_length([(1, 3), (0, 5), (4, 6)]) == 6.0


def test_self_time_nested_children():
    spans = [span("a", 0.0, 10.0, -1), span("b", 1.0, 4.0, 0), span("c", 2.0, 3.0, 1),
             span("d", 5.0, 7.0, 0)]
    # a loses its direct children b and d; b loses c; grandchildren count once.
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_overlapping_children_counted_once():
    spans = [span("a", 0.0, 10.0, -1), span("b", 1.0, 6.0, 0), span("c", 4.0, 8.0, 0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_self_time_clips_children_to_parent():
    spans = [span("a", 0.0, 4.0, -1), span("b", 3.0, 9.0, 0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_percentile_needs_ten_samples_beyond():
    assert common.percentile(list(range(19)), 0.5) is None
    assert common.percentile(list(range(20)), 0.5) == pytest.approx(9.5)
    assert common.percentile(list(range(99)), 0.9) is None
    values = list(range(1, 101))
    assert common.percentile(values, 0.9) == 90
    assert sum(v > common.percentile(values, 0.9) for v in values) == 10


def test_run_cycles_separates_known_defects_from_wrong_results():
    def check(out, raised):
        if raised:
            return "inconclusive"
        if out == "defect":
            return common.KNOWN_DEFECT
        common.expect(out.upper() == "OK", f"got {out!r}")
        return "ok"

    def op(call, **kw):
        return common.Op("k", call, check, **kw)

    def boom(exc):
        def call():
            raise exc
        return call

    known = lambda exc: isinstance(exc, ZeroDivisionError)  # noqa: E731
    ops = [op(lambda: "ok"), op(lambda: "defect"), op(lambda: "bad"),
           op(lambda: None),  # the check cannot read the result
           op(boom(ZeroDivisionError()), known_defect=known),
           op(boom(KeyError("x")), known_defect=known),
           op(boom(ValueError()), documented=(ValueError,))]
    res = common.run_cycles(lambda c: ops, cycles=2)
    assert res.units == len(res.latencies) == 14
    assert res.failed == 10 and res.inconclusive == 2
    assert len(res.known_defects) == 4 and len(res.wrong) == 6
    assert sum("KeyError" in w for w in res.wrong) == 2
    assert sum("AttributeError" in w for w in res.wrong) == 2


def test_speed_meter_window_and_busy_time():
    ref = speed.REF_CHUNK_S
    meter = speed.SpeedMeter()
    # Chunks at 0.0-0.3 s took twice the reference time, the one at 1.0 s took
    # the reference time: a request in 0.1-0.2 s ran at half speed.
    meter.starts = [0.0, 0.1, 0.15, 0.3, 1.0]
    meter.times = [2 * ref, 2 * ref, 2 * ref, 2 * ref, ref]
    assert meter.factor(0.1, 0.2) == pytest.approx(0.5)
    assert meter.factor(1.0, 1.05) == pytest.approx(1.0)
    assert meter.busy(0.1, 0.3) == pytest.approx(4 * ref)


def test_speed_meter_chunks_inside_requests_are_not_latency():
    import time

    def sleep_then(out):
        def call():
            time.sleep(0.05)
            return out
        return call

    ops = [common.Op("k", sleep_then(1), lambda out, raised: "ok")]
    with speed.SpeedMeter() as meter:
        res = common.run_cycles(lambda c: ops, cycles=4, meter=meter)
    assert len(meter.times) >= 4 and all(t > 0 for t in meter.times)
    assert meter.starts == sorted(meter.starts)
    walls = [t1 - t0 for t0, t1 in res.spans]
    assert all(dt < wall for dt, wall in zip(res.latencies, walls))
    assert all(meter.factor(t0, t1) > 0 for t0, t1 in res.spans)


def test_countable_underflow_defect_only_in_the_witness():
    """Only the one witness request per case may meet the known defect, so
    failed/attempted does not depend on the seed or on the run's length."""
    import orlicz
    import wl_countable

    cases = wl_countable.build(orlicz, 3, common.STREAM_TIMED)
    for case in cases[:wl_countable.ROTATION]:
        for i, op in enumerate(wl_countable.case_ops(orlicz, case)):
            if op.kind == "fiber_average":
                try:
                    op.call()
                except ZeroDivisionError as exc:
                    assert i == case["witness_at"] and op.known_defect(exc)


def test_tracer_rebinds_every_binding_and_restores():
    import orlicz
    from orlicz import adjoint, compop, measure, suite, young

    before = {name: [(m, a) for m in _modules() for a, v in vars(m).items() if v is fn]
              for name, fn in (("delta2_probe", young.delta2_probe),
                               ("radon_nikodym", measure.radon_nikodym))}
    assert len(before["delta2_probe"]) >= 3 and len(before["radon_nikodym"]) >= 6
    originals = (young.delta2_probe, measure.radon_nikodym,
                 measure.Transformation.preimage, orlicz.tails.GeometricTail.value_at)
    tracer = Tracer(orlicz)
    with tracer:
        for name, bindings in before.items():
            wrapped = {getattr(m, a) for m, a in bindings}
            assert len(wrapped) == 1 and wrapped.pop() not in originals
        assert adjoint.delta2_probe is young.delta2_probe is orlicz.delta2_probe
        space = orlicz.FiniteSpace(("a", "b"), (1.0, 2.0))
        phi = orlicz.Transformation(space, targets=("a", "a"))
        compop.density_verdict(orlicz.PowerAbs(2.0), phi)
        suite.radon_nikodym(phi)
    names = {s[0] for s in tracer.spans}
    assert {"compop.density_verdict", "measure.radon_nikodym", "measure.preimage",
            "measure.fiber_measure"} <= names
    first_rn = next(s for s in tracer.spans if s[0] == "measure.radon_nikodym")
    assert tracer.spans[first_rn[3]][0] == "compop.density_verdict"
    for name, bindings in before.items():
        for m, a in bindings:
            assert getattr(m, a) is (young.delta2_probe if name == "delta2_probe"
                                     else measure.radon_nikodym)
    assert (young.delta2_probe, measure.radon_nikodym, measure.Transformation.preimage,
            orlicz.tails.GeometricTail.value_at) == originals


def test_tracer_counts_value_at_and_probe_repeats():
    import orlicz

    tracer = Tracer(orlicz)
    with tracer:
        orlicz.GeometricTail(1.0, 0.5).value_at(3)
        for _ in range(3):
            orlicz.delta2_probe(orlicz.PowerAbs(2.0), probe_range=(1.0, 10.0))
    s = tracer.summary()
    assert s["counts"]["tails.value_at"] == 1
    assert s["probe_calls"] == 3 and s["probe_repeats"] == 2


def test_report_comparison():
    same_report({"a": 1.0, "timestamp": "x", "b": ["s", True]},
                {"a": 1.0 + 1e-12, "timestamp": "y", "b": ["s", True]})
    for got in ({"a": 1.1, "b": ["s", True]}, {"a": 1.0, "b": ["t", True]},
                {"a": 1.0, "b": ["s", True], "c": 0}):
        with pytest.raises(common.Gate):
            same_report(got, {"a": 1.0, "b": ["s", True]})
    assert parse_text_report("x.y: 2\nz: ok\ntimestamp: now\n") == {"x.y": 2.0, "z": "ok"}


def _modules():
    return [m for k, m in sys.modules.items() if k == "orlicz" or k.startswith("orlicz.")]
