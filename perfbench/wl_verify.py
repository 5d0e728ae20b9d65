"""verify: repeated verify_suite(seed, count) calls, as ``orlicz verify`` runs.

Why: the suite's random finite instances have 2-50 atoms, so the work is
per-call overhead on tiny spaces. The growth probes in ``young``, the fiber
and preimage scans in ``measure`` and the Luxemburg search in ``norms`` share
the time; a probe memo or a cheaper Luxemburg search shows here, and so does
the cost of a numpy-per-call rewrite on tiny spaces.

One operation is one CheckResult. Each call's total_checks must equal the
count recorded at the seed commit for that (suite seed, count), and no check
may fail; the totals do not depend on the per-process hash salt that seeds
``suite.measure_checks``' subset sampler.
"""

from __future__ import annotations

import json
from pathlib import Path

from common import Op, expect

WHY = "verify_suite calls over 2-50 atom instances plus the corpus: per-call overhead on tiny spaces"
COUNT = 5
# Suite seeds 0..POOL-1 have recorded totals. A run takes them in an order
# drawn from its seed, CYCLE calls at a time, and calls no seed twice until
# it has called all of them, so that a cache keyed by the inputs cannot
# serve a timed call from an earlier one; a run covers most of the pool, so
# runs differ by machine noise rather than by instance mix.
POOL = 32
CYCLE = 4
WARMUP_SEEDS = (1000, 1001)  # outside the pool, so never timed
TOTALS = Path(__file__).with_name("reference") / "verify_totals.json"


def build(o, seed: int, stream: int):
    import numpy as np

    totals = {int(k): v for k, v in json.loads(TOTALS.read_text())["totals"].items()}
    if stream == 1:
        return {"seeds": list(WARMUP_SEEDS), "totals": {}}
    rng = np.random.default_rng([seed, stream, 7])
    return {"seeds": [int(s) for s in rng.permutation(POOL)], "totals": totals}


def make_cycles(o, inputs):
    seeds, totals = inputs["seeds"], inputs["totals"]

    def op(s):
        def check(rep, raised):
            expect(not raised, f"raised {rep!r}")
            expect(rep.failed == 0, f"{rep.failed} failed checks: {rep.failures[:1]}")
            if s in totals:
                expect(rep.total_checks == totals[s],
                       f"total_checks {rep.total_checks} != recorded {totals[s]} for seed {s}")
            return "ok"

        return Op("verify_suite", lambda: o.verify_suite(s, COUNT), check,
                  units=lambda rep: rep.total_checks)

    def cycle(c):
        return [op(seeds[(c * CYCLE + i) % len(seeds)]) for i in range(min(CYCLE, len(seeds)))]

    return cycle
