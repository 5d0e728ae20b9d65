"""The speed reference: how fast the machine runs a fixed chunk of work,
sampled while the benchmark measures."""

import bisect
import math
import signal
import statistics
import time

# On a shared host the CPU speed a process gets swings by tens of percent
# over seconds to minutes, so that two runs of the same code differ as much
# as a real change would. While a timed run or the set-up is measured, a
# SpeedMeter runs a fixed chunk of work every PERIOD_S seconds from a SIGALRM
# handler and records how long each chunk took. The chunks run inside the
# requests; a request that runs in a child process (cli commands, the set-up)
# shares one CPU with the benchmark (run.one_cpu) and with them. A request's
# latency "at reference speed" is its latency (less the chunks run during
# it) times REF_CHUNK_S over the median chunk time of the samples taken from
# WINDOW_S before it started to WINDOW_S after it ended: the latency on a
# machine that runs one chunk in REF_CHUNK_S.
#
# The chunk calls nothing of the library, so a change to the library moves
# the scaled figures as it moves the raw ones; the raw figures are in the
# report. It does interpreter work of the kinds the library does (integer
# and float arithmetic, calls, attribute and dict access), then reads floats
# from a list of about 1 MB with a stride that leaves the caches cold.
# Interpreter work alone slows down more than the library when the host is
# busy, and memory reads alone less; the mix follows the library closely.
# The chunk creates no object the garbage collector tracks, so that it never
# runs a collection.
REF_CHUNK_S = 200e-6
COMPUTE_ITERATIONS = 400
WALK_READS = 800
WALK_STRIDE = 487
_FLOATS = [i * 0.5 for i in range(32768)]
_WALK_AT = [0]
PERIOD_S = 0.005
WINDOW_S = 0.1


class _Cell:
    __slots__ = ("a", "b")


_CELL = _Cell()


def _power(x: float, k: int) -> float:
    return abs(x) ** 1.5 / k


def speed_chunk() -> float:
    """Seconds taken by one fixed chunk of interpreter work and memory reads."""
    clock = time.perf_counter
    cell, seen = _CELL, {}
    floats, n, k = _FLOATS, len(_FLOATS), _WALK_AT[0]
    t0 = clock()
    s, acc = 0, 0.0
    for i in range(1, COMPUTE_ITERATIONS + 1):
        s += i * i % 7
        acc = (acc + _power(i * 0.5 - acc, i)) % 97.0
        cell.a, cell.b = i, s
        seen[i & 127] = cell.a + cell.b
    for _ in range(WALK_READS):
        acc += floats[k]
        k = (k + WALK_STRIDE) % n
    dt = clock() - t0
    _WALK_AT[0] = k
    return dt


class SpeedMeter:
    """Speed samples taken every PERIOD_S seconds while the meter is active
    (``with meter:``): the start and duration of each speed_chunk."""

    def __init__(self):
        self.starts, self.times = [], []
        self._old, self._busy = None, False

    def _tick(self, signum, frame):
        if self._busy:  # a tick that arrives during a chunk is dropped
            return
        self._busy = True
        t = time.perf_counter()
        self.starts.append(t)
        self.times.append(speed_chunk())
        self._busy = False

    def __enter__(self):
        self._tick(None, None)  # so that there is a sample however short the use
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def busy(self, t0: float, t1: float) -> float:
        """Seconds spent in chunks that started between t0 and t1."""
        i, j = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        return math.fsum(self.times[i:j])

    def factor(self, t0: float, t1: float) -> float:
        """REF_CHUNK_S over the median chunk time around [t0, t1]."""
        i = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        j = bisect.bisect_left(self.starts, t1 + WINDOW_S)
        near = self.times[i:j] or self.times
        return REF_CHUNK_S / statistics.median(near)

