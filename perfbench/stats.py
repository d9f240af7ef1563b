"""End-to-end figures that hold up on a shared machine.

On a small shared machine the CPU a run gets changes speed by up to 2x,
for stretches of a few seconds to a minute, whenever a neighbour loads
the same core.  Thread CPU time slows down together with wall time, so it
is no way out.  On 2 CPUs, the raw median op time of one workload moved
by 10-35% between runs of identical work this way.

So the benchmark measures the CPU's speed alongside the ops: a fixed
reference loop that uses only the standard library is timed right before
and right after every op, and every ``PROBE_INTERVAL`` seconds during it
(from a timer signal, so also inside a long library call).  Each stretch
of an op between two reference timings is scaled by ``REFERENCE_S`` over
the mean of the two reference times around it.  A reported time is thus
the op's time on a CPU that runs the reference loop in exactly 1 ms; on
the 2-CPU machine the benchmark was built on, the loop takes 1.1-1.25 ms
on a quiet core and up to 2.5 ms on a shared one.  The reference loop's
own time is never part of an op time, and the raw wall-clock figures are
kept in the run record beside the scaled ones.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction
from statistics import median, quantiles

PROBE_INTERVAL = 0.1
REFERENCE_S = 0.001


def reference():
    """Seconds taken by a fixed Fraction loop, about 1 ms on an idle core."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 250):
        acc += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return time.perf_counter() - start


class Probe:
    """Times ``fn()`` with reference timings before, during and after it.

    ``timings`` collects every op's (start, end, [(at, ref), ...]) where
    the list starts with the reference before the op, holds one entry per
    timer tick during it, and ends with the reference after it.
    """

    def __init__(self):
        self.timings = []
        self._ticks = None

    def _tick(self, signum, frame):
        if self._ticks is None:
            return
        at = time.perf_counter()
        self._ticks.append((at, reference()))

    def run(self, fn):
        """Returns (fn's result or raised exception, raw wall seconds)."""
        before = reference()
        ticks = [(None, before)]
        self._ticks = ticks
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as err:   # the caller decides what a raise means
            result = err
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        self._ticks = None
        ticks.append((end, reference()))
        self.timings.append((start, end, ticks))
        return result, end - start - sum(ref for at, ref in ticks[1:-1] if at < end)


def scaled_times(timings):
    """Each timed call's duration scaled to ``REFERENCE_S``, in seconds."""
    out = []
    for start, end, ticks in timings:
        total = 0.0
        edge = start
        for (_, ref_a), (at_b, ref_b) in zip(ticks, ticks[1:]):
            # wall time from the previous edge to this tick, or to the end
            stop = at_b if at_b < end else end
            total += (stop - edge) * 2 * REFERENCE_S / (ref_a + ref_b)
            edge = stop + (ref_b if at_b < end else 0.0)
        out.append(total)
    return out


def op_figures(kinds, times, passed):
    """ops_per_s, op_ms_p50 and op_ms_p90 of one run.

    ``ops_per_s`` is the passed ops over the summed op time, where each
    kind of op counts with its median time once per op of that kind, so
    that one long op caught by a stall between two reference timings
    cannot swing it.
    """
    by_kind = {}
    for kind, t in zip(kinds, times):
        by_kind.setdefault(kind, []).append(t)
    summed = sum(len(ts) * median(ts) for ts in by_kind.values())
    p90 = quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
    return {"ops_per_s": sum(passed) / summed,
            "op_ms_p50": 1e3 * median(times),
            "op_ms_p90": 1e3 * p90}
