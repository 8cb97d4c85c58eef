"""The machine's speed while a run is timed, sampled by a probe thread.

The benchmark's machine is a VM on shared CPUs.  Each vCPU switches, every
tenth of a second or so, between its full speed and about half of it, and
the share of time spent at half speed drifts over minutes.  CPU time tracks
wall time, so the program cannot tell.  A timing over seconds is then the
program's cost times ``1 + f``, where ``f`` is the share of slow time while
it ran, and ``f`` differs from run to run by more than any bound a
benchmark can use.

``Pace`` measures ``f`` alongside the program.  ``pin()`` keeps the whole
process, its threads and the processes it starts on one vCPU.  A daemon
thread then wakes every ``INTERVAL_S`` and times a fixed piece of
pure-Python work, the *probe*, in thread CPU time, so a probe that waits
for the CPU is not counted as slow.  The probes sample the vCPU all through
the run, inside long ops too, so their mean time is the probe's cost times
the same ``1 + f``.  ``factor()`` is ``PROBE_REF_S`` over that mean, and a
timing times ``factor()`` is the time the same work takes on a vCPU where
one probe takes ``PROBE_REF_S``: about this machine at full speed.  A run
that spends nearly all its time slow cannot say what full speed is, so the
reference is a constant and not a figure of the run.

``scaled()`` does the same for one timed piece of work with the probes
that fell inside it.  A long piece holds enough of them to follow its own
share of slow time, which a single op of a run otherwise adds to its time
as noise; a short piece holds none and gets the run's factor.  The probe runs only
the benchmark's own code, so a change to the program moves the program's
timings and not the factor.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

#: loop trips of one probe
PROBE_ITERS = 1000
#: the time of one probe that scaled timings refer to: about the fastest
#: probes on a 2-vCPU Intel Xeon VM, where they take 0.15 to 0.28 ms
PROBE_REF_S = 1.5e-4
#: wall time between two probes
INTERVAL_S = 0.01
#: weight, in probes, of the run's mean probe time in ``scaled()``
PRIOR_PROBES = 4

_TABLE = [0] * 128


def probe_work() -> int:
    """List, call and integer work, the mix of an interpreter loop.  It
    allocates no container, so no garbage collection runs inside it."""
    table = _TABLE
    total = 0
    for i in range(PROBE_ITERS):
        key = i & 127
        table[key] = (table[key] + i) & 0xFFFF
        total = (total + abs(key - 64)) & 0xFFFF
    return total


def pin() -> None:
    """Keep this process, and the threads and processes it starts from now
    on, on one vCPU, so that the probes sample the vCPU the work runs on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Pace:
    def __init__(self) -> None:
        #: ``perf_counter()`` at each probe's end, and its CPU seconds
        self.times: list[float] = []
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="pace",
                                        daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        # the first probe runs at once, so that the set-up has one
        while True:
            start = time.thread_time()
            probe_work()
            seconds = time.thread_time() - start
            self.samples.append(seconds)
            self.times.append(time.perf_counter())
            if self._stop.wait(INTERVAL_S):
                return

    def probes(self, start: float, end: float) -> list[float]:
        """The probes that ended between two ``perf_counter()`` readings."""
        times = self.times[:len(self.samples)]
        return self.samples[bisect.bisect_left(times, start):
                            bisect.bisect_right(times, end)]

    def factor(self, start: float, end: float) -> float:
        """Reference probe time over the mean probe time between two
        ``perf_counter()`` readings."""
        return PROBE_REF_S / statistics.fmean(self.probes(start, end))

    def scaled(self, span: tuple[float, float], factor: float) -> float:
        """The seconds of ``span`` at the reference speed: its probes'
        mean, drawn towards the run's (``PROBE_REF_S / factor``) with the
        weight of ``PRIOR_PROBES`` probes."""
        inside = self.probes(*span)
        mean = ((sum(inside) + PRIOR_PROBES * PROBE_REF_S / factor)
                / (len(inside) + PRIOR_PROBES))
        return (span[1] - span[0]) * PROBE_REF_S / mean
