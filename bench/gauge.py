"""Machine-speed gauge: scales measured times to a fixed reference speed.

On a shared host the same pure-Python work runs at very different speeds
from one moment to the next: on the 2-vCPU VM the benchmark was built on,
each vCPU switches between a fast state and one about 1.7x slower, each
lasting from a fraction of a second to minutes.  A run's raw times then say
more about when it ran than about the program.

The gauge measures the speed while the work runs.  Its probe is one fixed
chunk of exact elimination (a 3x3 matrix over the rationals and a 6x6 one
mod 101, with this file's own code, not interdec's).  A `Sampler` times
the probe from a SIGPROF handler every INTERVAL_S of the process's CPU
time, so the samples follow the speed of the CPU through every job; the
handler's own time is kept apart and taken off the jobs' times.
`reading()` times the probe back to back for a short burst, for work that
ran in another process (the import probes).

A time t measured at a mean sampled probe time g is reported as
t * REF_S / g: the time the work takes where the sampled probe takes
REF_S.  A burst reading b scales by BURST_REF_S / b instead, because back
to back the probe runs from warm caches and is faster than when it
interrupts other work.  Both constants are about the probe's times on the
machine the benchmark was built on, so scaled times read roughly as that
machine's seconds.  The gauge touches nothing of interdec, so a change to
interdec cannot move it; a change to this file changes every scaled time.
"""

from __future__ import annotations

import os
import random
import signal
from fractions import Fraction
from time import perf_counter

REF_S = 100e-6
BURST_REF_S = 75e-6
INTERVAL_S = 0.005
WINDOW_S = 0.2
BURST_S = 0.05
P = 101


def _matrices():
    rng = random.Random("gauge")
    q = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
         for _ in range(3)]
    p = [[rng.randrange(P) for _ in range(6)] for _ in range(6)]
    return q, p


_Q, _P = _matrices()


def _eliminate(rows, p):
    work = [list(r) for r in rows]
    r = 0
    for col in range(len(work[0])):
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        head = work[r]
        inv = 1 / head[col] if p is None else pow(head[col], p - 2, p)
        for i in range(r + 1, len(work)):
            c = work[i][col]
            if c:
                f = c * inv
                if p is None:
                    work[i] = [x - f * y for x, y in zip(work[i], head)]
                else:
                    work[i] = [(x - f * y) % p for x, y in zip(work[i], head)]
        r += 1
    return r


def probe():
    """Seconds the fixed chunk of elimination takes."""
    t0 = perf_counter()
    _eliminate(_Q, None)
    _eliminate(_P, P)
    return perf_counter() - t0


def reading():
    """Mean probe time over a burst of about BURST_S seconds."""
    times = []
    end = perf_counter() + BURST_S
    while perf_counter() < end:
        times.append(probe())
    return sum(times) / len(times)


class Sampler:
    """Probe samples taken every INTERVAL_S of CPU time while work runs.

    `samples` holds (perf_counter at the sample, probe seconds); `spent` is
    the time spent in the handler, which the caller takes off its timings.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def sample(self, *_):
        t0 = perf_counter()
        self.samples.append((t0, probe()))
        self.spent += perf_counter() - t0

    def start(self):
        self._previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def mean_during(self, start, end):
        """Mean probe time of the samples within the span [start, end],
        widened about its middle to at least WINDOW_S seconds; the nearest
        sample when none falls inside."""
        half = max(end - start, WINDOW_S) / 2
        mid = (start + end) / 2
        inside = [g for t, g in self.samples if mid - half <= t <= mid + half]
        if inside:
            return sum(inside) / len(inside)
        return min(self.samples, key=lambda s: abs(s[0] - mid))[1]



def pin_to_one_cpu():
    """Keep this process and the processes it starts on one CPU.  The
    sampled speed is then the speed of the CPU the work runs on, and the
    passes do not move between CPUs whose speeds differ."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
