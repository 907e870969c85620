"""Scaling wall times to a fixed host speed, with a probe sampled during them.

The reference machine is a share of a busy host.  Its speed flips between
a fast and a slow state many times a second (a fixed loop takes about 30 or
about 50 ms), and the share of time spent slow drifts over minutes, so the
same work can take half again as long a few minutes later.

``Sampler`` measures that while the program runs: a timer signal every
``INTERVAL_S`` runs ``probe_task``, a fixed sub-millisecond task, and
records how long it took.  A timed stretch of work then has a wall time
and the probe times taken during it.  ``scaled`` removes the probes' own
time and multiplies by ``NOMINAL_S`` over the harmonic mean of the probe
times, which is the work done at the speed the probes saw, expressed in
seconds of a host on which the probe takes ``NOMINAL_S``.

The probe uses no fusionkit code, so a faster fusionkit still reads
faster.  It does dict lookups on tuple keys and rational sums with integer
gcds, the kind of work fusionkit does, and it allocates no object that the
garbage collector tracks, so it neither triggers nor pays for collections
of the program's heap.
"""
from __future__ import annotations

import signal
import time
from math import gcd

#: the median probe time on the reference machine (2 vCPUs of a shared Xeon
#: host); a scaled time is in seconds of a host this fast
NOMINAL_S = 0.0004
#: wall seconds between probes; the probes take about 2 % of the time
INTERVAL_S = 0.02

_KEYS = [(i % 17, i % 13) for i in range(2400)]
_TABLE = {key: i for i, key in enumerate(_KEYS)}


def probe_task() -> float:
    """Run the fixed probe task once; returns its wall time in seconds."""
    start = time.perf_counter()
    total = 0
    for key in _KEYS:
        total += _TABLE[key]
    num, den = 0, 1
    for i in range(1, 500):
        d = i % 7 + 1
        num, den = num * d + den, den * d
        g = gcd(num, den)
        num, den = num // g, den // g
    return time.perf_counter() - start


class Sampler:
    """Runs ``probe_task`` on a timer signal and keeps the probe times.

    Use as a context manager around the timed work; the main thread must
    be the one doing the work, because Python runs signal handlers there.
    """

    def __init__(self):
        self.samples = []
        self._previous = None

    def _probe(self, signum, frame):
        self.samples.append(probe_task())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def take(self) -> list:
        """The probe times so far, and start a new list."""
        samples, self.samples = self.samples, []
        return samples


def scaled(wall_s: float, probes: list) -> float:
    """Wall seconds that contain ``probes``, at the nominal host speed."""
    if not probes:
        raise ValueError("no probe ran during the timed work")
    work_s = wall_s - sum(probes)
    harmonic = len(probes) / sum(1.0 / p for p in probes)
    return work_s * NOMINAL_S / harmonic
