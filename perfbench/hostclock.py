"""A clock that runs at a fixed reference speed of the host's CPU.

The virtual CPUs of a shared host slow down by 1.1-1.8x for stretches of
a tenth of a second to many minutes, for every instruction (CPU time equals wall
time, so this is not preemption but co-tenants), and the share of slow time
drifts over the hour.  A wall-clock time then measures the host as much as
the program.  ``HostClock`` interrupts the process every ``PERIOD_S`` with
SIGALRM and times a fixed pure-Python probe in the handler; between probes
its clock advances at wall speed times ``REFERENCE_PROBE_S / probe time``,
and it stands still while a probe runs.  A span read on it is the span's
wall time, less the probes, at the speed at which one probe takes
``REFERENCE_PROBE_S``: the same work reads the same on a fast and on a slow
stretch, and a program that does less work reads less.

The probe speed is the median of the last ``WINDOW`` probes, so one probe
that an interrupt lands in does not set a segment's speed.  A long native
call holds the handler off until it returns to the interpreter; its
segment is then timed at the speed seen before it.  A read of ``now()``
that a probe interrupts may come out up to one probe's time late.
"""

from __future__ import annotations

import collections
import math
import signal
import statistics
import time

PERIOD_S = 0.025
WINDOW = 5
PROBE_LOOPS = 2000
PROBE_CALLS = 750
# one probe's time at the reference speed: the fast state of a 2-vCPU
# Xeon KVM guest (README.md)
REFERENCE_PROBE_S = 3.5e-4


def _call(x):
    return math.exp(-x) * math.sin(x) + x ** 0.3


def probe() -> float:
    """Time one fixed piece of interpreter work: a tight arithmetic loop and
    a loop of Python and libm calls.  Over paired samples on the host the
    first alone under-corrected program-like work (scipy quad with a Python
    integrand, small FFTs) and the second over-corrected it (README.md)."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(PROBE_LOOPS):
        acc += (i * 7 % 13) * 0.5
    for i in range(PROBE_CALLS):
        acc += _call(i * 1e-3)
    return time.perf_counter() - t0


class HostClock:
    """Reference-speed clock; ``now()`` may be read from the main thread."""

    def __init__(self, period_s=PERIOD_S):
        self.period_s = period_s
        self._recent = collections.deque(maxlen=WINDOW)
        self._state = None          # (reference time, wall mark, speed)
        self._previous = None
        self.started_wall = self.initial_speed = None
        self.probes = 0
        self.probe_s = 0.0

    def _probe(self, *_):
        wall = time.perf_counter()
        taken = probe()
        self._recent.append(taken)
        self.probes += 1
        self.probe_s += taken
        ref, mark, speed = self._state
        ref += (wall - mark) * speed
        # one tuple, replaced at once: a reader never sees half an update
        self._state = (ref, time.perf_counter(),
                       REFERENCE_PROBE_S / statistics.median(self._recent))

    def start(self):
        """Probe a window's worth, then arm the timer."""
        for _ in range(WINDOW):
            self._recent.append(probe())
        self.started_wall = time.perf_counter()
        self.initial_speed = REFERENCE_PROBE_S / statistics.median(self._recent)
        self._state = (0.0, self.started_wall, self.initial_speed)
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def speed(self) -> float:
        """The current speed factor: reference seconds per wall second."""
        return self._state[2]

    def now(self) -> float:
        ref, mark, speed = self._state
        return ref + (time.perf_counter() - mark) * speed
