"""The machine's speed, probed inside the run, to put times on one scale.

The benchmark runs on a shared virtual machine whose host gives the same
thread more or less of a physical core from one minute to the next: one
108-certificate round of ``tower-deep`` took 16 s of CPU time on a quiet
host and 26 s on a busy one.  Medians within a run cannot take out a
change that lasts longer than the run.  So while the timed rounds run, a
``SpeedProbe`` interrupts the thread every ``INTERVAL`` seconds of its CPU
time and times a fixed piece of pure-Python work, ``probe()``, that uses
the same operations as valcert's ``Poly`` arithmetic (dicts keyed by
exponent tuples, integer arithmetic mod p) and none of valcert's code.  A
probe that took ``REFERENCE_S`` seconds says the machine ran at reference
speed; one that took twice as long says it ran at half.

Every time the benchmark reports is CPU time multiplied by the speed the
probes measured around it, ``REFERENCE_S / probe time``: seconds at
reference speed.  The probes' own time is taken out of the elements they
interrupt.  A change to valcert moves these times as it moves CPU time; a
change of the host's load moves the probe with them and cancels out.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time

INTERVAL = 0.025  # CPU seconds between probes
# Probes before and after a span that also set its speed.  Successive
# probes correlate (0.55 at one apart, 0.3 at five apart on a busy host),
# and a few more probes steady the factor of a short element.
MARGIN = 4
# The probe's CPU time, inside a run, on a quiet 2-core x86 host (Intel
# Xeon, Python 3.11.7); the host at its busiest took 1.7 times as long.
REFERENCE_S = 0.001

_rng = random.Random("perfbench-speed-probe")
_A = {(_rng.randrange(64), _rng.randrange(64)): _rng.randrange(1, 3) for _ in range(60)}
_B = {(_rng.randrange(64), _rng.randrange(64)): _rng.randrange(1, 3) for _ in range(60)}


def probe() -> dict:
    """A sparse product of two fixed 60-term polynomials mod 3, as Poly.__mul__ forms it."""
    p = 3
    t: dict = {}
    for (a1, a2), c in _A.items():
        for (b1, b2), d in _B.items():
            e = (a1 + b1, a2 + b2)
            s = (t.get(e, 0) + c * d) % p
            if s:
                t[e] = s
            elif e in t:
                del t[e]
    return t


class SpeedProbe:
    """Probes the speed every INTERVAL CPU seconds while started.

    ``speed[n]`` is ``REFERENCE_S`` over the n-th probe's CPU time, and
    ``spent`` the CPU time all probes took.  The probe runs in a SIGVTALRM
    handler, so it runs in the benchmark's one thread, between two bytecodes
    of whatever valcert was doing.
    """

    def __init__(self):
        self.speed: list[float] = []
        self.spent = 0.0

    def _on_timer(self, _signum=None, _frame=None) -> None:
        # A collection that starts inside the probe would time valcert's
        # young objects, not the machine.
        collecting = gc.isenabled()
        gc.disable()
        t = time.thread_time()
        probe()
        dt = time.thread_time() - t
        if collecting:
            gc.enable()
        self.speed.append(REFERENCE_S / dt)
        self.spent += time.thread_time() - t

    def sample(self, n: int) -> None:
        """Probe n times now, one after another."""
        for _ in range(n):
            self._on_timer()

    def start(self) -> None:
        signal.signal(signal.SIGVTALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        # The handler stays installed, so a signal still in flight cannot end the process.
        signal.setitimer(signal.ITIMER_VIRTUAL, 0, 0)

    def around(self, first: int, last: int) -> float:
        """Mean speed of the probes first..last-1 and MARGIN more on each side.

        Probes fall evenly in CPU time, so the mean of REFERENCE_S / probe
        time is the factor that takes the span's CPU time to reference speed.
        """
        window = self.speed[max(0, first - MARGIN) : last + MARGIN] or self.speed
        return statistics.fmean(window)
