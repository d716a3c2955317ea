"""Host-speed sampling: scale measured times to a nominal host speed.

The machines this benchmark runs on are shared, and their speed drifts.  On a
2-core x86-64 virtual machine a fixed pure-Python loop took either about
0.025 or about 0.045 s, switching between the two every fraction of a second
on both cores, and the share of time spent slow changed over minutes: the
same warm paper-suite pass took 1.3 to 2.9 s within a few minutes, with CPU
time tracking wall time.  A benchmark reporting medians of raw pass times
there spread by 20 to 26% between runs of the same code, and a reference loop
timed only between passes did not track the switching.

So while a timed stretch of work runs, a timer interrupts it every ``TICK_S``
and times a tiny reference loop (exact rational arithmetic with
``fractions.Fraction``, which uses nothing of the package).  The time since
the previous tick is weighted by the host speed the reference loop just saw,
``NOMINAL_S / loop time``, and these add up to the seconds the work would
have taken on a host where the loop always takes ``NOMINAL_S``.  The loop's
own time is left out.  A change to the package moves the scaled times exactly
as it moves the raw ones; only the host's speed is divided out.

All clocks are ``time.monotonic`` (CLOCK_MONOTONIC), which every process of
the machine shares, so a child interpreter can carry on a stretch that its
parent started timing.
"""
from __future__ import annotations

import signal
import time
from fractions import Fraction

TICK_S = 0.02
# A fixed scale only: about the loop's median time between ticks of a
# paper-suite pass on the machine described above, so that scaled times there
# read close to typical raw seconds.
NOMINAL_S = 0.0008


def reference_work():
    """The fixed reference loop (about NOMINAL_S seconds)."""
    total = 0
    for i in range(1, 100):
        total += Fraction(i % 97 + 1, i % 89 + 2) * Fraction(3, i % 7 + 1) > Fraction(1, 2)
    return total


class HostSpeed:
    """Samples host speed while started; ``mark()`` reads the running totals.

    ``scaled_s`` is the scaled time since ``start()``; ``clean_s`` the wall time
    since then without the reference loops; ``probes`` and ``probe_s`` count
    the loops and their time.
    """

    def __init__(self, tick_s=TICK_S):
        self.tick_s = tick_s
        self.scaled_s = 0.0
        self.clean_s = 0.0
        self.probes = 0
        self.probe_s = 0.0
        self._last = None
        self._busy = False
        self._handler = None

    def start(self, since=None):
        """Start sampling; ``since`` is a ``time.monotonic()`` reading at which
        the timed stretch began (default: now)."""
        self._last = time.monotonic() if since is None else since
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.mark()

    def _tick(self, signum, frame):
        self.mark()

    def mark(self):
        """Close the interval since the last mark with a reference loop;
        returns ``(scaled_s, clean_s)``."""
        if self._busy:              # a tick that lands inside an explicit mark
            return self.scaled_s, self.clean_s
        self._busy = True
        try:
            t0 = time.monotonic()
            reference_work()
            t1 = time.monotonic()
            loop = t1 - t0
            self.scaled_s += (t0 - self._last) * NOMINAL_S / loop
            self.clean_s += t0 - self._last
            self.probes += 1
            self.probe_s += loop
            self._last = t1
        finally:
            self._busy = False
        return self.scaled_s, self.clean_s
