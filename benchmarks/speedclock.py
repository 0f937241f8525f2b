"""A clock in reference-speed seconds, for hosts whose speed swings.

On a shared host the same Python loop can take 1.8 times as long from one
few-second phase to the next (the other tenants' load; process time moves
with wall time, so it does not help).  A pass of tens of seconds then
reads very differently from run to run although the program did the same
work.  This clock measures how fast the host is while the program runs
and converts each timed interval to the time it would have taken at a
fixed reference speed:

- every SAMPLE_INTERVAL_S of wall time, a SIGALRM handler runs a fixed
  reference loop (Fraction arithmetic into a dict keyed by tuples, as the
  library's QG arithmetic does) in the measured thread itself and records
  the speed REF_NOMINAL_S / (its duration);
- an interval's work time is its wall time less the time spent in the
  handler, and its reference-speed time is that work time times the mean
  speed of the samples taken in it.  An interval holding fewer than
  MIN_SAMPLES samples uses the last MIN_SAMPLES samples instead.

REF_NOMINAL_S is a fixed scale, about the reference loop's median time on
the 2-vCPU Intel Xeon host the benchmark was written on, so that a
reference-speed second is close to a wall second there.  The loop is the
benchmark's own code and does not call the library, so a faster library
does not change it.

When the clock is not running (traced runs), `since` gives wall time.
"""

from __future__ import annotations

import gc
import signal
from collections import deque
from fractions import Fraction
from time import perf_counter

SAMPLE_INTERVAL_S = 0.01
REF_NOMINAL_S = 150e-6
MIN_SAMPLES = 50


def reference_loop():
    """Fixed work of about REF_NOMINAL_S."""
    total = Fraction(0)
    table = {}
    for i in range(1, 40):
        total += Fraction(1, i % 7 + 1)
        table[(i % 13, i)] = total
    return len(table)


class Mark:
    __slots__ = ("wall", "handler_s", "speed_sum", "samples")

    def __init__(self, wall, handler_s, speed_sum, samples):
        self.wall = wall
        self.handler_s = handler_s
        self.speed_sum = speed_sum
        self.samples = samples


class SpeedClock:
    def __init__(self):
        self.running = False
        self.handler_s = 0.0
        self.speed_sum = 0.0
        self.samples = 0
        self.recent = deque(maxlen=MIN_SAMPLES)

    def _sample(self):
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        reference_loop()
        speed = REF_NOMINAL_S / (perf_counter() - start)
        if enabled:
            gc.enable()
        self.speed_sum += speed
        self.samples += 1
        self.recent.append(speed)

    def _handler(self, signum, frame):
        start = perf_counter()
        self._sample()
        self.handler_s += perf_counter() - start

    def start(self):
        """Take MIN_SAMPLES samples at once, then sample on the timer."""
        for _ in range(MIN_SAMPLES):
            self._sample()
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self.running = True

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.running = False

    def now(self):
        return Mark(perf_counter(), self.handler_s, self.speed_sum, self.samples)

    def since(self, mark):
        """(reference-speed seconds, work seconds) since `mark`."""
        work = perf_counter() - mark.wall - (self.handler_s - mark.handler_s)
        if not self.running:
            return work, work
        n = self.samples - mark.samples
        if n >= MIN_SAMPLES:
            speed = (self.speed_sum - mark.speed_sum) / n
        else:
            speed = sum(self.recent) / len(self.recent)
        return work * speed, work


# One per process: SIGALRM and its interval timer are process-wide.
CLOCK = SpeedClock()
