"""Machine-speed probe for the timed parts of a run.

On a shared VM the same pure-Python work runs up to twice as fast at
some times as at others, for tens of seconds at a stretch, and CPU time
moves with wall time, so no clock of the process hides it.  A
``SpeedProbe`` samples that speed while the program works: every
``PERIOD_S`` of wall time a SIGALRM handler runs a fixed pure-Python
loop, which belongs to the benchmark and not to the program, and
records how long it took.  The runner takes the probe's time out of the
time it measures, and scales what is left by the speed the probe saw:

    reference seconds = measured seconds * mean(NOMINAL_S / sample)

A reference second is a second at the probe's nominal speed.  A change
to the program moves the reference time by as much as it moves the
measured time, since the probe loop does not change with it.

The handler runs only between Python bytecodes of the main thread, so a
long call into C delays the next sample; the program's C calls are short.
"""

import signal
import statistics
import time
from contextlib import contextmanager

PERIOD_S = 0.01
REFERENCE_ITERS = 2000
# The loop's time on a 2-vCPU x86-64 VM in its faster phases (CPython
# 3.11): this makes reference seconds about the seconds of a calm machine.
NOMINAL_S = 2.5e-4


def reference_loop():
    """Fixed interpreter work: integer and float arithmetic, a dict, a list."""
    table = {}
    acc = 0.0
    items = []
    for i in range(REFERENCE_ITERS):
        acc += (i * i % 7) * 0.5
        table[i & 63] = acc
        if i & 15 == 0:
            items.append(table.get(i & 31, 0.0))
    return acc + sum(items)


class SpeedProbe:
    """Samples the reference loop's time while ``measuring`` is open."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # wall time spent in the probe
        self.active = False
        self._saved = None

    def start(self):
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved or signal.SIG_DFL)

    def _tick(self, signum, frame):
        if not self.active:
            return
        t0 = time.perf_counter()
        reference_loop()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    @contextmanager
    def measuring(self):
        """Sample while the block runs; yields nothing."""
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def speed(self, first=0):
        """Mean speed relative to nominal over samples ``first`` onwards;
        1.0 when there are none."""
        tail = self.samples[first:]
        return statistics.fmean(NOMINAL_S / s for s in tail) if tail else 1.0
