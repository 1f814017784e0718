"""Host time at a fixed reference speed, read by a speedometer loop.

The benchmark shares a few cores of a host whose speed drifts: for
a fraction of a second up to tens of seconds at a time, the same code
runs up to 1.7x slower.  Plain wall time therefore scatters by tens of
percent between runs of the same code.

:class:`SpeedMeter` times a fixed pure-Python loop (:func:`speedometer`)
every ``INTERVAL_S`` host seconds while the measured code runs, from a
``SIGALRM`` handler.  Each interval between two readings is scaled by
``REFERENCE_S`` over the local speed (the median of the readings around
it), and the scaled intervals are summed.  The result is the time the
measured code would have taken had the loop run in ``REFERENCE_S``
throughout: host seconds at the reference speed.  ``REFERENCE_S`` is the
loop's time on an idle 2.1 GHz Xeon vCPU (Python 3.11), so there the
figures read as uncontended host seconds.

The loop is code of the benchmark, not of the program measured, so a
faster program reads as faster; the speedometer's own time is left out.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from typing import List

#: Time between speedometer readings, in host seconds.
INTERVAL_S = 0.004
#: Speedometer readings on either side of an interval that set its speed.
HALF_WINDOW = 4
#: Time of one :func:`speedometer` loop at the reference speed.
REFERENCE_S = 20.0e-6

_TABLE = {i: i for i in range(8)}


def speedometer() -> float:
    """Host seconds of a fixed pure-Python loop of dict lookups and
    integer arithmetic."""
    clock = time.perf_counter
    table = _TABLE
    start = clock()
    acc = 0
    for i in range(300):
        acc += table.get(i & 7, 0) + i
    return clock() - start


for _ in range(20):
    speedometer()  # let the interpreter specialise the loop before any reading


#: The meter being run, if any; the ``SIGALRM`` handler feeds it.
_active: List["SpeedMeter"] = []


def _on_alarm(_signum, _frame) -> None:
    if _active:
        _active[-1].read()


class SpeedMeter:
    """Context manager that reads the speedometer every *interval* host
    seconds while its body runs.

    The handler touches nothing of the measured program; readings go
    into ``array`` buffers, which the garbage collector never sees.  The
    handler stays installed afterwards, so an alarm still pending at
    exit is a no-op rather than the default action of ``SIGALRM``.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        #: Host clock at the end of each reading, and the reading.
        self.at = array("d")
        self.loop = array("d")
        self.start = self.end = 0.0

    def read(self) -> None:
        self.loop.append(speedometer())
        self.at.append(time.perf_counter())

    def __enter__(self) -> "SpeedMeter":
        signal.signal(signal.SIGALRM, _on_alarm)
        _active.append(self)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        _active.remove(self)
        self.end = time.perf_counter()
        if not self.loop:
            self.read()  # a body shorter than one interval still gets a speed

    @property
    def seconds(self) -> float:
        """Plain host seconds of the body, speedometer included."""
        return self.end - self.start

    def reference_seconds(self) -> float:
        """Host seconds of the body at the reference speed, without the
        speedometer's own time."""
        loop, at = self.loop, self.at
        n = len(loop)
        bounds = [self.start] + list(at)
        total = 0.0
        for i in range(n):
            local = statistics.median(loop[max(0, i - HALF_WINDOW):i + HALF_WINDOW + 1])
            spent = bounds[i + 1] - bounds[i] - loop[i]
            if i == n - 1:
                spent += max(0.0, self.end - at[-1])
            total += spent * REFERENCE_S / local
        return total
