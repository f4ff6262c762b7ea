"""The benchmark's reference unit of CPU work, used to scale its times.

Shared machines change speed from second to second (a busy sibling
hyper-thread, frequency steps), by tens of percent, so raw times of one
run disagree with the next far more than the changes the benchmark must
resolve.  The benchmark therefore times this fixed, program-independent
piece of interpreter work next to every request and reports each time
scaled by ``NOMINAL_SECONDS / work-unit seconds``: milliseconds as they
would read on a host where one work unit takes ``NOMINAL_SECONDS``.
Work units run in line with the requests, on the same thread where
possible: the two vCPUs of a small VM are often hyper-thread siblings, so
timing units on the other core would slow the request being measured.
The unit uses none of the program's code, so a change to the program
cannot move it.  Its mix -- small objects, dict and tuple churn, float
arithmetic, a sort -- is the kind of work the program's Python layers do.
"""

from __future__ import annotations

import os
import signal
import time

#: Work-unit time on the host the benchmark was written on (2 vCPU Xeon).
NOMINAL_SECONDS = 0.003


class _Cell:
    __slots__ = ("key", "weight", "kids")

    def __init__(self, key, weight, kids):
        self.key = key
        self.weight = weight
        self.kids = kids


def work_unit():
    """Run one fixed unit of work; return its wall time in seconds."""
    started = time.perf_counter()
    table = {}
    cells = []
    for i in range(1500):
        key = (i % 97, i // 97, "n%d" % (i % 13))
        kids = table.get(key[:2])
        cell = _Cell(key, (i * 0.618) % 1.0, kids)
        table[key[:2]] = cell
        cells.append(cell)
    total = 0.0
    for cell in cells:
        node, depth = cell, 0
        while node is not None and depth < 8:
            total += node.weight * (1.0 - total * 1e-6)
            node, depth = node.kids, depth + 1
    cells.sort(key=lambda c: (c.weight, c.key))
    if total < 0.0:  # never true; keeps the work from being skipped
        raise AssertionError(total)
    return time.perf_counter() - started


class Interleaved:
    """Times work units *during* serial requests, from a timer signal.

    A request of a second or more outlasts the machine's speed changes, so
    work units timed around it say little about the speed it ran at.
    While :meth:`measure` runs a request, a ``SIGALRM`` handler times one
    work unit every ``interval`` seconds on the same thread; the handler's
    own time is taken out of the request's.  Outside :meth:`measure` the
    signal is blocked, so no unit lands inside anything else.
    """

    def __init__(self, interval, on_tick=None):
        self.interval = interval
        #: Called with each tick's seconds (a traced run keeps them out of
        #: the layer it interrupted).
        self.on_tick = on_tick
        self.units = []
        #: Seconds spent in the handler so far.
        self.spent = 0.0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def _tick(self, signum, frame):
        started = time.perf_counter()
        self.units.append(work_unit())
        seconds = time.perf_counter() - started
        self.spent += seconds
        if self.on_tick is not None:
            self.on_tick(seconds)

    def measure(self, request):
        """Run ``request()``; return its result, its seconds without the
        handler's, and the work units timed while it ran."""
        mark, spent = len(self.units), self.spent
        started = time.perf_counter()
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        try:
            result = request()
        finally:
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        # a tick delivered just before the block runs at this statement
        finished = time.perf_counter()
        return result, finished - started - (self.spent - spent), self.units[mark:]


def unit_per_core():
    """Mean of one work unit timed on each core in turn.

    For work spread over every core (a server with its worker pool): a
    unit timed on whichever core this thread happens to run on would track
    that core only, and the cores of a shared host do not slow down
    together.
    """
    cores = sorted(os.sched_getaffinity(0))
    try:
        times = []
        for core in cores:
            os.sched_setaffinity(0, {core})
            times.append(work_unit())
    finally:
        os.sched_setaffinity(0, cores)
    return sum(times) / len(times)


def scale(seconds, unit_seconds):
    """``seconds`` measured while a work unit took ``unit_seconds``, scaled
    to the nominal host."""
    return seconds * NOMINAL_SECONDS / unit_seconds
