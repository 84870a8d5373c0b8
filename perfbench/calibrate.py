"""A fixed reference task that gauges how fast the host runs while the
benchmark measures.

The benchmark shares a few cores of a host whose speed flips between two
states about 1.7 times apart, every fraction of a second to every few
seconds, and the share of time spent in the slow state drifts over minutes.
A solve's time integrates that share, so the same solve can take 1.7 times
as long as it did a quarter of an hour before.

So while a run measures, a timer interrupts it every :data:`INTERVAL_S` and
runs this task, whose work never changes.  The task's mean time over the
run, divided by :data:`REFERENCE_S`, is the run's ``slowdown``, and every
time the run reports is divided by it.  The samples fall inside the very
set-ups and solves that are timed, so they see the same mix of fast and slow
host states.  A change to the program moves the program's times but not the
task's, so it still shows in full; a change of host speed moves both, and
the division takes out the part of it that the task sees.  The task's own time is taken out of every interval it interrupts.

The task does the two kinds of work the workloads do: frozensets, unions of
big-integer bitmasks and dict sums, as the coverage objective and the
instance's cost sum do, and small NumPy row gathers, as the movie objective
does.  It draws on tables about as large as the workloads' own, a 10^4-entry
bitmask list and a 2000 x 400 array, so that it waits on memory as they do.
Its inputs are the same in every run, whatever ``--seed`` is, and the task
calls nothing in ``knapsub``.

The correction is partial.  Between two sets of ten runs a quarter of an
hour apart, the raw times of ``distributed-coverage`` rose 1.4 to 1.6 times
and the task's time 1.19 times: the workloads slow down more than the task
in the slow state, for reasons not pinned down.
"""

from __future__ import annotations

import resource
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# about the task's mean seconds on a 2-vCPU Intel Xeon VM (2.0 GHz) under
# CPython 3.11 and NumPy 2.4; a reported time is in seconds on a host where
# the task takes this long
REFERENCE_S = 0.002
INTERVAL_S = 0.05
ITEMS, ROWS, COLUMNS = 10_000, 2000, 400


class Calibration:
    def __init__(self):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rng = np.random.default_rng(0)
        near = rng.integers(0, ITEMS, size=(ITEMS, 3)).tolist()
        self.masks = [1 << i | 1 << a | 1 << b | 1 << c for i, (a, b, c) in enumerate(near)]
        self.costs = {i: float(i % 13) for i in range(ITEMS)}
        self.subsets = rng.integers(0, ITEMS, size=(20, 50)).tolist()
        self.table = rng.standard_normal((ROWS, COLUMNS))
        self.gathers = rng.integers(0, ROWS, size=(20, 10)).tolist()
        self.samples: list[float] = []
        self.busy = 0.0
        # KiB of peak resident memory that these tables add, when built
        # before anything else; the harness leaves them out of peak_rss_mb
        self.footprint_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before

    def run(self) -> None:
        """Do the fixed task once and record its seconds."""
        started = perf_counter()
        total = 0.0
        for ids in self.subsets:
            chosen = frozenset(ids)
            covered = 0
            for i in chosen:
                covered |= self.masks[i]
            total += covered.bit_count() + sum(self.costs[i] for i in chosen)
        for rows in self.gathers:
            total += float(np.maximum(self.table[rows].max(axis=0), 0.0).sum())
        seconds = perf_counter() - started
        self.samples.append(seconds)
        self.busy += seconds

    def clock(self) -> float:
        """perf_counter() without the time the task has taken so far."""
        return perf_counter() - self.busy

    @contextmanager
    def sampling(self):
        """Run the task now and then every INTERVAL_S of wall time."""
        self.run()
        previous = signal.signal(signal.SIGALRM, lambda *_: self.run())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def slowdown(self) -> float:
        """The run's mean task time over REFERENCE_S."""
        return statistics.fmean(self.samples) / REFERENCE_S
