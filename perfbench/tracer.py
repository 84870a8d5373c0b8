"""In-memory span tracer for the benchmark's own timing wrappers.

Two kinds of span are recorded at the boundaries the benchmark wraps:

* coarse spans (a solve, a solver call, one simulated round, a setup step)
  are kept one record each, with start, end, parent and solve id;
* fine spans (one oracle query, one cost sum, one objective call) happen
  millions of times a run, so only their per-name totals are kept: calls,
  busy time and self time.

A span's self time is its duration minus the durations of the spans it
directly encloses.  A layer is the part of a span name before the first dot;
its busy time counts only spans with no enclosing span of the same layer, so
nested calls within one layer are not counted twice.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Frame:
    __slots__ = ("name", "start", "end", "child", "span_id", "parent")

    def __init__(self, name, start, span_id=None, parent=None):
        self.name = name
        self.start = start
        self.end = start
        self.child = 0.0
        self.span_id = span_id
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.end - self.start


class Profile:
    """Totals of one solve: per span name ``[calls, busy_s, self_s, items]``
    (``items`` sums the set sizes a sized wrapper saw) and per layer busy and
    self seconds."""

    def __init__(self):
        self.names = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.layer_busy = defaultdict(float)
        self.layer_self = defaultdict(float)


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.records: list[dict] = []
        self.profile = Profile()
        self.solve_id: int | None = None
        self._stack = [Frame("root", 0.0)]
        self._coarse: list[int | None] = [None]
        self._depth = defaultdict(int)
        self._next_id = 0

    # -- bookkeeping shared by both span kinds ---------------------------

    def _close(self, frame, name, layer, end):
        frame.end = end
        dur = end - frame.start
        own = dur - frame.child
        self._stack.pop()
        self._stack[-1].child += dur
        depth = self._depth
        depth[layer] -= 1
        stats = self.profile.names[name]
        stats[0] += 1
        stats[1] += dur
        stats[2] += own
        if depth[layer] == 0:
            self.profile.layer_busy[layer] += dur
        self.profile.layer_self[layer] += own
        return stats

    # -- coarse spans ----------------------------------------------------

    @contextmanager
    def span(self, name):
        """Time a block as one recorded span; yields its :class:`Frame`."""
        layer = name.split(".", 1)[0]
        span_id = self._next_id
        self._next_id += 1
        frame = Frame(name, 0.0, span_id, self._coarse[-1])
        self._stack.append(frame)
        self._coarse.append(span_id)
        self._depth[layer] += 1
        frame.start = self.clock()
        try:
            yield frame
        finally:
            end = self.clock()
            self._coarse.pop()
            self._close(frame, name, layer, end)
            self.records.append({
                "name": name, "id": span_id, "parent": frame.parent,
                "solve": self.solve_id, "start": frame.start, "end": end,
                "self_s": end - frame.start - frame.child})

    def wrap_span(self, name, fn):
        """``fn`` with every call recorded as a coarse span."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    # -- fine spans ------------------------------------------------------

    def wrap(self, name, fn, sized=False):
        """``fn`` with every call folded into per-name totals.

        With ``sized`` the length of the first argument is summed too.
        """
        layer = name.split(".", 1)[0]
        stack = self._stack
        depth = self._depth
        close = self._close
        clock = self.clock

        def traced(*args, **kwargs):
            frame = Frame(name, 0.0)
            stack.append(frame)
            depth[layer] += 1
            frame.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                stats = close(frame, name, layer, clock())
                if sized:
                    stats[3] += len(args[0])
        return traced

    # -- solves and output -----------------------------------------------

    def begin_solve(self, solve_id: int) -> None:
        self.solve_id = solve_id
        self.profile = Profile()

    def end_solve(self) -> Profile:
        profile, self.profile = self.profile, Profile()
        self.solve_id = None
        return profile

    def write_jsonl(self, path, summaries) -> None:
        """Coarse span records, then one line per extra summary dict."""
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")
            for rec in summaries:
                fh.write(json.dumps(rec) + "\n")
