"""In-memory span recorder and the arithmetic the benchmark does on spans.

A span is one timed call: name, start, end, the index of the span that was
open when it started, the run it belongs to, whether it replays work the
program already did (so it is extra to the program's own run), exact counts
recorded at the same boundary, and the peak RSS when it ended. Spans stay in
memory and are written out once, when the traced command finishes.

This module imports nothing from levysid, so its logic is testable alone.
"""

from __future__ import annotations

import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    replay: bool = False
    counts: dict = field(default_factory=dict)
    rss_after_mb: float | None = None

    @property
    def duration(self):
        return self.end - self.start


def peak_rss_mb():
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Stack-based recorder for one single-threaded run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, replay=False):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), float("nan"), parent, self.run_id, replay)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            s.rss_after_mb = peak_rss_mb()

    def to_json(self):
        return [asdict(s) for s in self.spans]


def spans_from_json(items):
    return [Span(**item) for item in items]


def self_times(spans):
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so time is never subtracted twice.
    """
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(lo, s.start), min(hi, s.end)) for lo, hi in kids):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


def median_of_reps(reps):
    """Per-metric median over a list of {metric: value} dicts.

    Every rep must carry the same metric names; a rep that is missing one
    would silently bias the median, so that raises instead.
    """
    if not reps:
        raise ValueError("no repetitions to summarise")
    names = set(reps[0])
    for rep in reps[1:]:
        if set(rep) != names:
            raise ValueError(f"repetitions disagree on metrics: {sorted(names ^ set(rep))}")
    return {name: statistics.median(rep[name] for rep in reps) for name in reps[0]}
