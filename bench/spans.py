"""In-memory span tracing installed from outside the package.

A Tracer replaces public functions and methods with timing wrappers at the
place callers look the name up (a module global or a class attribute), and
restores the originals on uninstall. Each span is a tuple
(id, name, start, end, parent); counters are incremented at the same
boundaries. Spans stay in memory until the caller writes them out.
One stack tracks the open spans, so only single-threaded runs are traced.
"""

import itertools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent), in end order
        self.counts = defaultdict(float)
        self.peaks = {}
        self._stack = []
        self._ids = itertools.count(1)
        self._patches = []       # (owner, attr, original)

    def span(self, name):
        return _Span(self, name)

    def wrap(self, owner, attr, name, count=None, peak=None):
        """Replace owner.attr by a wrapper recording span `name`.

        count(args, kwargs, result, exc) may return a dict of counter
        increments and peak(args, kwargs, result, exc) a dict of values whose
        maximum is kept; both run after the call, with exc set if it raised.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                try:
                    result = original(*args, **kwargs)
                except Exception as exc:
                    tracer.record(count, peak, args, kwargs, None, exc)
                    raise
                tracer.record(count, peak, args, kwargs, result, None)
                return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def add(self, increments):
        for key, value in increments.items():
            self.counts[key] += value

    def record(self, count, peak, *call):
        if count is not None:
            self.add(count(*call))
        if peak is not None:
            for key, value in peak(*call).items():
                self.peaks[key] = max(self.peaks.get(key, value), value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.sid = next(t._ids)
        self.parent = t._stack[-1] if t._stack else None
        t._stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t._stack.pop()
        t.spans.append((self.sid, self.name, self.start, end, self.parent))
        return False


def self_times(spans):
    """Self time per span id: its duration minus the part of its interval
    covered by the union of its children's intervals."""
    children = defaultdict(list)
    for _sid, _name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _name, start, end, _parent in spans:
        covered = 0.0
        lo_run = hi_run = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if hi_run is not None and lo <= hi_run:
                hi_run = max(hi_run, hi)
                continue
            if hi_run is not None:
                covered += hi_run - lo_run
            lo_run, hi_run = lo, hi
        if hi_run is not None:
            covered += hi_run - lo_run
        out[sid] = (end - start) - covered
    return out

