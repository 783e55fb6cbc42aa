"""In-memory spans and counters recorded around the package's public calls.

Each wrapped function is replaced *where its consumer looks it up* (for
example ``thermaldrift.sim.vehicle_derivatives`` rather than the model
module's own attribute), so one wrapper measures one layer as seen by one
caller.  Two kinds of wrapper exist:

* span wrappers append one record per call: name, start, end, parent span,
  run id, self time and optional attributes;
* hot wrappers (model evaluations, residuals, projections: hundreds of
  thousands of calls per run) only aggregate count, total and self time.

Self time is a call's duration minus the durations of the wrapped calls made
directly inside it, span or hot.  Both kinds feed the per-name totals in
``stats``; spans are kept for the trace file.
"""

from __future__ import annotations

import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.run_id = 0
        self.spans = []          # [name, start, end, parent, run_id, self_s, attrs]
        self.stats = {}          # name -> [count, total_s, self_s]
        self._stack = []         # per open call: [child_s]
        self._current = None     # index of the innermost open span

    def _close(self, name, frame, duration):
        self._stack.pop()
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += duration
        st[2] += duration - frame[0]
        if self._stack:
            self._stack[-1][0] += duration

    def hot(self, name, fn):
        clock, stack = self.clock, self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, frame, clock() - t0)

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name, fn, on_return=None):
        """Span wrapper; ``on_return(result, args, kwargs, attrs)`` may add
        attributes to the span from the call's arguments and result."""
        clock, stack = self.clock, self._stack

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, self._current, self.run_id, 0.0, {}]
            index = len(self.spans)
            self.spans.append(record)
            parent, self._current = self._current, index
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            record[1] = t0
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[6]["error"] = type(exc).__name__
                raise
            finally:
                t1 = clock()
                record[2] = t1
                record[5] = (t1 - t0) - frame[0]
                self._current = parent
                self._close(name, frame, t1 - t0)
            if on_return is not None:
                on_return(result, args, kwargs, record[6])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def children(self, index):
        return [i for i, sp in enumerate(self.spans) if sp[3] == index]

    def to_json(self):
        return {
            "spans": [{"name": n, "start": a, "end": b, "parent": p,
                       "run_id": r, "self_s": s, "attrs": at}
                      for n, a, b, p, r, s, at in self.spans],
            "stats": {k: {"count": c, "total_s": t, "self_s": s}
                      for k, (c, t, s) in sorted(self.stats.items())},
        }


def span_self_times(spans):
    """Self time of each span from its interval and its child spans alone
    (the part of the interval the children cover is subtracted).  Used to
    cross-check the running arithmetic when no hot calls are involved."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - covered[i]
            for i, (name, start, end, *_) in enumerate(spans)]


class Patcher:
    """Replaces module attributes and restores every one on ``restore``."""

    def __init__(self):
        self._saved = []

    def set(self, obj, attr, value):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def restore(self):
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)


class AttrProxy:
    """Stands in for a module, overriding some attributes.  Used to wrap
    ``scipy.optimize.minimize`` only as ``thermaldrift.trajopt`` calls it."""

    def __init__(self, target, **overrides):
        self._target = target
        self._overrides = overrides

    def __getattr__(self, name):
        if name in self._overrides:
            return self._overrides[name]
        return getattr(self._target, name)
