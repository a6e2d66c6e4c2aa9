"""Outside-in tracer: wraps public names of the package and aggregates spans.

Each wrapped call is a span.  Spans nest through a stack, so a span's self
time is its busy time minus the busy time of the traced spans it caused.
Only aggregates are kept (calls, busy, child time, optional per-call
durations); nothing inside the package is edited.
"""
from __future__ import annotations

import functools
import time


class Tracer:
    def __init__(self):
        self.stats = {}      # metric name -> [calls, busy_s, child_s]
        self.samples = {}    # metric name -> per-call durations in s
        self.present = set()
        self.counters = {}
        self._stack = []
        self._undo = []

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def traced(self, fn, name, keep_samples=False, on_result=None, fail_counter=None):
        """Return fn wrapped in a span that feeds the metric `name`.

        on_result(args, out) sees each result and returns what the caller
        gets; fail_counter names a counter bumped when the call raises.
        """
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        samples = self.samples.setdefault(name, []) if keep_samples else None
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += stack.pop()
                if not ok and fail_counter is not None:
                    self.count(fail_counter)
                if stack:
                    stack[-1] += dt
                if samples is not None:
                    samples.append(dt)
            if on_result is not None:
                out = on_result(args, out)
            return out

        return span

    def wrap(self, owner, attr, name, **kw):
        """Replace owner.attr by a traced version; a missing name is absent."""
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None:
            self.stats.setdefault(name, [0, 0.0, 0.0])
            return
        self.present.add(name)
        setattr(owner, attr, self.traced(fn, name, **kw))
        self._undo.append((owner, attr, fn))

    def wrap_factory(self, owner, attr, name):
        """Trace the closures a factory returns, not the factory itself."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.stats.setdefault(name, [0, 0.0, 0.0])
            return
        self.present.add(name)

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            return self.traced(fn(*args, **kwargs), name)

        setattr(owner, attr, factory)
        self._undo.append((owner, attr, fn))

    def uninstall(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    # -- readout ---------------------------------------------------------

    def calls(self, name):
        return self.stats.get(name, [0])[0]

    def busy(self, name):
        return self.stats.get(name, [0, 0.0])[1]

    def self_time(self, name):
        stat = self.stats.get(name, [0, 0.0, 0.0])
        return stat[1] - stat[2]

    def absent(self):
        return sorted(set(self.stats) - self.present)
