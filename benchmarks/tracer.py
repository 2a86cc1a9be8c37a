"""In-memory span tracer that wraps public functions at their module attribute.

A span records its name, start, end and parent span.  Spans stay in memory
while the benchmark runs and are written out once at exit.  The tracer
changes nothing inside the program: it replaces a module attribute (for
example ``macfair.minmax.solve``) with a wrapper, so every caller that looks
the name up through that module is traced, and puts the original back on
``close``.  A name the program no longer has is skipped, so a layer whose
public function is gone reports zero instead of failing.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

# Rounding allowed when the durations of a span's children are taken from
# its own; the rounding of perf_counter differences is far smaller.
NEST_TOL_S = 1e-9


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.enabled = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, on_result=None) -> None:
        """Trace calls to ``module.attr`` as spans called ``name``.

        ``on_result(tracer, args, kwargs, result)`` runs after the span ends
        and may add to ``tracer.counters``.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            return
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.starts[idx] = t0
                tracer.ends[idx] = t1
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, fn))

    def close(self) -> None:
        """Put every wrapped attribute back."""
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def take_counters(self) -> dict[str, int]:
        """The counters gathered since the last call, which start again at 0."""
        counters = dict(self.counters)
        self.counters.clear()
        return counters

    def summary(self, first: int = 0
                ) -> tuple[dict[str, float], dict[str, int], float, int]:
        """Self time and call count per span name, the summed duration of
        the root spans, and the number of spans whose children last longer
        than they do, over the spans recorded from index ``first`` on.

        A span's self time is its duration minus the durations of its direct
        children; children run inside their parent one after another, so
        that is the part of the interval they cover.  A negative self time
        means the spans do not nest, and is counted rather than hidden.
        """
        durations = [e - s for s, e in zip(self.starts[first:],
                                           self.ends[first:])]
        self_time = list(durations)
        root_total = 0.0
        for idx, parent in enumerate(self.parents[first:]):
            if parent >= first:
                self_time[parent - first] -= durations[idx]
            else:
                root_total += durations[idx]
        by_name: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, t in zip(self.names[first:], self_time):
            by_name[name] += t
            calls[name] += 1
        overruns = sum(t < -NEST_TOL_S for t in self_time)
        return dict(by_name), dict(calls), root_total, overruns

    def dump(self, path) -> None:
        """Write every recorded span as ``[name, start, end, parent]`` rows."""
        rows = [[n, s, e, p] for n, s, e, p in
                zip(self.names, self.starts, self.ends, self.parents)]
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": rows}, handle)
