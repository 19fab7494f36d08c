"""In-memory spans around the benchmark's own calls into grax.

A span is (name, start, end, parent, case, source).  The name is
``<layer>.<what>``; the layer is the grax module called (``bench`` for the
benchmark's own work).  Spans stay in memory and are written out once, at
the end of a traced run.  The untraced pass uses ``NullTracer``, which
only calls through, so both passes run the same library calls.
"""

from __future__ import annotations

import contextlib
from time import perf_counter


class NullTracer:
    enabled = False

    def call(self, name, fn, *args):
        return fn(*args)

    @contextlib.contextmanager
    def span(self, name):
        yield

    def count(self, name, n):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []  # [name, start, end, parent, case, source]
        self.counts = {}  # (name, from_probe) -> total
        self._stack = []
        self.case = None
        self.source = "case"

    def count(self, name, n):
        key = (name, self.source == "probe")
        self.counts[key] = self.counts.get(key, 0) + n

    def total(self, name):
        """A counter's total over the workload's own calls, else over the probes."""
        own = self.counts.get((name, False))
        return own if own is not None else self.counts.get((name, True), 0)

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.case, self.source]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args):
        with self.span(name):
            return fn(*args)

    # -- summaries ----------------------------------------------------------

    def durations(self, name):
        """Durations of spans with this name, and their source: the
        workload's own spans when there are any, otherwise the probes'."""
        own = [s[2] - s[1] for s in self.spans if s[0] == name and s[5] != "probe"]
        if own:
            return own, "own"
        return [s[2] - s[1] for s in self.spans if s[0] == name], "probe"

    def self_times(self):
        """Seconds of each layer's spans not covered by their child spans,
        over the workload's own spans, or the probes' for a layer the
        workload never called."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        own, probe = {}, {}
        for s, c in zip(self.spans, child):
            layer = s[0].split(".", 1)[0]
            acc = probe if s[5] == "probe" else own
            acc[layer] = acc.get(layer, 0.0) + (s[2] - s[1]) - c
        return {**probe, **own}
