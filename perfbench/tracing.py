"""Spans around the benchmark's calls into ewaldkit, kept in memory.

Spans come from the benchmark's own calls (Tracer.call) and from the calls
one ewaldkit module makes into the others (Tracer.patched, which swaps the
names that module imported for traced wrappers while a run lasts).

A span has a name (`<module>.<function>` of the call, or `item`), a start
and end in perf_counter nanoseconds, the span that encloses it and the item
it belongs to.  An attributed span re-times, on the side, work that another
public call already did inside itself (for example the vertex enumeration
inside parse_polytope); it shows where that call's time went and is left
out of every total.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from time import perf_counter_ns


class NullTracer:
    """Tracing off: calls go straight through."""

    on = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, counter, value):
        pass


class Tracer:
    on = True

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.item = None
        self._open = []

    @contextmanager
    def span(self, name, attributed=False):
        rec = {
            "id": len(self.spans),
            "name": name,
            "item": self.item,
            "parent": self._open[-1]["id"] if self._open else None,
            "attributed": attributed,
            "start": perf_counter_ns(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter_ns()
            self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def patched(self, module, names):
        """While active, module's calls to the functions it imported as
        `names` go through a span named after the function's own module."""
        saved = {name: getattr(module, name) for name in names}
        for name, fn in saved.items():
            setattr(module, name, self._wrap(fn))
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(module, name, fn)

    def _wrap(self, fn):
        name = "%s.%s" % (fn.__module__.rsplit(".", 1)[-1], fn.__name__)

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def attribute(self, name, fn):
        with self.span(name, attributed=True):
            return fn()

    def add(self, counter, value):
        self.counters[counter] = self.counters.get(counter, 0) + value

    def self_times(self):
        """Seconds per span name: each span's duration minus its children's."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = {}
        for s in self.spans:
            own = (s["end"] - s["start"] - child[s["id"]]) / 1e9
            key = (s["name"], s["attributed"])
            out[key] = out.get(key, 0.0) + own
        return out

    def calls(self, name):
        return sum(1 for s in self.spans if s["name"] == name and not s["attributed"])

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)
