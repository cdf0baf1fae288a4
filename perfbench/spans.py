"""Span recorder that traces robustchow from the outside.

The benchmark does not change the program to trace it. Instead it replaces
public functions with wrappers that open a span around each call. A module
that did `from .polybasis import eval_monomials_batch` holds its own
reference to the function, so a wrapper installed only in the defining
module would miss those calls. `Tracer.wrap` therefore rebinds every
attribute of every loaded robustchow module that is the original function.

A span has a name, start and end (perf_counter seconds), the index of the
span that was open when it began, the learner call it belongs to, and a dict
of counts. Spans stay in memory until `dump` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "call", "counts")

    def __init__(self, name, start, parent, call):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.call = call
        self.counts = {}


class Tracer:
    """Holds the spans of one run and the draw counter of the current call.

    Counting draws is always on, because `samples_drawn` is an end-to-end
    metric. Spans are recorded only while a traced learner call is open.
    """

    def __init__(self):
        self.spans = []
        self.draws = 0
        self.active = False
        self._stack = []
        self._call = -1

    # -- learner calls -------------------------------------------------

    def begin_call(self, traced: bool, name: str):
        self.draws = 0
        self.active = traced
        if traced:
            self._call += 1
            self._open(name)

    def end_call(self, error=None):
        if self.active:
            span = self._close()
            if error is not None:
                span.counts["raised"] = 1
        self.active = False

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self._call)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self):
        span = self.spans[self._stack.pop()]
        span.end = time.perf_counter()
        return span

    def _run(self, name, fn, args, kwargs, counts):
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close().counts["raised"] = 1
            raise
        self._close()
        if counts is not None:
            span.counts.update(counts(result, args, kwargs))
        return result

    # -- wrappers ------------------------------------------------------

    def counted_source(self, source):
        """Wrap a sample source (m, seed) -> LabeledSampleSet: count its rows
        as draws and, when traced, record a span per call."""
        def draw(m, seed):
            self.draws += int(m)
            if not self.active:
                return source(m, seed)
            return self._run("ltf_learner.source", source, (m, seed), {},
                             lambda res, a, k: {"rows": len(res)})
        return draw

    def rebind(self, orig, replacement):
        """Point every robustchow module attribute bound to orig at
        replacement; returns how many bindings changed."""
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "robustchow"
                                   or mod_name.startswith("robustchow.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, replacement)
                    hits += 1
        if hits == 0:
            raise RuntimeError(f"{orig.__module__}.{orig.__name__} is bound nowhere")
        return hits

    def wrap(self, module, attr, name, counts=None):
        """Record a span named `name` around every call of module.attr.

        counts(result, arguments) -> dict adds counts to the span, where
        arguments maps parameter names to the values passed.
        """
        orig = getattr(module, attr)
        sig = inspect.signature(orig)
        counts_fn = None
        if counts is not None:
            counts_fn = lambda res, a, k: counts(res, sig.bind(*a, **k).arguments)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not self.active:
                return orig(*args, **kwargs)
            return self._run(name, orig, args, kwargs, counts_fn)

        self.rebind(orig, wrapper)
        return wrapper

    def traced(self, fn, name):
        """Span around a callable the benchmark itself holds."""
        def call(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self._run(name, fn, args, kwargs, None)
        return call

    # -- results -------------------------------------------------------

    def call_totals(self):
        """Per traced learner call: {metric key: value} summed over spans.

        For each span name it sums calls, self seconds (duration minus the
        time covered by direct children) and every count key.
        """
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals = defaultdict(lambda: defaultdict(float))
        for idx, span in enumerate(self.spans):
            bucket = totals[span.call]
            bucket[f"{span.name}.calls"] += 1
            bucket[f"{span.name}.self_s"] += (span.end - span.start) - child_time[idx]
            for key, value in span.counts.items():
                bucket[f"{span.name}.{key}"] += value
        return [dict(totals[c]) for c in sorted(totals)]

    def dump(self, path):
        rows = [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "call": s.call, "counts": s.counts}
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)
