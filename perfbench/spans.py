"""In-memory span recorder for the traced benchmark run.

While a request is being recorded, the public ``Model`` methods that make up
the layers (embed, the three encoder stages, decode, generate) are replaced
by wrappers that open a span around the original call; the benchmark opens
spans itself around the calls it makes into ``tasks``, ``training``,
``tensor``, ``optim`` and ``checkpoint``. Nothing inside ``tdt`` changes:
the wrappers are installed for one recorded request and removed after it.

A span is (name, start, end, parent, request) plus optional exact counts.
Spans stay in memory and are written once, at the end, as plain JSON and as
Chrome trace-event JSON (open the latter in chrome://tracing or Perfetto).
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np
from tdt import Model, OpCounter


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "counts")

    def __init__(self, name, start, parent, request):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.counts = {}


class Tracer:
    """Records spans only inside :meth:`recording`; elsewhere ``span`` is a no-op."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._request = None

    @contextmanager
    def span(self, name):
        if self._request is None:
            yield None
            return
        sp = Span(name, time.perf_counter_ns(),
                  self._stack[-1] if self._stack else -1, self._request)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter_ns()
            self._stack.pop()

    @contextmanager
    def recording(self, request):
        """Record one request (an int, or a string for set-up) under a root span."""
        originals = {name: Model.__dict__[name] for name in _WRAPPED}
        self._request = request
        try:
            for name, (label, count) in _WRAPPED.items():
                setattr(Model, name, self._wrap(originals[name], label, count))
            with self.span("request"):
                yield
        finally:
            for name, fn in originals.items():
                setattr(Model, name, fn)
            self._request = None

    def _wrap(self, fn, label, count):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            if count is None:
                with self.span(label):
                    return fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            if count == "score_evals":
                # The stages accept an optional counter; pass a fresh one when
                # the caller gave none so every workload's scores are counted.
                counter = bound.arguments.get("counter")
                if counter is None:
                    counter = bound.arguments["counter"] = OpCounter()
                before = counter.score_evals
            with self.span(label) as sp:
                out = fn(*bound.args, **bound.kwargs)
            if count == "score_evals":
                sp.counts[count] = counter.score_evals - before
            else:
                sp.counts[count] = int(np.asarray(bound.arguments["prefix_ids"]).size)
            return out

        return wrapper

    def layers(self, request) -> dict:
        """name -> {"self_ms", "calls", <count>...} summed over one request.

        Self time is a span's duration minus the durations of its children.
        """
        child_ns = defaultdict(int)
        for sp in self.spans:
            if sp.request == request and sp.parent >= 0:
                child_ns[sp.parent] += sp.end - sp.start
        out: dict = {}
        for idx, sp in enumerate(self.spans):
            if sp.request != request:
                continue
            row = out.setdefault(sp.name, defaultdict(float))
            row["self_ms"] += (sp.end - sp.start - child_ns[idx]) / 1e6
            row["calls"] += 1
            for key, val in sp.counts.items():
                row[key] += val
        return out

    def write(self, json_path, chrome_path, meta: dict) -> None:
        t0 = min((sp.start for sp in self.spans), default=0)
        rows = [
            {"name": sp.name, "start_us": (sp.start - t0) / 1e3, "end_us": (sp.end - t0) / 1e3,
             "parent": sp.parent, "request": sp.request, **sp.counts}
            for sp in self.spans
        ]
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": rows}, fh)
        events = [
            {"name": sp.name, "ph": "X", "pid": 1, "tid": 1,
             "ts": (sp.start - t0) / 1e3, "dur": (sp.end - sp.start) / 1e3,
             "args": {"request": sp.request, **sp.counts}}
            for sp in self.spans
        ]
        with open(chrome_path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}, fh)


# Model method -> (span name, what the span counts).
_WRAPPED = {
    "embed": ("model.embed", None),
    "encode_bottom_up": ("model.encode_bottom_up", "score_evals"),
    "encode_segments": ("model.encode_segments", "score_evals"),
    "encode_top_down": ("model.encode_top_down", "score_evals"),
    "decode": ("model.decode", "prefix_tokens"),
    "generate": ("model.generate", None),
}
