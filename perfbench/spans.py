"""Wall-clock spans recorded from outside the program.

The traced run monkeypatches public entry points of the repo's layers
with wrappers that record a :class:`Span` (name, layer, start, end,
parent, op id) around each call.  Nothing inside ``src/`` is changed:
:meth:`Tracer.patch` swaps an attribute for a wrapper and
:meth:`Tracer.restore` puts every original back.

A layer's *self time* is the duration of its spans minus the part of
each span that its child spans cover, so the self times of nested
spans add up to the wall time of the outermost one.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager

BENCH_LAYER = "bench"


class Span:
    __slots__ = ("sid", "name", "layer", "start", "end", "parent", "op",
                 "info")

    def __init__(self, sid, name, layer, start, parent, op):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.info = None

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for the benchmark's own process.

    Wrappers called in a forked child (which inherits the patches) pass
    straight through: spans are only recorded in the process that
    created the tracer.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []
        self._pid = os.getpid()
        self.op = None                  # id of the packet/slot/shard/batch

    # -- recording -----------------------------------------------------------

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, layer, time.perf_counter(),
                    parent, self.op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str = BENCH_LAYER):
        span = self._open(name, layer)
        try:
            yield span
        finally:
            self._close(span)

    def add(self, name: str, layer: str, start: float, end: float,
            parent: Span) -> Span:
        """Record a span measured elsewhere (e.g. reported by a shard)."""
        span = Span(len(self.spans), name, layer, start, parent.sid,
                    parent.op)
        span.end = end
        self.spans.append(span)
        return span

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, name: str, layer: str,
              after=None) -> None:
        """Wrap ``owner.attr`` (a module function, method, classmethod or
        staticmethod) in a span.  ``after(span, args, result)`` runs
        once the span is closed, so its cost is not timed.  A missing
        attribute is skipped: the layer then simply reads zero."""
        raw = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if raw is None:
            return
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
            else None
        func = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return func(*args, **kwargs)
            span = tracer._open(name, layer)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                after(span, args, result)
            return result

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis ------------------------------------------------------------

    def self_times(self, roots) -> dict:
        """``layer -> self seconds`` over the subtrees of ``roots``."""
        kids: dict = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(s)
        out: dict = {}
        todo = list(roots)
        while todo:
            s = todo.pop()
            ks = kids.get(s.sid, [])
            covered = _union_length(
                [(max(k.start, s.start), min(k.end, s.end)) for k in ks])
            out[s.layer] = out.get(s.layer, 0.0) + max(s.dur - covered, 0.0)
            todo.extend(ks)
        return out

    def named(self, name: str) -> list:
        return [s for s in self.spans if s.name == name]


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for a, b in sorted(i for i in intervals if i[1] > i[0]):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def layer_metrics(self_s: dict, wall_s: float, batches: int,
                  layers) -> dict:
    """Per-layer self seconds per batch, plus coverage: the share of the
    traced wall time that repo layers (everything but the benchmark's
    own glue) account for."""
    out = {}
    for layer in layers:
        out[f"layer.{layer}.self_s"] = self_s.get(layer, 0.0) / max(batches, 1)
    repo = sum(v for k, v in self_s.items() if k != BENCH_LAYER)
    out["trace.coverage"] = repo / wall_s if wall_s > 0 else 0.0
    return out
