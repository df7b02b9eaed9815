"""Hierarchical tracer: nested spans over save/recover request paths.

A :class:`Tracer` records :class:`Span` objects — named, attributed,
nested intervals with ids/parent-ids and both wall and monotonic
timestamps read from an injectable :class:`~repro.obs.clock.Clock`.
Span nesting is tracked per thread via thread-local stacks, so a serial
recover builds one tree on the calling thread.

Completed spans land in a bounded ring buffer (oldest evicted first) and
export as JSON-lines — one object per span, children reference parents
by id, so a consumer can rebuild the tree of any ``trace_id``.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import deque
from contextlib import contextmanager

from .clock import Clock, SystemClock

__all__ = ["Span", "Tracer", "NullTracer"]


class Span:
    """One timed, attributed interval in a trace tree."""

    __slots__ = (
        "name", "span_id", "parent_id", "trace_id",
        "start_wall", "start_perf", "end_perf", "duration_s",
        "attrs", "status", "error",
    )

    def __init__(self, name: str, span_id: int, parent_id, trace_id: int,
                 start_wall: float, start_perf: float):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.start_wall = start_wall
        self.start_perf = start_perf
        self.end_perf = None
        self.duration_s = None
        self.attrs: dict = {}
        self.status = "ok"
        self.error = None

    def set(self, **attrs) -> "Span":
        """Attach key/value attributes to the span."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "start_wall": self.start_wall,
            "duration_s": self.duration_s,
            "status": self.status,
            "error": self.error,
            "attrs": self.attrs,
        }

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
                f"dur={self.duration_s})")


class _NullSpan:
    """Reusable no-op span returned by a disabled tracer."""

    __slots__ = ()
    name = ""
    span_id = 0
    parent_id = None
    trace_id = 0
    duration_s = 0.0
    status = "ok"
    attrs: dict = {}

    def set(self, **attrs):
        return self

    def to_dict(self) -> dict:
        return {}


_NULL_SPAN = _NullSpan()


class _NullCtx:
    """Reusable no-op context manager yielding the shared null span."""

    __slots__ = ()

    def __enter__(self):
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_CTX = _NullCtx()


class Tracer:
    """Records nested spans into a bounded ring buffer.

    Usage::

        with tracer.span("service.recover_model", model_id=mid) as sp:
            ...
            sp.set(chunks=n)

    A span opened while another is active on the same thread becomes its
    child; a root span mints a fresh ``trace_id``.
    """

    def __init__(self, clock: Clock | None = None, max_spans: int = 2048):
        self.clock = clock or SystemClock()
        self._spans: deque[Span] = deque(maxlen=max_spans)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    @property
    def enabled(self) -> bool:
        return True

    # -- thread-local span stack --------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    # -- span lifecycle -----------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        if stack:
            top = stack[-1]
            parent_id, trace_id = top.span_id, top.trace_id
        else:
            parent_id = None
            trace_id = None
        with self._lock:
            span_id = next(self._ids)
        if trace_id is None:
            trace_id = span_id
        sp = Span(name, span_id, parent_id, trace_id,
                  self.clock.now(), self.clock.perf())
        if attrs:
            sp.attrs.update(attrs)
        stack.append(sp)
        try:
            yield sp
        except BaseException as exc:
            sp.status = "error"
            sp.error = type(exc).__name__
            raise
        finally:
            sp.end_perf = self.clock.perf()
            sp.duration_s = sp.end_perf - sp.start_perf
            if stack and stack[-1] is sp:
                stack.pop()
            elif sp in stack:  # pragma: no cover - unbalanced nesting
                stack.remove(sp)
            with self._lock:
                self._spans.append(sp)

    # -- retention / export -------------------------------------------------

    def spans(self, last: int | None = None, trace_id: int | None = None) -> list[Span]:
        """Completed spans, oldest first; optionally the last N / one trace."""
        with self._lock:
            out = list(self._spans)
        if trace_id is not None:
            out = [s for s in out if s.trace_id == trace_id]
        if last is not None:
            out = out[-last:]
        return out

    def trace_ids(self) -> list[int]:
        """Distinct trace ids in the buffer, oldest first."""
        seen: dict[int, None] = {}
        for sp in self.spans():
            seen.setdefault(sp.trace_id, None)
        return list(seen)

    def tree(self, trace_id: int) -> dict:
        """Nested ``{span, children: [...]}`` dicts for one trace."""
        spans = self.spans(trace_id=trace_id)
        nodes = {s.span_id: {"span": s.to_dict(), "children": []} for s in spans}
        roots = []
        for s in spans:
            node = nodes[s.span_id]
            parent = nodes.get(s.parent_id) if s.parent_id is not None else None
            if parent is not None:
                parent["children"].append(node)
            else:
                roots.append(node)
        return {"trace_id": trace_id, "roots": roots}

    def to_jsonl(self, last: int | None = None) -> str:
        """JSON-lines export: one span object per line, oldest first."""
        return "\n".join(json.dumps(s.to_dict(), sort_keys=True)
                         for s in self.spans(last=last))

    def reset(self) -> None:
        with self._lock:
            self._spans.clear()


class NullTracer(Tracer):
    """Disabled tracer: span() is a shared no-op context manager."""

    def __init__(self, clock: Clock | None = None):
        super().__init__(clock=clock, max_spans=1)

    @property
    def enabled(self) -> bool:
        return False

    def span(self, name: str, **attrs):
        return _NULL_CTX

    def spans(self, last=None, trace_id=None):
        return []

    def to_jsonl(self, last=None) -> str:
        return ""
