"""In-memory spans recorded by the benchmark around its calls into each layer.

A span is ``(id, parent id, name, start, end)`` on the ``perf_counter``
clock.  The workloads open one around every public call they make into a
layer (``with tr.span("core.partition"): ...``); the first dotted component
of the name is the layer.  Spans nest strictly (one thread), so a span's
self time is its duration minus the durations of its direct children.

:data:`NULL` is the tracer of untraced runs: its ``span`` returns a shared
no-op context manager, so an untraced pass pays one attribute lookup and
one call per layer boundary.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Dict, Iterator, List, Optional, Tuple

Span = Tuple[int, Optional[int], str, float, float]


class _Open:
    """Context manager of one open span (closes it on exit)."""

    __slots__ = ("tracer", "sid")

    def __init__(self, tracer: "Tracer", sid: int) -> None:
        self.tracer = tracer
        self.sid = sid

    def __enter__(self) -> None:
        return None

    def __exit__(self, *_exc: object) -> None:
        self.tracer._close(self.sid)


class Tracer:
    """Records spans in memory; the harness writes :meth:`rows` out at exit."""

    def __init__(self) -> None:
        self.spans: List[List[object]] = []
        self._stack: List[int] = []

    def span(self, name: str) -> _Open:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, time.perf_counter(), None])
        self._stack.append(sid)
        return _Open(self, sid)

    def _close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    def closed(self) -> Iterator[Span]:
        for sid, parent, name, start, end in self.spans:
            if end is not None:
                yield sid, parent, name, start, end  # type: ignore[misc]

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        own = {sid: end - start for sid, _p, _n, start, end in self.closed()}
        for sid, parent, _n, start, end in self.closed():
            if parent is not None and parent in own:
                own[parent] -= end - start
        return own

    def rows(self) -> List[Dict[str, object]]:
        """The closed spans as JSON-ready records."""
        return [
            {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
            for sid, parent, name, start, end in self.closed()
        ]

    def durations(self, name: str) -> List[float]:
        return [end - start for _s, _p, n, start, end in self.closed() if n == name]


class _NullTracer:
    """Tracer of untraced runs: spans cost one shared no-op context."""

    _NOOP = nullcontext()

    def span(self, _name: str) -> nullcontext:
        return self._NOOP


NULL = _NullTracer()


def summarize(tracer: Tracer) -> Tuple[Dict[str, float], Dict[str, float]]:
    """``(time by span name, self time by layer)`` over every closed span.

    Span-name totals keep the layer's own leaf names (``replay.lru``,
    ``placement.search.swap``); self time is charged to the span's layer,
    and the root ``pass`` span's self time is the pass's unattributed time.
    """
    by_name: Dict[str, float] = {}
    by_layer: Dict[str, float] = {}
    own = tracer.self_times()
    for sid, _parent, name, start, end in tracer.closed():
        by_name[name] = by_name.get(name, 0.0) + (end - start)
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + own[sid]
    return by_name, by_layer
