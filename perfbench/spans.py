"""In-memory span tracer that times a package's layers from outside.

The tracer swaps wrappers onto module attributes (``basins.render_basins``
and the like), so no source file of the package changes.  Callers that
look the name up at call time, through the module or its globals, then
run the wrapper, which records one span per call: name, start, end,
parent span and thread id, plus counts taken from the call's arguments
and return value.  Spans stay in memory until the tracer is discarded.

A span opened on a worker thread that has no open span of its own gets
the innermost open span of the tracer's home thread as its parent, so
kernel calls that ``render_basins`` fans out to a thread pool are its
children.  Such sibling spans overlap in time, which is why
:meth:`Tracer.self_time` subtracts the union of the child intervals
rather than their sum.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for wrapped callables; use as a context manager so the
    original attributes are restored even when a traced call raises."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._home = threading.get_ident()
        self._stacks: dict[int, list[int]] = {}
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    def wrap(
        self,
        module,
        attr: str,
        name: str,
        counter: Optional[Callable[[tuple, dict, object], dict]] = None,
    ) -> None:
        """Replace ``module.attr`` by a wrapper that records a span per call.

        ``counter(args, kwargs, result)`` runs after the span has closed and
        returns counts to attach to it.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if counter is not None:
                self.spans[index].counts = counter(args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._saved.append((module, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest wrapper first."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def open(self, name: str) -> int:
        tid = threading.get_ident()
        start = time.perf_counter()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                home = self._stacks.get(self._home)
                parent = home[-1] if home else None
            index = len(self.spans)
            self.spans.append(Span(name, start, start, parent, tid))
            stack.append(index)
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter()
        with self._lock:
            self.spans[index].end = end
            self._stacks[threading.get_ident()].pop()

    def self_time(self, index: int) -> float:
        """Duration of a span minus the union of its children's intervals."""
        span = self.spans[index]
        children = [s for s in self.spans if s.parent == index]
        covered = 0.0
        reach = span.start
        for child in sorted(children, key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return span.duration - covered
