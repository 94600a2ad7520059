"""Outside-in span tracer: times calls into the program's layers.

The tracer replaces public methods at class level (and module functions
at the reference the benchmark calls) with wrappers that record one span
per call: name, start, end, parent span and request id.  Spans and
counts stay in memory in flat arrays and are written out when the run
ends.  Nothing inside the program is edited; pool workers and server
processes are not visible, so only the benchmark process's own layers
are traced.

A span's self time is its duration minus the time its child spans
cover.  Calls on one thread nest strictly, so children never overlap
and the covered time is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import json
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional


def _classes_defining(base: type, attr: str) -> List[type]:
    """``base`` and every subclass whose own ``__dict__`` defines ``attr``."""
    found: List[type] = []
    todo = [base]
    seen = set()
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if attr in cls.__dict__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


class Tracer:
    """In-memory span and count recorder for one benchmark process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        #: Id of the request the spans being recorded belong to.
        self.current_request = -1
        self._stack = [-1]

    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def clear(self) -> None:
        """Forget every span and count (keeps the installed wrappers)."""
        for arr in (self.name, self.parent, self.request, self.start, self.end):
            del arr[:]
        self.counts.clear()
        self._stack[:] = [-1]

    def add_span(
        self, name: str, start: float, end: float, parent: int = -1,
        request: int = -1,
    ) -> int:
        """Record a finished span with explicit times (for async clients)."""
        idx = len(self.name)
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.request.append(request)
        self.start.append(start)
        self.end.append(end)
        return idx

    def traced(
        self,
        fn: Callable,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped to record a span named ``name`` per call.

        ``before(args)`` runs ahead of the call and its return value is
        handed to ``after(args, result, token)``; both run outside the
        span's clock readings but inside its parent's.
        """
        nid = self.name_id(name)
        names, parents, requests = self.name, self.parent, self.request
        starts, ends, stack = self.start, self.end, self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(tracer.current_request)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, result, token)
            return result

        return wrapper

    def wrap_method(
        self,
        base: type,
        attr: str,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Wrap ``attr`` on ``base`` and every subclass that overrides it."""
        classes = _classes_defining(base, attr)
        if not classes:
            raise AttributeError(f"{base.__name__} has no method {attr!r}")
        for cls in classes:
            original = cls.__dict__[attr]
            setattr(cls, attr, self.traced(original, name, before, after))

    def span(self, name: str) -> "_Span":
        """Context manager recording a benchmark-level span."""
        return _Span(self, self.name_id(name))

    # ------------------------------------------------------------------
    # Analysis (after the traced pass; never inside a timed region)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.name)

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name."""
        n = len(self.name)
        covered = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        totals: Dict[str, float] = {name: 0.0 for name in self.names}
        names = self.names
        for i in range(n):
            totals[names[self.name[i]]] += end[i] - start[i] - covered[i]
        return totals

    def durations(self, name: str) -> List[float]:
        nid = self._ids.get(name)
        if nid is None:
            return []
        return [
            self.end[i] - self.start[i]
            for i in range(len(self.name))
            if self.name[i] == nid
        ]

    def calls(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.name.count(nid)

    def dump(self, path: str) -> None:
        """Write every span and count as one JSON document."""
        doc = {
            "names": self.names,
            "counts": dict(self.counts),
            "spans": {
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "request": self.request.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


class _Span:
    __slots__ = ("tracer", "nid", "idx")

    def __init__(self, tracer: Tracer, nid: int) -> None:
        self.tracer = tracer
        self.nid = nid
        self.idx = -1

    def __enter__(self) -> "_Span":
        t = self.tracer
        self.idx = len(t.name)
        t.name.append(self.nid)
        t.parent.append(t._stack[-1])
        t.request.append(t.current_request)
        t.start.append(perf_counter())
        t.end.append(0.0)
        t._stack.append(self.idx)
        return self

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.end[self.idx] = perf_counter()
        t._stack.pop()
