"""Outside-in span tracer for the benchmark's traced runs.

The program under test is not edited: :class:`Patcher` replaces a layer's
public entry points (module functions and class methods) with wrappers
that open a span around each call, and puts the originals back when the
traced run ends.  Spans live in memory until :meth:`Tracer.dump`.

Each thread keeps its own span stack, so a span opened on a broker pool
thread nests under that thread's open spans only.  Work that hops
threads (an HTTP handler thread submits, a pool thread runs the engine)
is joined with :meth:`Tracer.link` / :meth:`Tracer.take_link`: the span
that hands work off registers itself under a key, and the first span
opened on the receiving thread with an empty stack adopts it as parent.

A span's self time is its duration minus the part of that interval its
child spans cover (:func:`self_times`), so self times of a span tree add
up to its root's duration whenever children stay inside their parents
and do not overlap each other — the check :func:`attribution` reports.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict


class Span:
    """One timed call: ``key`` names the layer entry (``solver.solve``)."""

    __slots__ = ("id", "key", "parent", "request", "thread", "start", "end", "attrs")

    def __init__(self, span_id, key, parent, request, start):
        self.id = span_id
        self.key = key
        self.parent = parent
        self.request = request
        self.thread = threading.get_ident()
        self.start = start
        self.end = None
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "key": self.key,
            "parent": self.parent,
            "request": self.request,
            "thread": self.thread,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class Tracer:
    """Thread-safe span recorder with one span stack per thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._links: dict = defaultdict(list)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, key: str, parent: Span | None = None, request=None) -> Span:
        """Start a span without pushing it (it may end on another thread).

        The parent defaults to the top of this thread's stack; the
        request id is inherited from the parent unless given.
        """
        if parent is None:
            parent = self.current()
        if request is None and parent is not None:
            request = parent.request
        with self._lock:
            span = Span(
                next(self._ids),
                key,
                parent.id if parent is not None else None,
                request,
                self.clock(),
            )
            self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        if span.end is None:
            span.end = self.clock()

    def enter(self, key: str, parent: Span | None = None, request=None) -> Span:
        """Open a span and push it on this thread's stack."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        span = self.open(key, parent=parent, request=request)
        stack.append(span)
        return span

    def exit(self, span: Span) -> None:
        """Close the span :meth:`enter` opened last on this thread."""
        self.close(span)
        self._stack().pop()

    def link(self, key, span: Span) -> None:
        """Offer ``span`` as the parent for work picked up under ``key``."""
        with self._lock:
            self._links[key].append(span)

    def take_link(self, key) -> Span | None:
        with self._lock:
            waiting = self._links.get(key)
            if not waiting:
                return None
            span = waiting.pop(0)
            if not waiting:
                del self._links[key]
            return span

    def drop_link(self, key, span: Span) -> None:
        with self._lock:
            waiting = self._links.get(key)
            if waiting and span in waiting:
                waiting.remove(span)
                if not waiting:
                    del self._links[key]

    def dump(self, path: str) -> None:
        """Write every span, one JSON object per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict(), default=str))
                handle.write("\n")


def _union_length(intervals: list, lo: float, hi: float) -> float:
    covered = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def self_times(spans: list[Span]) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration
        - _union_length(children.get(span.id, []), span.start, span.end)
        for span in spans
    }


def attribution(spans: list[Span]) -> dict:
    """Per-key self time and entry counts, and the additivity check.

    ``calls`` counts entries into a key from outside it: a span whose
    parent carries the same key (a layer re-entering itself) is folded
    into the outer call.  ``wall_s`` is the summed duration of root
    spans; ``error_s`` is how far the summed self times miss it (0 when
    children nest inside parents without overlapping).
    """
    selfs = self_times(spans)
    by_id = {span.id: span for span in spans}
    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    for span in spans:
        self_s[span.key] += selfs[span.id]
        parent = by_id.get(span.parent)
        if parent is None or parent.key != span.key:
            calls[span.key] += 1
    wall = sum(span.duration for span in spans if span.parent is None)
    return {
        "self_s": dict(self_s),
        "calls": dict(calls),
        "wall_s": wall,
        "error_s": sum(selfs.values()) - wall,
    }


class Patcher:
    """Installs span wrappers on entry points and restores the originals.

    A function is replaced wherever a loaded ``repro`` module binds it by
    name (``from .csa import csa_solve`` copies the reference), so
    every caller goes through the wrapper.  :meth:`restore` undoes each
    replacement in reverse order.
    """

    def __init__(self, package: str = "repro"):
        self.package = package
        self._undo: list = []

    def _resolve(self, module_name: str, qualname: str):
        owner = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, attr

    def wrap(self, module_name: str, qualname: str, make_wrapper) -> None:
        """Replace ``module_name.qualname`` by ``make_wrapper(original)``."""
        owner, attr = self._resolve(module_name, qualname)
        original = owner.__dict__[attr]
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, original))
            return
        prefix = self.package + "."
        for name, module in list(sys.modules.items()):
            if module is None or not (name == self.package or name.startswith(prefix)):
                continue
            for bound, value in list(vars(module).items()):
                if value is original:
                    setattr(module, bound, wrapper)
                    self._undo.append((module, bound, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def span_wrapper(tracer: Tracer, key: str, after=None, parent_of=None):
    """Wrapper factory: one span per call, ``after(span, args, result)``
    records attributes, ``parent_of(args)`` adopts a cross-thread parent
    when this thread has no open span."""

    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = None
            if parent_of is not None and tracer.current() is None:
                parent = parent_of(args, kwargs)
            span = tracer.enter(key, parent=parent)
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    after(span, args, kwargs, result)
                return result
            finally:
                tracer.exit(span)

        return wrapper

    return make
