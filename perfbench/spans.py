"""In-memory span recorder for the traced benchmark run.

A span is one call of a wrapped function: name, thread, start, end and the
span that caused it. Each thread keeps its own parent stack; a task handed
to a ``ThreadPoolExecutor`` inherits the span that submitted it, so spans
inside a worker pool nest under the caller. Nothing is written until the
caller asks for it at the end of the run.

``instrument`` wraps functions in place: the attribute on the defining
module and every reference to the same object held by the modules whose
names match ``module_prefixes`` (``from .forward import solve_u0`` copies
the reference, so patching the defining module alone would miss it).
"""
from __future__ import annotations

import concurrent.futures
import functools
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float = float("nan")


class Recorder:
    """Collects spans and counters; thread-safe."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """Innermost open span of this thread, else the span it inherited."""
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "base", None)

    def open_names(self) -> list[str]:
        """Names of the open spans on this thread's stack, outermost first."""
        return [s.name for s in self._stack()]

    @contextmanager
    def span(self, name: str):
        parent = self.current()
        sp = Span(id=next(self._ids), parent=parent.id if parent else None,
                  name=name, thread=threading.get_ident(),
                  start=time.perf_counter())
        stack = self._stack()
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    @contextmanager
    def inherit(self, parent: Span | None):
        """Run the body on this thread as a child of ``parent``."""
        saved = getattr(self._local, "base", None)
        self._local.base = parent
        try:
            yield
        finally:
            self._local.base = saved

    def add(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its children.

    Children may run on other threads and overlap each other, so the covered
    part is the length of the union of their intervals, clipped to the
    parent's interval.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        if s.parent in by_id:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end))
                for c in children.get(s.id, ())]
        covered = _union_length([iv for iv in kids if iv[1] > iv[0]])
        out[s.id] = (s.end - s.start) - covered
    return out


def aggregate(spans) -> dict[str, dict]:
    """Span name -> {"calls": n, "self_s": summed self time}."""
    selfs = self_times(spans)
    agg: dict[str, dict] = {}
    for s in spans:
        a = agg.setdefault(s.name, {"calls": 0, "self_s": 0.0})
        a["calls"] += 1
        a["self_s"] += selfs[s.id]
    return agg


def _wrap(recorder: Recorder, fn, name: str, on_result=None, on_error=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(recorder, exc, args, kwargs)
                raise
            if on_result is not None:
                on_result(recorder, result, args, kwargs)
            return result
    return wrapper


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``getattr(sys.modules[module], attr)``."""

    module: str
    attr: str
    span: str
    on_result: object = None
    on_error: object = None


@contextmanager
def instrument(recorder: Recorder, targets, module_prefixes=()):
    """Wrap every target, and every reference to it, for the body's duration.

    References are looked up by identity in the defining module and in each
    loaded module whose name starts with one of ``module_prefixes``. Worker
    tasks submitted to a ``ThreadPoolExecutor`` inherit the submitting span.
    """
    patched = []  # (namespace, attr, original)
    try:
        for t in targets:
            home = sys.modules[t.module]
            orig = getattr(home, t.attr)
            wrapper = _wrap(recorder, orig, t.span, t.on_result, t.on_error)
            spaces = [home] + [m for n, m in list(sys.modules.items())
                               if m is not None and m is not home
                               and n.startswith(tuple(module_prefixes))]
            for ns in spaces:
                for attr, val in list(vars(ns).items()):
                    if val is orig:
                        setattr(ns, attr, wrapper)
                        patched.append((ns, attr, orig))

        orig_submit = concurrent.futures.ThreadPoolExecutor.submit

        def submit(self, fn, /, *args, **kwargs):
            parent = recorder.current()

            def task(*a, **kw):
                with recorder.inherit(parent):
                    return fn(*a, **kw)
            return orig_submit(self, task, *args, **kwargs)

        concurrent.futures.ThreadPoolExecutor.submit = submit
        patched.append((concurrent.futures.ThreadPoolExecutor, "submit",
                        orig_submit))
        yield recorder
    finally:
        for ns, attr, orig in reversed(patched):
            setattr(ns, attr, orig)
