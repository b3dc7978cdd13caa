"""Span recording around the public functions of the ``repro`` layers.

The benchmark measures the layers from outside: :class:`Tracer` wraps
functions and methods named by a probe list for the duration of a
``with tracer.installed(probes):`` block and restores the originals on
exit, so nothing under ``src/`` changes.  Each call records one span
(name, start, end, parent, thread) in memory; spans of one thread nest
through a thread-local stack, so a span's parent is the innermost
wrapped call that was open when it started.

A layer's *self time* is its span's duration minus the time covered by
its child spans.  Self times of all spans under one root add up to the
root's duration exactly, which is how the benchmark checks that the
per-layer split accounts for the traced wall clock.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Probe:
    """One wrapped callable.

    ``owner`` is a class or a module; ``attr`` the attribute to wrap.
    Module functions are replaced in every loaded ``repro`` module that
    imported them by name, so ``from x import f`` call sites are seen.
    ``count`` optionally maps the call's result to a work count that is
    added to the span (e.g. occurrences generated).
    """

    span: str
    owner: object
    attr: str
    count: object = None


class Tracer:
    """In-memory span store plus the patching that feeds it."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent, thread, count]`` per span.
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        stack = self._stack()
        record = [
            name,
            time.perf_counter(),
            0.0,
            stack[-1] if stack else -1,
            threading.get_ident(),
            0,
        ]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            stack.pop()
            record[2] = time.perf_counter()

    def wrap(self, name: str, function, count=None):
        """``function`` with every call recorded as span ``name``."""
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as record:
                result = function(*args, **kwargs)
                if count is not None:
                    record[5] = count(result)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    @contextmanager
    def installed(self, probes: list[Probe]):
        """Wrap every probe for the duration of the block."""
        undo: list[tuple[object, str, object]] = []
        try:
            for probe in probes:
                undo.extend(self._install(probe))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _install(self, probe: Probe) -> list[tuple[object, str, object]]:
        owner, attr = probe.owner, probe.attr
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    self.wrap(probe.span, raw.__func__, probe.count)
                )
            else:
                wrapped = self.wrap(probe.span, raw, probe.count)
            setattr(owner, attr, wrapped)
            return [(owner, attr, raw)]
        original = getattr(owner, attr)
        wrapped = self.wrap(probe.span, original, probe.count)
        undo = []
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    undo.append((module, key, original))
        return undo

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def children_time(self) -> list[float]:
        """Per span: the summed duration of its direct children."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return covered

    def subtree(self, root: int) -> list[int]:
        """Indices of ``root`` and every span below it."""
        below: dict[int, list[int]] = {}
        for index, record in enumerate(self.spans):
            below.setdefault(record[3], []).append(index)
        out, todo = [], [root]
        while todo:
            index = todo.pop()
            out.append(index)
            todo.extend(below.get(index, ()))
        return out

    def summarize(self, roots: list[int]) -> dict[str, dict[str, float]]:
        """Self time, inclusive time, calls and counts per span name.

        Only spans under ``roots`` count (a root's own self time is
        reported under its name like any other span).
        """
        covered = self.children_time()
        table: dict[str, dict[str, float]] = {}
        for root in roots:
            for index in self.subtree(root):
                name, start, end, _, _, count = self.spans[index]
                row = table.setdefault(
                    name,
                    {"self_s": 0.0, "total_s": 0.0, "calls": 0, "count": 0},
                )
                row["self_s"] += (end - start) - covered[index]
                row["total_s"] += end - start
                row["calls"] += 1
                row["count"] += count
        return table

    def roots(self, name: str) -> list[int]:
        """Indices of top-level spans called ``name``."""
        return [
            index
            for index, record in enumerate(self.spans)
            if record[0] == name and record[3] < 0
        ]

    def duration(self, index: int) -> float:
        record = self.spans[index]
        return record[2] - record[1]

    def dump(self, path) -> None:
        """Write every span as JSON (start/end relative to the first)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            json.dump(
                [
                    {
                        "name": name,
                        "start": start - origin,
                        "end": end - origin,
                        "parent": parent,
                        "thread": thread,
                        "count": count,
                    }
                    for name, start, end, parent, thread, count in self.spans
                ],
                handle,
            )


def self_time(table: dict, name: str) -> float:
    """Self seconds of ``name`` in a :meth:`Tracer.summarize` table."""
    return table.get(name, {}).get("self_s", 0.0)


def total_time(table: dict, name: str) -> float:
    """Inclusive seconds of ``name`` in a summary table."""
    return table.get(name, {}).get("total_s", 0.0)


def calls(table: dict, name: str) -> int:
    return int(table.get(name, {}).get("calls", 0))


def counted(table: dict, name: str) -> int:
    return int(table.get(name, {}).get("count", 0))
