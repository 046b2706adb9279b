"""Span aggregation for the traced benchmark pass.

Spans are recorded from outside the package: `Tracer.wrap` returns a wrapper
that times each call and charges it to the span that is open when the call
starts. Nothing is kept per call. Each (span name, parent name) pair keeps a
call count, a total time and a self time, so memory stays flat even when a
function is entered millions of times.

A span's self time is its duration minus the time its child spans cover.
Calls are synchronous and single-threaded, so child spans are disjoint and
the covered time is the sum of their durations.
"""

from __future__ import annotations

import time
from types import ModuleType


class Tracer:
    def __init__(self, clock=time.perf_counter, marked_child: str | None = None):
        self.clock = clock
        # (name, parent name or None) -> [calls, total_s, self_s]
        self.stats: dict[tuple[str, str | None], list] = {}
        # name -> [spans with at least one marked child, marked children]
        self.marked: dict[str, list[int]] = {}
        self._marked_child = marked_child
        self._stack: list[list] = []  # open spans: [name, child_s, marked children]

    def wrap(self, name: str, fn):
        """Return fn wrapped in a span called name."""
        stack, stats, clock = self._stack, self.stats, self.clock
        marked_child = self._marked_child

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                key = (name, parent[0] if parent else None)
                rec = stats.get(key)
                if rec is None:
                    rec = stats[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                    if name == marked_child:
                        parent[2] += 1
                if frame[2]:
                    m = self.marked.setdefault(name, [0, 0])
                    m[0] += 1
                    m[1] += frame[2]

        return traced

    def calls(self, name: str) -> int:
        return sum(rec[0] for (n, _), rec in self.stats.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum(rec[2] for (n, _), rec in self.stats.items() if n == name)

    def marked_per_span(self, name: str) -> float:
        """Marked child calls per span of name that made any (0 when none did)."""
        spans, children = self.marked.get(name, (0, 0))
        return children / spans if spans else 0.0


class Patches:
    """Replaces attributes and puts the originals back on `restore`."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_everywhere(self, modules: list[ModuleType], original, value) -> None:
        """Rebind every module global that holds original."""
        for module in modules:
            for attr, held in list(vars(module).items()):
                if held is original:
                    self.set(module, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
