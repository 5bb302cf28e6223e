"""Out-of-program tracing for the traced benchmark run.

The benchmark does not edit the program to trace it.  Instead it wraps the
public functions a workload calls into, at every place they are bound:
``wrap_function`` replaces a module-level function in its home module
*and* in every ``repro.*`` module that imported it by name, and
``wrap_method`` replaces a method on its class.  Each wrapped call records
one span (name, start, end, parent, run id) in memory; ``unwrap_all``
restores the originals.  Spans are written out when the run ends.

Per-call hot paths (``ShortestPathEngine.distance`` runs millions of times
per run) are deliberately not wrapped; their work is read from the
counters the program already exposes.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    run_id: int = 0
    index: int = 0
    children: list[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from wrapped calls; nesting follows the call stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = 0
        self.enabled = True
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent=parent,
                    run_id=self.run_id, index=len(self.spans))
        self.spans.append(span)
        if parent is not None:
            self.spans[parent].children.append(span.index)
        self._stack.append(span.index)
        return span.index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:  # pragma: no cover - unbalanced wrapper use
            raise RuntimeError("span stack out of order")

    def span(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        index = self.open(name)
        try:
            return fn()
        finally:
            self.close(index)

    def _wrapper(self, name: str, original: Callable) -> Callable:
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            index = recorder.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                recorder.close(index)

        return traced

    # -- installing -----------------------------------------------------
    def wrap_function(self, module: Any, attr: str, name: str) -> None:
        """Wrap ``module.attr`` wherever a ``repro`` module bound it."""
        original = getattr(module, attr)
        traced = self._wrapper(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, traced)

    def wrap_method(self, cls: type, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        if isinstance(original, classmethod):
            traced = classmethod(self._wrapper(name, original.__func__))
        else:
            traced = self._wrapper(name, original)
        setattr(cls, attr, traced)

    def unwrap_all(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- reading --------------------------------------------------------
    def roots(self, run_ids: Iterable[int] | None = None) -> list[Span]:
        wanted = None if run_ids is None else set(run_ids)
        return [
            s for s in self.spans
            if s.parent is None and (wanted is None or s.run_id in wanted)
        ]

    def to_tree(self, span: Span, origin: float) -> dict[str, Any]:
        """``span`` as a :mod:`repro.obs.export` span-tree dict."""
        node: dict[str, Any] = {
            "name": span.name,
            "duration_s": span.duration,
            "start_offset_s": span.start - origin,
            "end_offset_s": span.end - origin,
        }
        if span.children:
            node["children"] = [
                self.to_tree(self.spans[i], origin) for i in span.children
            ]
        return node


def self_time(span: Span, children: Iterable[Span]) -> float:
    """``span``'s duration minus the part of it its children cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so concurrent or sloppy child spans are never counted
    twice.
    """
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    covered = 0.0
    cursor = span.start
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return max(0.0, span.duration - covered)
