"""A sampling profiler over ``sys._current_frames()``.

:class:`SamplingProfiler` wakes up ``hz`` times a second on a daemon
thread, walks the Python stack of every (or one selected) thread, and
aggregates what it saw as folded stacks — the same
``module:function;module:function N`` format the span exporter emits
(:mod:`repro.obs.export`), except the value is a *sample count* rather
than microseconds.  Piping :meth:`SamplingProfiler.folded_text` through
``flamegraph.pl`` answers *where inside a phase the time goes*, below
the per-layer self times that spans and neatbench's ``--trace 1`` give.

Design constraints:

* **off by default, free when off** — nothing is created or sampled
  until :meth:`start`; the instrumented code paths never reference the
  profiler (it observes from outside via the interpreter's frame table),
  so CI's disabled-telemetry < 2% overhead gate
  (``bench_observability_overhead``) is untouched;
* **span-phase attribution** — pass ``phase=phase_from_tracer(tracer)``
  and every sample is prefixed with the innermost open span's name, so
  one profile splits cleanly into ``phase1.fragmentation;...`` vs
  ``phase3.refinement;...`` stacks;
* **deterministic tests** — :meth:`sample_once` takes exactly one sample
  synchronously, so tests never depend on wall-clock scheduling.

Sampling is statistical: a sample may catch a frame mid-transition, and
the phase read races the traced thread by design.  Both are standard
sampling-profiler trade-offs; at the default 97 Hz the overhead is a few
stack walks per 10 ms, far below the pipeline's per-phase costs.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from typing import Any, Callable

from .tracing import Tracer

__all__ = ["SamplingProfiler", "phase_from_tracer"]

#: Default sampling rate: a prime, so periodic work does not alias.
DEFAULT_HZ = 97.0


def phase_from_tracer(tracer: Tracer) -> Callable[[], str]:
    """A phase provider reading the tracer's innermost open span name.

    The read is unlocked (one list index against the traced thread's
    stack); a sample that races a span boundary lands in one of the two
    adjacent phases, which statistical profiles tolerate.
    """

    def current_phase() -> str:
        stack = tracer._stack
        return stack[-1].name if stack else ""

    return current_phase


def _frame_label(frame: Any) -> str:
    code = frame.f_code
    module = frame.f_globals.get("__name__", "?")
    return f"{module}:{code.co_name}"


class SamplingProfiler:
    """Aggregates folded Python stacks sampled at a fixed rate.

    Args:
        hz: Samples per second while running (must be > 0).
        phase: Optional zero-argument callable naming the current span
            phase; a non-empty result prefixes each sampled stack (see
            :func:`phase_from_tracer`).
        thread_id: Restrict sampling to one thread (``threading.get_ident``
            of the pipeline thread, usually); ``None`` samples every
            thread except the profiler's own.
        max_depth: Frames kept per stack (innermost dropped beyond it),
            bounding the folded-path length on pathological recursion.

    Use as a context manager (``with SamplingProfiler(...) as prof:``)
    or via explicit :meth:`start`/:meth:`stop`.
    """

    def __init__(
        self,
        hz: float = DEFAULT_HZ,
        phase: Callable[[], str] | None = None,
        thread_id: int | None = None,
        max_depth: int = 64,
    ) -> None:
        if hz <= 0:
            raise ValueError(f"hz must be > 0, got {hz}")
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.hz = float(hz)
        self.phase = phase
        self.thread_id = thread_id
        self.max_depth = max_depth
        self.samples = 0
        self._stacks: dict[str, int] = {}
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ------------------------------------------------------
    @property
    def running(self) -> bool:
        """Whether the sampler thread is active."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        """Spawn the sampler thread (idempotent while running)."""
        if self.running:
            return self
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop and join the sampler thread (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        self._stop_event.set()
        thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _run(self) -> None:
        interval = 1.0 / self.hz
        while not self._stop_event.wait(interval):
            self.sample_once()

    # -- sampling -------------------------------------------------------
    def sample_once(self) -> int:
        """Take one sample of every selected thread; returns stacks added.

        Public so tests (and cooperative callers) can sample
        deterministically without the timer thread.
        """
        own_id = threading.get_ident()
        phase = ""
        if self.phase is not None:
            try:
                phase = self.phase() or ""
            except Exception:
                phase = ""
        recorded = 0
        for thread_id, frame in sys._current_frames().items():
            if thread_id == own_id:
                continue
            if self.thread_id is not None and thread_id != self.thread_id:
                continue
            labels: list[str] = []
            while frame is not None and len(labels) < self.max_depth:
                labels.append(_frame_label(frame))
                frame = frame.f_back
            if not labels:
                continue
            labels.reverse()  # root-first, the folded convention
            if phase:
                labels.insert(0, phase)
            path = ";".join(labels)
            with self._lock:
                self._stacks[path] = self._stacks.get(path, 0) + 1
            recorded += 1
        self.samples += 1
        return recorded

    # -- export ---------------------------------------------------------
    def folded(self) -> dict[str, int]:
        """``{stack_path: sample_count}`` snapshot of everything sampled."""
        with self._lock:
            return dict(self._stacks)

    def folded_text(self) -> str:
        """The samples in the one-line-per-stack flamegraph format."""
        return "\n".join(
            f"{path} {count}" for path, count in sorted(self.folded().items())
        )

    def save(self, path: str | Path) -> Path:
        """Write :meth:`folded_text` (plus trailing newline); returns the path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        text = self.folded_text()
        target.write_text(text + "\n" if text else "")
        return target

    def reset(self) -> None:
        """Drop every aggregated stack and zero the sample counter."""
        with self._lock:
            self._stacks.clear()
        self.samples = 0
