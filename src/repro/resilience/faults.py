"""Deterministic fault injection for tests, benchmarks and chaos drills.

A :class:`FaultPlan` describes *which* calls misbehave — purely by call
index, so a plan is reproducible by construction:

* ``fail_nth`` — raise on the given 1-based call number(s);
* ``kill_from`` — raise on every call from the given number on (a dead
  node: once down, down forever);
* ``latency_s`` — add synthetic latency to every call (recorded through
  an injectable sleeper, so tests observe it without actually sleeping);
* ``corrupt_nth`` — pass the given calls' results through ``corruptor``
  (payload corruption on the wire);
* ``refuse_nth`` / ``drop_nth`` / ``stall_nth`` / ``garble_nth`` —
  *connection* faults, interpreted by the distributed transport at the
  socket layer: a refused connect, a connection closed mid-message, a
  response stalled past the read deadline, a frame whose CRC fails.
  They are scheduling only — :meth:`FaultPlan.connection_fault` names
  the fault for a call index and the transport performs the real
  socket-level misbehavior (see ``repro.distributed.transport``).

:meth:`FaultPlan.wrap` turns any callable into a :class:`FaultyCallable`
that applies the plan and counts what it injected.  A
:class:`FaultInjector` holds armed plans by operation name so a
component (the NEAT service, the coordinator) can expose named injection
points without threading wrappers through its internals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..errors import ConfigError, FaultInjected

__all__ = ["FaultInjector", "FaultPlan", "FaultyCallable", "bit_flip"]


def _as_indices(value: int | Iterable[int] | None) -> frozenset[int]:
    if value is None:
        return frozenset()
    if isinstance(value, int):
        value = (value,)
    indices = frozenset(int(v) for v in value)
    if any(index < 1 for index in indices):
        raise ConfigError(f"call indices are 1-based, got {sorted(indices)}")
    return indices


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected misbehavior.

    Attributes:
        fail_nth: 1-based call number(s) that raise (int or iterable).
        kill_from: First call number of a permanent failure (the wrapped
            target is "dead" from that call on).
        latency_s: Synthetic latency added to every call.
        corrupt_nth: 1-based call number(s) whose *result* is passed
            through ``corruptor`` before being returned.
        corruptor: Result transform for corrupted calls (default: replace
            the payload with ``None``).
        exception: Factory ``(operation, call_index) -> BaseException``
            for injected failures (default :class:`FaultInjected`).
        refuse_nth: 1-based call number(s) whose connection is refused
            (the transport never reaches the peer).
        drop_nth: 1-based call number(s) whose connection is closed
            mid-message (a partial request frame reaches the peer).
        stall_nth: 1-based call number(s) whose response stalls past the
            client's read deadline (``stall_s`` seconds, served through
            the peer's chaos hook so the timeout fires for real).
        garble_nth: 1-based call number(s) whose request frame has one
            bit flipped on the wire (the peer's CRC check rejects it).
        stall_s: Stall duration for ``stall_nth`` calls.
    """

    fail_nth: int | Iterable[int] | None = None
    kill_from: int | None = None
    latency_s: float = 0.0
    corrupt_nth: int | Iterable[int] | None = None
    corruptor: Callable[[Any], Any] | None = None
    exception: Callable[[str, int], BaseException] = FaultInjected
    refuse_nth: int | Iterable[int] | None = None
    drop_nth: int | Iterable[int] | None = None
    stall_nth: int | Iterable[int] | None = None
    garble_nth: int | Iterable[int] | None = None
    stall_s: float = 0.25

    def __post_init__(self) -> None:
        object.__setattr__(self, "fail_nth", _as_indices(self.fail_nth))
        object.__setattr__(self, "corrupt_nth", _as_indices(self.corrupt_nth))
        for name in ("refuse_nth", "drop_nth", "stall_nth", "garble_nth"):
            object.__setattr__(self, name, _as_indices(getattr(self, name)))
        if self.kill_from is not None and self.kill_from < 1:
            raise ConfigError(f"kill_from is 1-based, got {self.kill_from}")
        if self.latency_s < 0:
            raise ConfigError(f"latency_s must be >= 0, got {self.latency_s}")
        if self.stall_s <= 0:
            raise ConfigError(f"stall_s must be > 0, got {self.stall_s}")

    # ------------------------------------------------------------------
    def should_fail(self, call_index: int) -> bool:
        """Whether the plan injects a failure into this call."""
        if self.kill_from is not None and call_index >= self.kill_from:
            return True
        return call_index in self.fail_nth

    def should_corrupt(self, call_index: int) -> bool:
        """Whether the plan corrupts this call's result."""
        return call_index in self.corrupt_nth

    def connection_fault(self, call_index: int) -> str | None:
        """The connection fault injected into this call, if any.

        Returns ``"refuse"``, ``"drop"``, ``"stall"`` or ``"garble"``
        (checked in that order when a call index appears in several
        schedules), or ``None`` for a clean call.  A ``fail_nth`` or
        ``kill_from`` call is a ``"refuse"``: the node never answers it.
        """
        if call_index in self.refuse_nth or self.should_fail(call_index):
            return "refuse"
        if call_index in self.drop_nth:
            return "drop"
        if call_index in self.stall_nth:
            return "stall"
        if call_index in self.garble_nth:
            return "garble"
        return None

    def corrupt(self, result: Any) -> Any:
        """The corrupted form of ``result``."""
        if self.corruptor is not None:
            return self.corruptor(result)
        return None

    def wrap(
        self,
        fn: Callable[..., Any],
        operation: str = "operation",
        sleeper: Callable[[float], None] | None = None,
    ) -> "FaultyCallable":
        """``fn`` under this plan (see :class:`FaultyCallable`)."""
        return FaultyCallable(fn, self, operation=operation, sleeper=sleeper)


class FaultyCallable:
    """A callable wrapped by a :class:`FaultPlan`, with injection counters.

    Attributes:
        calls: Total invocations so far.
        injected_failures: Failures the plan raised.
        injected_corruptions: Results the plan corrupted.
        injected_latency_s: Total synthetic latency injected.

    Args:
        fn: The target callable.
        plan: The fault schedule.
        operation: Name used in injected exceptions.
        sleeper: Receives each injected latency; defaults to a no-op
            recorder so tests stay fast — pass ``time.sleep`` (or
            :func:`real_sleeper`) to actually stall.
    """

    def __init__(
        self,
        fn: Callable[..., Any],
        plan: FaultPlan,
        operation: str = "operation",
        sleeper: Callable[[float], None] | None = None,
    ) -> None:
        self.fn = fn
        self.plan = plan
        self.operation = operation
        self.sleeper = sleeper
        self.calls = 0
        self.injected_failures = 0
        self.injected_corruptions = 0
        self.injected_latency_s = 0.0

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        self.calls += 1
        index = self.calls
        plan = self.plan
        if plan.latency_s > 0.0:
            self.injected_latency_s += plan.latency_s
            if self.sleeper is not None:
                self.sleeper(plan.latency_s)
        if plan.should_fail(index):
            self.injected_failures += 1
            raise plan.exception(self.operation, index)
        result = self.fn(*args, **kwargs)
        if plan.should_corrupt(index):
            self.injected_corruptions += 1
            return plan.corrupt(result)
        return result


def real_sleeper(seconds: float) -> None:
    """A sleeper that actually sleeps (for latency drills in benchmarks)."""
    time.sleep(seconds)


def bit_flip(data: bytes, index: int = 0) -> bytes:
    """``data`` with one bit inverted — the canonical read-corruptor.

    Use as a ``FaultPlan.corruptor`` against a read-path fault point
    (``snapshot.read``, ``journal.read``) to simulate media corruption::

        faults.arm("snapshot.read", FaultPlan(corrupt_nth=1, corruptor=bit_flip))

    Args:
        data: The payload to damage (returned unchanged when empty).
        index: Byte offset of the flipped bit's byte (wraps modulo
            ``len(data)``, so any index is safe).
    """
    if not data:
        return data
    flipped = bytearray(data)
    flipped[index % len(flipped)] ^= 0x01
    return bytes(flipped)


class FaultInjector:
    """Named injection points with armed :class:`FaultPlan` s.

    Components run their fallible operations through
    :meth:`run`; tests arm plans against the operation names without
    touching the component's internals::

        service.faults.arm("refresh", FaultPlan(fail_nth=1))

    Unarmed operations pass straight through with zero overhead beyond a
    dict lookup.
    """

    def __init__(self, sleeper: Callable[[float], None] | None = None) -> None:
        self._sleeper = sleeper
        self._wrappers: dict[str, FaultyCallable] = {}

    def arm(
        self,
        operation: str,
        plan: FaultPlan,
        sleeper: Callable[[float], None] | None = None,
    ) -> None:
        """Attach ``plan`` to ``operation`` (replacing any armed plan).

        Args:
            operation: The injection-point name.
            plan: The fault schedule.
            sleeper: Override for this operation's latency sleeper —
                pass :func:`real_sleeper` to actually stall the call
                (latency-SLO chaos drills); default: the injector-wide
                sleeper (a no-op recorder unless one was given).
        """
        self._wrappers[operation] = FaultyCallable(
            _identity_target,
            plan,
            operation=operation,
            sleeper=sleeper if sleeper is not None else self._sleeper,
        )

    def disarm(self, operation: str) -> None:
        """Remove the plan armed against ``operation`` (idempotent)."""
        self._wrappers.pop(operation, None)

    def armed(self, operation: str) -> bool:
        """Whether a plan is armed against ``operation``."""
        return operation in self._wrappers

    def wrapper(self, operation: str) -> FaultyCallable | None:
        """The armed wrapper (to read its injection counters), or None."""
        return self._wrappers.get(operation)

    def connection_fault(self, operation: str) -> tuple[str | None, "FaultPlan | None"]:
        """Advance ``operation``'s call counter; name the fault to inject.

        The transport layer calls this once per wire call (the 1-based
        index is the armed wrapper's ``calls`` counter, shared with
        :meth:`run`, so connection faults and result faults count the
        same call stream).  Returns ``(kind, plan)`` where ``kind`` is
        ``None`` for a clean call; the caller performs the real
        socket-level misbehavior and bumps ``injected_failures`` via
        :meth:`record_injected`.
        """
        wrapper = self._wrappers.get(operation)
        if wrapper is None:
            return None, None
        wrapper.calls += 1
        return wrapper.plan.connection_fault(wrapper.calls), wrapper.plan

    def record_injected(self, operation: str) -> None:
        """Count one transport-performed injection on ``operation``."""
        wrapper = self._wrappers.get(operation)
        if wrapper is not None:
            wrapper.injected_failures += 1

    def run(self, operation: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` through the plan armed against ``operation`` (if any)."""
        wrapper = self._wrappers.get(operation)
        if wrapper is None:
            return fn(*args, **kwargs)
        wrapper.fn = fn
        return wrapper(*args, **kwargs)


def _identity_target(*args: Any, **kwargs: Any) -> Any:  # pragma: no cover
    raise RuntimeError("FaultInjector wrapper called before a target was bound")
