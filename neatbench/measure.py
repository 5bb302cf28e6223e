"""Host-adjusted timing: the arithmetic every benchmark number goes through.

The benchmark runs on small shared hosts whose speed swings by a quarter
within seconds, and CPU time tracks wall time there, so neither raw wall
time nor ``process_time`` repeats from one run to the next.  Every timed
interval is therefore rescaled by how fast the host ran a fixed pure-Python
probe loop around it::

    adjusted = raw * PROBE_REF_S / probe

``probe`` is the mean of the probe timings taken near the interval,
between calls while the program has no work outstanding, and
``PROBE_REF_S`` is a fixed constant: the probe's time on a quiet reference
host.  An adjusted second is a second of work at reference-host speed.

A workload whose work runs mostly in other processes follows the probe
only in part; its clock raises the ratio to an ``elasticity`` below 1::

    adjusted = raw * (PROBE_REF_S / probe) ** elasticity
"""

from __future__ import annotations

import gc
import math
import random
import re
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Sequence

#: Probe-loop seconds on the reference host (2-CPU x86-64, CPython 3.11).
PROBE_REF_S = 0.025

#: Steps of each half of the probe (about ``PROBE_REF_S`` in all).
PROBE_DICT_STEPS = 45_000
PROBE_WALK_STEPS = 20_000

#: Entries of the permutation the probe walks (~7 MB of objects).
PROBE_WALK_SIZE = 200_000

#: A call of d seconds is rescaled by the probes within
#: clamp(HOST_WINDOW_PER_S * d, HOST_WINDOW_MIN_S, HOST_WINDOW_MAX_S) of it.
HOST_WINDOW_PER_S = 5.0
HOST_WINDOW_MIN_S = 0.3
HOST_WINDOW_MAX_S = 10.0

#: Metric names the result document may carry.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


class PercentileRefused(ValueError):
    """Too few samples for the requested percentile."""


class Probe:
    """The fixed probe loop; calling it returns the seconds it took.

    Half of it is dict churn and integer arithmetic in a tight loop, half
    a walk through a random permutation larger than the per-core caches
    that allocates a tuple per step.  The clustering code is both
    interpreter-bound and memory-bound, and a host in its fast state
    speeds the tight loop up more than the memory-bound part, so a probe
    of only one kind over- or under-corrects.  The collector is paused
    while the probe runs so a collection never lands in it.
    """

    def __init__(self) -> None:
        walk = list(range(PROBE_WALK_SIZE))
        random.Random(5).shuffle(walk)
        self._walk = walk

    def __call__(self) -> float:
        gc.disable()
        try:
            started = time.perf_counter()
            _dict_churn(PROBE_DICT_STEPS)
            _walk(self._walk, PROBE_WALK_STEPS)
            return time.perf_counter() - started
        finally:
            gc.enable()


def _dict_churn(steps: int) -> int:
    table: dict[int, int] = {}
    get = table.get
    acc = 0
    for i in range(steps):
        key = (i * 7919) & 4095
        acc = (acc + get(key, i)) & 0xFFFFFFF
        table[key] = acc ^ i
    return acc


def _walk(order: list[int], steps: int) -> int:
    at = 0
    kept: list[tuple[int, float]] = []
    for i in range(steps):
        at = order[at]
        kept.append((at, float(i)))
        if len(kept) > 4096:
            kept.clear()
    return at


def adjust(raw_s: float, probe_s: float, probe_ref_s: float = PROBE_REF_S,
           elasticity: float = 1.0) -> float:
    """``raw_s`` rescaled to reference-host speed."""
    if probe_s <= 0.0 or probe_ref_s <= 0.0:
        raise ValueError("probe times must be positive")
    return raw_s * (probe_ref_s / probe_s) ** elasticity


@dataclass(frozen=True)
class Interval:
    """One timed call on the ``time.perf_counter`` clock."""

    start: float
    end: float

    @property
    def raw_s(self) -> float:
        return self.end - self.start


class HostClock:
    """Takes probes between calls and rescales each call by those near it.

    The host's speed drifts over seconds and flips between a fast and a
    slow state within them.  A call is rescaled by the mean of the probes
    taken within a window that grows with the call: a short call by its
    neighbours, which saw the state it ran in; a long one, which spanned
    many states, by the probes of the seconds around it.  Callers must
    only probe while nothing of the program runs in the background (every
    call has returned; pool and shard processes are idle).
    """

    def __init__(self, probe_fn: Callable[[], float] | None = None,
                 elasticity: float = 1.0) -> None:
        self._probe = probe_fn if probe_fn is not None else Probe()
        #: How fully the timed work follows the probe (see :func:`adjust`).
        self.elasticity = elasticity
        #: (perf_counter when the probe started, probe seconds).
        self.probes: list[tuple[float, float]] = []

    def sample(self) -> float:
        started = time.perf_counter()
        value = self._probe()
        self.probes.append((started, value))
        return value

    def timed(self, fn: Callable[[], object]) -> tuple[object, Interval]:
        """Run ``fn`` between two probes; returns its value and interval.

        A full collection first gives every repetition the same collector
        state; otherwise a generation-2 pass lands in some repetitions and
        not others, a bimodal 40% swing that is not the program's speed.
        """
        gc.collect()
        self.sample()
        started = time.perf_counter()
        value = fn()
        interval = Interval(started, time.perf_counter())
        self.sample()
        return value, interval

    def probe_for(self, interval: Interval) -> float:
        """Mean probe within the window of ``interval`` (nearest if none)."""
        window = min(HOST_WINDOW_MAX_S,
                     max(HOST_WINDOW_MIN_S, HOST_WINDOW_PER_S * interval.raw_s))
        lo, hi = interval.start - window, interval.end + window
        near = [value for at, value in self.probes if lo <= at <= hi]
        if not near:
            if not self.probes:
                raise ValueError("no probe taken")
            middle = (interval.start + interval.end) / 2.0
            near = [min(self.probes, key=lambda probe: abs(probe[0] - middle))[1]]
        return statistics.fmean(near)

    def adjusted(self, parts: Sequence[Interval]) -> float:
        """Host-adjusted seconds of one sample made of ``parts``."""
        return sum(
            adjust(part.raw_s, self.probe_for(part), elasticity=self.elasticity)
            for part in parts
        )

    def factor(self) -> float:
        """The run-wide adjustment: reference over the probe median."""
        return (PROBE_REF_S / self.probe_median()) ** self.elasticity

    def probe_median(self) -> float:
        return median([value for _, value in self.probes])


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile, only when >= 10 samples lie beyond it.

    A p90 needs at least 100 samples: with fewer, the top decile holds
    fewer than ten values and the figure is one outlier's say-so.
    """
    if not 0.0 < pct < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    beyond = len(values) * (100.0 - pct) / 100.0
    if beyond < 10.0 - 1e-9:
        raise PercentileRefused(
            f"p{pct:g} needs >= 10 samples beyond it; {len(values)} samples "
            f"leave {beyond:.1f}"
        )
    ordered = sorted(values)
    rank = max(0, math.ceil(len(ordered) * pct / 100.0) - 1)
    return float(ordered[rank])


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def check_metric_names(names: Sequence[str]) -> None:
    bad = [name for name in names if not METRIC_NAME.fullmatch(name)]
    if bad:
        raise ValueError(f"metric names outside [A-Za-z0-9_.-]+: {bad}")
