"""Host-speed sampling: a fixed tiny kernel timed throughout each cell.

On a shared virtual machine the same code runs tens of percent faster or
slower from one second to the next, so raw wall times measure the
neighbours as much as the simulator.  While a :class:`SpeedSampler` is
armed, a ``SIGALRM`` interval timer runs a fixed kernel -- dict inserts,
small-object allocation and small numpy gathers, the simulator's kind of
work -- every ``INTERVAL_S`` of wall time.  The kernel never changes, so
its mean time over a cell tracks the host's speed during that cell:
``net wall × REFERENCE_S / mean kernel time`` is the time the cell would
have taken on a host where the kernel takes ``REFERENCE_S``.  The kernel's
own time is taken out of the cell's wall first.

The simulated results do not depend on wall time, so interrupting the
simulator with the kernel changes no result.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import Any

import numpy as np

__all__ = ["REFERENCE_S", "INTERVAL_S", "SpeedSampler", "kernel"]

#: Mean kernel time on the reference host (2 vCPUs, Python 3.11, numpy 2.4).
REFERENCE_S = 0.0011
INTERVAL_S = 0.025

_KEYS = 1200
_COLUMN = np.zeros(4096, dtype=np.int64)
_INDEX = np.arange(0, 4096, 7)


class _Node:
    __slots__ = ("value", "key")

    def __init__(self, value: int, key: int) -> None:
        self.value = value
        self.key = key


def kernel() -> float:
    """CPU seconds the fixed kernel takes right now.

    CPU time, not wall time, so a kernel preempted by the benchmark's own
    sweep workers still measures the CPU's speed.  The collector is off: a
    collection would walk what the interrupted cell holds alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        table: dict[int, _Node] = {}
        for i in range(_KEYS):
            key = (i * 2654435761) % 100_003
            table[key] = _Node(i, key)
        total = 0
        for node in table.values():
            total += node.value
        for _ in range(24):
            _COLUMN[_INDEX] += 1
            np.cumsum(_COLUMN[_INDEX])
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Context manager timing the kernel every ``INTERVAL_S`` while armed.

    The kernel also runs once on entry and once on exit, so even a block
    shorter than the interval has a speed estimate.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous: Any = None

    def _sample(self, signum: int, frame: Any) -> None:
        self.samples.append(kernel())

    def __enter__(self) -> "SpeedSampler":
        self.samples = [kernel()]
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(kernel())

    def reference_seconds(self, wall_s: float) -> float:
        """``wall_s`` measured inside the block, minus the kernel's own
        time, scaled to the reference host's speed."""
        inside = sum(self.samples[1:-1])
        return (wall_s - inside) * REFERENCE_S / statistics.fmean(self.samples)
