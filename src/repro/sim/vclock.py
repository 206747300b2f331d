"""Virtual time for the simulator.

The whole reproduction is trace driven: instead of wall-clock time, every
memory access, page fault, daemon wakeup and page migration advances a
shared virtual clock measured in nanoseconds.  Throughput and execution
time reported by the benchmark harness are derived from this clock, which
makes runs fully deterministic and independent of the host machine.
"""

from __future__ import annotations

__all__ = ["VirtualClock", "NANOS_PER_SECOND", "NANOS_PER_MILLI", "NANOS_PER_MICRO"]

NANOS_PER_SECOND = 1_000_000_000
NANOS_PER_MILLI = 1_000_000
NANOS_PER_MICRO = 1_000


class VirtualClock:
    """A monotonically advancing nanosecond counter.

    The clock distinguishes *application* time (latency experienced by the
    workload's own memory accesses) from *system* time (daemon scans, page
    migrations, hint page faults).  Both advance the single global ``now``
    — a daemon that burns CPU delays the application, which is exactly the
    overhead trade-off the paper's Section V-E and V-F study — but the two
    buckets are accounted separately so experiments can report overhead.
    """

    # Invariant: _now_ns == start_ns + _app_ns + _system_ns.  The access
    # driver (Machine.touch_batch_array and Machine.touch_batch, one body)
    # bumps _now_ns/_app_ns directly to skip per-access method-call
    # overhead — keep these three fields (and that invariant) in sync
    # with advance_app/advance_system.
    def __init__(self, start_ns: int = 0) -> None:
        if start_ns < 0:
            raise ValueError(f"start_ns must be non-negative, got {start_ns}")
        self._now_ns = start_ns
        self._app_ns = 0
        self._system_ns = 0

    @property
    def now_ns(self) -> int:
        """Current virtual time in nanoseconds."""
        return self._now_ns

    @property
    def now_seconds(self) -> float:
        """Current virtual time in seconds."""
        return self._now_ns / NANOS_PER_SECOND

    @property
    def app_ns(self) -> int:
        """Nanoseconds spent in application memory accesses."""
        return self._app_ns

    @property
    def system_ns(self) -> int:
        """Nanoseconds spent in simulated system work (scans, migrations)."""
        return self._system_ns

    def advance_app(self, delta_ns: int) -> int:
        """Advance the clock by application work; returns the new time."""
        self._check_delta(delta_ns)
        self._now_ns += delta_ns
        self._app_ns += delta_ns
        return self._now_ns

    def advance_system(self, delta_ns: int) -> int:
        """Advance the clock by system (daemon/migration) work."""
        self._check_delta(delta_ns)
        self._now_ns += delta_ns
        self._system_ns += delta_ns
        return self._now_ns

    @staticmethod
    def _check_delta(delta_ns: int) -> None:
        if delta_ns < 0:
            raise ValueError(f"time can only move forward, got delta {delta_ns}")

    def __repr__(self) -> str:
        return (
            f"VirtualClock(now={self._now_ns}ns, "
            f"app={self._app_ns}ns, system={self._system_ns}ns)"
        )
