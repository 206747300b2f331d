"""Per-layer host-time attribution for the benchmark's traced run.

:meth:`LayerTracer.attach` wraps public callables on a live machine --
the access drivers, the slow fault path, the allocator, direct reclaim,
the migration engine, the daemon scheduler and every daemon body -- with
spans kept in memory.  A layer's *self time* is the time inside its spans
minus the time inside spans nested in them, so the self times of all
layers partition the time spent anywhere below the drivers; their sum over
the pass wall is ``trace.coverage``.  Nothing under ``src/`` is changed:
the wrappers replace instance attributes, and the code being measured
already looks every one of these callables up on the instance at call
time.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, Iterator

__all__ = ["LAYERS", "LayerTracer", "daemon_layer", "counter_metrics", "PER_LAYER"]

LAYERS = (
    "workloads",
    "machine",
    "mm.fault",
    "mm.alloc",
    "mm.reclaim",
    "mm.migrate",
    "core.kpromoted",
    "core.kswapd",
    "policies.daemons",
    "sim.scheduler",
)

#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER: dict[str, str] = {
    "workloads.busy_s": "s",
    "machine.busy_s": "s",
    "mm.fault.busy_s": "s",
    "mm.fault.calls": "count",
    "mm.alloc.busy_s": "s",
    "mm.reclaim.busy_s": "s",
    "mm.reclaim.calls": "count",
    "mm.migrate.busy_s": "s",
    "mm.migrate.calls": "count",
    "mm.migrate.success_ratio": "ratio",
    "core.kpromoted.busy_s": "s",
    "core.kpromoted.wakeups": "count",
    "core.kpromoted.promote_ratio": "ratio",
    "core.kswapd.busy_s": "s",
    "core.kswapd.demote_ratio": "ratio",
    "policies.daemons.busy_s": "s",
    "sim.scheduler.busy_s": "s",
    "virtual.app_s": "s",
    "virtual.system_s": "s",
    "instrumentation.armed_overhead": "ratio",
    "instrumentation.events": "count",
    "sweep.local_s": "s",
    "sweep.loopback_s": "s",
    "sweep.envelope_tax_s": "s",
    "sweep.connect_s": "s",
    "sweep.merge_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def daemon_layer(name: str) -> str:
    """The layer a daemon body belongs to, from its registered name."""
    if name.startswith("kpromoted"):
        return "core.kpromoted"
    if name.startswith("kswapd"):
        return "core.kswapd"
    return "policies.daemons"


class LayerTracer:
    """Self time per layer, accumulated by spans around wrapped callables."""

    def __init__(self) -> None:
        self.busy: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        # One child-time accumulator per open span, innermost last.
        self._stack: list[list[float]] = []

    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        busy = self.busy
        stack = self._stack
        clock = time.perf_counter

        def span(*args: Any, **kwargs: Any) -> Any:
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                busy[layer] += elapsed - child[0]
                if stack:
                    stack[-1][0] += elapsed

        return span

    def wrap_iter(self, layer: str, iterable: Iterable[Any]) -> Iterator[Any]:
        """``iterable`` with every ``next()`` call timed as a span."""
        busy = self.busy
        stack = self._stack
        clock = time.perf_counter
        iterator = iter(iterable)
        while True:
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                elapsed = clock() - start
                stack.pop()
                busy[layer] += elapsed - child[0]
                if stack:
                    stack[-1][0] += elapsed
            yield item

    def attach(self, machine: Any) -> None:
        """Wrap the layer callables of a freshly built ``machine``."""
        wrap = self.wrap
        wrap_iter = self.wrap_iter
        system = machine.system
        touch_batch = machine.touch_batch
        touch_batch_array = machine.touch_batch_array

        def traced_touch_batch(accesses: Any) -> Any:
            return touch_batch(wrap_iter("workloads", accesses))

        def traced_touch_batch_array(process: Any, batches: Any, **kwargs: Any) -> Any:
            return touch_batch_array(process, wrap_iter("workloads", batches), **kwargs)

        machine.touch_batch = wrap("machine", traced_touch_batch)
        machine.touch_batch_array = wrap("machine", traced_touch_batch_array)
        system.touch = wrap("mm.fault", system.touch)
        system.allocator.allocate = wrap("mm.alloc", system.allocator.allocate)
        system.policy.direct_reclaim = wrap("mm.reclaim", system.policy.direct_reclaim)
        migrator = system.migrator
        migrator.migrate = wrap("mm.migrate", migrator.migrate)
        migrator.migrate_with_retry = wrap("mm.migrate", migrator.migrate_with_retry)
        scheduler = machine.scheduler
        scheduler.run_due = wrap("sim.scheduler", scheduler.run_due)
        for daemon in scheduler.daemons:
            daemon.body = wrap(daemon_layer(daemon.name), daemon.body)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counter_metrics(results: Iterable[dict]) -> dict[str, float]:
    """Per-layer counts, ratios and virtual time from ``RunResult`` dicts."""
    totals: dict[str, int] = {}
    app_ns = system_ns = 0
    for result in results:
        app_ns += result["app_ns"]
        system_ns += result["system_ns"]
        for key, value in result["counters"].items():
            totals[key] = totals.get(key, 0) + value
    c = totals.get
    moved = c("migrate.promotions", 0) + c("migrate.demotions", 0) + c("migrate.lateral", 0)
    return {
        "mm.fault.calls": c("faults.minor", 0) + c("faults.major", 0) + c("faults.hint", 0),
        "mm.reclaim.calls": c("alloc.direct_reclaim", 0),
        "mm.migrate.calls": c("migrate.attempts", 0),
        "mm.migrate.success_ratio": _ratio(moved, c("migrate.attempts", 0)),
        "core.kpromoted.wakeups": c("kpromoted.runs", 0),
        "core.kpromoted.promote_ratio": _ratio(
            c("kpromoted.promoted", 0), c("kpromoted.pages_scanned", 0)
        ),
        "core.kswapd.demote_ratio": _ratio(
            c("kswapd.demoted", 0), c("kswapd.pages_scanned", 0)
        ),
        "virtual.app_s": app_ns / 1e9,
        "virtual.system_s": system_ns / 1e9,
    }
