"""Host-wall-clock microbenchmarks for the hot paths — ``repro bench``.

Everything else in this repo measures *virtual* time; this module is the
one place that measures *host* time, because its job is to keep the
simulator itself fast enough to run the paper's full workloads.  Three
benchmarks, written to ``BENCH_perf.json``:

* ``touch`` — the per-access :meth:`~repro.machine.Machine.touch` loop
  versus the access driver's single-process entry
  :meth:`~repro.machine.Machine.touch_batch_array` (numeric arrays, the
  sweep pool's replay path) on the same fixed-seed Zipf stream, under
  the ``static`` policy so no daemon work dilutes the pure access path.
  Reports ops/sec for both (``batched_ops_per_sec`` is the driver), the
  speedup, and an ``identical`` flag asserting the runs ended with
  bit-identical counters and virtual clocks.
* ``kpromoted`` — scan throughput of the MULTI-CLOCK promotion daemon,
  in pages scanned per host second.
* ``ycsb_a`` — end-to-end host wall time of a YCSB Load + Workload A
  sequence under ``multiclock``, the closest thing to "how long does a
  paper experiment take": the phases' column streams through the array
  driver versus the ``run_workload(batch=False)`` scalar oracle, with
  the speedup and an ``identical`` flag asserting both produced the
  same results.
* ``trace`` — the tracepoint layer's cost: the same ``multiclock`` run
  with tracing off versus armed.  Reports both throughputs, the
  overhead ratio, and an ``identical`` flag asserting the traced run's
  counters and virtual clocks match the untraced run bit for bit (the
  "tracepoints compile to nops" property, measured).
* ``sweep`` — the sweep orchestrator: a declarative policy grid run as
  a naive sequential per-cell loop versus the persistent worker pool
  (shared workload streams, array replay), then re-run against the warm
  result cache.  Reports all three wall times (``sequential_s``,
  ``parallel_s``, ``cached_rerun_seconds``), the speedup, the host's
  CPU count, ``cached_rerun_workers`` (must be 0 — a fully cached
  re-run spawns no children), and an ``identical`` flag asserting both
  pool runs' merged payloads equal the sequential results exactly.
* ``metrics`` — the metrics registry's cost: the same ``multiclock``
  run with metrics off versus armed.  Reports both throughputs, the
  overhead ratio, and an ``identical`` flag asserting the armed run's
  counters and virtual clocks match the metrics-off run bit for bit
  (the cost-free sampler / guarded-sites nop property, measured).
* ``deactivate`` — the columnar ``deactivate_excess_active`` fast path
  versus the page-at-a-time reference loop on identical list states.
  Reports pages/sec for both, the speedup, and an ``identical`` flag
  asserting both arms made the same scan decisions page for page.
* ``gapbs`` — Fig 6's ``pr`` and ``tc`` kernels under ``multiclock`` at
  the figure's sizing, end to end: the kernels' column streams through
  the array driver (what ``repro experiment fig6`` runs) versus the
  ``run_workload(batch=False)`` scalar oracle.  Reports wall time and
  simulated accesses per host second for both, the speedup, and an
  ``identical`` flag asserting both produced the same results.
* ``journal`` — the control-plane span journal's cost: the same local
  pool sweep with the journal off versus armed.  Reports both wall
  times, the overhead ratio, the journal's event count, and an
  ``identical`` flag asserting the armed run's merged payloads equal
  the journal-off run's exactly (observability must never change
  results — the same property the byte-identical report pins).

Each benchmark takes a best-of-``repeats`` timing to shrug off host
scheduling noise; the off-versus-armed ones (``trace``, ``metrics``,
``journal``) give every arm an untimed warm run first and alternate
which arm goes first across repeats, so no arm alone pays a cold start.
``--smoke`` shrinks the workloads to CI size.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import time
from typing import Any, Callable, Iterator

from repro.machine import Machine
from repro.sim.config import DaemonConfig, SimulationConfig
from repro.workloads.synthetic import ZipfWorkload

__all__ = [
    "bench_touch",
    "bench_kpromoted",
    "bench_deactivate",
    "bench_ycsb_a",
    "bench_gapbs",
    "bench_trace",
    "bench_sweep",
    "bench_remote",
    "bench_journal",
    "bench_metrics",
    "run_suite",
    "write_results",
]

DEFAULT_OUT = "BENCH_perf.json"


def _config(seed: int = 42) -> SimulationConfig:
    return SimulationConfig(dram_pages=(1024,), pm_pages=(8192,), seed=seed)


@contextlib.contextmanager
def _gc_paused() -> Iterator[None]:
    """Collector off during timed sections, so its pauses don't land in
    one driver's window and not the other's."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _machine_state(machine: Machine) -> tuple[dict[str, int], int, int, int]:
    clock = machine.clock
    return machine.stats.snapshot(), clock.now_ns, clock.app_ns, clock.system_ns


def bench_touch(
    ops: int = 200_000, *, pages: int = 4000, repeats: int = 3, seed: int = 42
) -> dict[str, Any]:
    """Per-access loop vs the access driver on one access stream.

    Two arms over the same fixed-seed Zipf stream: the per-access
    :meth:`~repro.machine.Machine.touch` loop and the driver's
    single-process entry :meth:`~repro.machine.Machine.touch_batch_array`
    (the sweep pool's replay path, and the headline
    ``batched_ops_per_sec``).

    Each arm drives the stream through a fresh machine twice: the first
    pass populates the pages (a cold-fault storm whose cost is the slow
    fault path, not the access path) and the second, timed pass measures
    the steady-state throughput the paper's long workloads actually see
    — the same warm-up discipline ``bench_kpromoted`` uses.  The driver
    arm's cold first pass is also timed and reported as
    ``cold_batched_ops_per_sec``.  ``identical`` asserts both arms ended
    both passes with bit-identical counters and virtual clocks.
    """

    def materialize() -> tuple[Machine, ZipfWorkload]:
        workload = ZipfWorkload(pages, ops, seed=seed, write_ratio=0.2)
        machine = Machine(_config(seed), "static")
        workload.setup(machine)
        return machine, workload

    # The numeric stream is machine-independent: build it once and share
    # it across repeats, exactly as the sweep pool does.
    batches = list(ZipfWorkload(pages, ops, seed=seed, write_ratio=0.2).numeric_batches())

    # Timing runs: fresh machine per repeat so every repeat warms up the
    # same way and both arms see the same starting point.  The baseline
    # loop body mirrors run_workload(batch=False) — the scalar oracle —
    # exactly, down to the operation count.
    per_access_best = float("inf")
    for _ in range(max(1, repeats)):
        machine, workload = materialize()
        stream = list(workload.accesses())
        for access in stream:  # warm pass: fault every page in
            machine.touch(
                access.process, access.vpage, is_write=access.is_write, lines=access.lines
            )
        with _gc_paused():
            start = time.perf_counter()
            operations = 0
            for access in stream:
                machine.touch(
                    access.process, access.vpage, is_write=access.is_write, lines=access.lines
                )
                if access.op_boundary:
                    operations += 1
            per_access_best = min(per_access_best, time.perf_counter() - start)
    per_state = _machine_state(machine)

    array_best = cold_best = float("inf")
    for _ in range(max(1, repeats)):
        machine, workload = materialize()
        with _gc_paused():
            start = time.perf_counter()
            machine.touch_batch_array(workload.process, batches, lines=workload.lines)
            cold_best = min(cold_best, time.perf_counter() - start)
            start = time.perf_counter()
            machine.touch_batch_array(workload.process, batches, lines=workload.lines)
            array_best = min(array_best, time.perf_counter() - start)
    array_state = _machine_state(machine)

    per_ops = ops / per_access_best
    array_ops = ops / array_best
    return {
        "ops": ops,
        "pages": pages,
        "repeats": repeats,
        "per_access_ops_per_sec": round(per_ops),
        "cold_batched_ops_per_sec": round(ops / cold_best),
        "batched_ops_per_sec": round(array_ops),
        "speedup": round(array_ops / per_ops, 2),
        "identical": per_state == array_state,
    }


def _drive_zipf(machine: Machine, workload: ZipfWorkload) -> None:
    workload.setup(machine)
    machine.touch_batch_array(
        workload.process, workload.numeric_batches(), lines=workload.lines
    )


def _alternating(arms: dict[str, Callable[[], float]], repeats: int) -> dict[str, float]:
    """Best-of-``repeats`` wall seconds of each timed arm.

    Every arm first runs once untimed, and the arm order alternates
    across repeats, so no arm alone pays the cold start.
    """
    for arm in arms.values():
        arm()
    names = list(arms)
    best = dict.fromkeys(names, float("inf"))
    for round_no in range(max(1, repeats)):
        for name in names if round_no % 2 == 0 else reversed(names):
            best[name] = min(best[name], arms[name]())
    return best


def bench_kpromoted(
    *, pages: int = 4000, warm_ops: int = 50_000, runs: int = 200, seed: int = 42
) -> dict[str, Any]:
    """Pages scanned per host second by the kpromoted daemon."""
    machine = Machine(_config(seed), "multiclock")
    # Warm the lists.
    _drive_zipf(machine, ZipfWorkload(pages, warm_ops, seed=seed, write_ratio=0.2))
    daemons = machine.system.policy._kpromoted  # type: ignore[attr-defined]
    scanned = machine.stats.counter("kpromoted.pages_scanned")
    before = scanned.n
    start = time.perf_counter()
    for _ in range(runs):
        for daemon in daemons:
            daemon.run(machine.clock.now_ns)
    elapsed = time.perf_counter() - start
    pages_scanned = scanned.n - before
    return {
        "runs": runs,
        "pages_scanned": pages_scanned,
        "pages_per_sec": round(pages_scanned / elapsed) if elapsed > 0 else 0,
        "wall_seconds": round(elapsed, 4),
    }


def bench_deactivate(
    *, pages: int = 4000, warm_ops: int = 50_000, rounds: int = 40,
    budget: int = 2048, seed: int = 42,
) -> dict[str, Any]:
    """Columnar vs page-at-a-time ``deactivate_excess_active`` force scans.

    Both arms drive the same rounds over identically warmed machines:
    each round re-arms a deterministic slice of accessed bits (so the
    scan keeps seeing the full four-way state mix instead of draining
    the lists once and idling) and force-scans every active list.  The
    vector arm goes through the public entry point, whose guard picks
    the pagestore fast path; the scalar arm calls the reference loop
    directly.  ``identical`` asserts both machines ended with the same
    list membership, order and flag words — the vectorization must only
    ever buy time, never change a scan decision.
    """
    from repro.mm import vmscan
    from repro.mm.lruvec import ListKind

    def build() -> Machine:
        machine = Machine(_config(seed), "autonuma")
        # Warm the lists.
        _drive_zipf(machine, ZipfWorkload(pages, warm_ops, seed=seed, write_ratio=0.2))
        return machine

    def drive(machine: Machine, scalar: bool) -> tuple[int, float]:
        store = machine.system.pagestore
        scanned = 0
        elapsed = 0.0
        with _gc_paused():
            for round_no in range(rounds):
                # Refill (untimed): put every inactive page back on its
                # active list so each round scans full lists instead of
                # draining them once and idling, then re-arm a
                # deterministic, phase-shifted third of the accessed
                # bits so the scan keeps seeing the full state mix.
                for node in machine.system.nodes.values():
                    for is_anon in (True, False):
                        inactive = node.lruvec.list_for(ListKind.INACTIVE, is_anon)
                        for page in inactive.iter_from_tail():
                            vmscan._activate(node, page)
                store.pte_accessed[round_no % 3 :: 3] = True
                start = time.perf_counter()
                for node in machine.system.nodes.values():
                    for is_anon in (True, False):
                        if scalar:
                            result = vmscan.ScanResult()
                            vmscan._deactivate_scalar(
                                machine.system, node,
                                node.lruvec.list_for(ListKind.ACTIVE, is_anon),
                                is_anon, budget, None, None, True, None, result,
                            )
                        else:
                            result = vmscan.deactivate_excess_active(
                                machine.system, node, is_anon, budget, force=True
                            )
                        scanned += result.scanned
                elapsed += time.perf_counter() - start
        return scanned, elapsed

    def digest(machine: Machine) -> list:
        store = machine.system.pagestore
        out = []
        for node in machine.system.nodes.values():
            for kind in (ListKind.ACTIVE, ListKind.INACTIVE):
                for is_anon in (True, False):
                    lst = node.lruvec.list_for(kind, is_anon)
                    cursor, order = lst._tail, []
                    while cursor >= 0:
                        order.append(int(cursor))
                        cursor = int(store.lru_prev[cursor])
                    out.append((node.node_id, kind.name, is_anon, order,
                                [int(store.flags[p]) for p in order]))
        return out

    vec_machine = build()
    vec_scanned, vec_s = drive(vec_machine, scalar=False)
    scalar_machine = build()
    scalar_scanned, scalar_s = drive(scalar_machine, scalar=True)

    vec_rate = vec_scanned / vec_s if vec_s > 0 else 0.0
    scalar_rate = scalar_scanned / scalar_s if scalar_s > 0 else 0.0
    return {
        "rounds": rounds,
        "budget": budget,
        "pages_scanned": vec_scanned,
        "scalar_pages_per_sec": round(scalar_rate),
        "vector_pages_per_sec": round(vec_rate),
        "speedup": round(vec_rate / scalar_rate, 2) if scalar_rate else 0.0,
        "identical": (
            vec_scanned == scalar_scanned
            and digest(vec_machine) == digest(scalar_machine)
        ),
    }


def bench_ycsb_a(
    *, n_records: int = 10_000, ops: int = 50_000, seed: int = 42
) -> dict[str, Any]:
    """Host wall time of a YCSB Load + Workload A run under multiclock.

    The array driver (what every YCSB experiment runs) against the
    ``run_workload(batch=False)`` scalar oracle over the derived object
    stream, each on a fresh session and machine.
    """
    from repro.run import run_workload
    from repro.workloads.ycsb import YCSBSession

    footprint = YCSBSession(n_records, seed=seed).footprint_pages()
    config = SimulationConfig(
        dram_pages=(max(256, footprint // 3),),
        pm_pages=(footprint * 2,),
        daemons=DaemonConfig(),
        seed=seed,
    )

    def run(batch: bool) -> tuple[float, list]:
        session = YCSBSession(n_records, seed=seed)
        machine = Machine(config, "multiclock")
        start = time.perf_counter()
        load = run_workload(session.load_phase(), config, machine=machine, batch=batch)
        result = run_workload(session.phase("A", ops), config, machine=machine, batch=batch)
        return time.perf_counter() - start, [load, result]

    elapsed, results = run(True)
    oracle_wall, oracle_results = run(False)
    result = results[-1]
    return {
        "n_records": n_records,
        "ops": ops,
        "wall_seconds": round(elapsed, 3),
        "accesses": result.accesses,
        "accesses_per_wall_sec": round(result.accesses / elapsed) if elapsed > 0 else 0,
        "virtual_throughput_ops": round(result.throughput_ops),
        "dram_access_fraction": round(result.dram_access_fraction, 4),
        "oracle_wall_seconds": round(oracle_wall, 3),
        "oracle_accesses_per_wall_sec": round(result.accesses / oracle_wall),
        "speedup": round(oracle_wall / elapsed, 2),
        "identical": [r.to_dict() for r in results] == [r.to_dict() for r in oracle_results],
    }


def bench_gapbs(
    *, scale_exp: int = 12, trials: int = 3, repeats: int = 3
) -> dict[str, Any]:
    """Fig 6's ``pr`` and ``tc`` on the array driver vs the scalar oracle.

    Each arm runs both kernels' Fig 6 cells (graph load, then the trials)
    under ``multiclock``; the array arm is the best of ``repeats``, the
    oracle -- one :meth:`Machine.touch` per access over the derived
    object stream -- runs once.
    """
    from repro.experiments.fig6_gapbs import run_kernel
    from repro.workloads.gapbs import Graph

    graph = Graph.rmat(scale=scale_exp, edge_factor=10, seed=7)
    kernels = ("pr", "tc")

    def run(batch: bool) -> tuple[float, list[dict]]:
        start = time.perf_counter()
        results = [
            result.to_dict()
            for name in kernels
            for result in run_kernel(graph, name, "multiclock", trials=trials, batch=batch)
        ]
        return time.perf_counter() - start, results

    array_best = float("inf")
    for _ in range(max(1, repeats)):
        wall, array_results = run(True)
        array_best = min(array_best, wall)
    oracle_wall, oracle_results = run(False)
    accesses = sum(result["accesses"] for result in array_results)
    return {
        "kernels": list(kernels),
        "scale_exp": scale_exp,
        "trials": trials,
        "accesses": accesses,
        "wall_seconds": round(array_best, 3),
        "accesses_per_sec": round(accesses / array_best),
        "oracle_wall_seconds": round(oracle_wall, 3),
        "oracle_accesses_per_sec": round(accesses / oracle_wall),
        "speedup": round(oracle_wall / array_best, 2),
        "identical": array_results == oracle_results,
    }


def _off_vs_armed(
    ops: int, pages: int, repeats: int, seed: int, arm: Callable[[Machine], Any]
) -> tuple[dict[str, Any], Any]:
    """One multiclock Zipf run with instrumentation off vs armed by ``arm``.

    Returns the shared result fields and what ``arm`` returned on the
    last armed run.  ``identical`` asserts arming moved no counter and
    no virtual clock.
    """
    states: dict[bool, tuple] = {}
    armed_with: list[Any] = [None]

    def run_once(armed: bool) -> float:
        machine = Machine(_config(seed), "multiclock")
        if armed:
            armed_with[0] = arm(machine)
        workload = ZipfWorkload(pages, ops, seed=seed, write_ratio=0.2)
        workload.setup(machine)
        batches = list(workload.numeric_batches())
        with _gc_paused():
            start = time.perf_counter()
            machine.touch_batch_array(workload.process, batches, lines=workload.lines)
            elapsed = time.perf_counter() - start
        states[armed] = _machine_state(machine)
        return elapsed

    best = _alternating({"off": lambda: run_once(False), "on": lambda: run_once(True)}, repeats)
    off_ops = ops / best["off"]
    on_ops = ops / best["on"]
    return {
        "ops": ops,
        "pages": pages,
        "repeats": repeats,
        "off_ops_per_sec": round(off_ops),
        "on_ops_per_sec": round(on_ops),
        "overhead": round(off_ops / on_ops, 3),
        "identical": states[False] == states[True],
    }, armed_with[0]


def bench_trace(
    ops: int = 100_000, *, pages: int = 4000, repeats: int = 3, seed: int = 42
) -> dict[str, Any]:
    """Tracing off vs armed on an identical multiclock run.

    ``multiclock`` (not ``static``) so daemons, migrations, and LRU
    movement actually fire tracepoints — an access-only run would
    measure almost nothing.
    """
    result, tracer = _off_vs_armed(
        ops, pages, repeats, seed, lambda machine: machine.enable_tracing()
    )
    return {**result, "events_emitted": tracer.events_emitted}


def bench_metrics(
    ops: int = 100_000, *, pages: int = 4000, repeats: int = 3, seed: int = 42
) -> dict[str, Any]:
    """Metrics off vs armed on an identical multiclock run.

    The armed run carries the ``vmstat_sampler`` daemon, gauge series,
    and the six hot-path histograms; ``identical`` asserts none of that
    moved a counter or the virtual clocks (the metrics-off/metrics-on
    bit-identity the instrumentation guards promise).  Dense sampling
    (1ms virtual) keeps the cost-free sampler daemon inside the
    identity check even on short runs.
    """
    result, registry = _off_vs_armed(
        ops, pages, repeats, seed,
        lambda machine: machine.enable_metrics(sample_interval_s=0.001),
    )
    return {
        **result,
        "samples": registry.samples,
        "observations": sum(h.count for h in registry.histograms.values()),
    }


def bench_sweep(
    *,
    pages: int = 2000,
    ops: int = 40_000,
    policies: tuple[str, ...] = ("static", "multiclock", "nimble", "autotiering-cpm"),
    workers: int = 2,
    seed: int = 42,
    repeats: int = 2,
) -> dict[str, Any]:
    """Sequential per-cell execution vs the persistent worker pool, plus
    a warm-cache re-run.

    The sequential arm is the naive grid loop: each cell builds its own
    workload and runs it with :func:`~repro.run.run_workload` (the
    array driver, for this numeric stream), exactly what a plain ``for
    cell in grid`` runner costs.  The pool arm runs the same declarative
    cells cold (empty result cache) through
    :func:`~repro.sweep.scheduler.run_sweep`: persistent workers, one
    shared numeric stream per distinct workload, array-replay per cell.
    ``identical`` asserts the pool's merged payloads equal the
    sequential results field for field — sharing construction must
    change wall time, never results.  The third timing,
    ``cached_rerun_seconds``, re-runs the identical spec against the
    now-populated cache: every cell is a fingerprint hit, no worker is
    spawned (``cached_rerun_workers`` must stay 0), so it measures the
    fixed cost of an incremental re-sweep.
    """
    import shutil
    import tempfile

    from repro.run import run_workload
    from repro.sweep import SweepCell, SweepSpec, run_sweep
    from repro.sweep.runners import _STREAM_CACHE, build_config, build_workload

    workload_spec = {
        "kind": "zipf", "pages": pages, "ops": ops,
        "seed": seed, "write_ratio": 0.2,
    }
    config_spec = {"dram_pages": 1024, "pm_pages": 8192, "seed": seed}
    spec = SweepSpec(
        name="bench-sweep",
        cells=tuple(
            SweepCell(
                id=policy,
                runner="run-workload",
                params={
                    "policy": policy,
                    "workload": workload_spec,
                    "config": config_spec,
                },
            )
            for policy in policies
        ),
    )

    # Best-of-repeats on both arms, like every other benchmark here: the
    # fork in the pool arm is sensitive to host scheduling noise, and a
    # gc pass before each timing keeps collector pauses (and fork cost
    # proportional to garbage) out of the comparison.
    sequential_s = float("inf")
    for _ in range(max(1, repeats)):
        gc.collect()
        with _gc_paused():
            start = time.perf_counter()
            sequential = {
                policy: run_workload(
                    build_workload(workload_spec),
                    build_config(config_spec),
                    policy=policy,
                ).to_dict()
                for policy in policies
            }
            sequential_s = min(sequential_s, time.perf_counter() - start)

    parallel_s = float("inf")
    cache_dir = tempfile.mkdtemp(prefix="bench-sweep-cache-")
    try:
        for _ in range(max(1, repeats)):
            # Every cold repeat pays for stream construction and starts
            # from an empty cache.
            _STREAM_CACHE.clear()
            shutil.rmtree(cache_dir, ignore_errors=True)
            gc.collect()
            with _gc_paused():
                start = time.perf_counter()
                cold = run_sweep(spec, workers=workers, cache_dir=cache_dir)
                parallel_s = min(parallel_s, time.perf_counter() - start)

        start = time.perf_counter()
        warm = run_sweep(spec, workers=workers, cache_dir=cache_dir)
        cached_rerun_s = time.perf_counter() - start
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    identical = (
        cold.ok
        and warm.ok
        and cold.payloads() == sequential
        and warm.payloads() == sequential
    )
    return {
        "cells": len(policies),
        "ops_per_cell": ops,
        "workers": workers,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "sequential_s": round(sequential_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(sequential_s / parallel_s, 2) if parallel_s > 0 else 0.0,
        "cached_rerun_seconds": round(cached_rerun_s, 4),
        "cached_rerun_workers": warm.spawned_workers,
        "identical": identical,
    }


def bench_remote(
    *,
    pages: int = 800,
    ops: int = 8_000,
    policies: tuple[str, ...] = ("static", "multiclock"),
    workers: int = 2,
    seed: int = 42,
) -> dict[str, Any]:
    """Local pool vs one loopback host agent over the wire protocol.

    Both arms run the same declarative grid with the same worker count;
    the remote arm adds agent startup, JSON envelopes, leases and
    heartbeats on top.  ``overhead_s`` is that fixed protocol tax —
    what shipping a cell to another machine costs before the network is
    even involved.  ``identical`` pins the determinism gate: the wire
    must never change results.
    """
    from repro.sweep import SweepCell, SweepSpec, run_remote_sweep, run_sweep

    spec = SweepSpec(
        name="bench-remote",
        cells=tuple(
            SweepCell(
                id=policy,
                runner="run-workload",
                params={
                    "policy": policy,
                    "workload": {
                        "kind": "zipf", "pages": pages, "ops": ops,
                        "seed": seed, "write_ratio": 0.2,
                    },
                    "config": {"dram_pages": 1024, "pm_pages": 8192,
                               "seed": seed},
                },
            )
            for policy in policies
        ),
    )

    gc.collect()
    with _gc_paused():
        start = time.perf_counter()
        local = run_sweep(spec, workers=workers)
        local_s = time.perf_counter() - start

    gc.collect()
    with _gc_paused():
        start = time.perf_counter()
        remote = run_remote_sweep(spec, f"loopback:{workers}")
        remote_s = time.perf_counter() - start

    return {
        "cells": len(policies),
        "ops_per_cell": ops,
        "workers": workers,
        "local_pool_s": round(local_s, 3),
        "loopback_host_s": round(remote_s, 3),
        "overhead_s": round(remote_s - local_s, 3),
        "identical": local.ok and remote.ok
        and remote.payloads() == local.payloads(),
    }


def bench_journal(
    *,
    pages: int = 800,
    ops: int = 8_000,
    policies: tuple[str, ...] = ("static", "multiclock"),
    workers: int = 2,
    seed: int = 42,
) -> dict[str, Any]:
    """The same local-pool sweep with the span journal off vs armed.

    The journal writes one flushed NDJSON line per control-plane event —
    a per-*cell* cost, so its overhead must stay invisible next to the
    cells themselves.  ``identical`` pins the contract that buys the
    byte-identical journal-off report: arming observability never
    changes what the sweep computes.
    """
    import tempfile

    from repro.obs import Journal, SweepObserver, read_journal
    from repro.sweep import SweepCell, SweepSpec, run_sweep

    spec = SweepSpec(
        name="bench-journal",
        cells=tuple(
            SweepCell(
                id=policy,
                runner="run-workload",
                params={
                    "policy": policy,
                    "workload": {
                        "kind": "zipf", "pages": pages, "ops": ops,
                        "seed": seed, "write_ratio": 0.2,
                    },
                    "config": {"dram_pages": 1024, "pm_pages": 8192,
                               "seed": seed},
                },
            )
            for policy in policies
        ),
    )

    results: dict[str, Any] = {}
    events = 0

    def run_once(armed: bool) -> float:
        nonlocal events
        obs = None
        if armed:
            with tempfile.NamedTemporaryFile(suffix=".ndjson", delete=False) as tmp:
                journal_path = tmp.name
            obs = SweepObserver(journal=Journal(journal_path))
        try:
            gc.collect()
            with _gc_paused():
                start = time.perf_counter()
                results["armed" if armed else "off"] = run_sweep(
                    spec, workers=workers, obs=obs
                )
                elapsed = time.perf_counter() - start
            if obs is not None:
                obs.close("done")
                events = len(read_journal(journal_path))
        finally:
            if armed:
                os.unlink(journal_path)
        return elapsed

    # Two timed rounds: one with each arm first.
    best = _alternating(
        {"off": lambda: run_once(False), "armed": lambda: run_once(True)}, 2
    )
    off_s, armed_s = best["off"], best["armed"]
    off, armed = results["off"], results["armed"]

    return {
        "cells": len(policies),
        "ops_per_cell": ops,
        "workers": workers,
        "off_s": round(off_s, 3),
        "armed_s": round(armed_s, 3),
        "overhead": round(armed_s / off_s, 3) if off_s > 0 else 0.0,
        "journal_events": events,
        "identical": off.ok and armed.ok
        and armed.payloads() == off.payloads(),
    }


def run_suite(*, smoke: bool = False, repeats: int = 3) -> dict[str, Any]:
    """Run all benchmarks; smoke mode uses CI-sized workloads."""
    if smoke:
        touch = bench_touch(60_000, pages=2000, repeats=max(1, min(repeats, 2)))
        kpromoted = bench_kpromoted(pages=1000, warm_ops=10_000, runs=30)
        ycsb = bench_ycsb_a(n_records=2_000, ops=20_000)
        gapbs = bench_gapbs(scale_exp=10, trials=1, repeats=max(1, min(repeats, 2)))
        trace = bench_trace(30_000, pages=2000, repeats=max(1, min(repeats, 2)))
        # All four default policies, and cells big enough that the
        # pool's fork-and-pipe overhead stops being the same order as
        # the cells themselves: at ops=8_000 the comparison on a busy
        # single-core host was a coin flip (0.94x-1.45x measured over
        # repeated runs).  Since the sequential loop's run_workload also
        # takes the array driver (cells ~35ms each), the 2-vCPU host
        # measures 1.2x-1.7x at this sizing.
        sweep = bench_sweep(pages=1500, ops=20_000)
        remote = bench_remote(pages=400, ops=4_000)
        journal = bench_journal(pages=400, ops=4_000)
        metrics = bench_metrics(30_000, pages=2000, repeats=max(1, min(repeats, 2)))
        deactivate = bench_deactivate(pages=1000, warm_ops=10_000, rounds=10)
    else:
        touch = bench_touch(repeats=repeats)
        kpromoted = bench_kpromoted()
        ycsb = bench_ycsb_a()
        gapbs = bench_gapbs(repeats=repeats)
        trace = bench_trace(repeats=repeats)
        sweep = bench_sweep()
        remote = bench_remote()
        journal = bench_journal()
        metrics = bench_metrics(repeats=repeats)
        deactivate = bench_deactivate()
    return {
        "meta": {
            "mode": "smoke" if smoke else "full",
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "touch": touch,
        "kpromoted": kpromoted,
        "ycsb_a": ycsb,
        "gapbs": gapbs,
        "trace": trace,
        "sweep": sweep,
        "remote": remote,
        "journal": journal,
        "metrics": metrics,
        "deactivate": deactivate,
    }


def write_results(results: dict[str, Any], path: str = DEFAULT_OUT) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")


def render(results: dict[str, Any]) -> str:
    """Human-readable summary of one suite run."""
    touch = results["touch"]
    kpromoted = results["kpromoted"]
    ycsb = results["ycsb_a"]
    lines = [
        f"touch      per-access {touch['per_access_ops_per_sec']:>10,} ops/s"
        f"  array {touch['batched_ops_per_sec']:>10,} ops/s"
        f"  speedup {touch['speedup']:.2f}x"
        f"  identical={touch['identical']}",
        f"kpromoted  {kpromoted['pages_per_sec']:>10,} pages/s"
        f"  ({kpromoted['pages_scanned']:,} pages in {kpromoted['wall_seconds']}s)",
        f"ycsb-a     {ycsb['wall_seconds']}s wall for load+{ycsb['ops']:,} ops"
        f"  ({ycsb['accesses_per_wall_sec']:,} accesses/s host,"
        f" {ycsb['virtual_throughput_ops']:,} ops/s virtual)"
        f"  oracle {ycsb['oracle_wall_seconds']}s"
        f"  speedup {ycsb['speedup']:.2f}x"
        f"  identical={ycsb['identical']}",
    ]
    gapbs = results.get("gapbs")
    if gapbs is not None:
        lines.append(
            f"gapbs      {'+'.join(gapbs['kernels'])} scale {gapbs['scale_exp']}"
            f" x{gapbs['trials']} trials  array {gapbs['wall_seconds']}s"
            f" ({gapbs['accesses_per_sec']:,} accesses/s)"
            f"  oracle {gapbs['oracle_wall_seconds']}s"
            f"  speedup {gapbs['speedup']:.2f}x"
            f"  identical={gapbs['identical']}"
        )
    trace = results.get("trace")
    if trace is not None:
        lines.append(
            f"trace      off {trace['off_ops_per_sec']:>10,} ops/s"
            f"  armed {trace['on_ops_per_sec']:>10,} ops/s"
            f"  overhead {trace['overhead']:.3f}x"
            f"  ({trace['events_emitted']:,} events)"
            f"  identical={trace['identical']}"
        )
    sweep = results.get("sweep")
    if sweep is not None:
        lines.append(
            f"sweep      {sweep['cells']} cells sequential {sweep['sequential_s']}s"
            f"  {sweep['workers']} workers {sweep['parallel_s']}s"
            f"  speedup {sweep['speedup']:.2f}x"
            f"  cached rerun {sweep['cached_rerun_seconds']}s"
            f" ({sweep['cached_rerun_workers']} spawned)"
            f"  ({sweep['cpu_count']} core(s))"
            f"  identical={sweep['identical']}"
        )
    remote = results.get("remote")
    if remote is not None:
        lines.append(
            f"remote     {remote['cells']} cells local pool"
            f" {remote['local_pool_s']}s"
            f"  loopback host {remote['loopback_host_s']}s"
            f"  protocol tax {remote['overhead_s']}s"
            f"  identical={remote['identical']}"
        )
    journal = results.get("journal")
    if journal is not None:
        lines.append(
            f"journal    {journal['cells']} cells off {journal['off_s']}s"
            f"  armed {journal['armed_s']}s"
            f"  overhead {journal['overhead']:.3f}x"
            f"  ({journal['journal_events']:,} events)"
            f"  identical={journal['identical']}"
        )
    deactivate = results.get("deactivate")
    if deactivate is not None:
        lines.append(
            f"deactivate scalar {deactivate['scalar_pages_per_sec']:>10,} pages/s"
            f"  vector {deactivate['vector_pages_per_sec']:>10,} pages/s"
            f"  speedup {deactivate['speedup']:.2f}x"
            f"  identical={deactivate['identical']}"
        )
    metrics = results.get("metrics")
    if metrics is not None:
        lines.append(
            f"metrics    off {metrics['off_ops_per_sec']:>10,} ops/s"
            f"  armed {metrics['on_ops_per_sec']:>10,} ops/s"
            f"  overhead {metrics['overhead']:.3f}x"
            f"  ({metrics['samples']:,} samples,"
            f" {metrics['observations']:,} observations)"
            f"  identical={metrics['identical']}"
        )
    return "\n".join(lines)
