"""Unit tests for the Tracer and its machine integration."""

import pytest

from repro.machine import Machine
from repro.sim.config import DaemonConfig, SimulationConfig
from repro.trace import Tracer
from repro.workloads.synthetic import ZipfWorkload

CONFIG = SimulationConfig(
    dram_pages=(128,),
    pm_pages=(1024,),
    daemons=DaemonConfig(
        kpromoted_interval_s=0.001,
        kswapd_interval_s=0.001,
        hint_scan_interval_s=0.001,
    ),
    seed=7,
)


def traced_run(policy="multiclock", pages=400, ops=4000):
    machine = Machine(CONFIG, policy)
    tracer = machine.enable_tracing()
    workload = ZipfWorkload(pages, ops, seed=7, write_ratio=0.2)
    workload.setup(machine)
    machine.touch_batch_array(
        workload.process, workload.numeric_batches(), lines=workload.lines
    )
    return machine, tracer


def test_emit_counts_hits_and_assigns_monotonic_seq():
    machine = Machine(CONFIG, "static")
    tracer = machine.enable_tracing()
    tracer.emit("mm_page_alloc", 0, 1)
    tracer.emit("mm_page_alloc", 0, 2)
    tracer.emit("oom_kill", reason="test")
    assert tracer.hits == {"mm_page_alloc": 2, "oom_kill": 1}
    assert tracer.events_emitted == 3
    seqs = [e.seq for ring in tracer.buffers.values() for e in ring]
    assert sorted(seqs) == [1, 2, 3]


def test_events_route_to_per_node_rings():
    machine = Machine(CONFIG, "static")
    tracer = machine.enable_tracing()
    tracer.emit("mm_page_alloc", 0, 1)
    tracer.emit("mm_vmscan_demote", 1, 2, dest=0, scanner="kswapd")
    tracer.emit("oom_kill", reason="test")  # machine-wide → node -1
    assert set(tracer.buffers) == {0, 1, -1}


def test_enable_tracing_twice_raises():
    machine = Machine(CONFIG, "static")
    machine.enable_tracing()
    with pytest.raises(RuntimeError):
        machine.enable_tracing()


def test_tracer_rejects_nonpositive_capacity():
    machine = Machine(CONFIG, "static")
    with pytest.raises(ValueError):
        Tracer(machine.clock, capacity_per_node=0)


def test_multiclock_run_fires_the_expected_event_families():
    __, tracer = traced_run()
    assert tracer.hits.get("mm_page_alloc", 0) > 0
    assert tracer.hits.get("mm_migrate_pages", 0) > 0
    assert tracer.hits.get("kpromoted_promote", 0) > 0
    assert tracer.hits.get("mm_promote_list_add", 0) > 0
    assert tracer.hits.get("mm_lru_activate", 0) > 0
    assert tracer.complete


def test_timestamps_are_virtual_and_nondecreasing():
    machine, tracer = traced_run(ops=2000)
    last_by_node = {}
    for node_id, ring in tracer.buffers.items():
        stamps = [e.ts_ns for e in ring]
        assert stamps == sorted(stamps)
        assert all(0 <= ts <= machine.clock.now_ns for ts in stamps)
        last_by_node[node_id] = stamps[-1] if stamps else 0
    assert any(last_by_node.values())


def test_tracing_does_not_perturb_the_simulation():
    """The nop property, asserted at unit scale: identical clock and
    counters whether or not a tracer is installed."""

    def run(traced):
        machine = Machine(CONFIG, "multiclock")
        if traced:
            machine.enable_tracing()
        workload = ZipfWorkload(300, 3000, seed=7, write_ratio=0.2)
        workload.setup(machine)
        machine.touch_batch_array(
            workload.process, workload.numeric_batches(), lines=workload.lines
        )
        return machine.stats.snapshot(), machine.clock.now_ns

    assert run(True) == run(False)


def test_hits_survive_ring_overwrite():
    machine = Machine(CONFIG, "static")
    tracer = machine.enable_tracing(capacity_per_node=4)
    for pfn in range(20):
        tracer.trace_mm_page_alloc(0, pfn, True, False)
    assert tracer.hits["mm_page_alloc"] == 20
    assert len(tracer.buffers[0]) == 4
    assert tracer.events_dropped == 16
    assert not tracer.complete
