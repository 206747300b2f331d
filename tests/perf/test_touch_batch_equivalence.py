"""The access driver must be bit-identical to the scalar oracle.

``Machine.touch_batch`` -- the multi-process entry of the one access
driver -- runs ``(process, batch)`` segments through vectorized column
sweeps and a scalar step that accumulates virtual time and counters
in locals.  These tests pin down that none of that changes observable
behaviour: driving a multi-tenant workload's segments ends with the same
counter snapshot, the same virtual clock (all three buckets), daemons
fired at the same virtual times and the same page-store columns as
``Machine.touch`` over the workload's derived ``accesses()``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.machine import Machine
from repro.sim.config import DaemonConfig, SimulationConfig
from repro.sim.events import Daemon
from repro.workloads.multitenant import KVTenantWorkload, MultiTenantWorkload
from repro.workloads.synthetic import (
    ShiftingHotSetWorkload,
    UniformWorkload,
    ZipfWorkload,
)

POLICIES = ["multiclock", "static", "nimble", "memory-mode", "autonuma"]
WORKLOADS = {
    "zipf": lambda seed: ZipfWorkload(600, 3000, seed=seed, write_ratio=0.3),
    "shifting": lambda seed: ShiftingHotSetWorkload(
        600, 3000, seed=seed, write_ratio=0.3, phase_ops=1500
    ),
}
DAEMONS = DaemonConfig(
    kpromoted_interval_s=0.001,
    kswapd_interval_s=0.001,
    hint_scan_interval_s=0.001,
)
SINGLE = SimulationConfig(dram_pages=(128,), pm_pages=(1024,), daemons=DAEMONS, seed=7)
DUAL = SimulationConfig(
    dram_pages=(64, 64), pm_pages=(512, 512), sockets=2, daemons=DAEMONS, seed=7
)
STORE_COLUMNS = ("pte_accessed", "pte_dirty", "flags", "node", "awaiting_ns")


def _two_tenants(workload_key: str) -> MultiTenantWorkload:
    make = WORKLOADS[workload_key]
    return MultiTenantWorkload([make(11), make(12)], batch=64)


def _drive(machine: Machine, workload, *, batched: bool) -> tuple[int, int]:
    """Drive a set-up ``workload`` through the segment driver or the oracle."""
    if batched:
        return machine.touch_batch(workload.segments())
    n_accesses = n_operations = 0
    for access in workload.accesses():
        machine.touch(
            access.process, access.vpage, is_write=access.is_write, lines=access.lines
        )
        n_accesses += 1
        n_operations += access.op_boundary
    return n_accesses, n_operations


def _state(machine: Machine) -> tuple:
    clock = machine.clock
    return machine.stats.snapshot(), clock.now_ns, clock.app_ns, clock.system_ns


@pytest.mark.parametrize("workload_key", sorted(WORKLOADS))
@pytest.mark.parametrize("policy", POLICIES)
def test_batched_driver_is_bit_identical(policy: str, workload_key: str):
    runs = []
    for batched in (False, True):
        machine = Machine(SINGLE, policy)
        workload = _two_tenants(workload_key)
        workload.setup(machine)
        _drive(machine, workload, batched=batched)
        runs.append(_state(machine))
    per_access, batched = runs
    assert batched[0] == per_access[0], "counter snapshots diverged"
    assert batched[1:] == per_access[1:], "virtual clocks diverged"


def _probed(machine: Machine) -> list[int]:
    fire_times: list[int] = []
    machine.scheduler.register(
        Daemon("probe", 0.0005, lambda now: fire_times.append(now) or 0)
    )
    return fire_times


@pytest.mark.parametrize("policy", ["multiclock", "static"])
def test_daemons_fire_at_same_virtual_times(policy: str):
    """The scheduler fast-path must not shift or drop any wakeup."""
    runs = []
    for batched in (False, True):
        machine = Machine(SINGLE, policy)
        fire_times = _probed(machine)
        workload = _two_tenants("zipf")
        workload.setup(machine)
        _drive(machine, workload, batched=batched)
        runs.append(fire_times)
    per_access, batched = runs
    assert per_access, "probe daemon never fired — workload too small"
    assert batched == per_access


def test_touch_batch_returns_access_and_operation_counts():
    machine = Machine(SINGLE, "static")
    workload = _two_tenants("zipf")
    workload.setup(machine)
    accesses, operations = _drive(machine, workload, batched=True)
    assert accesses == 6000
    assert operations == 6000  # synthetic streams mark every access


def _tenant(kind: str, seed: int):
    if kind == "zipf":
        return ZipfWorkload(160, 900, seed=seed, write_ratio=0.3)
    if kind == "uniform":
        return UniformWorkload(160, 700, seed=seed, write_ratio=0.2)
    if kind == "shifting":
        return ShiftingHotSetWorkload(
            160, 900, seed=seed, write_ratio=0.3, phase_ops=300
        )
    return KVTenantWorkload(f"kv{seed}", 240, 300, seed=seed)


def _armed_run(kinds, burst, dual, policy, *, batched):
    config = DUAL if dual else SINGLE
    machine = Machine(config, policy)
    fire_times = _probed(machine)
    memcg = machine.enable_memcg()
    tracer = machine.enable_tracing()
    machine.enable_metrics(sample_interval_s=0.001)
    tenants = [_tenant(kind, 30 + i) for i, kind in enumerate(kinds)]
    sockets = [i % 2 for i in range(len(tenants))] if dual else None
    workload = MultiTenantWorkload(tenants, home_sockets=sockets, batch=burst)
    workload.setup(machine)
    for i, tenant in enumerate(tenants):
        # The first tenant's limit keeps memcg reclaim firing mid-stream.
        group = memcg.create_group(tenant.name, limit_pages=None if i else 100)
        memcg.attach(tenant.process, group)
    counts = _drive(machine, workload, batched=batched)
    store = machine.system.pagestore
    columns = {name: getattr(store, name).copy() for name in STORE_COLUMNS}
    return counts, _state(machine), fire_times, dict(tracer.hits), columns


@settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    kinds=st.lists(
        st.sampled_from(["zipf", "uniform", "shifting", "kv"]), min_size=2, max_size=3
    ),
    burst=st.sampled_from([1, 5, 16, 40, 200]),
    dual=st.booleans(),
    policy=st.sampled_from(POLICIES),
)
def test_segment_driver_matches_scalar_oracle(kinds, burst, dual, policy):
    """Drawn tenants, burst sizes and topologies, with memcg, tracing and
    metrics armed: the segment driver and the scalar oracle agree on
    counters, clocks, daemon fire times and the page-store columns."""
    oracle = _armed_run(kinds, burst, dual, policy, batched=False)
    driven = _armed_run(kinds, burst, dual, policy, batched=True)
    assert driven[0] == oracle[0], "access/operation counts diverged"
    assert driven[1] == oracle[1], "counters or virtual clocks diverged"
    assert driven[2] == oracle[2], "daemon fire times diverged"
    assert driven[3] == oracle[3], "tracepoint hits diverged"
    for name in STORE_COLUMNS:
        assert np.array_equal(driven[4][name], oracle[4][name]), f"{name} diverged"
