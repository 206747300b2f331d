"""Unit tests for the page-lifecycle auditor."""

import pytest

from repro.machine import Machine
from repro.sim.config import DaemonConfig, SimulationConfig
from repro.trace import audit_machine
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


def run_traced(policy="multiclock", *, capacity=None, pages=400, ops=5000):
    machine = Machine(CONFIG, policy)
    machine.enable_tracing(capacity_per_node=capacity)
    workload = ZipfWorkload(pages, ops, seed=7, write_ratio=0.2)
    workload.setup(machine)
    machine.touch_batch_array(
        workload.process, workload.numeric_batches(), lines=workload.lines
    )
    return machine


def test_audit_requires_a_tracer():
    machine = Machine(CONFIG, "static")
    with pytest.raises(RuntimeError):
        audit_machine(machine)


@pytest.mark.parametrize("policy", ["multiclock", "static", "nimble", "autonuma"])
def test_round_trip_audit_is_clean(policy):
    machine = run_traced(policy)
    report = audit_machine(machine)
    assert report.ok, report.render()
    assert report.complete
    assert report.checks >= 15
    assert report.events_replayed > 0
    assert "verdict: OK" in report.render()


def test_tampered_counter_is_caught():
    """The auditor exists to catch accounting drift: fake one promotion
    the trace never saw and the cross-check must flag it."""
    machine = run_traced("multiclock")
    machine.stats.inc("kpromoted.promoted")
    report = audit_machine(machine)
    assert not report.ok
    assert any("kpromoted_promote" in m for m in report.mismatches)
    assert "MISMATCH" in report.render()


def test_tampered_replay_counter_is_caught():
    machine = run_traced("multiclock")
    machine.stats.inc("migrate.demotions", 3)
    report = audit_machine(machine)
    assert not report.ok
    assert any("migrate.demotions" in m for m in report.mismatches)


def test_overwritten_rings_skip_replay_but_keep_counter_checks():
    machine = run_traced("multiclock", capacity=32)
    tracer = machine.system.trace
    assert not tracer.complete  # the tiny ring must have overwritten
    report = audit_machine(machine)
    assert not report.complete
    assert report.events_replayed == 0
    assert report.notes  # explains why replay was skipped
    # Counter cross-checks compare hits, which survive overwrites.
    assert report.ok, report.render()
    assert report.checks == 10


def test_mid_run_enable_baselines_the_counters():
    """Tracing attached after warm-up must still audit clean: the
    baseline snapshot makes every cross-check a delta comparison."""
    machine = Machine(CONFIG, "multiclock")
    warm = ZipfWorkload(300, 2000, seed=7, write_ratio=0.2)
    warm.setup(machine)
    machine.touch_batch_array(
        warm.process, warm.numeric_batches(), lines=warm.lines
    )
    machine.enable_tracing()
    more = ZipfWorkload(300, 2000, seed=11, write_ratio=0.2)
    more.setup(machine)
    machine.touch_batch_array(
        more.process, more.numeric_batches(), lines=more.lines
    )
    report = audit_machine(machine)
    # Replay may see migrations of pages allocated before tracing began;
    # counter cross-checks must be exact regardless.
    counter_mismatches = [m for m in report.mismatches if "events emitted" in m]
    assert counter_mismatches == [], report.render()
