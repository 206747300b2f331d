"""Tracing-off runs must be bit-identical to the recorded baseline.

``tests/data/baseline_runresults.json`` was generated on the tree as it
stood *before* the tracepoint layer existed.  Every policy fingerprint —
counters, clocks, operation counts — must still come out byte-for-byte
the same with tracing compiled out (no tracer installed), which is the
"tracepoints are nops when off" guarantee measured at full-run scale.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.common import scaled_config
from repro.machine import Machine
from repro.run import run_numeric_stream, run_workload
from repro.sim.config import DaemonConfig, SimulationConfig
from repro.workloads.synthetic import ZipfWorkload

BASELINE = Path(__file__).parent.parent / "data" / "baseline_runresults.json"


def baseline_config():
    return SimulationConfig(
        dram_pages=(512,),
        pm_pages=(4096,),
        swap_pages=1 << 20,
        daemons=DaemonConfig(
            kpromoted_interval_s=0.002,
            kswapd_interval_s=0.001,
            hint_scan_interval_s=0.002,
        ),
        seed=7,
    )


def fingerprint(policy, *, traced=False, config=None, workload=None):
    """A full run's fingerprint; the explicit pair runs the array driver."""
    machine = Machine(config or baseline_config(), policy)
    if traced:
        machine.enable_tracing()
    if workload is None:
        workload = ZipfWorkload(2000, 20_000, seed=7, write_ratio=0.2)
        result = run_workload(workload, machine.config, machine=machine)
    else:
        stream = list(workload.numeric_batches())
        result = run_numeric_stream(
            workload, machine.config, stream, policy, machine=machine
        )
    return {
        "operations": result.operations,
        "accesses": result.accesses,
        "elapsed_ns": result.elapsed_ns,
        "app_ns": result.app_ns,
        "system_ns": result.system_ns,
        "ops_fallback": result.ops_fallback,
        "counters": dict(sorted(result.counters.items())),
    }


RECORDED = json.loads(BASELINE.read_text())


@pytest.mark.parametrize("policy", sorted(RECORDED))
def test_tracing_off_matches_the_recorded_baseline(policy):
    assert fingerprint(policy) == RECORDED[policy]


TRACED_CASES = [
    pytest.param(policy, False, id=policy)
    for policy in sorted({*RECORDED, "multiclock", "multiclock-rw"})
] + [pytest.param("multiclock", True, id="multiclock-small-dram")]


@pytest.mark.parametrize("policy, small_dram", TRACED_CASES)
def test_tracing_on_changes_nothing_either(policy, small_dram):
    """Armed tracing observes; it must never steer.

    ``small_dram`` runs a hot Zipf stream against a small DRAM, which
    drains kpromoted's lists down to a lone survivor that the sweep
    keeps rotating until its budget is spent.
    """
    def run(traced):
        if not small_dram:
            return fingerprint(policy, traced=traced)
        return fingerprint(
            policy,
            traced=traced,
            config=scaled_config(dram_pages=256, pm_pages=4096, seed=2),
            workload=ZipfWorkload(2048, 20_000, seed=2, write_ratio=0.2),
        )

    assert run(traced=True) == run(traced=False)
