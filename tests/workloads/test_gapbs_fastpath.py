"""The GAPBS kernels on the array driver match the scalar oracle.

``run_workload(batch=False)`` drives ``workload.accesses()`` -- the
kernel's column batches through the scalar CPU-cache filter against the
live page table -- one :meth:`Machine.touch` at a time.  The default
path hands the same batches to :meth:`Machine.touch_batch_array`, whose
filter stage decides absorption on whole runs.  Both must produce the
same results, leave the kernel's cache draws in the same state, and
compute the same algorithm outputs, for every kernel under every kind
of policy: column-sweep policies that demote and promote, and
hint-fault policies whose poisoned PTEs force the scalar step.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.common import scaled_config
from repro.faults.plan import CopyFailures, FaultPlan, PmSlowdown
from repro.machine import Machine
from repro.mm.hardware import ABSORB_HEAD, ABSORB_TAIL, CpuCache
from repro.run import run_workload
from repro.sim.rng import make_rng
from repro.workloads.base import NumericWorkload
from repro.workloads.gapbs import KERNELS, Graph

POLICIES = ("static", "multiclock", "nimble", "autotiering-cpm", "autonuma")


@pytest.fixture(scope="module")
def graph() -> Graph:
    return Graph.rmat(scale=9, edge_factor=8, seed=5)


def _run(graph: Graph, kernel_name: str, policy: str, *, batch: bool, armed: bool = False):
    """Load then two trials on one machine: results, draw state, outputs."""
    kernel = KERNELS[kernel_name](graph, trials=2, seed=4)
    footprint = kernel.footprint_pages()
    # DRAM a quarter of the footprint and short daemon intervals: the
    # runs demote, promote and (under the hint-fault policies) poison.
    config = scaled_config(
        dram_pages=max(8, footprint // 4),
        pm_pages=footprint * 4,
        interval_s=0.005,
        scan_budget_pages=16,
    )
    machine = Machine(config, policy)
    if armed:
        machine.enable_tracing(capacity_per_node=1 << 16)
        machine.enable_metrics()
        machine.enable_memcg()
        machine.install_faults(
            FaultPlan(
                seed=3,
                events=(
                    CopyFailures(start_s=0.0, end_s=30.0, rate=0.3),
                    PmSlowdown(start_s=0.0005, end_s=0.002, multiplier=2.5),
                ),
            )
        )
    load = run_workload(kernel.load_workload(), config, machine=machine, batch=batch)
    trials = run_workload(kernel, config, machine=machine, batch=batch)
    outputs = {
        attr: getattr(kernel, attr)
        for attr in ("triangles", "final_components", "final_ranks")
        if hasattr(kernel, attr)
    }
    return {
        "load": load.to_dict(),
        "trials": trials.to_dict(),
        "cache": kernel.cpu_cache.state(),
        "outputs": outputs,
    }


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
def test_array_path_matches_scalar_oracle(graph, kernel_name, policy, monkeypatch):
    oracle = _run(graph, kernel_name, policy, batch=False)
    fast = _run(graph, kernel_name, policy, batch=True)
    assert fast["load"] == oracle["load"]
    assert fast["trials"] == oracle["trials"]
    assert fast["cache"] == oracle["cache"]
    assert fast["outputs"] == oracle["outputs"]
    counters = oracle["trials"]["counters"]
    if policy in ("multiclock", "nimble"):
        assert counters.get("migrate.demotions", 0) > 0
    if policy in ("autotiering-cpm", "autonuma"):
        assert counters.get("faults.hint", 0) > 0
    # Tiny blocks: runs stop at every block edge and leftovers carry
    # across batches, trials and phases; the decisions cannot change.
    monkeypatch.setattr(CpuCache, "BLOCK", 61)
    chopped = _run(graph, kernel_name, policy, batch=True)
    assert chopped["load"] == oracle["load"]
    assert chopped["trials"] == oracle["trials"]
    assert chopped["outputs"] == oracle["outputs"]


@pytest.mark.parametrize("kernel_name", ["pr", "bfs"])
def test_array_path_matches_oracle_with_everything_armed(graph, kernel_name):
    oracle = _run(graph, kernel_name, "multiclock", batch=False, armed=True)
    fast = _run(graph, kernel_name, "multiclock", batch=True, armed=True)
    assert fast == oracle
    counters = oracle["trials"]["counters"]
    assert counters.get("migrate.failed_copy", 0) > 0
    assert counters.get("migrate.demotions", 0) > 0


def test_cold_pages_never_draw(graph):
    """Before the load pass nothing is mapped: a pass over the stream
    with an empty page table leaves every draw unconsumed."""
    kernel = KERNELS["pr"](graph, trials=1, seed=4)
    kernel.setup(Machine(scaled_config(dram_pages=64, pm_pages=512), "static"))
    kernel.loaded = True  # no load pass: the graph stays unmapped
    kernel.machine = None  # keep the trial's property arrays untouched
    fresh = KERNELS["pr"](graph, trials=1, seed=4).cpu_cache.state()
    absorbable = sum(int((batch[4] > 0).sum()) for batch in kernel.numeric_batches())
    assert absorbable > 0
    assert sum(1 for __ in kernel.accesses()) > 0
    assert kernel.cpu_cache.state() == fresh


class _RandomColumns(NumericWorkload):
    """Random candidate touches over two regions, cut into batches at
    random rows -- a two-page touch may straddle two batches."""

    name = "random-columns"

    def __init__(self, seed: int, rows: int = 20_000, pages: int = 160) -> None:
        self.seed = seed
        self.rows = rows
        self.pages = pages
        self.cpu_cache = CpuCache(make_rng(seed, "cache"), 0.6)

    def setup(self, machine: Machine) -> None:
        self.process = machine.create_process(self.name)
        self.process.mmap_anon(0, self.pages)
        self.process.mmap_anon(4096, self.pages)

    def numeric_batches(self):
        rng = make_rng(self.seed, "rows")
        # Per touch: plain, or absorbable over one, two or three pages.
        kind = rng.integers(0, 4, size=self.rows)
        width = np.array([1, 1, 2, 3])[kind]
        hot = rng.random(self.rows) < 0.8
        first = np.where(
            hot,
            rng.integers(0, 24, size=self.rows),
            rng.integers(0, self.pages - 2, size=self.rows),
        )
        first = first + np.where(rng.random(self.rows) < 0.5, 0, 4096)
        head = np.repeat(np.cumsum(width) - width, width)
        row = np.arange(len(head))
        vpages = np.repeat(first, width) + row - head
        absorb = np.where(
            np.repeat(kind, width) == 0, 0, np.where(row == head, ABSORB_HEAD, ABSORB_TAIL)
        ).astype(np.int8)
        n = len(vpages)
        writes = rng.random(n) < 0.3
        lines = rng.integers(1, 9, size=n)
        boundary = (absorb == 0) & (rng.random(n) < 0.2)
        cuts = np.sort(rng.choice(np.arange(1, n), size=40, replace=False))
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, n]):
            yield vpages[lo:hi], writes[lo:hi], lines[lo:hi], boundary[lo:hi], absorb[lo:hi]


@pytest.mark.parametrize("policy", ["multiclock", "autonuma", "memory-mode"])
@pytest.mark.parametrize("seed", [1, 2])
def test_filter_stage_on_random_column_streams(policy, seed):
    config = scaled_config(dram_pages=48, pm_pages=512, interval_s=0.002, scan_budget_pages=16)
    results = {}
    for batch in (False, True):
        workload = _RandomColumns(seed)
        result = run_workload(workload, config, policy, batch=batch)
        results[batch] = (result.to_dict(), workload.cpu_cache.state())
    assert results[True] == results[False]
    assert 0 < results[True][0]["accesses"] < 20_000 * 2
    assert results[True][0]["operations"] > 0
