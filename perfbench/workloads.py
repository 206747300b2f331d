"""The benchmark's four workloads, each a fixed grid of simulated runs.

A workload builds its inputs from the seed in :meth:`setup`, then runs
one *pass* -- every cell of its grid -- as often as the timed loop asks.
A cell returns ``{label: RunResult.to_dict()}`` for every simulated run
it made; the caller digests those and, for in-process workloads, runs the
invariant checker on the machines the cell built (see
:func:`capture_machines`).  The same seed always yields the same inputs,
so every pass of one invocation must produce identical results.
"""

from __future__ import annotations

import contextlib
import os
from typing import Any, Callable, Iterator

from repro.experiments.common import (
    EVALUATED_POLICIES,
    run_ycsb_sequence,
    scaled_config,
)
from repro.machine import Machine
from repro.run import run_numeric_stream, run_workload
from repro.workloads.gapbs import KERNELS, Graph
from repro.workloads.synthetic import ZipfWorkload
from repro.workloads.ycsb import EXECUTION_SEQUENCE, YCSBSession

__all__ = ["WORKLOADS", "SIZES", "capture_machines"]


@contextlib.contextmanager
def capture_machines(
    arm: Callable[[Machine], Any] | None = None,
) -> Iterator[list[Machine]]:
    """Collect every :class:`Machine` built inside the block.

    Library entry points such as ``run_ycsb_sequence`` build their machine
    internally, so the only way to reach the live instance is to hook the
    constructor for the duration of the call.  ``arm`` runs on each new
    machine before any access is driven through it (the traced run uses it
    to wrap layer callables, the instrumentation pass to enable tracing,
    metrics and memcg).
    """
    original = Machine.__init__
    machines: list[Machine] = []

    def init(self: Machine, *args: Any, **kwargs: Any) -> None:
        original(self, *args, **kwargs)
        machines.append(self)
        if arm is not None:
            arm(self)

    Machine.__init__ = init  # type: ignore[method-assign]
    try:
        yield machines
    finally:
        Machine.__init__ = original  # type: ignore[method-assign]


class Ycsb:
    """Fig 5: Load then A, B, C, F, W, D on one warm machine per policy.

    Exercises the object access path (``Machine.touch_batch``) fed by the
    Python YCSB and slab-store generators, with read-only (C) and
    write-heavy (A, W) phases in one sequence.
    """

    name = "ycsb"
    in_process = True

    def __init__(self, seed: int, n_records: int, ops_per_phase: int) -> None:
        self.seed = seed
        self.n_records = n_records
        self.ops_per_phase = ops_per_phase

    def setup(self) -> None:
        # The footprint-scaled config is what run_fig5 builds.  The
        # sequence constructs its own machine inside the timed part, so
        # set-up builds one probe machine per policy: work moved into
        # Machine construction shows here as well as in the timed pass.
        footprint = YCSBSession(self.n_records, seed=self.seed).footprint_pages()
        self.config = scaled_config(
            dram_pages=640, pm_pages=8192,
            scan_budget_pages=max(96, footprint // 8), seed=self.seed,
        )
        for policy in EVALUATED_POLICIES:
            Machine(self.config, policy)

    def cells(self) -> tuple[str, ...]:
        return EVALUATED_POLICIES

    def labels(self, cell: str) -> tuple[str, ...]:
        return ("load",) + EXECUTION_SEQUENCE

    def run_cell(self, cell: str) -> dict[str, dict]:
        results = run_ycsb_sequence(
            cell, self.config, n_records=self.n_records,
            ops_per_phase=self.ops_per_phase, seed=self.seed,
        )
        return {label: result.to_dict() for label, result in results.items()}


class Gapbs:
    """Fig 6: PageRank and triangle counting on an R-MAT graph, multiclock.

    The generators are closed-loop (CPU-cache absorption reads the page
    table), so the stream is produced while the machine runs.  The graph
    is run_fig6's fixed one; the seed drives the kernels' CPU-cache
    absorption draws and the machine.  A seeded graph would move the
    amount of simulated work by ±8% from seed to seed.
    """

    name = "gapbs"
    in_process = True
    kernels = ("pr", "tc")

    def __init__(self, seed: int, scale_exp: int, trials: int) -> None:
        self.seed = seed
        self.scale_exp = scale_exp
        self.trials = trials

    def setup(self) -> None:
        self.graph = Graph.rmat(scale=self.scale_exp, edge_factor=10, seed=7)
        self.configs = {}
        for name in self.kernels:
            footprint = self._kernel(name).footprint_pages()
            # run_fig6's sizing: DRAM holds about 40% of the footprint.
            self.configs[name] = scaled_config(
                dram_pages=max(24, int(footprint * 0.4)),
                pm_pages=footprint * 4,
                interval_s=0.1,
                scan_budget_pages=64,
                seed=self.seed,
            )

    def _kernel(self, name: str):
        return KERNELS[name](self.graph, trials=self.trials, seed=self.seed)

    def cells(self) -> tuple[str, ...]:
        return self.kernels

    def labels(self, cell: str) -> tuple[str, ...]:
        return ("load", "run")

    def run_cell(self, cell: str) -> dict[str, dict]:
        kernel = self._kernel(cell)
        config = self.configs[cell]
        machine = Machine(config, "multiclock")
        load = run_workload(kernel.load_workload(), config, machine=machine)
        run = run_workload(kernel, config, machine=machine)
        return {"load": load.to_dict(), "run": run.to_dict()}


class Tiering:
    """A pre-built Zipf stream 8x the DRAM size, 20% writes, multiclock.

    Replayed through the array driver (``run_numeric_stream``), so the
    generator costs nothing in the timed part and the kernel-model layers
    -- fault, allocation, migration, kswapd, kpromoted -- dominate.
    """

    name = "tiering"
    in_process = True
    dram_pages = 1024

    def __init__(self, seed: int, ops: int) -> None:
        self.seed = seed
        self.ops = ops

    def setup(self) -> None:
        pages = 8 * self.dram_pages
        self.workload = ZipfWorkload(pages, self.ops, seed=self.seed, write_ratio=0.2)
        self.stream = list(self.workload.numeric_batches())
        self.config = scaled_config(
            dram_pages=self.dram_pages, pm_pages=2 * pages, seed=self.seed
        )

    def cells(self) -> tuple[str, ...]:
        return ("multiclock",)

    def labels(self, cell: str) -> tuple[str, ...]:
        return ("run",)

    def run_cell(self, cell: str) -> dict[str, dict]:
        result = run_numeric_stream(self.workload, self.config, self.stream, policy=cell)
        return {"run": result.to_dict()}


SWEEP_POLICIES = (
    "static", "multiclock", "nimble", "autotiering-cpm", "autotiering-opm", "autonuma",
)


class Sweep:
    """A six-policy Zipf grid through the local pool, then a loopback agent.

    Both paths run the same declarative spec with two workers and the
    result cache off; the difference between them is the wire tax.  Cells
    run in worker processes, so there is no in-process machine to check:
    :meth:`oracle` re-runs every cell in this process instead.
    """

    name = "sweep"
    in_process = False
    workers = 2

    def __init__(self, seed: int, pages: int, ops: int) -> None:
        self.seed = seed
        self.pages = pages
        self.ops = ops

    def setup(self) -> None:
        from repro.sweep import SweepCell, SweepSpec
        from repro.sweep.runners import _STREAM_CACHE, shared_stream

        self.workload_spec = {
            "kind": "zipf", "pages": self.pages, "ops": self.ops,
            "seed": self.seed, "write_ratio": 0.2,
        }
        config_spec = {"dram_pages": self.pages // 4, "pm_pages": 4 * self.pages,
                       "seed": self.seed}
        self.spec = SweepSpec(
            name="perfbench-sweep",
            cells=tuple(
                SweepCell(
                    id=policy,
                    runner="run-workload",
                    params={"policy": policy, "workload": self.workload_spec,
                            "config": config_spec},
                )
                for policy in SWEEP_POLICIES
            ),
        )
        # The shared numeric stream is what the pool's prewarm hook would
        # otherwise build in the parent on the first sweep.
        _STREAM_CACHE.clear()
        shared_stream(self.workload_spec)

    def cells(self) -> tuple[str, ...]:
        return ("local", "loopback")

    def labels(self, cell: str) -> tuple[str, ...]:
        return SWEEP_POLICIES

    def run_cell(self, cell: str, obs: Any = None) -> dict[str, dict]:
        from repro.sweep import run_remote_sweep, run_sweep

        if cell == "local":
            outcome = run_sweep(self.spec, workers=self.workers, obs=obs)
        else:
            outcome = run_remote_sweep(self.spec, f"loopback:{self.workers}", obs=obs)
        if not outcome.ok:
            detail = "; ".join(f"{o.cell.id}: {o.error}" for o in outcome.failures)
            raise RuntimeError(f"{cell} sweep cells failed: {detail}")
        return outcome.payloads()

    def run_traced_cell(
        self, cell: str, journal_dir: str
    ) -> tuple[dict[str, dict], dict[str, Any]]:
        """The cell with the span journal armed, folded by ``fold_profile``."""
        from repro.obs import Journal, SweepObserver, read_journal
        from repro.obs.profile import fold_profile

        os.makedirs(journal_dir, exist_ok=True)
        path = os.path.join(journal_dir, f"{cell}.ndjson")
        obs = SweepObserver(journal=Journal(path))
        try:
            payloads = self.run_cell(cell, obs=obs)
        finally:
            obs.close("done")
        profile = fold_profile(read_journal(path))
        os.unlink(path)
        return payloads, profile

    def oracle(self) -> dict[str, dict]:
        """Every cell run sequentially in this process, as the worker would."""
        from repro.sweep.runners import run_workload_cell

        return {cell.id: run_workload_cell(cell.params) for cell in self.spec.cells}


#: Workload sizes.  ``full`` is what the benchmark measures; ``smoke`` is
#: the reduced size the benchmark's own test runs.
SIZES: dict[str, dict[str, dict[str, int]]] = {
    "full": {
        "ycsb": {"n_records": 3000, "ops_per_phase": 3000},
        "gapbs": {"scale_exp": 12, "trials": 1},
        "tiering": {"ops": 400_000},
        "sweep": {"pages": 2000, "ops": 40_000},
    },
    "smoke": {
        "ycsb": {"n_records": 300, "ops_per_phase": 200},
        "gapbs": {"scale_exp": 8, "trials": 1},
        "tiering": {"ops": 20_000},
        "sweep": {"pages": 400, "ops": 4_000},
    },
}

WORKLOADS = {"ycsb": Ycsb, "gapbs": Gapbs, "tiering": Tiering, "sweep": Sweep}
