"""Figure 6: GAPBS execution time normalized to static tiering.

"MULTI-CLOCK outperforms static tiering by 4-68% for the GAPBS
workloads.  When compared to Nimble, MULTI-CLOCK improved the execution
time by 1-16%. ... AT-CPM shows 3% and 1% better performance than
MULTI-CLOCK for BFS and BC workloads" — i.e. the gaps are much smaller
than YCSB's, and AT-CPM can edge ahead where initial placement is lucky.
"""

from __future__ import annotations

from repro.analysis.compare import PolicyComparison, normalize_exec_time
from repro.experiments.common import EVALUATED_POLICIES, scaled_config
from repro.machine import Machine
from repro.run import RunResult, run_workload
from repro.workloads.gapbs import KERNELS, Graph

__all__ = ["run_fig6", "run_kernel", "render_fig6", "GAPBS_KERNEL_ORDER"]

GAPBS_KERNEL_ORDER = ("bfs", "sssp", "pr", "cc", "bc", "tc")


def run_fig6(
    *,
    scale_exp: int = 12,
    edge_factor: int = 10,
    trials: int = 3,
    interval_s: float = 0.1,
    policies: tuple[str, ...] = EVALUATED_POLICIES,
    kernels: tuple[str, ...] = GAPBS_KERNEL_ORDER,
) -> dict[str, PolicyComparison]:
    """Normalized per-trial execution time for each kernel.

    The graph is loaded first (excluded from timing, as in Section V-B)
    and DRAM is sized to roughly 40% of the kernel footprint so the
    working set spans both tiers.

    ``interval_s`` (paper seconds) is much shorter than YCSB's because a
    GAPBS trial must span many daemon wakeups, as it does on the paper's
    testbed where a trial runs tens of seconds against the 1-second
    interval; our scaled trials last a few virtual milliseconds.
    """
    graph = Graph.rmat(scale=scale_exp, edge_factor=edge_factor, seed=7)
    comparisons = {}
    for kernel_name in kernels:
        results = {
            policy: run_kernel(
                graph, kernel_name, policy, trials=trials, interval_s=interval_s
            )[1]
            for policy in policies
        }
        comparisons[kernel_name] = normalize_exec_time(results)
    return comparisons


def run_kernel(
    graph: Graph,
    kernel_name: str,
    policy: str,
    *,
    trials: int = 3,
    interval_s: float = 0.1,
    batch: bool = True,
) -> tuple[RunResult, RunResult]:
    """One Fig 6 cell: the graph load, then the trials on the warm machine."""
    kernel = KERNELS[kernel_name](graph, trials=trials, seed=3)
    dram = max(24, int(kernel.footprint_pages() * 0.4))
    config = scaled_config(
        dram_pages=dram,
        pm_pages=kernel.footprint_pages() * 4,
        interval_s=interval_s,
        scan_budget_pages=64,
    )
    machine = Machine(config, policy)
    load = run_workload(kernel.load_workload(), config, machine=machine, batch=batch)
    return load, run_workload(kernel, config, machine=machine, batch=batch)


def render_fig6(comparisons: dict[str, PolicyComparison]) -> str:
    lines = ["Fig 6 — GAPBS execution time normalized to static (lower is better)", ""]
    policies = list(next(iter(comparisons.values())).values)
    lines.append("kernel  " + "  ".join(f"{p:>16}" for p in policies))
    for kernel, comparison in comparisons.items():
        row = "  ".join(f"{comparison.values[p]:>16.3f}" for p in policies)
        lines.append(f"{kernel:>6}  {row}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(render_fig6(run_fig6()))
