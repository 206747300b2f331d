"""GAPBS-style graph analytics workloads: the six evaluation kernels.

Each kernel computes its control flow per iteration or BFS level with
numpy and emits numeric batches of candidate page touches
(:meth:`~repro.workloads.gapbs.base.GraphKernelWorkload.numeric_batches`)
for :meth:`~repro.machine.Machine.touch_batch_array`, whose CPU-cache
filter stage decides which offset and property touches reach memory.
"""

from repro.workloads.gapbs.base import GraphKernelWorkload
from repro.workloads.gapbs.bc import BetweennessCentralityWorkload
from repro.workloads.gapbs.bfs import BFSWorkload
from repro.workloads.gapbs.cc import ConnectedComponentsWorkload
from repro.workloads.gapbs.graph import Graph
from repro.workloads.gapbs.pagerank import PageRankWorkload
from repro.workloads.gapbs.sssp import SSSPWorkload
from repro.workloads.gapbs.tc import TriangleCountWorkload

KERNELS = {
    "bfs": BFSWorkload,
    "sssp": SSSPWorkload,
    "pr": PageRankWorkload,
    "cc": ConnectedComponentsWorkload,
    "bc": BetweennessCentralityWorkload,
    "tc": TriangleCountWorkload,
}
"""The six GAPBS workloads of the paper's Figure 6, by short name."""

__all__ = [
    "Graph",
    "GraphKernelWorkload",
    "BFSWorkload",
    "SSSPWorkload",
    "PageRankWorkload",
    "ConnectedComponentsWorkload",
    "BetweennessCentralityWorkload",
    "TriangleCountWorkload",
    "KERNELS",
]
