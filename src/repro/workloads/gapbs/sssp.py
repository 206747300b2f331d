"""Single-Source Shortest Paths (GAPBS ``sssp``).

Dijkstra with a binary heap over integer edge weights (GAPBS uses
delta-stepping for parallelism; the sequential access pattern — scan a
settled vertex's neighbor and weight ranges, then scattered distance
relaxations — is the same, which is what the tiering policies see).
"""

from __future__ import annotations

import heapq
from typing import Iterator

import numpy as np

from repro.sim.rng import make_rng
from repro.workloads.gapbs.base import (
    NEIGHBORS,
    OFFSETS,
    WEIGHTS,
    GraphKernelWorkload,
    interleave,
    prop,
)
from repro.workloads.gapbs.graph import Graph

__all__ = ["SSSPWorkload"]


class SSSPWorkload(GraphKernelWorkload):
    kernel = "sssp"

    def __init__(self, graph: Graph, *, trials: int = 1, seed: int = 1) -> None:
        super().__init__(graph, trials=trials, seed=seed)
        rng = make_rng(seed, "sssp-weights")
        self.weights = rng.integers(1, 256, size=graph.m_directed, dtype=np.int32)

    def n_property_arrays(self) -> int:
        return 1  # dist

    def uses_weights(self) -> bool:
        return True

    def trial_batches(self, trial: int) -> Iterator[tuple[np.ndarray, ...]]:
        graph = self.graph
        rng = make_rng(self.seed, f"sssp-src-{trial}")
        source = int(rng.integers(0, graph.n))
        offsets = graph.offsets.tolist()
        neighbors = graph.neighbors.tolist()
        weights = self.weights.tolist()
        # Dijkstra is sequential: record the settle order and, per
        # scanned edge, whether the relaxation improved dist[v].
        dist = {source: 0}
        heap = [(0, source)]
        settled = set()
        order = []
        improved = []
        while heap:
            d, u = heapq.heappop(heap)
            if u in settled:
                continue
            settled.add(u)
            order.append(u)
            for k in range(offsets[u], offsets[u + 1]):
                v = neighbors[k]
                nd = d + weights[k]
                better = v not in dist or nd < dist[v]
                improved.append(better)
                if better:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        # Per settled vertex: read offsets, neighbor and weight ranges;
        # per edge read dist[v], and write it when the relaxation won.
        order = np.array(order)
        counts, targets = graph.edges_of(order)
        yield self.touch_rows([prop(0, write=True)], [source])
        yield self.touch_rows(
            *interleave(
                counts,
                pre=[(OFFSETS, order), (NEIGHBORS, order), (WEIGHTS, order)],
                edge=[(prop(0), targets), (prop(0, write=True), targets, np.array(improved, dtype=bool))],
            )
        )
