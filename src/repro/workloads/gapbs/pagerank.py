"""PageRank (GAPBS ``pr``).

Push-style power iteration: each vertex streams its neighbor range and
scatters contributions into the next-rank array.  The sequential
offset/neighbor scans plus the scattered property writes give PR its
characteristic mixed locality.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.workloads.gapbs.base import (
    NEIGHBORS,
    OFFSETS,
    GraphKernelWorkload,
    interleave,
    prop,
)
from repro.workloads.gapbs.graph import Graph

__all__ = ["PageRankWorkload"]

DAMPING = 0.85


class PageRankWorkload(GraphKernelWorkload):
    kernel = "pr"

    def __init__(
        self, graph: Graph, *, trials: int = 1, seed: int = 1, iterations: int = 3
    ) -> None:
        super().__init__(graph, trials=trials, seed=seed)
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        self.iterations = iterations
        self.final_ranks: list[float] | None = None
        self._rows: tuple[np.ndarray, ...] | None = None

    def n_property_arrays(self) -> int:
        return 2  # rank, next_rank

    def trial_batches(self, trial: int) -> Iterator[tuple[np.ndarray, ...]]:
        graph = self.graph
        n = graph.n
        degree = graph.degrees()
        if self._rows is None:
            # Every iteration touches the same pages in the same order:
            # per vertex u, read rank[u] and offsets[u]; a vertex with
            # edges then streams its neighbors, writing next_rank[v].
            every = np.arange(n)
            self._rows = self.touch_rows(
                *interleave(
                    degree,
                    pre=[(prop(0), every), (OFFSETS, every), (NEIGHBORS, every, degree > 0)],
                    edge=[(prop(1, write=True), graph.neighbors)],
                )
            )
        source = np.repeat(np.arange(n), degree)
        rank = np.full(n, 1.0 / n)
        base = (1.0 - DAMPING) / n
        for __iteration in range(self.iterations):
            share = np.zeros(n)
            np.divide(DAMPING * rank, degree, out=share, where=degree > 0)
            rank = base + np.bincount(graph.neighbors, weights=share[source], minlength=n)
            yield self._rows
        self.final_ranks = rank.tolist()
