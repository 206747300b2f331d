"""Betweenness Centrality (GAPBS ``bc``).

Brandes' algorithm from a sample of source vertices: a forward BFS
accumulating shortest-path counts, then a reverse dependency pass.  BC
touches every property array twice per edge, making it the most
property-intensive kernel.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.sim.rng import make_rng
from repro.workloads.gapbs.base import (
    NEIGHBORS,
    OFFSETS,
    GraphKernelWorkload,
    interleave,
    prop,
)
from repro.workloads.gapbs.bfs import expand_level
from repro.workloads.gapbs.graph import Graph

__all__ = ["BetweennessCentralityWorkload"]


class BetweennessCentralityWorkload(GraphKernelWorkload):
    kernel = "bc"

    def __init__(
        self, graph: Graph, *, trials: int = 1, seed: int = 1, n_sources: int = 2
    ) -> None:
        super().__init__(graph, trials=trials, seed=seed)
        if n_sources <= 0:
            raise ValueError("n_sources must be positive")
        self.n_sources = n_sources
        self.centrality: np.ndarray | None = None

    def n_property_arrays(self) -> int:
        return 4  # depth, sigma, delta, centrality

    def trial_batches(self, trial: int) -> Iterator[tuple[np.ndarray, ...]]:
        graph = self.graph
        rng = make_rng(self.seed, f"bc-src-{trial}")
        self.centrality = np.zeros(graph.n)
        for source in rng.integers(0, graph.n, size=self.n_sources).tolist():
            yield from self._brandes(int(source))

    def _brandes(self, source: int) -> Iterator[tuple[np.ndarray, ...]]:
        n = self.graph.n
        depth = np.full(n, -1, dtype=np.int64)
        depth[source] = 0
        sigma = np.zeros(n)
        sigma[source] = 1.0
        visited = depth >= 0
        yield self.touch_rows([prop(0, write=True), prop(1, write=True)], [source, source])
        # Forward: level by level (the queue order of a BFS).  Per edge
        # read depth[v]; claim v on its first reach; add sigma[u] to
        # sigma[v] for every edge into the next level.
        levels = []
        frontier = np.array([source])
        while len(frontier):
            levels.append(frontier)
            fresh = ~visited
            counts, neighbors, discovered, next_frontier = expand_level(
                self.graph, frontier, visited
            )
            child = fresh[neighbors]
            depth[next_frontier] = len(levels)
            owner = np.repeat(frontier, counts)
            np.add.at(sigma, neighbors[child], sigma[owner[child]])
            yield self.touch_rows(
                *interleave(
                    counts,
                    pre=[(OFFSETS, frontier), (NEIGHBORS, frontier)],
                    edge=[
                        (prop(0), neighbors),
                        (prop(0, write=True), neighbors, discovered),
                        (prop(1, write=True), neighbors, child),
                    ],
                )
            )
            frontier = next_frontier
        # Reverse: deepest level first, each in reverse visit order.  Per
        # edge into the next level read delta[v]; then write delta[u]
        # and, off the source, its centrality.
        delta = np.zeros(n)
        for level in reversed(levels):
            order = level[::-1]
            counts, neighbors = self.graph.edges_of(order)
            owner = np.repeat(order, counts)
            child = depth[neighbors] == depth[owner] + 1
            share = sigma[owner[child]] / sigma[neighbors[child]] * (1.0 + delta[neighbors[child]])
            delta += np.bincount(owner[child], weights=share, minlength=n)
            yield self.touch_rows(
                *interleave(
                    counts,
                    pre=[(OFFSETS, order), (NEIGHBORS, order)],
                    edge=[(prop(2), neighbors, child)],
                    post=[(prop(2, write=True), order), (prop(3, write=True), order, order != source)],
                )
            )
        delta[source] = 0.0
        self.centrality += delta
