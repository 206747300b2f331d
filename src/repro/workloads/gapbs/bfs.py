"""Breadth-First Search (GAPBS ``bfs``).

Top-down BFS computing a parent array.  Each trial starts from a
different sampled source, as the GAPBS harness does.
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
from repro.workloads.gapbs.graph import Graph

__all__ = ["BFSWorkload", "expand_level"]


def expand_level(
    graph: Graph, frontier: np.ndarray, visited: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scan one top-down BFS level, visiting ``frontier`` in order.

    Returns ``(counts, neighbors, discovered, next_frontier)``: the
    level's edges, a mask marking the edge on which each new vertex is
    first reached (the scan claims it there), and the new vertices in
    discovery order.  ``visited`` is updated in place.
    """
    counts, neighbors = graph.edges_of(frontier)
    fresh = np.flatnonzero(~visited[neighbors])
    __, first = np.unique(neighbors[fresh], return_index=True)
    discovered = np.zeros(len(neighbors), dtype=bool)
    discovered[fresh[first]] = True
    next_frontier = neighbors[discovered]
    visited[next_frontier] = True
    return counts, neighbors, discovered, next_frontier


class BFSWorkload(GraphKernelWorkload):
    kernel = "bfs"

    def n_property_arrays(self) -> int:
        return 1  # parent

    def trial_batches(self, trial: int) -> Iterator[tuple[np.ndarray, ...]]:
        graph = self.graph
        rng = make_rng(self.seed, f"bfs-src-{trial}")
        source = int(rng.integers(0, graph.n))
        visited = np.zeros(graph.n, dtype=bool)
        visited[source] = True
        yield self.touch_rows([prop(0, write=True)], [source])
        frontier = np.array([source])
        while len(frontier):
            # Per frontier vertex: read offsets and the neighbor range;
            # per edge read parent[v], and claim v on its first reach.
            counts, neighbors, discovered, next_frontier = expand_level(
                graph, frontier, visited
            )
            yield self.touch_rows(
                *interleave(
                    counts,
                    pre=[(OFFSETS, frontier), (NEIGHBORS, frontier)],
                    edge=[(prop(0), neighbors), (prop(0, write=True), neighbors, discovered)],
                )
            )
            frontier = next_frontier
