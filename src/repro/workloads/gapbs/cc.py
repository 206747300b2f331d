"""Connected Components (GAPBS ``cc``).

Label propagation: every vertex repeatedly adopts the smallest component
id among its neighbors until a fixed point.  The per-round full-graph
sweep is the most sequential access pattern of the six kernels.
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

__all__ = ["ConnectedComponentsWorkload"]


class ConnectedComponentsWorkload(GraphKernelWorkload):
    kernel = "cc"

    def __init__(
        self, graph: Graph, *, trials: int = 1, seed: int = 1, max_rounds: int = 12
    ) -> None:
        super().__init__(graph, trials=trials, seed=seed)
        if max_rounds <= 0:
            raise ValueError("max_rounds must be positive")
        self.max_rounds = max_rounds
        self.final_components: list[int] | None = None

    def n_property_arrays(self) -> int:
        return 1  # component id

    def trial_batches(self, trial: int) -> Iterator[tuple[np.ndarray, ...]]:
        graph = self.graph
        every = np.arange(graph.n)
        degree = graph.degrees()
        adjacency = [a.tolist() for a in np.split(graph.neighbors, graph.offsets[1:-1])]
        comp = list(range(graph.n))
        for __round in range(self.max_rounds):
            # The sweep updates labels in place, so a vertex already sees
            # this round's labels of the vertices before it.
            changed = np.zeros(graph.n, dtype=bool)
            for u, neighbors in enumerate(adjacency):
                best = min(map(comp.__getitem__, neighbors), default=comp[u])
                if best < comp[u]:
                    comp[u] = best
                    changed[u] = True
            # Per vertex u: read offsets[u] and comp[u], stream the
            # neighbors reading each comp[v], write comp[u] if it moved.
            yield self.touch_rows(
                *interleave(
                    degree,
                    pre=[(OFFSETS, every), (prop(0), every), (NEIGHBORS, every)],
                    edge=[(prop(0), graph.neighbors)],
                    post=[(prop(0, write=True), every, changed)],
                )
            )
            if not changed.any():
                break
        self.final_components = comp
