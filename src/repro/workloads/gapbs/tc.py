"""Triangle Counting (GAPBS ``tc``).

Merge-based counting: for every ordered edge (u, v) with u < v, intersect
the two sorted adjacency lists.  TC re-reads neighbor ranges constantly,
so its working set is dominated by the CSR edge array.
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

__all__ = ["TriangleCountWorkload", "count_triangles"]

#: Wedges checked per chunk of the count: bounds its extra memory to a
#: few MB whatever the graph size.
_WEDGE_CHUNK = 1 << 16


def count_triangles(graph: Graph) -> int:
    """Triangles of ``graph``, each counted once.

    Degree-ordered: every edge is oriented from its lower- to its
    higher-ranked endpoint (rank by degree, then id), so each triangle
    a < b < c is found exactly once, as the wedge a -> b -> c closed by
    the edge a -> c.  Wedges are checked in bounded chunks against the
    sorted oriented edge keys.
    """
    n = graph.n
    degree = graph.degrees()
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), degree))] = np.arange(n)
    source = np.repeat(np.arange(n, dtype=np.int64), degree)
    target = graph.neighbors.astype(np.int64)
    up = rank[source] < rank[target]
    u, v = source[up], target[up]
    out_degree = np.bincount(u, minlength=n)
    out_start = np.cumsum(out_degree) - out_degree
    keys = u * n + v  # ascending: CSR order is (u, v) sorted
    wedges = out_degree[v]
    ends = np.cumsum(wedges)
    total = 0
    lo = 0
    while lo < len(u):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - wedges[lo] + _WEDGE_CHUNK)))
        count = wedges[lo:hi]
        edge = np.repeat(np.arange(lo, hi), count)
        first = np.cumsum(count) - count
        third = v[out_start[v[edge]] + np.arange(len(edge)) - np.repeat(first, count)]
        closing = u[edge] * n + third
        at = np.minimum(np.searchsorted(keys, closing), len(keys) - 1)
        total += int(np.count_nonzero(keys[at] == closing))
        lo = hi
    return total


class TriangleCountWorkload(GraphKernelWorkload):
    kernel = "tc"

    def __init__(self, graph: Graph, *, trials: int = 1, seed: int = 1) -> None:
        super().__init__(graph, trials=trials, seed=seed)
        self.triangles: int | None = None
        self._rows: tuple[np.ndarray, ...] | None = None

    def n_property_arrays(self) -> int:
        return 1  # per-vertex counts

    def trial_batches(self, trial: int) -> Iterator[tuple[np.ndarray, ...]]:
        if self._rows is None:
            # Per vertex u: read offsets[u]; a vertex with higher
            # neighbors streams its own range, then for each higher
            # neighbor v reads offsets[v] and v's range, and finally
            # writes its count.  Identical in every trial.
            graph = self.graph
            every = np.arange(graph.n)
            source = np.repeat(every, graph.degrees())
            higher = graph.neighbors > source
            counts = np.bincount(source[higher], minlength=graph.n)
            upper = graph.neighbors[higher]
            self._rows = self.touch_rows(
                *interleave(
                    counts,
                    pre=[(OFFSETS, every), (NEIGHBORS, every, counts > 0)],
                    edge=[(OFFSETS, upper), (NEIGHBORS, upper)],
                    post=[(prop(0, write=True), every, counts > 0)],
                )
            )
        self.triangles = count_triangles(self.graph)
        yield self._rows
