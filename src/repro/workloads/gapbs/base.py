"""Shared machinery for the GAPBS kernel workloads.

Each kernel subclasses :class:`GraphKernelWorkload`, which owns the
virtual-memory layout of the CSR graph and the property arrays, the
load pass that first-touches the graph into memory (GAPBS "first loads
the graph in memory and then executes multiple trials of the workload"),
and the emission of page touches as numeric column batches.

A kernel describes what it touches as a *touch list*: two aligned
arrays of touch kinds (offsets entry, neighbor range, weight range, one
property slot read or written) and vertices, in program order.  Each
kernel computes its per-iteration or per-level control flow with numpy
and lays the touches out with :func:`interleave`; :meth:`touch_rows`
expands the list into page-granular ``(vpages, writes, lines, boundary,
absorb)`` rows for :meth:`~repro.machine.Machine.touch_batch_array`.
Offset and property touches are *candidates*: the driver's CPU-cache
filter stage decides, against the live page table, which of them reach
memory.  The generators never read machine state, so ``accesses()`` —
the scalar reference — is derived from the very same batches.
"""

from __future__ import annotations

import abc
from typing import Iterator, Sequence

import numpy as np

from repro.machine import Machine
from repro.mm.address_space import Process
from repro.mm.hardware import ABSORB_HEAD, ABSORB_TAIL, CpuCache
from repro.sim.config import PAGE_SIZE
from repro.sim.rng import make_rng
from repro.workloads.base import NumericWorkload
from repro.workloads.gapbs.graph import Graph

__all__ = ["GraphKernelWorkload", "interleave", "OFFSETS", "NEIGHBORS", "WEIGHTS", "prop"]

_LINE = 64

OFFSETS_BASE = 0
NEIGHBORS_BASE = 1 << 20
WEIGHTS_BASE = 1 << 21
PROP_BASE = 1 << 22
PROP_STRIDE = 1 << 20

OFFSET_BYTES = 8
NEIGHBOR_BYTES = 4
WEIGHT_BYTES = 4
PROP_BYTES = 8

#: Touch kinds: read ``offsets[v]`` and ``offsets[v+1]`` (cacheable),
#: read vertex v's packed neighbor / weight range.
OFFSETS, NEIGHBORS, WEIGHTS = 0, 1, 2
_MAX_PROP_ARRAYS = 4


def prop(array_id: int, *, write: bool = False) -> int:
    """Touch kind: one slot of per-vertex property array ``array_id`` (cacheable)."""
    return 3 + 2 * array_id + int(write)


# Per-kind tables, indexed by touch kind (the property kinds come in
# read/write pairs).  Neighbor and weight ranges share one element width
# (NEIGHBOR_BYTES == WEIGHT_BYTES); offset and property touches cover
# fixed spans and are cacheable.
_PROP_KINDS = range(2 * _MAX_PROP_ARRAYS)
_KIND_BASE = np.array(
    [OFFSETS_BASE, NEIGHBORS_BASE, WEIGHTS_BASE]
    + [PROP_BASE + (k // 2) * PROP_STRIDE for k in _PROP_KINDS]
)
_KIND_WRITE = np.array([False] * 3 + [k % 2 == 1 for k in _PROP_KINDS])
_KIND_RANGED = np.array([False, True, True] + [False for __ in _PROP_KINDS])
_KIND_SPAN = np.array([2 * OFFSET_BYTES, 0, 0] + [PROP_BYTES for __ in _PROP_KINDS])
_KIND_CACHEABLE = ~_KIND_RANGED


def _range_rows(
    base: np.ndarray,
    byte_lo: np.ndarray,
    byte_hi: np.ndarray,
    write: np.ndarray,
    cacheable: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Rows touching every page covering each ``[byte_lo, byte_hi)``.

    One row per page, ``lines`` the cache lines the range covers on
    that page.  A cacheable touch's first page is an ``ABSORB_HEAD``
    row and any further page an ``ABSORB_TAIL`` row.
    """
    byte_hi = np.maximum(byte_hi, byte_lo + 1)
    first = byte_lo // PAGE_SIZE
    n_pages = (byte_hi - 1) // PAGE_SIZE - first + 1
    if (n_pages == 1).all():
        page = first
        lo, hi = byte_lo, byte_hi
        head = np.ones(len(first), dtype=bool)
    else:
        touch = np.repeat(np.arange(len(first)), n_pages)
        row_start = np.cumsum(n_pages) - n_pages
        page = first[touch] + (np.arange(len(touch)) - row_start[touch])
        head = page == first[touch]
        lo = np.maximum(byte_lo[touch], page * PAGE_SIZE)
        hi = np.minimum(byte_hi[touch], (page + 1) * PAGE_SIZE)
        base, write, cacheable = base[touch], write[touch], cacheable[touch]
    lines = np.maximum(1, (hi - lo + _LINE - 1) // _LINE)
    absorb = np.where(cacheable, np.where(head, ABSORB_HEAD, ABSORB_TAIL), 0)
    return (
        base + page,
        write,
        lines,
        np.zeros(len(page), dtype=bool),
        absorb.astype(np.int8),
    )


def _span_rows(base: int, n_bytes: int, *, write: bool) -> tuple[np.ndarray, ...]:
    """One uncacheable touch of the first ``n_bytes`` of a region."""
    return _range_rows(
        np.array([base]),
        np.array([0]),
        np.array([n_bytes]),
        np.array([write]),
        np.zeros(1, dtype=bool),
    )


def interleave(
    counts: np.ndarray,
    pre: Sequence[tuple],
    edge: Sequence[tuple],
    post: Sequence[tuple] = (),
) -> tuple[np.ndarray, np.ndarray]:
    """Lay out a per-vertex touch program as one touch list.

    For each visited vertex ``i`` (one per entry of ``counts``): its
    ``pre`` touches, then for each of its ``counts[i]`` edges the
    ``edge`` touches, then its ``post`` touches.  Every touch spec is
    ``(kind, vertices)`` or ``(kind, vertices, mask)``: ``vertices`` (and
    the optional keep-``mask``) align with the visited vertices for
    ``pre``/``post`` and with the concatenated edges for ``edge``.
    Returns the ``(kinds, vertices)`` arrays in program order.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n_items = len(counts)
    n_edges = int(counts.sum())
    p, e = len(pre), len(edge)
    span = p + len(post) + e * counts
    start = np.zeros(n_items, dtype=np.int64)
    np.cumsum(span[:-1], out=start[1:])
    total = int(span.sum())
    kinds = np.empty(total, dtype=np.int64)
    verts = np.empty(total, dtype=np.int64)
    keep = np.ones(total, dtype=bool)
    owner = np.repeat(np.arange(n_items), counts)
    first_edge = np.cumsum(counts) - counts
    edge_slot = start[owner] + p + e * (np.arange(n_edges) - first_edge[owner])
    post_slot = start + p + e * counts
    for slots, specs in (
        ([start + j for j in range(p)], pre),
        ([edge_slot + j for j in range(e)], edge),
        ([post_slot + j for j in range(len(post))], post),
    ):
        for at, (kind, vertices, *mask) in zip(slots, specs):
            kinds[at] = kind
            verts[at] = vertices
            if mask:
                keep[at] = mask[0]
    return kinds[keep], verts[keep]


class GraphKernelWorkload(NumericWorkload):
    """Base class: CSR layout, load pass, and touch emission."""

    kernel = "abstract"

    def __init__(
        self,
        graph: Graph,
        *,
        trials: int = 1,
        seed: int = 1,
        cpu_cache_hit_rate: float = 0.85,
    ) -> None:
        """``cpu_cache_hit_rate`` models the CPU cache hierarchy absorbing
        most offset/property accesses: those arrays are a few bytes per
        vertex and enjoy high temporal locality, so on real hardware the
        memory system only sees a fraction of their touches.  Cold misses
        (first touch of an unmapped page) always reach memory."""
        if trials <= 0:
            raise ValueError("trials must be positive")
        self.graph = graph
        self.trials = trials
        self.seed = seed
        self._cache_rng = make_rng(seed, f"{self.kernel}-cpu-cache")
        self.cpu_cache = CpuCache(self._cache_rng, cpu_cache_hit_rate)
        self.process: Process | None = None
        self.machine: Machine | None = None
        self.loaded = False
        self.name = f"gapbs-{self.kernel}"
        self._prop_regions: list = []

    # -- layout -----------------------------------------------------------------

    def _pages(self, n_bytes: int) -> int:
        return max(1, (n_bytes - 1) // PAGE_SIZE + 1)

    def offsets_pages(self) -> int:
        return self._pages((self.graph.n + 1) * OFFSET_BYTES)

    def neighbors_pages(self) -> int:
        return self._pages(self.graph.m_directed * NEIGHBOR_BYTES)

    def prop_pages(self) -> int:
        return self._pages(self.graph.n * PROP_BYTES)

    def n_property_arrays(self) -> int:
        """How many per-vertex arrays the kernel keeps (override)."""
        return 1

    def uses_weights(self) -> bool:
        return False

    def footprint_pages(self) -> int:
        total = self.offsets_pages() + self.neighbors_pages()
        total += self.n_property_arrays() * self.prop_pages()
        if self.uses_weights():
            total += self._pages(self.graph.m_directed * WEIGHT_BYTES)
        return total

    def setup(self, machine: Machine) -> None:
        if self.process is not None:
            return  # already set up (e.g. by the separate load workload)
        self.machine = machine
        self.process = machine.create_process(self.name)
        self.process.mmap_anon(OFFSETS_BASE, self.offsets_pages())
        self.process.mmap_anon(NEIGHBORS_BASE, self.neighbors_pages())
        if self.uses_weights():
            self.process.mmap_anon(
                WEIGHTS_BASE, self._pages(self.graph.m_directed * WEIGHT_BYTES)
            )
        for array_id in range(self.n_property_arrays()):
            region = self.process.mmap_anon(
                PROP_BASE + array_id * PROP_STRIDE, self.prop_pages()
            )
            self._prop_regions.append(region)

    # -- touch emission -----------------------------------------------------------

    def touch_rows(self, kinds: np.ndarray, vertices: np.ndarray) -> tuple[np.ndarray, ...]:
        """Expand a touch list into one column batch of candidate touches."""
        kinds = np.asarray(kinds, dtype=np.int64)
        vertices = np.asarray(vertices, dtype=np.int64)
        ranged = _KIND_RANGED[kinds]
        offsets = self.graph.offsets
        byte_lo = np.where(ranged, offsets[vertices] * NEIGHBOR_BYTES, vertices * PROP_BYTES)
        byte_hi = np.where(
            ranged, offsets[vertices + 1] * NEIGHBOR_BYTES, byte_lo + _KIND_SPAN[kinds]
        )
        return _range_rows(
            _KIND_BASE[kinds], byte_lo, byte_hi, _KIND_WRITE[kinds], _KIND_CACHEABLE[kinds]
        )

    def _end_of_trial(self) -> tuple[np.ndarray, ...]:
        """Mark an operation boundary (one trial = one operation)."""
        rows = _span_rows(OFFSETS_BASE, OFFSET_BYTES, write=False)
        rows[3][-1] = True
        return rows

    # -- the load pass ---------------------------------------------------------------

    def load_batches(self) -> Iterator[tuple[np.ndarray, ...]]:
        """First-touch the CSR (the graph build), as GAPBS does.

        GAPBS builds the CSR once before running trials — offsets,
        weights and the packed neighbor array are the pages that "fill
        the DRAM first" (Section V-C1).  The per-vertex property arrays
        are *not* loaded here: each kernel invocation allocates its own
        result vectors, so their pages are first-touched inside each
        trial — and, with DRAM already full of CSR data, are born in the
        PM tier.  Promoting exactly those hot per-trial pages is where
        dynamic tiering earns its GAPBS gains.
        """
        graph = self.graph
        yield _span_rows(OFFSETS_BASE, (graph.n + 1) * OFFSET_BYTES, write=True)
        if self.uses_weights():
            yield _span_rows(WEIGHTS_BASE, graph.m_directed * WEIGHT_BYTES, write=True)
        yield _span_rows(NEIGHBORS_BASE, graph.m_directed * NEIGHBOR_BYTES, write=True)
        self.loaded = True

    def load_workload(self) -> "GraphLoadWorkload":
        """The load phase as its own workload, so experiments can exclude
        it from trial timing ("We report the average execution time taken
        per trial", Section V-B)."""
        return GraphLoadWorkload(self)

    # -- the kernel -------------------------------------------------------------------

    def numeric_batches(self) -> Iterator[tuple[np.ndarray, ...]]:
        """The whole stream as column batches: the load pass (unless a
        load workload ran it), then each trial, its boundary, and the
        release of its property arrays once the boundary was driven."""
        if not self.loaded:
            yield from self.load_batches()
        for trial in range(self.trials):
            yield from self.trial_batches(trial)
            yield self._end_of_trial()
            self._free_trial_arrays()

    def _free_trial_arrays(self) -> None:
        """Drop the per-trial property arrays, as a kernel returning
        frees its result vectors; the next trial re-allocates them."""
        if self.machine is None:
            return
        for region in self._prop_regions:
            self.machine.system.discard_region(self.process, region)

    @abc.abstractmethod
    def trial_batches(self, trial: int) -> Iterator[tuple[np.ndarray, ...]]:
        """One trial of the kernel, as column batches of candidate touches."""


class GraphLoadWorkload(NumericWorkload):
    """Runs only a kernel workload's graph-loading pass."""

    def __init__(self, kernel: GraphKernelWorkload) -> None:
        self.kernel = kernel
        self.name = f"{kernel.name}-load"

    @property
    def process(self) -> Process | None:
        return self.kernel.process

    def setup(self, machine: Machine) -> None:
        self.kernel.setup(machine)

    def footprint_pages(self) -> int:
        return self.kernel.footprint_pages()

    def numeric_batches(self) -> Iterator[tuple[np.ndarray, ...]]:
        return self.kernel.load_batches()
