"""Multi-tenant workloads: several applications sharing one machine.

MULTI-CLOCK "is entirely transparent and backward compatible with any
existing application" (Abstract) — nothing in the design is per-process.
This combinator interleaves the access streams of several child
workloads round-robin, each with its own process (optionally pinned to a
socket on multi-socket machines), so tests and experiments can check
that tiering decisions hold up under co-located tenants competing for
the DRAM tier.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.machine import Machine
from repro.mm.address_space import Process
from repro.sim.rng import make_rng
from repro.workloads.base import NumericWorkload, SegmentWorkload
from repro.workloads.kvstore import INSERT, READ, UPDATE, PageTouch, SlabKVStore

__all__ = ["MultiTenantWorkload", "KVTenantWorkload"]

_BLOCK = 512


class MultiTenantWorkload(SegmentWorkload):
    """Round-robin interleaving of several single-process tenants.

    Every tenant is a :class:`~repro.workloads.base.NumericWorkload`
    without a CPU-cache filter: its numeric batches are sliced into
    bursts of ``batch`` accesses, one ``(process, columns)`` segment per
    slice.
    """

    def __init__(
        self,
        tenants: Sequence[NumericWorkload],
        *,
        home_sockets: Sequence[int] | None = None,
        batch: int = 16,
    ) -> None:
        if not tenants:
            raise ValueError("need at least one tenant")
        if home_sockets is not None and len(home_sockets) != len(tenants):
            raise ValueError("home_sockets must match tenants one-to-one")
        if batch <= 0:
            raise ValueError("batch must be positive")
        for tenant in tenants:
            if not isinstance(tenant, NumericWorkload) or tenant.cpu_cache is not None:
                raise ValueError(
                    f"tenant {tenant.name} is not a numeric workload without a CPU cache"
                )
        self.tenants = list(tenants)
        self.home_sockets = list(home_sockets) if home_sockets else None
        self.batch = batch
        self.name = "multitenant[" + "+".join(t.name for t in tenants) + "]"
        # Derived, not inherited: the class default (False) made a
        # combination of boundary-marking tenants report accesses/s
        # instead of real zero-op results when a phase completed no
        # operations.  Any child that marks boundaries is enough — the
        # runner only needs to know markers can appear in the stream.
        self.marks_op_boundaries = any(t.marks_op_boundaries for t in self.tenants)

    def setup(self, machine: Machine) -> None:
        for i, tenant in enumerate(self.tenants):
            tenant.setup(machine)
            if self.home_sockets is not None:
                if tenant.process is None:
                    raise ValueError(
                        f"tenant {tenant.name} exposes no process to pin"
                    )
                tenant.process.home_socket = self.home_sockets[i]

    def footprint_pages(self) -> int:
        return sum(tenant.footprint_pages() for tenant in self.tenants)

    def segments(self) -> Iterator[tuple[Process, tuple]]:
        """Interleave tenants in bursts until every stream is drained.

        Batched round-robin mimics scheduler timeslices: each tenant runs
        a short burst, so their access patterns interleave at a realistic
        granularity rather than per-single-access.
        """
        streams = [self._bursts(tenant) for tenant in self.tenants]
        while streams:
            for stream in list(streams):
                burst = next(stream, None)
                if burst is None:
                    streams.remove(stream)
                else:
                    yield burst

    def _bursts(self, tenant: NumericWorkload) -> Iterator[tuple[Process, tuple]]:
        """``tenant``'s stream re-cut into segments of ``batch`` accesses
        (the last may be short)."""
        size = self.batch
        carry: tuple = ()
        for batch in tenant.numeric_batches():
            if len(batch) == 2:
                n = len(batch[0])
                batch = (
                    *batch,
                    np.full(n, tenant.lines, dtype=np.int64),
                    np.ones(n, dtype=bool),
                    np.zeros(n, dtype=np.int8),
                )
            if carry:
                batch = tuple(map(np.concatenate, zip(carry, batch)))
            cut = len(batch[0]) // size * size
            for lo in range(0, cut, size):
                yield tenant.process, tuple(col[lo : lo + size] for col in batch)
            carry = tuple(col[cut:] for col in batch)
        if carry and len(carry[0]):
            yield tenant.process, carry


class KVTenantWorkload(NumericWorkload):
    """One Memcached-like tenant of a colocated service machine.

    A :class:`~repro.workloads.kvstore.SlabKVStore` driven by
    Zipf-distributed key popularity, with the two time-varying behaviours
    colocation experiments need:

    * **diurnal traffic** — ``phases`` are relative traffic weights; the
      operation budget is split across them proportionally, so a tenant
      with ``phases=(1.0, 0.2, 1.0)`` goes quiet in its second phase
      while the round-robin interleave keeps serving busier tenants;
    * **hotspot shift** — each phase draws a fresh popularity-rank →
      key permutation, so yesterday's hot records go cold and the
      tiering policy has to chase the new hot set.

    The stream starts with the load phase (every record inserted in slab
    order), then runs GET/SET traffic at ``read_ratio``.  Each operation
    is a hash-bucket probe plus a record touch; the last touch of every
    operation carries ``op_boundary``.  ``operations()`` regroups the
    same column stream into per-op touch lists for drivers that meter
    per-operation latency (the colocation experiment); a stream is
    single-use because it mutates the slab layout as it loads.
    """

    marks_op_boundaries = True

    def __init__(
        self,
        tenant_name: str,
        n_records: int,
        ops: int,
        *,
        alpha: float = 1.1,
        read_ratio: float = 0.9,
        phases: Sequence[float] = (1.0,),
        value_size: int = 1024,
        seed: int = 7,
    ) -> None:
        if n_records <= 0 or ops <= 0:
            raise ValueError("n_records and ops must be positive")
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if not 0.0 <= read_ratio <= 1.0:
            raise ValueError("read_ratio must lie in [0, 1]")
        if not phases or any(w < 0 for w in phases) or sum(phases) <= 0:
            raise ValueError("phases must be non-negative weights summing > 0")
        self.name = tenant_name
        self.n_records = n_records
        self.ops = ops
        self.alpha = alpha
        self.read_ratio = read_ratio
        self.phases = tuple(float(w) for w in phases)
        self.seed = seed
        self.store = SlabKVStore(value_size=value_size)
        self.process: Process | None = None

    def setup(self, machine: Machine) -> None:
        self.process = machine.create_process(self.name)
        store = self.store
        data_pages = max(1, (self.n_records - 1) // store.items_per_page + 1)
        self.process.mmap_anon(store.hash_base, store.hash_pages(self.n_records))
        self.process.mmap_anon(store.data_base, data_pages)

    def footprint_pages(self) -> int:
        return self.store.footprint_pages(self.n_records)

    def phase_ops(self) -> list[int]:
        """Operation budget per diurnal phase (sums to ``ops`` exactly)."""
        weights = np.asarray(self.phases, dtype=np.float64)
        bounds = np.floor(np.cumsum(weights) / weights.sum() * self.ops).astype(int)
        counts = np.diff(bounds, prepend=0)
        counts[-1] += self.ops - int(bounds[-1])
        return counts.tolist()

    def numeric_batches(self) -> Iterator[tuple]:
        """The load phase, then the traffic, as column batches of whole
        operations: a bucket probe, then the record touch that carries
        the operation boundary."""
        for lo in range(0, self.n_records, _BLOCK):
            keys = np.arange(lo, min(lo + _BLOCK, self.n_records))
            yield self._columns(np.full(len(keys), INSERT), keys)
        rng = make_rng(
            self.seed, f"kv-{self.name}-{self.n_records}-{self.alpha}"
        )
        ranks = np.arange(1, self.n_records + 1, dtype=np.float64)
        weights = ranks ** (-self.alpha)
        weights /= weights.sum()
        for count in self.phase_ops():
            # Hotspot shift: a fresh rank -> key mapping every phase.
            key_of_rank = rng.permutation(self.n_records)
            emitted = 0
            while emitted < count:
                n = min(_BLOCK, count - emitted)
                picks = rng.choice(self.n_records, size=n, p=weights)
                keys = key_of_rank[picks]
                reads = rng.random(n) < self.read_ratio
                yield self._columns(np.where(reads, READ, UPDATE), keys)
                emitted += n

    def _columns(self, kinds: np.ndarray, keys: np.ndarray) -> tuple:
        vpages, writes, lines = self.store.rows(kinds, keys)
        boundary = np.zeros(vpages.shape, dtype=bool)
        boundary[:, 1] = True
        return (
            vpages.ravel(),
            writes.ravel(),
            lines.ravel(),
            boundary.ravel(),
            np.zeros(vpages.size, dtype=np.int8),
        )

    def operations(self) -> Iterator[list[PageTouch]]:
        """Per-operation touch lists: the load phase, then the traffic."""
        for vpages, writes, lines, __, __ in self.numeric_batches():
            for vpage, is_write, width in zip(
                vpages.reshape(-1, 2).tolist(),
                writes.reshape(-1, 2).tolist(),
                lines.reshape(-1, 2).tolist(),
            ):
                yield [PageTouch(v, w, n) for v, w, n in zip(vpage, is_write, width)]
