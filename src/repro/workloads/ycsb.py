"""YCSB workload generators over the slab KV store.

Section V-B: "These workloads are named Workload A, B, C, D, E, and F.
Workload A is a mix of 50% reads, and 50% writes.  Workload B is 95%
reads, and only 5% writes.  Workload C is 100% read.  None of these
workloads inserts new records except workload D, where new items are
added and read. ... in workload F, a record is read, modified, and then
written back.  We also created a new workload W, which issues 100%
writes."  Workload E needs SCAN, "making workload E non-operational" on
Memcached — requesting it raises, exactly mirroring the paper.

Request keys follow YCSB's distributions: a *scrambled zipfian* (the
popular keys are scattered across the keyspace, hence across slab pages
loaded in insertion order) for A/B/C/F/W, and the *latest* distribution
(recency-skewed toward the newest inserts) for D.

The prescribed execution sequence (Section V-B) is Load, A, B, C, F, W,
then D last because D grows the record count; :class:`YCSBSession`
manages the shared store and process across phases so the sequence runs
against warm machine state, as on the paper's testbed.

Every phase is a :class:`~repro.workloads.base.NumericWorkload`: it
emits one column batch of page touches per block of operations for the
array driver, and its ``accesses()`` object stream is derived from the
same batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.machine import Machine
from repro.mm.address_space import Process
from repro.sim.rng import make_rng
from repro.workloads.base import NumericWorkload
from repro.workloads.kvstore import INSERT, READ, UPDATE, SlabKVStore

__all__ = ["YCSBSession", "YCSBPhase", "YCSBLoadPhase", "WORKLOAD_MIXES", "EXECUTION_SEQUENCE"]

ZIPFIAN_CONSTANT = 0.99
"""YCSB's default request-distribution skew."""

_BATCH = 2048

RMW, SCAN = 3, 4
"""Operation kinds past the stores' READ, UPDATE and INSERT, in the
order of the mix thresholds."""


@dataclass(frozen=True)
class _Mix:
    """Operation ratios of one YCSB workload."""

    read: float = 0.0
    update: float = 0.0
    insert: float = 0.0
    rmw: float = 0.0
    scan: float = 0.0
    distribution: str = "zipfian"

    def __post_init__(self) -> None:
        total = self.read + self.update + self.insert + self.rmw + self.scan
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"operation mix must sum to 1, got {total}")


WORKLOAD_MIXES: dict[str, _Mix] = {
    "A": _Mix(read=0.5, update=0.5),
    "B": _Mix(read=0.95, update=0.05),
    "C": _Mix(read=1.0),
    "D": _Mix(read=0.95, insert=0.05, distribution="latest"),
    "E": _Mix(scan=0.95, insert=0.05),
    "F": _Mix(read=0.5, rmw=0.5),
    "W": _Mix(update=1.0),
}

MAX_SCAN_LENGTH = 100
"""YCSB workload E's default maximum scan length."""

EXECUTION_SEQUENCE = ("A", "B", "C", "F", "W", "D")
"""The prescribed order (D last, because it grows the record count)."""


class YCSBSession:
    """Shared store, process and key-popularity state for one sequence."""

    def __init__(
        self,
        n_records: int,
        *,
        value_size: int = 1024,
        seed: int = 42,
        insert_headroom: float = 0.5,
        hash_cache_hit_rate: float = 0.8,
        backend: str = "memcached",
    ) -> None:
        """``hash_cache_hit_rate`` models the CPU cache absorbing most
        hash-bucket probes.  At real scale the bucket array spans many
        thousands of pages; at simulation scale it collapses to a handful
        of pages that would otherwise receive an outsized share of memory
        touches, so the hot buckets are treated as cache-resident with
        this probability (execution phases only — the load phase streams
        through cold buckets).

        ``backend`` selects the store: ``"memcached"`` (the paper's slab
        store — workload E is non-operational, as reported) or
        ``"sorted"`` (the scan-capable clustered store, the reproduction's
        extension that makes workload E runnable)."""
        if n_records <= 0:
            raise ValueError("n_records must be positive")
        if not 0.0 <= hash_cache_hit_rate <= 1.0:
            raise ValueError("hash_cache_hit_rate must lie in [0, 1]")
        self.n_records = n_records
        self.seed = seed
        self.hash_cache_hit_rate = hash_cache_hit_rate
        self.backend = backend
        if backend == "memcached":
            self.store = SlabKVStore(value_size=value_size)
        elif backend == "sorted":
            from repro.workloads.sorted_store import SortedKVStore

            self.store = SortedKVStore(value_size=value_size)
        else:
            raise ValueError(f"unknown backend {backend!r}")
        self.process: Process | None = None
        self.max_records = int(n_records * (1.0 + insert_headroom))
        self.next_key = 0
        # Scrambling: popularity rank -> key, fixed for the whole session.
        rng = make_rng(seed, "ycsb-scramble")
        self._key_of_rank = rng.permutation(self.max_records)
        self.zeta = IncrementalZeta(ZIPFIAN_CONSTANT)

    # -- machine wiring -------------------------------------------------------

    def ensure_setup(self, machine: Machine) -> Process:
        """Create the backing process and regions on first use."""
        if self.process is None:
            self.process = machine.create_process("memcached")
            hash_pages = self.store.hash_pages(self.max_records)
            data_pages = self.store.footprint_pages(self.max_records) - hash_pages
            self.process.mmap_anon(self.store.hash_base, hash_pages + 8)
            self.process.mmap_anon(self.store.data_base, data_pages + 8)
        return self.process

    def footprint_pages(self) -> int:
        return self.store.footprint_pages(self.n_records)

    # -- key selection ----------------------------------------------------------

    def scrambled_key(self, rank: int, n: int) -> int:
        """Map a popularity rank onto the loaded keyspace."""
        return int(self._key_of_rank[rank] % n)

    # -- phases --------------------------------------------------------------

    def load_phase(self) -> "YCSBLoadPhase":
        return YCSBLoadPhase(self)

    def phase(self, name: str, ops: int) -> "YCSBPhase":
        name = name.upper()
        if name == "E" and not hasattr(self.store, "scan"):
            raise ValueError(
                "workload E issues SCAN operations, which Memcached does not "
                "implement — non-operational, as reported in the paper "
                "(use backend='sorted' to run E against the scan-capable store)"
            )
        if name not in WORKLOAD_MIXES:
            raise KeyError(f"unknown YCSB workload {name!r}")
        return YCSBPhase(self, name, WORKLOAD_MIXES[name], ops)


class YCSBLoadPhase(NumericWorkload):
    """Insert every record sequentially — the footprint-defining phase."""

    marks_op_boundaries = True

    def __init__(self, session: YCSBSession) -> None:
        self.session = session
        self.name = "ycsb-load"

    def setup(self, machine: Machine) -> None:
        self.process = self.session.ensure_setup(machine)

    def footprint_pages(self) -> int:
        return self.session.footprint_pages()

    def numeric_batches(self) -> Iterator[tuple]:
        session = self.session
        for start in range(0, session.n_records, _BATCH):
            keys = np.arange(start, min(start + _BATCH, session.n_records))
            vpages, writes, lines = session.store.rows(np.full(len(keys), INSERT), keys)
            session.next_key = int(keys[-1]) + 1
            yield _columns(vpages, writes, lines, np.ones(len(keys), dtype=bool))


class YCSBPhase(NumericWorkload):
    """One execution-phase workload (A, B, C, D, E, F or W).

    The stream is built one block of :data:`_BATCH` operations at a
    time, with the block's draws taken in a fixed order: the operation
    draws, the rank draws, then one uniform per non-last metadata probe
    in row order.  The CPU-cache rule for bucket probes never reads the
    page table -- every such probe draws, resident or not -- so the
    absorbed probes are dropped while the block is built.  A block with
    scans is built op by op, because each scan draws its length between
    the probe draws of the operations around it.
    """

    marks_op_boundaries = True

    def __init__(self, session: YCSBSession, label: str, mix: _Mix, ops: int) -> None:
        if ops <= 0:
            raise ValueError("ops must be positive")
        self.session = session
        self.label = label
        self.mix = mix
        self.ops = ops
        self.name = f"ycsb-{label.lower()}"

    def setup(self, machine: Machine) -> None:
        self.process = self.session.ensure_setup(machine)
        if self.session.next_key == 0:
            raise RuntimeError("run the load phase before an execution phase")

    def footprint_pages(self) -> int:
        return self.session.footprint_pages()

    def numeric_batches(self) -> Iterator[tuple]:
        rng = make_rng(self.session.seed, f"ycsb-{self.label}")
        mix = self.mix
        thresholds = np.cumsum([mix.read, mix.update, mix.insert, mix.rmw, mix.scan])
        emitted = 0
        while emitted < self.ops:
            batch = min(_BATCH, self.ops - emitted)
            op_draw = rng.random(batch)
            rank_draw = rng.random(batch)
            # Past the read-modify-write threshold the chain ends in a scan.
            kinds = np.minimum(np.searchsorted(thresholds, op_draw, side="right"), SCAN)
            if (kinds == SCAN).any():
                yield self._block_by_op(rng, kinds, rank_draw)
            else:
                yield self._block(rng, kinds, rank_draw)
            emitted += batch

    def _block(self, rng, kinds: np.ndarray, rank_draw: np.ndarray) -> tuple:
        """A block without scans, every per-op step a column operation."""
        session = self.session
        store = session.store
        # Workload D's inserts grow the keyspace: each operation sees the
        # keys inserted before it, and an insert its own key too.  Once
        # the headroom is spent an insert degrades to an update of the
        # newest key.
        inserts = kinds == INSERT
        room = max(0, session.max_records - session.next_key)
        inserted = np.cumsum(inserts)
        n = session.next_key + np.minimum(inserted, room)
        session.next_key = int(n[-1])
        kinds = np.where(inserts & (inserted > room), UPDATE, kinds)
        keys = n - 1
        picks = ~inserts
        keys[picks] = self._pick_keys(rank_draw[picks], n[picks])
        # A read-modify-write is a read, then an update, of one key.
        op_last = np.ones(len(kinds), dtype=bool)
        rmw = kinds == RMW
        if rmw.any():
            op = np.repeat(np.arange(len(kinds)), np.where(rmw, 2, 1))
            op_last = np.append(op[1:] != op[:-1], True)
            kinds = kinds[op]
            kinds[(kinds == RMW) & op_last] = UPDATE
            kinds[kinds == RMW] = READ
            keys = keys[op]
        vpages, writes, lines = store.rows(kinds, keys)
        probes = vpages < store.data_base
        probes[:, -1] &= ~op_last
        absorbed = np.zeros(vpages.shape, dtype=bool)
        absorbed[probes] = rng.random(int(probes.sum())) < session.hash_cache_hit_rate
        return _columns(vpages, writes, lines, op_last, ~absorbed.ravel())

    def _block_by_op(self, rng, kinds: np.ndarray, rank_draw: np.ndarray) -> tuple:
        """A block with scans, built one operation at a time."""
        data_base = self.session.store.data_base
        hit_rate = self.session.hash_cache_hit_rate
        rows = []
        for kind, rank_p in zip(kinds.tolist(), rank_draw.tolist()):
            touches = self._op_touches(rng, kind, rank_p)
            last = len(touches) - 1
            for j, touch in enumerate(touches):
                if touch.vpage < data_base and j != last and rng.random() < hit_rate:
                    continue  # bucket served from the CPU cache
                rows.append((touch.vpage, touch.is_write, touch.lines, j == last))
        vpages, writes, lines, boundary = (np.array(column) for column in zip(*rows))
        return vpages, writes, lines, boundary, np.zeros(len(rows), dtype=np.int8)

    def _op_touches(self, rng, kind: int, rank_p: float) -> list:
        session = self.session
        store = session.store
        if kind == INSERT:
            key = session.next_key
            if key >= session.max_records:
                return store.update(key - 1)
            session.next_key = key + 1
            return store.insert(key)
        key = self._pick_key(rank_p)
        if kind == READ:
            return store.read(key)
        if kind == UPDATE:
            return store.update(key)
        if kind == RMW:
            return store.read_modify_write(key)
        return store.scan(key, int(rng.integers(1, MAX_SCAN_LENGTH + 1)))

    def _pick_key(self, rank_p: float) -> int:
        session = self.session
        n = session.next_key
        rank = self._zipf_rank(rank_p, n)
        if self.mix.distribution == "latest":
            return n - 1 - rank
        return session.scrambled_key(rank, n)

    def _pick_keys(self, rank_p: np.ndarray, n: np.ndarray) -> np.ndarray:
        """:meth:`_pick_key` of each rank draw over its own keyspace size."""
        ranks = self._zipf_ranks(rank_p, n)
        if self.mix.distribution == "latest":
            # Recency skew: rank 0 = newest insert.
            return n - 1 - ranks
        return self.session._key_of_rank[ranks] % n

    def _zipf_rank(self, p: float, n: int) -> int:
        """Inverse-CDF zipfian rank via YCSB's ZipfianGenerator closed
        form, avoiding an O(n) weight table per draw."""
        theta = ZIPFIAN_CONSTANT
        zetan = self.session.zeta.upto(n)
        zeta2 = 1.0 + 0.5 ** theta
        if n <= 2:
            return 0 if p * zetan < 1.0 else min(1, n - 1)
        alpha = 1.0 / (1.0 - theta)
        eta = (1 - (2.0 / n) ** (1 - theta)) / (1 - zeta2 / zetan)
        uz = p * zetan
        if uz < 1.0:
            return 0
        if uz < zeta2:
            return 1
        return int(n * (eta * p - eta + 1) ** alpha) % n

    def _zipf_ranks(self, p: np.ndarray, n: np.ndarray) -> np.ndarray:
        """:meth:`_zipf_rank` of each draw ``p[i]`` over ``n[i]`` keys, bit
        for bit.

        zeta and eta come from the scalar's Python floats, once per
        distinct ``n``, and every step but the power is an IEEE operation
        numpy rounds exactly as Python does.  numpy's ``power`` may
        differ from libm's ``pow`` in the last ulps; the product ``n *
        base ** alpha`` can then land on the other side of an integer --
        and so truncate to another rank -- only when it lies within that
        distance of one.  Every product within 1e-9 (relative) of an
        integer is therefore recomputed with Python floats.
        """
        theta = ZIPFIAN_CONSTANT
        zeta2 = 1.0 + 0.5 ** theta
        alpha = 1.0 / (1.0 - theta)
        sizes, which = np.unique(n, return_inverse=True)
        zetas = [self.session.zeta.upto(int(size)) for size in sizes.tolist()]
        etas = [
            (1 - (2.0 / size) ** (1 - theta)) / (1 - zeta2 / zeta) if size > 2 else 0.0
            for size, zeta in zip(sizes.tolist(), zetas)
        ]
        zetan = np.array(zetas)[which]
        uz = p * zetan
        ranks = np.where(uz < 1.0, 0, np.where((uz < zeta2) | (n <= 2), 1, 0))
        ranks = np.minimum(ranks, n - 1)
        tail = np.flatnonzero((uz >= zeta2) & (n > 2))
        if len(tail):
            eta = np.array(etas)[which[tail]]
            p_tail = p[tail]
            y = n[tail] * np.power(eta * p_tail - eta + 1, alpha)
            ranks[tail] = y.astype(np.int64) % n[tail]
            near = np.flatnonzero(np.abs(y - np.rint(y)) <= 1e-9 * np.maximum(y, 1.0))
            for i, e, q in zip(tail[near].tolist(), eta[near].tolist(), p_tail[near].tolist()):
                size = int(n[i])
                ranks[i] = int(size * (e * q - e + 1) ** alpha) % size
        return ranks


def _columns(
    vpages: np.ndarray,
    writes: np.ndarray,
    lines: np.ndarray,
    op_last: np.ndarray,
    keep: np.ndarray | None = None,
) -> tuple:
    """The column batch of per-operation touch rows: every row of a
    ``(ops, touches)`` block in order, an operation boundary on the last
    touch of each operation that ends there, and only the ``keep`` rows."""
    boundary = np.zeros(vpages.shape, dtype=bool)
    boundary[:, -1] = op_last
    columns = [column.ravel() for column in (vpages, writes, lines, boundary)]
    if keep is not None:
        columns = [column[keep] for column in columns]
    return (*columns, np.zeros(len(columns[0]), dtype=np.int8))


class IncrementalZeta:
    """Generalized harmonic number sum_{i=1..n} i^-theta, grown in O(1)
    amortized as workload D's inserts extend the keyspace."""

    def __init__(self, theta: float) -> None:
        self.theta = theta
        self._n = 0
        self._value = 0.0

    def upto(self, n: int) -> float:
        if n < self._n:
            # Shrinking never happens in YCSB; recompute defensively.
            self._n = 0
            self._value = 0.0
        while self._n < n:
            self._n += 1
            self._value += self._n ** (-self.theta)
        return self._value
