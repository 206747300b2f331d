"""A slab-allocated, Memcached-like in-memory key-value store model.

The paper's YCSB experiments run against Memcached, "an in-memory cache
service that uses a large amount of main memory to maintain its data".
What the tiering policy sees from such a store is its *page-level access
pattern*, which is shaped by two things we model faithfully:

* **slab allocation** — records are packed into pages in insertion order,
  so the load phase lays keys out sequentially and the first-loaded
  records are the ones born in DRAM (insertion order is uncorrelated with
  request popularity, which is what gives dynamic tiering its opportunity);
* **the hash table** — every operation first probes a bucket page, giving
  each request a second, uniformly distributed page touch.

Operations translate keys to page touches: one operation at a time as
:class:`PageTouch` lists, or a block of operations at once as touch
columns (:meth:`SlabKVStore.rows`), which the YCSB phases emit as
numeric batches for the array driver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.config import PAGE_SIZE

__all__ = ["PageTouch", "SlabKVStore", "CACHE_LINE", "READ", "UPDATE", "INSERT"]

CACHE_LINE = 64

READ, UPDATE, INSERT = 0, 1, 2
"""Single-key operation kinds of a :meth:`SlabKVStore.rows` block."""


def grown(column: np.ndarray, size: int, fill: int | bool) -> np.ndarray:
    """``column`` extended with ``fill`` to at least ``size`` entries,
    doubling so that dense keys inserted one by one grow it O(log n) times."""
    if size <= len(column):
        return column
    out = np.full(max(size, 2 * len(column)), fill, dtype=column.dtype)
    out[: len(column)] = column
    return out


def lookup(column: np.ndarray, keys: np.ndarray, fill: int | bool) -> np.ndarray:
    """``column[keys]``, with ``fill`` for keys outside the column."""
    out = np.full(len(keys), fill, dtype=column.dtype)
    inside = (keys >= 0) & (keys < len(column))
    out[inside] = column[keys[inside]]
    return out


@dataclass(frozen=True)
class PageTouch:
    """One page-granular touch an operation performs."""

    vpage: int
    is_write: bool
    lines: int


class SlabKVStore:
    """Key → page layout of a slab-allocated store.

    The store owns two virtual regions of its host process:

    * ``hash_base`` — the bucket array (8 bytes per bucket pointer);
    * ``data_base`` — slab pages, ``items_per_page`` records each.

    Keys are dense non-negative integers (YCSB's ``user<N>`` keys hash
    uniformly, and a dense id keeps the model deterministic); the slot of
    each key is one column indexed by key.
    """

    def __init__(
        self,
        *,
        value_size: int = 1024,
        hash_base: int = 0,
        data_base: int = 1 << 20,
        overhead: int = 56,
    ) -> None:
        if value_size <= 0:
            raise ValueError("value_size must be positive")
        chunk = value_size + overhead
        if chunk > PAGE_SIZE:
            raise ValueError(
                f"records of {chunk} bytes exceed one page; multi-page items "
                "are out of scope (memcached's default max item fits a slab)"
            )
        self.value_size = value_size
        self.chunk_size = chunk
        self.items_per_page = PAGE_SIZE // chunk
        self.hash_base = hash_base
        self.data_base = data_base
        self._slot_of = np.full(0, -1, dtype=np.int64)  # -1: key absent
        self._next_slot = 0

    # -- layout ------------------------------------------------------------

    @property
    def n_records(self) -> int:
        return self._next_slot  # every record owns one slot

    def data_pages_used(self) -> int:
        if self._next_slot == 0:
            return 0
        return (self._next_slot - 1) // self.items_per_page + 1

    def hash_pages(self, n_records: int) -> int:
        """Bucket-array pages for ``n_records`` keys (8-byte pointers,
        one bucket per record, memcached's default load factor ~1)."""
        buckets_per_page = PAGE_SIZE // 8
        return max(1, (n_records - 1) // buckets_per_page + 1)

    def footprint_pages(self, n_records: int) -> int:
        """Pages the store will occupy once ``n_records`` are loaded."""
        data = (n_records - 1) // self.items_per_page + 1 if n_records else 0
        return data + self.hash_pages(max(n_records, 1))

    def location(self, key: int) -> int | None:
        """The slab slot holding ``key``, or None if absent."""
        slot = int(self._slot_of[key]) if 0 <= key < len(self._slot_of) else -1
        return None if slot < 0 else slot

    def _data_vpage(self, slot: int) -> int:
        return self.data_base + slot // self.items_per_page

    def _hash_vpage(self, key: int) -> int:
        # Dense keys hash uniformly over buckets; bucket index = key works
        # as a deterministic stand-in for a uniform hash.
        buckets_per_page = PAGE_SIZE // 8
        return self.hash_base + (key * 2654435761 % (1 << 32)) % max(
            1, self.n_records or 1
        ) // buckets_per_page

    def _hash_vpages(self, keys: np.ndarray, n_records: np.ndarray) -> np.ndarray:
        """:meth:`_hash_vpage` of each key against its own record count
        (int64 is exact while keys stay below 2**31)."""
        buckets_per_page = PAGE_SIZE // 8
        return self.hash_base + (keys * 2654435761 % (1 << 32)) % np.maximum(
            1, n_records
        ) // buckets_per_page

    # -- operations -----------------------------------------------------------

    def insert(self, key: int) -> list[PageTouch]:
        """SET of a new key: probe the hash bucket, write the record."""
        if self.location(key) is not None:
            return self.update(key)
        if key < 0:
            raise ValueError("keys are non-negative integers")
        slot = self._next_slot
        self._next_slot += 1
        self._slot_of = grown(self._slot_of, key + 1, -1)
        self._slot_of[key] = slot
        value_lines = self._value_lines()
        return [
            PageTouch(self._hash_vpage(key), is_write=True, lines=1),
            PageTouch(self._data_vpage(slot), is_write=True, lines=value_lines),
        ]

    def read(self, key: int) -> list[PageTouch]:
        """GET: probe the bucket, read the record."""
        slot = self._require(key)
        return [
            PageTouch(self._hash_vpage(key), is_write=False, lines=1),
            PageTouch(self._data_vpage(slot), is_write=False, lines=self._value_lines()),
        ]

    def update(self, key: int) -> list[PageTouch]:
        """SET of an existing key: probe, then overwrite in place."""
        slot = self._require(key)
        return [
            PageTouch(self._hash_vpage(key), is_write=False, lines=1),
            PageTouch(self._data_vpage(slot), is_write=True, lines=self._value_lines()),
        ]

    def read_modify_write(self, key: int) -> list[PageTouch]:
        """YCSB workload F's composite operation."""
        return self.read(key) + self.update(key)

    def rows(
        self, kinds: np.ndarray, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The touches of a block of single-key operations, as columns.

        ``kinds[i]`` (:data:`READ`, :data:`UPDATE` or :data:`INSERT`) is
        applied to ``keys[i]`` in order, exactly as one :meth:`read`,
        :meth:`update` or :meth:`insert` call per operation would -- an
        insert's bucket probe sees the record count after it -- provided
        no key is inserted twice in the block.  Returns ``(vpages,
        writes, lines)``, each shaped ``(len(keys), 2)``: the bucket
        probe, then the record.
        """
        new = (kinds == INSERT) & (lookup(self._slot_of, keys, -1) < 0)
        fresh = keys[new]
        if len(fresh):
            if fresh.min() < 0:
                raise ValueError("keys are non-negative integers")
            self._slot_of = grown(self._slot_of, int(fresh.max()) + 1, -1)
            self._slot_of[fresh] = self._next_slot + np.arange(len(fresh))
        n_records = self._next_slot + np.cumsum(new)
        self._next_slot += len(fresh)
        slots = lookup(self._slot_of, keys, -1)
        if (slots < 0).any():
            raise KeyError(f"key {int(keys[slots < 0][0])} was never inserted")
        vpages = np.stack(
            (
                self._hash_vpages(keys, n_records),
                self.data_base + slots // self.items_per_page,
            ),
            axis=1,
        )
        writes = np.stack((new, kinds != READ), axis=1)
        lines = np.tile(np.array([1, self._value_lines()]), (len(keys), 1))
        return vpages, writes, lines

    def _value_lines(self) -> int:
        return max(1, self.chunk_size // CACHE_LINE)

    def _require(self, key: int) -> int:
        slot = self.location(key)
        if slot is None:
            raise KeyError(f"key {key} was never inserted")
        return slot
