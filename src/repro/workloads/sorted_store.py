"""A scan-capable, clustered-index key-value store.

Section V-B: "YCSB's workload E makes use of SCAN operations that may or
may not be implemented by the different back-end key-value stores.
Memcached does not implement SCAN operations, making workload E
non-operational."  The paper therefore reports no Workload E numbers.

This store is the reproduction's *extension* that closes that gap: a
clustered index (think LSM-less B-tree leaf chain) keeping records in
key order, so SCAN is a sequential walk of adjacent data pages.  Plugging
it into :class:`~repro.workloads.ycsb.YCSBSession` makes workload E
operational — sequential range reads over a footprint larger than DRAM,
the access pattern tiering policies handle worst.

The page-touch interface mirrors :class:`SlabKVStore`; operations first
probe the index (root + leaf, the two levels a few-thousand-key tree
needs), then touch the clustered data pages.
"""

from __future__ import annotations

import numpy as np

from repro.sim.config import PAGE_SIZE
from repro.workloads.kvstore import CACHE_LINE, INSERT, READ, PageTouch, grown, lookup

__all__ = ["SortedKVStore"]

_KEYS_PER_INDEX_PAGE = PAGE_SIZE // 16  # key + child pointer per entry


class SortedKVStore:
    """Records clustered by key; SCAN walks consecutive pages."""

    def __init__(
        self,
        *,
        value_size: int = 1024,
        index_base: int = 0,
        data_base: int = 1 << 20,
        overhead: int = 40,
    ) -> None:
        if value_size <= 0:
            raise ValueError("value_size must be positive")
        chunk = value_size + overhead
        if chunk > PAGE_SIZE:
            raise ValueError("multi-page records are out of scope")
        self.value_size = value_size
        self.chunk_size = chunk
        self.items_per_page = PAGE_SIZE // chunk
        self.index_base = index_base
        self.data_base = data_base
        self._present = np.zeros(0, dtype=bool)  # indexed by key
        self._count = 0
        self._max_key = -1

    # -- layout ------------------------------------------------------------

    @property
    def n_records(self) -> int:
        return self._count

    @property
    def hash_base(self) -> int:
        """Metadata-region base (interface parity with the slab store)."""
        return self.index_base

    def hash_pages(self, n_records: int) -> int:
        """Index pages for ``n_records`` keys (named for interface parity
        with the slab store: this is the non-data metadata region)."""
        leaves = max(1, (n_records - 1) // _KEYS_PER_INDEX_PAGE + 1)
        return leaves + 1  # plus the root

    def footprint_pages(self, n_records: int) -> int:
        data = (n_records - 1) // self.items_per_page + 1 if n_records else 0
        return data + self.hash_pages(max(n_records, 1))

    def location(self, key: int) -> int | None:
        """Clustered position: dense keys sit at their own rank."""
        return key if self._has(key) else None

    def _has(self, key: int) -> bool:
        return 0 <= key < len(self._present) and bool(self._present[key])

    def _data_vpage(self, key: int) -> int:
        return self.data_base + key // self.items_per_page

    def _index_touches(self, key: int, *, is_write: bool = False) -> list[PageTouch]:
        """Root then leaf probe of the two-level index."""
        leaf = 1 + key // _KEYS_PER_INDEX_PAGE
        return [
            PageTouch(self.index_base, is_write=False, lines=1),
            PageTouch(self.index_base + leaf, is_write=is_write, lines=1),
        ]

    def _value_lines(self) -> int:
        return max(1, self.chunk_size // CACHE_LINE)

    def _require(self, key: int) -> int:
        if not self._has(key):
            raise KeyError(f"key {key} was never inserted")
        return key

    # -- operations -----------------------------------------------------------

    def insert(self, key: int) -> list[PageTouch]:
        """Clustered insert; YCSB inserts are append-ordered (new max keys)."""
        if self._has(key):
            return self.update(key)
        if key < 0:
            raise ValueError("keys are non-negative integers")
        self._present = grown(self._present, key + 1, False)
        self._present[key] = True
        self._count += 1
        self._max_key = max(self._max_key, key)
        return self._index_touches(key, is_write=True) + [
            PageTouch(self._data_vpage(key), is_write=True, lines=self._value_lines())
        ]

    def read(self, key: int) -> list[PageTouch]:
        self._require(key)
        return self._index_touches(key) + [
            PageTouch(self._data_vpage(key), is_write=False, lines=self._value_lines())
        ]

    def update(self, key: int) -> list[PageTouch]:
        self._require(key)
        return self._index_touches(key) + [
            PageTouch(self._data_vpage(key), is_write=True, lines=self._value_lines())
        ]

    def read_modify_write(self, key: int) -> list[PageTouch]:
        return self.read(key) + self.update(key)

    def rows(
        self, kinds: np.ndarray, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The touches of a block of single-key operations, as columns.

        The contract of :meth:`SlabKVStore.rows`; each row is the root
        probe, the leaf probe, then the record: shape ``(len(keys), 3)``.
        """
        new = (kinds == INSERT) & ~lookup(self._present, keys, False)
        fresh = keys[new]
        if len(fresh):
            if fresh.min() < 0:
                raise ValueError("keys are non-negative integers")
            self._present = grown(self._present, int(fresh.max()) + 1, False)
            self._present[fresh] = True
            self._count += len(fresh)
            self._max_key = max(self._max_key, int(fresh.max()))
        missing = ~lookup(self._present, keys, False)
        if missing.any():
            raise KeyError(f"key {int(keys[missing][0])} was never inserted")
        vpages = np.stack(
            (
                np.full(len(keys), self.index_base),
                self.index_base + 1 + keys // _KEYS_PER_INDEX_PAGE,
                self.data_base + keys // self.items_per_page,
            ),
            axis=1,
        )
        writes = np.stack((np.zeros(len(keys), dtype=bool), new, kinds != READ), axis=1)
        lines = np.tile(np.array([1, 1, self._value_lines()]), (len(keys), 1))
        return vpages, writes, lines

    def scan(self, start_key: int, count: int) -> list[PageTouch]:
        """Range read of ``count`` records from ``start_key`` onward.

        One index descent, then a sequential walk over the clustered data
        pages — each page read once with the lines its records cover.
        """
        if count <= 0:
            raise ValueError("scan count must be positive")
        self._require(start_key)
        end_key = min(start_key + count - 1, self._max_key)
        touches = self._index_touches(start_key)
        first_page = self._data_vpage(start_key)
        last_page = self._data_vpage(end_key)
        per_page_lines = self.items_per_page * self._value_lines()
        for vpage in range(first_page, last_page + 1):
            touches.append(
                PageTouch(vpage, is_write=False, lines=min(per_page_lines, 64))
            )
        return touches
