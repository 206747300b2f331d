"""``struct page`` — the unit every policy in this repo reasons about.

A :class:`Page` is the logical memory page.  Migration moves a page
between NUMA nodes (tiers); the page object itself persists, exactly as
the *content* of a Linux page survives ``migrate_pages()`` while its
physical frame changes.  The intrusive ``lru_prev``/``lru_next`` pointers
re-create the kernel trick the paper leans on for zero space overhead:
"we reused the list pointer on the struct page to index the pages in the
promote lists".

Since the struct-of-arrays refactor the page's hot state — node id, the
flag word, timestamps, LRU links, harvested reference bits — lives in
pfn-indexed columns of a :class:`~repro.mm.pagestore.PageStore`; the
``Page`` object is a thin identity-stable *view* over its row.  Cold
paths keep using the same attribute API; hot loops index the columns
directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.mm.flags import PageFlags
from repro.mm.pagestore import PageStore, default_store

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.mm.lruvec import LruList
    from repro.mm.page_table import PageTableEntry

__all__ = ["Page"]


class Page:
    """One 4 KiB page of memory — a view over its :class:`PageStore` row.

    Attributes:
        pfn: dense per-store page id (the page frame number).
        node_id: NUMA node currently backing the page.
        flags: PFRA flag word (referenced / active / promote / ...).
        is_anon: anonymous vs file-backed, selecting the LRU list family.
        rmap: reverse mapping — every PTE that maps this page.  Scans walk
            it to harvest hardware accessed bits (unsupervised accesses).
        lru: the intrusive list this page currently sits on, or None.
        policy_data: scratch slot for per-policy metadata (e.g.
            AutoTiering-OPM's n-bit access history).  Policies own it.
    """

    __slots__ = ("_store", "pfn", "rmap", "policy_data")

    def __init__(
        self,
        node_id: int,
        *,
        is_anon: bool = True,
        born_ns: int = 0,
        store: PageStore | None = None,
    ) -> None:
        if store is None:
            store = default_store()
        self._store = store
        self.pfn = store.adopt(self, node_id, is_anon, born_ns)
        self.rmap: list[PageTableEntry] = []
        self.policy_data: Any = None

    # -- column-backed attributes -----------------------------------------

    @property
    def node_id(self) -> int:
        return int(self._store.node[self.pfn])

    @node_id.setter
    def node_id(self, value: int) -> None:
        self._store.node[self.pfn] = value

    @property
    def is_anon(self) -> bool:
        return bool(self._store.is_anon[self.pfn])

    @property
    def flags(self) -> PageFlags:
        return PageFlags(int(self._store.flags[self.pfn]))

    @flags.setter
    def flags(self, value: int) -> None:
        self._store.flags[self.pfn] = int(value)

    @property
    def born_ns(self) -> int:
        return int(self._store.born_ns[self.pfn])

    @born_ns.setter
    def born_ns(self, value: int) -> None:
        self._store.born_ns[self.pfn] = value

    @property
    def last_promoted_ns(self) -> int:
        return int(self._store.last_promoted[self.pfn])

    @last_promoted_ns.setter
    def last_promoted_ns(self, value: int) -> None:
        self._store.last_promoted[self.pfn] = value

    @property
    def lru(self) -> "LruList | None":
        return self._store.lru_of(self.pfn)

    @property
    def lru_prev(self) -> "Page | None":
        neighbour = self._store.lru_prev[self.pfn]
        return None if neighbour < 0 else self._store.pages[neighbour]

    @lru_prev.setter
    def lru_prev(self, page: "Page | None") -> None:
        self._store.lru_prev[self.pfn] = -1 if page is None else page.pfn

    @property
    def lru_next(self) -> "Page | None":
        neighbour = self._store.lru_next[self.pfn]
        return None if neighbour < 0 else self._store.pages[neighbour]

    @lru_next.setter
    def lru_next(self, page: "Page | None") -> None:
        self._store.lru_next[self.pfn] = -1 if page is None else page.pfn

    # -- flag helpers (named after their page-flags.h counterparts) -------

    def test(self, flag: PageFlags) -> bool:
        return bool(self._store.flags[self.pfn] & int(flag))

    def set(self, flag: PageFlags) -> None:
        self._store.flags[self.pfn] |= int(flag)

    def clear(self, flag: PageFlags) -> None:
        self._store.flags[self.pfn] &= ~int(flag)

    def test_and_clear(self, flag: PageFlags) -> bool:
        """Atomically read and clear — how scans consume REFERENCED."""
        column = self._store.flags
        was_set = bool(column[self.pfn] & int(flag))
        column[self.pfn] &= ~int(flag)
        return was_set

    # -- reverse map -------------------------------------------------------

    def harvest_accessed(self) -> bool:
        """Test-and-clear the accessed bit across every mapping PTE.

        This is the unsupervised-access path of Section III-A: "MULTI-CLOCK
        checks within every process' page table that maps it for a set
        referenced bit".  Returns True if any mapping was accessed.
        """
        if not self.rmap:
            return False
        column = self._store.pte_accessed
        if column[self.pfn]:
            column[self.pfn] = False
            return True
        return False

    def any_accessed(self) -> bool:
        """Peek at the accessed bits without clearing them."""
        return bool(self.rmap) and bool(self._store.pte_accessed[self.pfn])

    def harvest_dirty(self) -> bool:
        """Test-and-clear the PTE dirty bits across every mapping.

        The dirtiness analogue of :meth:`harvest_accessed`: "was this
        page *written* since the last harvest" — the fresh signal the
        Section VII weighted-placement extension consumes.  The page's
        own DIRTY flag (writeback state) is left untouched.
        """
        if not self.rmap:
            return False
        column = self._store.pte_dirty
        if column[self.pfn]:
            column[self.pfn] = False
            return True
        return False

    @property
    def mapped(self) -> bool:
        return bool(self.rmap)

    def __repr__(self) -> str:
        kind = "anon" if self.is_anon else "file"
        return f"Page(pfn={self.pfn}, node={self.node_id}, {kind}, flags={self.flags!r})"
