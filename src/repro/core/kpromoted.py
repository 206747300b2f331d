"""The ``kpromoted`` daemon — one kernel thread per NUMA node.

Section III-B: kpromoted "is woken up periodically to scan the lists,
update them, and migrate any pages from the promote list to a higher tier
due to recent unsupervised accesses.  Every time kpromoted runs, it first
selects the candidate pages for promotion and promotes all the pages it
selected."  The per-node thread design "follows those of PFRA for the
kswapd eviction daemon ... to avoid lock contention".

A run over its node does, budget-limited per list (the paper sets the
scan budget to 1024 pages):

1. inactive-list scan — harvest accessed bits, walking pages up the
   recency ladder (edges 1 and 6 of Figure 4);
2. active-list scan — re-referenced pages move to the promote list
   (edges 7/8 and 10);
3. promote-list drain — pages referenced since joining are migrated to
   the DRAM tier (edge 13, making room by demand demotion if DRAM is
   under pressure); stale ones recycle to the active list (edge 11).
   On a DRAM node there is no higher tier, so the whole promote list
   recycles to active.

The two harvesting scans are one vectorized column sweep over the
struct-of-arrays page store, whatever the policy and whether or not a
tracer is attached: one pointer walk collects the budgeted tail segment,
numpy masks decide every transition at once, and the list is rebuilt
with a handful of fancy-index link writes.  A pass that runs out of
list before budget keeps CLOCK semantics — the hand keeps taking the
current tail, so already-rotated pages are re-visited as pure rotations,
which the sweep reproduces as a rotation of the survivor block.
Tracepoints and the policy's ``observe_scan`` see the pages in visit
order, after the fact; they observe the sweep and never choose it.  The
drain keeps its scalar form — every page it visits leaves the list
through the migration machinery, which is where all the cost lives
anyway.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.state import recycle_promote_to_active
from repro.mm.flags import PageFlags
from repro.mm.lruvec import ListKind
from repro.mm.numa import NumaNode
from repro.mm.pagestore import NO_PFN
from repro.mm.vmscan import ScanResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.multiclock import MultiClockPolicy

__all__ = ["KPromoted"]


class KPromoted:
    """Promotion daemon bound to one node of a MULTI-CLOCK system."""

    def __init__(self, policy: "MultiClockPolicy", node: NumaNode) -> None:
        self.policy = policy
        self.node = node
        stats = policy.system.stats
        self._c_runs = stats.counter("kpromoted.runs")
        self._c_pages_scanned = stats.counter("kpromoted.pages_scanned")
        self._c_referenced = stats.counter("kpromoted.referenced")
        self._c_activated = stats.counter("kpromoted.activated")
        self._c_to_promote_list = stats.counter("kpromoted.to_promote_list")
        self._c_promoted = stats.counter("kpromoted.promoted")
        self._c_deactivated = stats.counter("kpromoted.deactivated")

    @property
    def name(self) -> str:
        return f"kpromoted/{self.node.node_id}"

    def run(self, now_ns: int) -> int:
        """One wakeup; returns nanoseconds of system work performed."""
        system = self.policy.system
        budget = system.config.daemons.scan_budget_pages
        total = ScanResult()
        for is_anon in (True, False):
            total.merge(self._sweep(ListKind.INACTIVE, ListKind.ACTIVE, is_anon, budget))
            total.merge(self._sweep(ListKind.ACTIVE, ListKind.PROMOTE, is_anon, budget))
            total.merge(self._drain_promote(is_anon, budget))
        self._c_runs.n += 1
        self._c_pages_scanned.n += total.scanned
        # Ladder-activity counters: consumed by the adaptive-interval
        # controller (Section VII extension) as its workload signal.
        self._c_referenced.n += total.referenced
        self._c_activated.n += total.activated
        self._c_to_promote_list.n += total.to_promote_list
        self._c_promoted.n += total.promoted
        # Edge 11: promote-list pages recycled to active (stale, or the
        # promotion could not make room) — without this the ladder's
        # recycling arm is invisible next to the other counters.
        self._c_deactivated.n += total.deactivated
        return total.system_ns

    def _sweep(
        self, src_kind: ListKind, dst_kind: ListKind, is_anon: bool, budget: int
    ) -> ScanResult:
        """One budgeted CLOCK pass over ``src_kind``, as a column sweep.

        Referenced pages found accessed again move up the ladder to the
        head of ``dst_kind``: inactive → active (edges 1, 6) or active →
        promote (edge 10).  Accessed unreferenced pages gain REFERENCED
        and rotate; unaccessed pages rotate (the CLOCK hand advances).
        A budget beyond the list laps it: harvested bits are spent, so
        each further visit of the current tail is a pure rotation, and
        ``budget - n`` of them rotate the survivor block by
        ``(budget - n) mod m``; an emptied list stops the scan at ``n``.
        """
        result = ScanResult()
        system = self.policy.system
        src = self.node.lruvec.list_for(src_kind, is_anon)
        n = len(src)
        if n == 0 or budget <= 0:
            result.system_ns = system.hardware.scan_ns(0)
            return result
        store = src._store
        k1 = min(budget, n)
        visited = store.walk_tail(src, k1)
        col_acc = store.pte_accessed
        col_flags = store.flags
        ref_bit = int(PageFlags.REFERENCED)
        # harvest_accessed across the whole segment: accessed AND mapped.
        acc = col_acc[visited] & (store.mapcount[visited] > 0)
        if acc.any():
            col_acc[visited[acc]] = False
        ref = (col_flags[visited] & ref_bit) != 0
        mov_mask = acc & ref
        new_ref = acc & ~ref
        survivors = visited[~mov_mask]
        movers = visited[mov_mask]
        result.referenced = int(np.count_nonzero(new_ref))
        if result.referenced:
            col_flags[visited[new_ref]] |= ref_bit
        pfns = visited
        if budget > n and len(survivors):
            revisits = np.resize(survivors, budget - n)
            pfns = np.concatenate([visited, revisits])
            survivors = np.roll(survivors, -((budget - n) % len(survivors)))
        result.scanned = len(pfns)
        self.policy.observe_scan(pfns)
        rest_tail = int(store.lru_prev[visited[-1]]) if k1 < n else NO_PFN
        store.rebuild_after_scan(src, survivors, rest_tail, len(movers))
        result.system_ns = system.hardware.scan_ns(result.scanned)
        if not len(movers):
            return result
        promote = dst_kind is ListKind.PROMOTE
        if promote:
            clear, mark = int(PageFlags.ACTIVE), int(PageFlags.PROMOTE) | ref_bit
            result.to_promote_list = len(movers)
        else:
            clear, mark = ref_bit, int(PageFlags.ACTIVE)
            result.activated = len(movers)
        col_flags[movers] = (col_flags[movers] & ~clear) | mark
        dst = self.node.lruvec.list_for(dst_kind, is_anon)
        store.prepend_head_block(dst, movers, int(PageFlags.LRU))
        # Movers left the list in visit order; emit for them in that order.
        tr = system.trace
        if tr is not None:
            emit = tr.trace_mm_promote_list_add if promote else tr.trace_mm_lru_activate
            for pfn in movers.tolist():
                emit(self.node.node_id, pfn, "kpromoted")
        if promote and system.metrics is not None:
            note_add = system.metrics.note_promote_list_add
            now_ns = system.clock.now_ns
            for pfn in movers.tolist():
                note_add(pfn, now_ns)
        return result

    def _drain_promote(self, is_anon: bool, budget: int) -> ScanResult:
        """Promote referenced promote-list pages to DRAM (edges 11-13)."""
        result = ScanResult()
        system = self.policy.system
        tr = system.trace
        promote = self.node.lruvec.list_for(ListKind.PROMOTE, is_anon)
        can_go_up = self.node.tier.next_higher() is not None
        for page in promote.iter_from_tail():
            if result.scanned >= budget:
                break
            result.scanned += 1
            # Consume BOTH reference signals every pass.  With the old
            # `harvest_accessed() or test_and_clear(...)` short-circuit, a
            # harvested accessed bit left the REFERENCED flag set, so the
            # page carried a stale second reference into its next ladder
            # pass instead of having to earn one.
            harvested = page.harvest_accessed()
            referenced = page.test_and_clear(PageFlags.REFERENCED)
            accessed = harvested or referenced
            if not can_go_up or not accessed:
                recycle_promote_to_active(self.node, page)
                result.deactivated += 1
                if tr is not None:
                    tr.trace_kpromoted_recycle(
                        self.node.node_id, page.pfn,
                        "top_tier" if not can_go_up else "stale",
                    )
                if system.metrics is not None:
                    system.metrics.note_promote_drop(page.pfn)
                continue
            if self.policy.promote_page(page):
                result.promoted += 1
                if tr is not None:
                    tr.trace_kpromoted_promote(
                        self.node.node_id, page.pfn, page.node_id
                    )
            else:
                # Could not make room upstairs; keep the page hot locally.
                recycle_promote_to_active(self.node, page)
                result.deactivated += 1
                if tr is not None:
                    tr.trace_kpromoted_recycle(self.node.node_id, page.pfn, "no_room")
                if system.metrics is not None:
                    system.metrics.note_promote_drop(page.pfn)
        result.system_ns = system.hardware.scan_ns(result.scanned)
        return result
