"""Generic CLOCK scan machinery — the simulator's ``mm/vmscan.c``.

MULTI-CLOCK "determines the relative importance of pages within and
across tiers by running a modified version of Linux's Page Frame
Reclamation Algorithm (PFRA) ... to each memory tier separately"
(Section III).  This module implements the *unmodified* PFRA pieces that
both MULTI-CLOCK and the baselines share:

* ``mark_page_accessed`` — the supervised-access inline state update;
* ``shrink_active_list``-style deactivation with the √(10·n):1
  active:inactive ratio cap;
* ``shrink_inactive_list``-style reclaim scanning, with demotion to a
  lower tier or eviction to the backing store.

The one MULTI-CLOCK-specific transition (active-referenced page accessed
again → promote list, edge 10 of Figure 4) is injected as the
``on_second_reference`` hook so this code stays policy-neutral.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.mm.flags import PageFlags
from repro.mm.lruvec import ListKind
from repro.mm.numa import NumaNode
from repro.mm.page import Page
from repro.mm.pagestore import NO_PFN
from repro.mm.system import MemorySystem
from repro.sim.config import PAGE_SIZE

__all__ = [
    "active_ratio_threshold",
    "mark_page_accessed",
    "deactivate_excess_active",
    "shrink_inactive_list",
    "ScanResult",
    "ScanWeightFn",
]

from dataclasses import dataclass

SecondReferenceHook = Callable[[NumaNode, Page], None]

#: Per-pfn reclaim pressure: 1 keeps vanilla CLOCK behaviour, anything
#: higher strips the page's second chance (memcg proportional reclaim).
ScanWeightFn = Callable[[int], int]

_GIB = 1 << 30


def active_ratio_threshold(node: NumaNode, cap: float | None = None) -> float:
    """The PFRA active:inactive ratio limit for one node.

    Section III-C: "typically sqrt(10*n):1, where n is the amount of
    memory in GB available in the tier".  Clamped to at least 1 so tiny
    simulated tiers still keep an inactive list.
    """
    if cap is not None:
        return cap
    # "memory in GB *available* in the tier": frames taken offline (a
    # fault-injected capacity loss, or hot-remove) are not available, so
    # a node shrunk under a fault window must also shrink its active
    # list rather than keeping a ratio sized for frames it no longer has.
    gib = (node.capacity_pages - node.offline_pages) * PAGE_SIZE / _GIB
    return max(1.0, math.sqrt(10.0 * gib))


@dataclass
class ScanResult:
    """What one list scan did, for cost accounting and stats."""

    scanned: int = 0
    activated: int = 0
    deactivated: int = 0
    referenced: int = 0
    to_promote_list: int = 0
    promoted: int = 0
    demoted: int = 0
    evicted: int = 0
    system_ns: int = 0

    def merge(self, other: "ScanResult") -> "ScanResult":
        for field_name in self.__dataclass_fields__:
            setattr(self, field_name, getattr(self, field_name) + getattr(other, field_name))
        return self


def mark_page_accessed(
    system: MemorySystem,
    page: Page,
    on_second_reference: SecondReferenceHook | None = None,
) -> None:
    """Supervised-access state update (Linux ``mark_page_accessed()``).

    Walks the Figure-4 edges that fire inline on a system-call access:
    inactive-unreferenced → inactive-referenced (2), inactive-referenced →
    active (6), active-unreferenced → active-referenced (7/8), and — when
    the MULTI-CLOCK hook is supplied — active-referenced → promote (10).
    Pages already on a promote list stay there (12).
    """
    lst = page.lru
    if lst is None or page.test(PageFlags.UNEVICTABLE):
        return
    node = system.nodes[page.node_id]
    if lst.kind is ListKind.PROMOTE:
        page.set(PageFlags.REFERENCED)
        return
    if lst.kind is ListKind.INACTIVE:
        if page.test(PageFlags.REFERENCED):
            _activate(node, page)
            if system.trace is not None:
                system.trace.trace_mm_lru_activate(node.node_id, page.pfn, "mark_accessed")
        else:
            page.set(PageFlags.REFERENCED)
        return
    if lst.kind is ListKind.ACTIVE:
        if page.test(PageFlags.REFERENCED) and on_second_reference is not None:
            on_second_reference(node, page)
        else:
            page.set(PageFlags.REFERENCED)


def deactivate_excess_active(
    system: MemorySystem,
    node: NumaNode,
    is_anon: bool,
    budget: int,
    on_second_reference: SecondReferenceHook | None = None,
    ratio_cap: float | None = None,
    force: bool = False,
    scan_weight: ScanWeightFn | None = None,
) -> ScanResult:
    """Rebalance one active list (the ``shrink_active_list`` analogue).

    Runs only while the active:inactive ratio exceeds the PFRA threshold
    (or unconditionally with ``force=True``, the under-pressure case).
    Scanning from the tail: unreferenced pages are deactivated (edge 9);
    referenced-once pages get their flag and a second chance; pages
    referenced *again* go to the promote list via the hook (edge 10) or,
    without a hook, rotate to the head (vanilla CLOCK).

    ``scan_weight`` (auto-wired from an armed memcg controller carrying
    limits) applies proportional reclaim: a page weighing more than 1
    loses every second chance and deactivates on first sight.

    The forced scan with no hook or weights — the direct-reclaim
    escalation and every baseline kswapd pass, traced or not — runs on
    pagestore columns instead of per-page objects: a tail segment is
    classified with boolean masks, the list is rebuilt with batch
    splices, and the deactivations are traced after each splice in visit
    order.  The columnar walk restarts where a rotation would have
    wrapped, which revisits pages in exactly the order the scalar
    wraparound does, so the two paths are bit-identical (asserted by
    tests and the bench).
    """
    result = ScanResult()
    lruvec = node.lruvec
    active = lruvec.list_for(ListKind.ACTIVE, is_anon)
    if scan_weight is None and system.memcg is not None and system.memcg.has_limits:
        scan_weight = system.memcg.scan_weight
    if force and on_second_reference is None and scan_weight is None and len(active):
        _deactivate_vector(system, node, active, is_anon, budget, result)
    else:
        _deactivate_scalar(
            system, node, active, is_anon, budget,
            on_second_reference, ratio_cap, force, scan_weight, result,
        )
    result.system_ns = system.hardware.scan_ns(result.scanned)
    if system.metrics is not None:
        system.metrics.note_vmscan(
            node.node_id, system.clock.now_ns,
            scanned=result.scanned, stolen=0, deactivated=result.deactivated,
        )
    return result


def _deactivate_scalar(
    system: MemorySystem,
    node: NumaNode,
    active,
    is_anon: bool,
    budget: int,
    on_second_reference: SecondReferenceHook | None,
    ratio_cap: float | None,
    force: bool,
    scan_weight: ScanWeightFn | None,
    result: ScanResult,
) -> None:
    """Page-at-a-time reference path: hooks, ratio checks, weights."""
    lruvec = node.lruvec
    inactive = lruvec.list_for(ListKind.INACTIVE, is_anon)
    threshold = active_ratio_threshold(node, ratio_cap)
    tr = system.trace
    for page in active.iter_from_tail():
        if result.scanned >= budget:
            break
        if not force and lruvec.active_inactive_ratio(is_anon) <= threshold:
            break
        result.scanned += 1
        accessed = page.harvest_accessed()
        if scan_weight is not None and scan_weight(page.pfn) > 1:
            # Proportional reclaim: the over-limit group's page forfeits
            # its recency ladder and deactivates immediately, arriving on
            # the inactive list unreferenced so the shrinker can take it.
            page.clear(PageFlags.ACTIVE)
            page.clear(PageFlags.REFERENCED)
            active.remove(page)
            inactive.add_head(page)
            result.deactivated += 1
            if tr is not None:
                tr.trace_mm_lru_deactivate(node.node_id, page.pfn, "memcg")
            continue
        if accessed and page.test(PageFlags.REFERENCED):
            if on_second_reference is not None:
                on_second_reference(node, page)
                result.to_promote_list += 1
            else:
                active.rotate_to_head(page)
                result.referenced += 1
        elif accessed:
            page.set(PageFlags.REFERENCED)
            active.rotate_to_head(page)
            result.referenced += 1
        elif page.test(PageFlags.REFERENCED):
            # CLOCK second chance: found idle once, drop the flag and let
            # the hand come around again before deactivating (edge 9 is
            # "not accessed for a long time", i.e. idle on two scans).
            page.clear(PageFlags.REFERENCED)
            active.rotate_to_head(page)
        else:
            page.clear(PageFlags.ACTIVE)
            active.remove(page)
            inactive.add_head(page)
            result.deactivated += 1
            if tr is not None:
                tr.trace_mm_lru_deactivate(node.node_id, page.pfn, "vmscan")


def _deactivate_vector(
    system: MemorySystem,
    node: NumaNode,
    active,
    is_anon: bool,
    budget: int,
    result: ScanResult,
) -> None:
    """Columnar force-scan over a whole tail segment per pass.

    Each pass classifies ``min(budget left, list length)`` tail pages at
    once: the accessed bit is harvested with one gather, referenced state
    with another, and the four scalar outcomes collapse to two masks —
    survivors rotate (via one :meth:`PageStore.rebuild_after_scan`
    splice, preserving visit order) and the rest move to the inactive
    head in one :meth:`PageStore.prepend_head_block`.  A budget larger
    than the list re-enters the loop, matching the scalar iterator's
    wraparound over freshly rotated pages: every page deactivates within
    three visits, so the passes terminate.
    """
    store = system.pagestore
    inactive = node.lruvec.list_for(ListKind.INACTIVE, is_anon)
    col_flags = store.flags
    col_acc = store.pte_accessed
    col_map = store.mapcount
    ref_bit = int(PageFlags.REFERENCED)
    active_bit = int(PageFlags.ACTIVE)
    lru_bit = int(PageFlags.LRU)
    tr = system.trace
    while result.scanned < budget:
        n = len(active)
        if n == 0:
            break
        k = min(budget - result.scanned, n)
        visited = store.walk_tail(active, k)
        # Harvest: the accessed bit counts (and clears) only on mapped
        # pages, exactly Page.harvest_accessed.
        acc = col_acc[visited] & (col_map[visited] > 0)
        hit = visited[acc]
        if len(hit):
            col_acc[hit] = False
        ref = (col_flags[visited] & ref_bit) != 0
        keep = acc | ref
        survivors = visited[keep]
        movers = visited[~keep]
        gain_ref = visited[acc & ~ref]
        if len(gain_ref):
            col_flags[gain_ref] |= ref_bit
        lose_ref = visited[~acc & ref]
        if len(lose_ref):
            col_flags[lose_ref] &= ~ref_bit
        result.scanned += k
        result.referenced += int(acc.sum())
        # The unvisited remainder keeps its internal links; sample its
        # tail before the splice below rewrites the visited links.
        rest_tail = NO_PFN if k >= n else int(store.lru_prev[int(visited[-1])])
        store.rebuild_after_scan(active, survivors, rest_tail, len(movers))
        if len(movers):
            col_flags[movers] &= ~active_bit
            store.prepend_head_block(inactive, movers, lru_bit)
            result.deactivated += len(movers)
            if tr is not None:
                for pfn in movers.tolist():
                    tr.trace_mm_lru_deactivate(node.node_id, pfn, "vmscan")
        if k >= n and not keep[:-1].any():
            # The scalar iterator captures its next hop before each
            # yield: visiting the original head it sees the first
            # rotated survivor — or, when nothing rotated ahead of it,
            # the end of the list, and stops with budget to spare.
            break


def shrink_inactive_list(
    system: MemorySystem,
    node: NumaNode,
    is_anon: bool,
    target_free: int,
    budget: int,
    demote_dest: NumaNode | None,
    scanner: str = "direct",
    scan_weight: ScanWeightFn | None = None,
) -> ScanResult:
    """Reclaim from one inactive list (the ``shrink_inactive_list`` analogue).

    Unreferenced tail pages are demoted to ``demote_dest`` when given
    (edge 3), or evicted to the backing store at the lowest tier (edge 4).
    Referenced pages climb the recency ladder instead (edges 1 and 6).
    Stops after freeing ``target_free`` pages or scanning ``budget``.
    ``scanner`` tags the emitted tracepoints with who is reclaiming
    ("kswapd", "demand", or the default direct-reclaim path), so a trace
    can be cross-checked against the per-daemon counters.

    ``scan_weight`` (auto-wired from an armed memcg controller carrying
    limits) applies proportional reclaim: a page weighing more than 1 is
    denied the activate/rotate ladder and reclaimed as if idle.
    """
    result = ScanResult()
    lruvec = node.lruvec
    inactive = lruvec.list_for(ListKind.INACTIVE, is_anon)
    if scan_weight is None and system.memcg is not None and system.memcg.has_limits:
        scan_weight = system.memcg.scan_weight
    tr = system.trace
    # Per-page state lives in the store columns; hoist them and the flag
    # masks so each visit costs a couple of int ops instead of a chain
    # of Page property calls.  Nothing in this loop creates pages, so
    # the columns cannot reallocate mid-scan.
    store = system.pagestore
    col_flags = store.flags
    col_acc = store.pte_accessed
    col_map = store.mapcount
    pinned_mask = int(PageFlags.LOCKED | PageFlags.UNEVICTABLE)
    ref_bit = int(PageFlags.REFERENCED)
    for page in inactive.iter_from_tail():
        if result.scanned >= budget or (result.demoted + result.evicted) >= target_free:
            break
        result.scanned += 1
        pfn = page.pfn
        flags = int(col_flags[pfn])
        if flags & pinned_mask:
            # Rotate, don't just skip: a bare continue leaves the pinned
            # page at the tail, so every subsequent scan burns budget
            # re-visiting it and reclaim stalls behind it.
            inactive.rotate_to_head(page)
            continue
        # Inlined Page.harvest_accessed: test-and-clear the PTE accessed
        # bit, counting only mapped pages.
        accessed = bool(col_acc[pfn]) and col_map[pfn] > 0
        if accessed:
            col_acc[pfn] = False
            if scan_weight is None or scan_weight(pfn) <= 1:
                if flags & ref_bit:
                    _activate(node, page)
                    result.activated += 1
                    if tr is not None:
                        tr.trace_mm_lru_activate(node.node_id, pfn, scanner)
                    continue
                col_flags[pfn] = flags | ref_bit
                inactive.rotate_to_head(page)
                result.referenced += 1
                continue
            # Over-limit group: no recency ladder — fall through and
            # reclaim the page as if it were idle (proportional reclaim).
        if demote_dest is not None and demote_dest.can_allocate():
            outcome = system.migrator.migrate_with_retry(page, demote_dest)
            if outcome.ok:
                # Fresh read-modify-write: migration may have touched
                # the flag word since it was sampled above.
                col_flags[pfn] &= ~ref_bit
                demote_dest.lruvec.list_for(ListKind.INACTIVE, is_anon).add_head(page)
                result.demoted += 1
                if tr is not None:
                    tr.trace_mm_vmscan_demote(
                        node.node_id, page.pfn, demote_dest.node_id, scanner
                    )
                continue
        if node.tier.next_lower() is None or demote_dest is None:
            try:
                result.system_ns += system.unmap_and_evict(page)
            except MemoryError:
                break  # swap full: give up, OOM is the caller's problem
            result.evicted += 1
        else:
            # Demotion was the plan but the destination refused (full, or
            # the migration failed): rotate past the page so the scan
            # keeps making progress instead of stalling on the same tail.
            inactive.rotate_to_head(page)
    result.system_ns += system.hardware.scan_ns(result.scanned)
    if system.metrics is not None:
        system.metrics.note_vmscan(
            node.node_id, system.clock.now_ns,
            scanned=result.scanned,
            stolen=result.demoted + result.evicted,
            deactivated=0,
        )
    return result


def _activate(node: NumaNode, page: Page) -> None:
    """Move a page to its active list head (edge 6)."""
    if page.lru is not None:
        page.lru.remove(page)
    page.clear(PageFlags.REFERENCED)
    page.set(PageFlags.ACTIVE)
    node.lruvec.list_for(ListKind.ACTIVE, page.is_anon).add_head(page)
