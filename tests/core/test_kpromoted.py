"""Unit tests for the kpromoted daemon."""

import numpy as np
import pytest

from repro.core.state import move_to_promote
from repro.machine import Machine
from repro.mm.flags import PageFlags
from repro.mm.hardware import MemoryTier
from repro.mm.lruvec import ListKind
from repro.mm.vmscan import ScanResult
from repro.sim.config import DaemonConfig, SimulationConfig
from repro.trace.export import iter_events


@pytest.fixture
def machine():
    return Machine(SimulationConfig(dram_pages=(64,), pm_pages=(256,)), "multiclock")


def pm_resident(machine, process, vpage, *, kind=ListKind.INACTIVE):
    node = machine.system.nodes[1]
    page = node.allocate_page(is_anon=True)
    pte = process.page_table.map(vpage, page)
    node.lruvec.list_of(page, kind).add_head(page)
    if kind is ListKind.ACTIVE:
        page.set(PageFlags.ACTIVE)
    return page, pte


def pm_kpromoted(machine):
    return next(k for k in machine.policy._kpromoted if k.node.is_pm)


def test_unaccessed_pm_page_never_promoted(machine):
    process = machine.create_process()
    process.mmap_anon(0, 8)
    page, __ = pm_resident(machine, process, 0)
    for __round in range(5):
        pm_kpromoted(machine).run(0)
    assert machine.system.tier_of(page) is MemoryTier.PM
    assert machine.stats.get("migrate.promotions") == 0


def test_single_access_per_scan_is_not_enough(machine):
    """One reference per scan round climbs the ladder slowly and never
    reaches the promote list with fewer than three scans — the frequency
    filter that separates MULTI-CLOCK from Nimble."""
    process = machine.create_process()
    process.mmap_anon(0, 8)
    page, pte = pm_resident(machine, process, 0)
    kp = pm_kpromoted(machine)
    pte.accessed = True
    kp.run(0)  # inactive unref -> inactive ref
    assert page.lru.kind is ListKind.INACTIVE
    pte.accessed = True
    kp.run(0)  # inactive ref -> active
    assert page.lru.kind is ListKind.ACTIVE
    assert machine.system.tier_of(page) is MemoryTier.PM


def test_persistent_access_promotes_within_four_scans(machine):
    process = machine.create_process()
    process.mmap_anon(0, 8)
    page, pte = pm_resident(machine, process, 0)
    kp = pm_kpromoted(machine)
    rounds = 0
    while machine.system.tier_of(page) is MemoryTier.PM and rounds < 6:
        pte.accessed = True
        kp.run(0)
        rounds += 1
    assert machine.system.tier_of(page) is MemoryTier.DRAM
    assert rounds <= 4


def test_promoted_page_lands_on_dram_active_list(machine):
    process = machine.create_process()
    process.mmap_anon(0, 8)
    page, pte = pm_resident(machine, process, 0, kind=ListKind.ACTIVE)
    page.set(PageFlags.REFERENCED)
    pte.accessed = True
    pm_kpromoted(machine).run(0)  # active ref + bit -> promote list, then drain
    assert machine.system.tier_of(page) is MemoryTier.DRAM
    assert page.lru.kind is ListKind.ACTIVE
    assert not page.test(PageFlags.PROMOTE)


def test_selected_pages_promoted_in_same_run(machine):
    """Section III-B: "once a page is selected for promotion, the page
    gets promoted to the DRAM in the same kpromoted run"."""
    process = machine.create_process()
    process.mmap_anon(0, 8)
    page, pte = pm_resident(machine, process, 0, kind=ListKind.ACTIVE)
    page.set(PageFlags.REFERENCED)
    pte.accessed = True
    promotions_before = machine.stats.get("migrate.promotions")
    pm_kpromoted(machine).run(0)
    assert machine.stats.get("migrate.promotions") == promotions_before + 1


def test_promotions_counted_in_stats(machine):
    """A successful drain shows up in kpromoted.promoted, not a no-op."""
    process = machine.create_process()
    process.mmap_anon(0, 8)
    page, pte = pm_resident(machine, process, 0, kind=ListKind.ACTIVE)
    page.set(PageFlags.REFERENCED)
    pte.accessed = True
    pm_kpromoted(machine).run(0)
    assert machine.system.tier_of(page) is MemoryTier.DRAM
    assert machine.stats.get("kpromoted.promoted") == 1
    # The engine-side counter agrees with the daemon-side one.
    assert machine.stats.get("migrate.promotions") == 1


def test_failed_promotion_not_counted(machine):
    """A locked page recycles to active and is not counted as promoted."""
    process = machine.create_process()
    process.mmap_anon(0, 8)
    page, pte = pm_resident(machine, process, 0, kind=ListKind.ACTIVE)
    page.set(PageFlags.REFERENCED)
    page.set(PageFlags.LOCKED)
    pte.accessed = True
    pm_kpromoted(machine).run(0)
    assert machine.system.tier_of(page) is MemoryTier.PM
    assert machine.stats.get("kpromoted.promoted") == 0


def test_scan_budget_limits_work(machine):
    cfg = SimulationConfig(
        dram_pages=(64,),
        pm_pages=(256,),
        daemons=DaemonConfig(scan_budget_pages=4),
    )
    machine = Machine(cfg, "multiclock")
    process = machine.create_process()
    process.mmap_anon(0, 64)
    for vpage in range(32):
        pm_resident(machine, process, vpage)
    pm_kpromoted(machine).run(0)
    # Budget of 4 per list x (inactive+active+promote) x (anon+file) max.
    assert machine.stats.get("kpromoted.pages_scanned") <= 4 * 6


def test_dram_promote_list_recycles_to_active(machine):
    dram = machine.system.nodes[0]
    process = machine.create_process()
    process.mmap_anon(0, 8)
    machine.system.touch(process, 0)
    page = process.page_table.lookup(0).page
    page.lru.remove(page)
    page.set(PageFlags.ACTIVE)
    dram.lruvec.list_of(page, ListKind.ACTIVE).add_head(page)
    move_to_promote(dram, page)
    dram_kp = next(k for k in machine.policy._kpromoted if not k.node.is_pm)
    dram_kp.run(0)
    assert page.lru.kind is ListKind.ACTIVE
    assert machine.system.tier_of(page) is MemoryTier.DRAM


def test_run_returns_system_work(machine):
    process = machine.create_process()
    process.mmap_anon(0, 16)
    for vpage in range(8):
        pm_resident(machine, process, vpage)
    work = pm_kpromoted(machine).run(0)
    assert work > 0


def test_promotion_into_full_dram_demand_demotes(machine):
    """Section III-C: promotions into a pressured DRAM tier trigger
    immediate demotions."""
    process = machine.create_process()
    process.mmap_anon(0, 512)
    # Fill DRAM completely via direct node allocation.
    dram = machine.system.nodes[0]
    filler = machine.create_process()
    filler.mmap_anon(0, 128)
    vpage = 0
    while dram.can_allocate():
        page = dram.allocate_page(is_anon=True)
        filler.page_table.map(vpage, page)
        dram.lruvec.list_of(page, ListKind.INACTIVE).add_head(page)
        vpage += 1
    page, pte = pm_resident(machine, process, 0, kind=ListKind.ACTIVE)
    page.set(PageFlags.REFERENCED)
    pte.accessed = True
    pm_kpromoted(machine).run(0)
    assert machine.system.tier_of(page) is MemoryTier.DRAM
    assert machine.stats.get("migrate.demotions") >= 1


def test_failed_drain_counts_deactivation(machine):
    """A promote-list page that cannot migrate is recycled to the active
    list and shows up in kpromoted.deactivated."""
    process = machine.create_process()
    process.mmap_anon(0, 8)
    page, pte = pm_resident(machine, process, 0, kind=ListKind.ACTIVE)
    page.set(PageFlags.REFERENCED)
    page.set(PageFlags.LOCKED)
    pte.accessed = True
    pm_kpromoted(machine).run(0)
    assert machine.system.tier_of(page) is MemoryTier.PM
    assert machine.stats.get("kpromoted.deactivated") >= 1
    assert machine.stats.get("kpromoted.promoted") == 0


def test_drain_consumes_both_reference_signals(machine):
    """The stale-REFERENCED fix: draining a promote-list page with a set
    hardware accessed bit must also clear REFERENCED, so the page lands
    upstairs without a free second reference already banked."""
    process = machine.create_process()
    process.mmap_anon(0, 8)
    page, pte = pm_resident(machine, process, 0, kind=ListKind.ACTIVE)
    node = machine.system.nodes[1]
    move_to_promote(node, page)  # sets REFERENCED by design (edge 10)
    assert page.test(PageFlags.REFERENCED)
    pte.accessed = True  # the hardware bit the old short-circuit hid behind
    pm_kpromoted(machine).run(0)
    assert machine.system.tier_of(page) is MemoryTier.DRAM
    assert not page.test(PageFlags.REFERENCED), (
        "drain left a stale second reference on the promoted page"
    )


def test_drain_promotes_on_referenced_flag_alone(machine):
    """Clearing both signals must not break the flag-only path: a page
    whose second reference came from REFERENCED (no fresh hardware bit)
    still climbs."""
    process = machine.create_process()
    process.mmap_anon(0, 8)
    page, __ = pm_resident(machine, process, 0, kind=ListKind.ACTIVE)
    node = machine.system.nodes[1]
    move_to_promote(node, page)
    pm_kpromoted(machine).run(0)
    assert machine.system.tier_of(page) is MemoryTier.DRAM
    assert not page.test(PageFlags.REFERENCED)


# -- column sweep == page-at-a-time CLOCK loop (differential oracle) ---------

LADDER = ((ListKind.INACTIVE, ListKind.ACTIVE), (ListKind.ACTIVE, ListKind.PROMOTE))


def _warmed(policy):
    """A machine with populated, perturbed ladder lists on every node."""
    machine = Machine(SimulationConfig(dram_pages=(128,), pm_pages=(512,)), policy)
    process = machine.create_process()
    process.mmap_anon(0, 500)
    for vpage in range(500):
        machine.system.touch(process, vpage, is_write=vpage % 2 == 0)
    machine.clock.advance_app(int(5e8))
    machine.drain_daemons()
    for node in machine.system.nodes.values():
        inactive = node.lruvec.list_for(ListKind.INACTIVE, True)
        active = node.lruvec.list_for(ListKind.ACTIVE, True)
        for page in list(inactive)[::2]:
            inactive.remove(page)
            page.set(PageFlags.ACTIVE)
            active.add_head(page)
    # Deterministic perturbation: mixed accessed, dirty and REFERENCED
    # bits so every sweep hits all three outcomes.
    store = machine.system.pagestore
    ref = int(PageFlags.REFERENCED)
    store.pte_accessed[:] = False
    store.pte_accessed[::3] = True
    store.pte_dirty[::4] = True
    store.flags[::5] |= ref
    store.flags[2::7] &= ~ref
    return machine


def _lone_head(policy):
    """A PM inactive list where every page but the original head moves up."""
    machine = Machine(SimulationConfig(dram_pages=(64,), pm_pages=(256,)), policy)
    process = machine.create_process()
    process.mmap_anon(0, 12)
    pages = [pm_resident(machine, process, vpage)[0] for vpage in range(12)]
    store = machine.system.pagestore
    for page in pages[:-1]:  # the last one added is the head
        page.set(PageFlags.REFERENCED)
        store.pte_accessed[page.pfn] = True
    store.pte_dirty[pages[-1].pfn] = True
    return machine


def _digest(machine):
    store = machine.system.pagestore
    state = []
    for node in machine.system.nodes.values():
        for lst in node.lruvec.all_lists():
            order = [page.pfn for page in lst]
            state.append((
                lst.name,
                order,
                [int(store.flags[pfn]) for pfn in order],
                [bool(store.pte_accessed[pfn]) for pfn in order],
                [bool(store.pte_dirty[pfn]) for pfn in order],
                [store.pages[pfn].policy_data for pfn in order],
            ))
    return state


def _events(machine):
    return [
        (event.name, event.node_id, event.pfn, event.fields)
        for event in iter_events(machine.system.trace)
    ]


def _reference_sweep(policy, node, src_kind, dst_kind, is_anon, budget):
    """CLOCK one page at a time: each step takes the list's current tail."""
    src = node.lruvec.list_for(src_kind, is_anon)
    dst = node.lruvec.list_for(dst_kind, is_anon)
    trace = policy.system.trace
    result = ScanResult()
    while result.scanned < budget and len(src):
        page = src.tail
        result.scanned += 1
        policy.observe_scan(np.array([page.pfn]))
        if not page.harvest_accessed():
            src.rotate_to_head(page)
        elif not page.test(PageFlags.REFERENCED):
            page.set(PageFlags.REFERENCED)
            src.rotate_to_head(page)
            result.referenced += 1
        elif dst_kind is ListKind.PROMOTE:
            move_to_promote(node, page)
            result.to_promote_list += 1
            trace.trace_mm_promote_list_add(node.node_id, page.pfn, "kpromoted")
        else:
            src.remove(page)
            page.clear(PageFlags.REFERENCED)
            page.set(PageFlags.ACTIVE)
            dst.add_head(page)
            result.activated += 1
            trace.trace_mm_lru_activate(node.node_id, page.pfn, "kpromoted")
    result.system_ns = policy.system.hardware.scan_ns(result.scanned)
    return result


@pytest.mark.parametrize("budget", [7, 64, 300, 5000])
@pytest.mark.parametrize("policy", ["multiclock", "multiclock-rw"])
@pytest.mark.parametrize("build", [_warmed, _lone_head])
def test_sweep_bit_identical_to_page_at_a_time_clock(build, policy, budget):
    vec = build(policy)
    ref = build(policy)
    assert _digest(vec) == _digest(ref)  # identical starting states
    vec.enable_tracing()
    ref.enable_tracing()

    for kp in vec.policy._kpromoted:
        node_r = ref.system.nodes[kp.node.node_id]
        for is_anon in (True, False):
            for src_kind, dst_kind in LADDER:
                got = kp._sweep(src_kind, dst_kind, is_anon, budget)
                want = _reference_sweep(
                    ref.policy, node_r, src_kind, dst_kind, is_anon, budget
                )
                assert got == want, (kp.name, src_kind, is_anon)
    assert _digest(vec) == _digest(ref)
    assert _events(vec) == _events(ref)
