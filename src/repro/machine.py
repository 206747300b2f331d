"""The assembled simulated machine: substrate + policy + daemons.

:class:`Machine` is the top-level object users construct: it builds the
memory system from a :class:`~repro.sim.config.SimulationConfig`, attaches
a tiering policy by registry name, registers the policy's daemons on the
virtual-clock scheduler, and exposes the access path workloads drive.

One access driver serves every stream.  :meth:`Machine.touch` is the
simple per-reference call and the scalar oracle.  The driver takes
numeric column batches: :meth:`Machine.touch_batch_array` is its
single-process entry, :meth:`Machine.touch_batch` its multi-process
entry over ``(process, batch)`` segments (multi-tenant interleaves,
trace replay).  When a batch hits the common case (resident pages, no
poisons, unsupervised regions, default policy callbacks) whole access
vectors are resolved and charged with a handful of numpy gathers
against the struct-of-arrays page store, dropping to one inlined scalar
step only for short runs, faults and policy overrides.  Its
CPU-cache filter stage decides which of a stream's absorbable candidate
touches reach memory at all (:class:`~repro.mm.hardware.CpuCache`).
``tests/perf/test_touch_batch_equivalence.py`` and
``tests/workloads/test_gapbs_fastpath.py`` hold the driver bit-identical
to :meth:`Machine.touch` one access at a time.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable

import numpy as np

from repro.mm.address_space import Process
from repro.mm.flags import PageFlags
from repro.mm.hardware import ABSORB_HEAD, ABSORB_TAIL, CpuCache, MemoryTier
from repro.mm.system import MemorySystem
from repro.policies.base import TieringPolicy, create_policy
from repro.sim.config import SimulationConfig
from repro.sim.events import DaemonScheduler

__all__ = ["Machine"]

# Runs shorter than this skip numpy: its fixed per-call cost over a
# handful of accesses loses to a scalar loop.
_SHORT_RUN = 32
# The most rows one scalar step converts to Python lists at a time.
_SCALAR_STEP = 1024


def _in_unsupervised_regions(process: Process, vpages: np.ndarray) -> bool:
    """Whether every vpage lies in one of ``process``'s unsupervised regions."""
    regions = process.regions
    starts = np.array([r.start_vpage for r in regions], dtype=np.int64)
    idx = np.searchsorted(starts, vpages, side="right") - 1
    if not len(regions) or idx.min() < 0:
        return False
    ends = np.array([r.end_vpage for r in regions], dtype=np.int64)
    supervised = np.array([r.supervised for r in regions], dtype=bool)
    return bool((vpages < ends[idx]).all()) and not supervised[idx].any()


class Machine:
    """One simulated hybrid-memory host running one tiering policy."""

    def __init__(self, config: SimulationConfig, policy: str = "multiclock") -> None:
        self.system = MemorySystem(config)
        self.policy: TieringPolicy = create_policy(policy, self.system)
        self.scheduler = DaemonScheduler(
            self.system.clock, wakeup_cost_ns=config.latency.daemon_wakeup_ns
        )
        for daemon in self.policy.daemons():
            self.scheduler.register(daemon)

    @property
    def config(self) -> SimulationConfig:
        return self.system.config

    @property
    def clock(self):
        return self.system.clock

    @property
    def stats(self):
        return self.system.stats

    def create_process(self, name: str = "", home_socket: int = 0) -> Process:
        return self.system.create_process(name, home_socket)

    def install_faults(self, plan) -> "object":
        """Arm a :class:`~repro.faults.plan.FaultPlan` on this machine.

        Returns the live :class:`~repro.faults.injector.FaultInjector`.
        Must be called before driving accesses; a machine accepts at most
        one plan for its lifetime.
        """
        from repro.faults.injector import install_faults

        return install_faults(self, plan)

    def enable_tracing(self, *, capacity_per_node: int | None = None) -> "object":
        """Install a :class:`~repro.trace.tracer.Tracer` on this machine.

        Idempotent-hostile on purpose (one tracer per machine, like one
        perf session per buffer): enabling twice raises.  The tracer's
        counter baseline is snapshotted here so the auditor compares
        deltas even when tracing starts mid-run.  Returns the tracer.
        """
        from repro.trace.tracer import DEFAULT_RING_CAPACITY, Tracer

        system = self.system
        if system.trace is not None:
            raise RuntimeError("tracing is already enabled on this machine")
        # `is None`, not `or`: an explicit 0 must reach the Tracer's own
        # validation instead of silently meaning "default capacity".
        tracer = Tracer(
            system.clock,
            capacity_per_node=(
                DEFAULT_RING_CAPACITY if capacity_per_node is None else capacity_per_node
            ),
        )
        tracer.baseline = system.stats.snapshot()
        tracer.baseline["backing.swap_outs"] = system.backing.swap_outs
        tracer.baseline["backing.swap_ins"] = system.backing.swap_ins
        system.trace = tracer
        system.allocator.trace = tracer
        system.backing.trace = tracer
        system.migrator.trace = tracer
        return tracer

    def enable_metrics(
        self,
        *,
        sample_interval_s: float | None = None,
        window_seconds: float | None = None,
    ) -> "object":
        """Install a :class:`~repro.metrics.registry.MetricsRegistry`.

        Arms the per-node gauge sampler (a ``cost_free`` daemon — it
        observes, so it charges nothing to the virtual clock) and wires
        the histogram sinks onto the system, the migration engine and the
        backing store.  One registry per machine; enabling twice raises.
        Defaults: sampling at the kswapd cadence, windows at the paper's
        ``stats_window_s``.  Returns the registry.
        """
        from repro.metrics.registry import MetricsRegistry
        from repro.metrics.sampler import VmstatSampler
        from repro.sim.events import Daemon

        system = self.system
        if system.metrics is not None:
            raise RuntimeError("metrics are already enabled on this machine")
        config = system.config
        interval = (
            config.daemons.kswapd_interval_s
            if sample_interval_s is None
            else sample_interval_s
        )
        registry = MetricsRegistry(
            system,
            window_seconds=(
                config.stats_window_s if window_seconds is None else window_seconds
            ),
            sample_interval_s=interval,
        )
        sampler = VmstatSampler(system, registry)
        self.scheduler.register(
            Daemon(sampler.name, interval, sampler.run, cost_free=True)
        )
        system.metrics = registry
        system.migrator.metrics = registry
        system.backing.metrics = registry
        return registry

    def enable_memcg(self) -> "object":
        """Install a :class:`~repro.mm.memcg.MemcgController`.

        Arms per-tenant accounting: pages are charged to their faulting
        process's group, limits drive targeted + proportional reclaim,
        and the OOM killer selects a victim group instead of aborting
        the machine.  Armed but with no limits set, runs stay
        bit-identical to unarmed runs (the controller only maintains its
        own books).  One controller per machine; enabling twice raises.
        Returns the controller.
        """
        from repro.mm.memcg import MemcgController

        system = self.system
        if system.memcg is not None:
            raise RuntimeError("memcg accounting is already enabled on this machine")
        controller = MemcgController(system)
        system.memcg = controller
        system.migrator.memcg = controller
        return controller

    def install_invariant_checker(
        self, interval_s: float = 0.005, *, strict: bool = False
    ) -> "object":
        """Register a periodic ``CONFIG_DEBUG_VM`` sweep on the scheduler.

        Returns the :class:`~repro.mm.debug.InvariantChecker` so callers
        can also sweep on demand and read ``last_violations``.
        """
        from repro.mm.debug import InvariantChecker
        from repro.sim.events import Daemon

        checker = InvariantChecker(self.system, strict=strict)
        self.scheduler.register(Daemon(checker.name, interval_s, checker.run))
        return checker

    def touch(
        self, process: Process, vpage: int, *, is_write: bool = False, lines: int = 1
    ) -> int:
        """One memory reference plus any daemon work that came due."""
        charged = self.system.touch(process, vpage, is_write=is_write, lines=lines)
        self.scheduler.run_due()
        return charged

    def touch_batch(self, segments: "Iterable[tuple[Process, tuple]]") -> tuple[int, int]:
        """Drive a multi-process stream of ``(process, batch)`` segments.

        The multi-process entry of the one access driver: each segment is
        one process's burst, its ``batch`` in either shape
        :meth:`touch_batch_array` takes (a ``(vpages, writes)`` pair is one
        line wide), and no CPU-cache filter applies.  The page table, home
        socket and region cache are re-hoisted once per segment whose
        process differs from the previous one.  Returns ``(accesses,
        operations)``, equivalent to :meth:`touch` over
        :func:`~repro.workloads.base.segment_accesses` of the same segments.
        """
        return self._drive(segments, 1, None)

    def touch_batch_array(
        self,
        process: Process,
        batches: "Iterable[tuple]",
        *,
        lines: int = 1,
        cache: CpuCache | None = None,
    ) -> tuple[int, int]:
        """Drive a single-process numeric access stream: the single-process
        entry of the one access driver.

        ``batches`` yields either ``(vpages, writes)`` pairs -- every access
        ``lines`` cache lines wide and an operation boundary, the shape of
        every synthetic workload stream -- or ``(vpages, writes, lines,
        boundary, absorb)`` column batches of *candidate* touches, the shape
        of the GAPBS kernels' streams.  Returns ``(accesses, operations)``.
        Equivalent to :meth:`touch` over
        :func:`~repro.workloads.base.segment_accesses` of the same batches --
        faults, daemon wakeups, counters and clock advance identically --
        but without materialising any access objects.

        Column batches pass a CPU-cache filter stage first: an
        :data:`~repro.mm.hardware.ABSORB_HEAD` row whose page has a
        translation right now draws the next uniform from ``cache``, and
        below its hit rate the touch -- with its ``ABSORB_TAIL`` rows -- is
        absorbed: no access, no time, no counter.  A cold page never draws,
        and a run cut short by a fault or a daemon deadline consumes only
        the draws of its prefix.  Boundary rows must not be absorbable.

        When the common case holds -- every page of the batch resident in
        a dense page table with no poisoned PTEs, every page in an
        unsupervised region, and a policy keeping the default
        ``charge_access``/``on_access`` -- whole batches are processed as
        column sweeps: one ``v2p`` gather resolves the translations, the
        cache filter compares a block of draws against the hit rate, the
        accessed/dirty bits land with fancy-index stores, and the latency
        charge is a vectorized table gather with a ``cumsum`` locating
        the exact access on which a daemon deadline fires.  Short batches,
        short resident runs with the fault that ends them, and everything
        outside the common case take the scalar step --
        ``MemorySystem.touch``'s hot path inlined -- so the result stays
        bit-identical to :meth:`touch` one access at a time.
        """
        return self._drive(zip(repeat(process), batches), lines, cache)

    def _drive(
        self,
        segments: "Iterable[tuple[Process, tuple]]",
        lines: int,
        cache: CpuCache | None,
    ) -> tuple[int, int]:
        """The access driver both entries run: ``(process, batch)`` segments."""
        system = self.system
        scheduler = self.scheduler
        clock = system.clock
        stats = system.stats
        nodes = system.nodes
        policy = system.policy
        run_due = scheduler.run_due
        slow_touch = system.touch
        store = system.pagestore
        reaccess_horizon = system._reaccess_horizon_ns
        c_reaccessed = system._c_promoted_reaccessed
        record_reaccess = stats.series["promoted_reaccessed_window"].record
        metrics = system.metrics
        record_reaccess_delay = (
            metrics.reaccess_delay.record if metrics is not None else None
        )
        mark_accessed = policy.mark_page_accessed
        on_access = policy.on_access
        policy_cls = type(policy)
        inline_charge = policy_cls.charge_access is TieringPolicy.charge_access
        skip_on_access = policy_cls.on_access is TieringPolicy.on_access
        charge_access = policy.charge_access
        read_ns, write_ns = system.hardware.access_tables()
        remote_mult = system.config.latency.remote_socket_multiplier
        multi_socket = system.config.sockets > 1
        node_list = [nodes[nid] for nid in range(len(nodes))]
        node_read_ns = [read_ns[n.tier] for n in node_list]
        node_write_ns = [write_ns[n.tier] for n in node_list]
        faults_live = system.faults is not None
        node_is_dram = [n.tier is MemoryTier.DRAM for n in node_list]
        node_socket = [n.socket for n in node_list]
        # Vector-path tables: per-node latency/socket/tier as numpy rows.
        np_read = np.asarray(node_read_ns, dtype=np.int64)
        np_write = np.asarray(node_write_ns, dtype=np.int64)
        np_dram = np.asarray(node_is_dram, dtype=bool)
        np_socket = np.asarray(node_socket, dtype=np.int64)
        col_acc = store.pte_accessed
        col_dirty = store.pte_dirty
        col_flags = store.flags
        col_node = store.node
        col_await = store.awaiting_ns
        c_total = stats.counter("accesses.total")
        c_dram = stats.counter("accesses.dram")
        c_pm = stats.counter("accesses.pm")
        c_remote = stats.counter("accesses.remote")
        dirty_bit = int(PageFlags.DIRTY)
        n_accesses = n_operations = n_absorbed = 0
        now = clock._now_ns
        app_accum = 0
        acc_total = acc_dram = acc_pm = acc_remote = 0
        next_deadline = scheduler.next_deadline_ns
        # Per-process state, re-hoisted when a segment's process differs
        # from the previous one's.  Regions are never unmapped, so a
        # cached [start, end) region range stays valid while it lasts.
        cur_process = None
        vector_ok = inline_charge and skip_on_access
        # The cache filter stage.  `absorbed` is the fate of the latest
        # absorbable touch; its ABSORB_TAIL rows share it.
        if cache is not None:
            rate = cache.hit_rate
            cache_hit = cache.hit
        absorbed = False
        for process, batch in segments:
            if process is not cur_process:
                cur_process = process
                page_table = process.page_table
                pt_dict = page_table._entries
                home_socket = process.home_socket
                reg_start = reg_end = 0  # empty range: the next access misses
                reg_supervised = False
            if len(batch) == 2:
                vpages, writes = batch
                widths = codes = None
            else:
                vpages, writes, widths, boundary, codes = batch
            vp = np.asarray(vpages, dtype=np.int64)
            wr = np.asarray(writes, dtype=bool)
            n = len(vp)
            if n == 0:
                continue
            n_accesses += n
            if widths is None:
                n_operations += n
            else:
                widths = np.asarray(widths, dtype=np.int64)
                n_operations += int(np.count_nonzero(boundary))
                codes = np.asarray(codes)
                if cache is None or not codes.any():
                    codes = None
            pos = 0
            # A short batch (a multi-tenant burst, say) goes straight to
            # the scalar step.
            vectorable = vector_ok and n >= _SHORT_RUN
            if vectorable:
                bmin = int(vp.min())
                bmax = int(vp.max())
                if reg_start <= bmin and bmax < reg_end:
                    vectorable = not reg_supervised
                else:
                    try:
                        region = process.region_for(bmin)
                    except LookupError:
                        region = None
                    if region is not None and bmax < region.end_vpage:
                        reg_start = region.start_vpage
                        reg_end = region.end_vpage
                        reg_supervised = region.supervised
                        vectorable = not reg_supervised
                    else:
                        # Several regions, or a hole -- which the scalar
                        # step reports as SIGSEGV at the offending access.
                        vectorable = _in_unsupervised_regions(process, vp)
            # Translations are gathered once per batch and reused; the
            # cache is only dropped when the page table's unmap
            # generation moves (a new mapping can never turn a cached
            # hit stale, an unmap can).  Misses are pre-located; each
            # candidate miss is re-checked against the live table as the
            # scan reaches it and patched into a hit when an earlier
            # fault in the batch already mapped that vpage — O(1) per
            # entry, so a hot page faulting once neither fragments the
            # batch into scalar steps nor costs a quadratic
            # patch-the-remainder pass per fault.
            pfns_all = None
            miss_pos = None
            n_miss = mi = gen = 0
            while pos < n:
                # Scalar up to `end` unless a long resident run goes to
                # the vector sweep.
                end = n
                if vectorable and (page_table._poison_count or not page_table.dense):
                    vectorable = False
                if vectorable:
                    if pfns_all is not None and page_table._unmap_gen != gen:
                        pfns_all = None
                    if pfns_all is None:
                        if not page_table.ensure_dense_capacity(bmax + 1):
                            vectorable = False
                        else:
                            pfns_all = page_table.v2p[vp]
                            miss_pos = np.flatnonzero(pfns_all < 0)
                            n_miss = len(miss_pos)
                            mi = 0
                            gen = page_table._unmap_gen
                            run_after = None
                if vectorable:
                    # Skip consumed misses and patch stale ones: a miss
                    # recorded at gather time may have become resident via
                    # an earlier fault on the same vpage in this batch.
                    while mi < n_miss:
                        mp = int(miss_pos[mi])
                        if mp < pos or pfns_all[mp] >= 0:
                            mi += 1
                            continue
                        live = int(page_table.v2p[vp[mp]])
                        if live >= 0:
                            pfns_all[mp] = live
                            mi += 1
                            continue
                        break
                    nxt = int(miss_pos[mi]) if mi < n_miss else n
                    limit = nxt - pos
                    if limit < _SHORT_RUN:
                        # A short run goes to the scalar step below, with
                        # the faults after it up to the next long resident
                        # run: the first miss followed by one.
                        if run_after is None:
                            gaps = np.diff(miss_pos, append=n) - 1
                            run_after = miss_pos[gaps >= _SHORT_RUN]
                        ri = int(np.searchsorted(run_after, nxt))
                        end = int(run_after[ri]) + 1 if ri < len(run_after) else n
                        end = min(end, pos + _SCALAR_STEP)
                if vectorable and limit >= _SHORT_RUN:
                    # A resident run.  The cache filter first: every head in
                    # it is warm, so each draws one uniform, in order, from
                    # the current block -- the run stops short of the first
                    # head the block cannot serve.  Every absorbable row
                    # shares the fate of the latest head at or before it;
                    # fate[0] is the latest head's before this run.
                    drop = None
                    if codes is not None:
                        run_codes = codes[pos : pos + limit]
                        heads = np.flatnonzero(run_codes == ABSORB_HEAD)
                        fate = np.full(1, absorbed)
                        if len(heads):
                            draws = cache.window()
                            if len(heads) > len(draws):
                                limit = int(heads[len(draws)])
                                heads = heads[: len(draws)]
                                run_codes = run_codes[:limit]
                            fate = np.concatenate((fate, draws[: len(heads)] < rate))
                        drop = (run_codes != 0) & fate[np.cumsum(run_codes == ABSORB_HEAD)]
                    if drop is None or not drop.any():
                        kept = None
                        seg = pfns_all[pos : pos + limit]
                        w = wr[pos : pos + limit]
                        width = None if widths is None else widths[pos : pos + limit]
                    else:
                        kept = np.flatnonzero(~drop)
                        if len(kept) == 0:
                            cache.consume(len(heads))
                            absorbed = bool(fate[-1])
                            n_absorbed += limit
                            pos += limit
                            continue
                        seg = pfns_all[pos : pos + limit][kept]
                        w = wr[pos : pos + limit][kept]
                        width = widths[pos : pos + limit][kept]
                    k = len(seg)
                    nid_arr = col_node[seg]
                    base = np.where(w, np_write[nid_arr], np_read[nid_arr])
                    if width is not None:
                        base = base * width
                    elif lines != 1:
                        base = base * lines
                    rem = None
                    if multi_socket:
                        rem = np_socket[nid_arr] != home_socket
                        if rem.any():
                            # Same truncation as the scalar int(ns * mult).
                            base[rem] = (base[rem] * remote_mult).astype(np.int64)
                    cum = np.cumsum(base)
                    total = int(cum[-1])
                    crossed = next_deadline <= now + total
                    if crossed:
                        # First access whose end time reaches the deadline —
                        # it is charged before the daemons run, exactly as
                        # the scalar loop checks after each access.
                        j = int(np.searchsorted(cum, next_deadline - now, side="left"))
                        k = j + 1
                        limit = k if kept is None else int(kept[j]) + 1
                        seg = seg[:k]
                        w = w[:k]
                        nid_arr = nid_arr[:k]
                        cum = cum[:k]
                        if rem is not None:
                            rem = rem[:k]
                        total = int(cum[-1])
                    if drop is not None:
                        used = int(np.searchsorted(heads, limit))
                        cache.consume(used)
                        absorbed = bool(fate[used])
                        n_absorbed += limit - k
                    # Hardware bit updates: duplicates in `seg` are fine —
                    # both stores are idempotent.
                    col_acc[seg] = True
                    if w.any():
                        wseg = seg[w]
                        col_dirty[wseg] = True
                        col_flags[wseg] |= dirty_bit
                    acc_total += k
                    nd = int(np.count_nonzero(np_dram[nid_arr]))
                    acc_dram += nd
                    acc_pm += k - nd
                    if rem is not None:
                        acc_remote += int(np.count_nonzero(rem))
                    if system._awaiting_count:
                        # Promoted pages waiting for a re-access: rare, so the
                        # hits are replayed scalar, each against the virtual
                        # time of its own access (now + cum).  Re-reading the
                        # column per hit makes duplicate pfns consume the
                        # pending promotion exactly once, like the dict pop.
                        for i2 in np.flatnonzero(col_await[seg] >= 0).tolist():
                            hit_pfn = int(seg[i2])
                            promoted_at = int(col_await[hit_pfn])
                            if promoted_at < 0:
                                continue
                            col_await[hit_pfn] = -1
                            system._awaiting_count -= 1
                            now_i = now + int(cum[i2])
                            if record_reaccess_delay is not None:
                                record_reaccess_delay(now_i - promoted_at)
                            if now_i - promoted_at <= reaccess_horizon:
                                c_reaccessed.n += 1
                                record_reaccess(promoted_at)
                    now += total
                    app_accum += total
                    pos += limit
                    if crossed:
                        clock._now_ns = now
                        clock._app_ns += app_accum
                        c_total.n += acc_total
                        c_dram.n += acc_dram
                        c_pm.n += acc_pm
                        c_remote.n += acc_remote
                        app_accum = acc_total = acc_dram = acc_pm = acc_remote = 0
                        run_due()
                        now = clock._now_ns
                        next_deadline = scheduler.next_deadline_ns
                        if faults_live:
                            node_read_ns = [read_ns[n_.tier] for n_ in node_list]
                            node_write_ns = [write_ns[n_.tier] for n_ in node_list]
                            np_read = np.asarray(node_read_ns, dtype=np.int64)
                            np_write = np.asarray(node_write_ns, dtype=np.int64)
                        col_acc = store.pte_accessed
                        col_dirty = store.pte_dirty
                        col_flags = store.flags
                        col_node = store.node
                        col_await = store.awaiting_ns
                    continue
                # Scalar step: MemorySystem.touch's hot path inlined, behind
                # the cache filter's scalar rule.
                for vpage, is_write, width, code in zip(
                    vp[pos:end].tolist(),
                    wr[pos:end].tolist(),
                    repeat(lines) if widths is None else widths[pos:end].tolist(),
                    repeat(0) if codes is None else codes[pos:end].tolist(),
                ):
                    if code:
                        if code == ABSORB_HEAD:
                            absorbed = vpage in pt_dict and cache_hit()
                        if absorbed:
                            n_absorbed += 1
                            continue
                    try:
                        pte = pt_dict[vpage]
                    except KeyError:
                        pte = None
                    if pte is None or pte.poisoned:
                        clock._now_ns = now
                        clock._app_ns += app_accum
                        c_total.n += acc_total
                        c_dram.n += acc_dram
                        c_pm.n += acc_pm
                        c_remote.n += acc_remote
                        app_accum = acc_total = acc_dram = acc_pm = acc_remote = 0
                        slow_touch(process, vpage, is_write=is_write, lines=width)
                        now = clock._now_ns
                        if next_deadline <= now:
                            run_due()
                            now = clock._now_ns
                            next_deadline = scheduler.next_deadline_ns
                            if faults_live:
                                node_read_ns = [read_ns[n_.tier] for n_ in node_list]
                                node_write_ns = [write_ns[n_.tier] for n_ in node_list]
                                np_read = np.asarray(node_read_ns, dtype=np.int64)
                                np_write = np.asarray(node_write_ns, dtype=np.int64)
                        col_acc = store.pte_accessed
                        col_dirty = store.pte_dirty
                        col_flags = store.flags
                        col_node = store.node
                        col_await = store.awaiting_ns
                        continue
                    if not reg_start <= vpage < reg_end:
                        region = process.region_for(vpage)
                        reg_start = region.start_vpage
                        reg_end = region.end_vpage
                        reg_supervised = region.supervised
                    page = pte.page
                    pfn = page.pfn
                    col_acc[pfn] = True
                    if is_write:
                        col_dirty[pfn] = True
                        col_flags[pfn] |= dirty_bit
                    nid = col_node[pfn]
                    if inline_charge:
                        access_ns = width * (
                            node_write_ns[nid] if is_write else node_read_ns[nid]
                        )
                    else:
                        clock._now_ns = now
                        clock._app_ns += app_accum
                        app_accum = 0
                        access_ns = charge_access(page, is_write, width)
                        now = clock._now_ns
                    if multi_socket and node_socket[nid] != home_socket:
                        access_ns = int(access_ns * remote_mult)
                        acc_remote += 1
                    now += access_ns
                    app_accum += access_ns
                    acc_total += 1
                    if node_is_dram[nid]:
                        acc_dram += 1
                    else:
                        acc_pm += 1
                    if reg_supervised:
                        mark_accessed(page)
                    if system._awaiting_count:
                        promoted_at = col_await[pfn]
                        if promoted_at >= 0:
                            col_await[pfn] = -1
                            system._awaiting_count -= 1
                            promoted_at = int(promoted_at)
                            if record_reaccess_delay is not None:
                                record_reaccess_delay(now - promoted_at)
                            if now - promoted_at <= reaccess_horizon:
                                c_reaccessed.n += 1
                                record_reaccess(promoted_at)
                    if not skip_on_access:
                        clock._now_ns = now
                        clock._app_ns += app_accum
                        c_total.n += acc_total
                        c_dram.n += acc_dram
                        c_pm.n += acc_pm
                        c_remote.n += acc_remote
                        app_accum = acc_total = acc_dram = acc_pm = acc_remote = 0
                        on_access(pte, is_write)
                        now = clock._now_ns
                    if next_deadline <= now:
                        clock._now_ns = now
                        clock._app_ns += app_accum
                        c_total.n += acc_total
                        c_dram.n += acc_dram
                        c_pm.n += acc_pm
                        c_remote.n += acc_remote
                        app_accum = acc_total = acc_dram = acc_pm = acc_remote = 0
                        run_due()
                        now = clock._now_ns
                        next_deadline = scheduler.next_deadline_ns
                        if faults_live:
                            node_read_ns = [read_ns[n_.tier] for n_ in node_list]
                            node_write_ns = [write_ns[n_.tier] for n_ in node_list]
                            np_read = np.asarray(node_read_ns, dtype=np.int64)
                            np_write = np.asarray(node_write_ns, dtype=np.int64)
                        col_acc = store.pte_accessed
                        col_dirty = store.pte_dirty
                        col_flags = store.flags
                        col_node = store.node
                        col_await = store.awaiting_ns
                pos = end
        clock._now_ns = now
        clock._app_ns += app_accum
        c_total.n += acc_total
        c_dram.n += acc_dram
        c_pm.n += acc_pm
        c_remote.n += acc_remote
        return n_accesses - n_absorbed, n_operations

    def drain_daemons(self) -> int:
        """Explicitly fire any overdue daemons (useful between phases)."""
        return self.scheduler.run_due()

    def memory_report(self) -> dict[str, dict[str, int]]:
        """Per-node usage and list occupancy snapshot."""
        report: dict[str, dict[str, int]] = {}
        for node in self.system.nodes.values():
            entry = {
                "capacity": node.capacity_pages,
                "used": node.used_pages,
                "free": node.free_pages,
            }
            entry.update(node.lruvec.counts())
            report[f"node{node.node_id}/{node.tier.name}"] = entry
        return report
