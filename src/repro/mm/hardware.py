"""Hardware model: memory tiers and their access costs.

Tiers are ordered exactly as in the paper's Section II — from *higher*
(high performance, low capacity: DRAM) to *lower* (low performance, high
capacity: persistent memory).  The model charges per-access latencies
from :class:`~repro.sim.config.LatencyConfig`; Optane's read/write
asymmetry (reads slower than writes at the DIMM interface, because writes
land in the controller buffer) is preserved because the paper's
Discussion section calls it out as relevant to placement decisions.
The CPU cache hierarchy in front of both tiers is a statistical filter
(:class:`CpuCache`), not a simulated cache.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.sim.config import LatencyConfig

__all__ = ["MemoryTier", "HardwareModel", "CpuCache", "ABSORB_HEAD", "ABSORB_TAIL"]

#: ``absorb`` column codes of a numeric access batch
#: (:meth:`~repro.machine.Machine.touch_batch_array`): the first page of
#: an absorbable touch, and a further page of that touch, which shares
#: its fate.  Zero marks a touch that always reaches memory.
ABSORB_HEAD = 1
ABSORB_TAIL = 2


class MemoryTier(enum.IntEnum):
    """Memory tiers ordered from highest- to lowest-performing.

    Lower numeric value = higher tier, so comparisons read naturally:
    ``page.tier > MemoryTier.DRAM`` means "below DRAM".
    """

    DRAM = 0
    PM = 1

    @property
    def is_top(self) -> bool:
        return self is MemoryTier.DRAM

    @property
    def is_bottom(self) -> bool:
        return self is MemoryTier.PM

    def next_lower(self) -> "MemoryTier | None":
        """The tier pages demote to, or None at the bottom."""
        return MemoryTier.PM if self is MemoryTier.DRAM else None

    def next_higher(self) -> "MemoryTier | None":
        """The tier pages promote to, or None at the top."""
        return MemoryTier.DRAM if self is MemoryTier.PM else None


class HardwareModel:
    """Latency oracle for the simulated machine."""

    def __init__(self, latency: LatencyConfig) -> None:
        self._latency = latency.validated()
        self._read_ns = {
            MemoryTier.DRAM: latency.dram_read_ns,
            MemoryTier.PM: latency.pm_read_ns,
        }
        self._write_ns = {
            MemoryTier.DRAM: latency.dram_write_ns,
            MemoryTier.PM: latency.pm_write_ns,
        }
        # Nominal values, kept so degradation windows can be applied and
        # lifted losslessly (scales never compound).
        self._base_read_ns = dict(self._read_ns)
        self._base_write_ns = dict(self._write_ns)

    @property
    def latency(self) -> LatencyConfig:
        return self._latency

    def access_ns(self, tier: MemoryTier, is_write: bool) -> int:
        """Latency of one application access to a page in ``tier``."""
        table = self._write_ns if is_write else self._read_ns
        return table[tier]

    def access_tables(self) -> tuple[dict[MemoryTier, int], dict[MemoryTier, int]]:
        """The (read, write) per-tier latency tables.

        Hot loops index these directly instead of calling
        :meth:`access_ns` per access; the tables are fixed at
        construction, so handing them out is safe.
        """
        return self._read_ns, self._write_ns

    def set_tier_scale(self, tier: MemoryTier, multiplier: float) -> None:
        """Scale one tier's access latency (fault-injection degradation).

        Mutates the live latency tables in place — the same dict objects
        :meth:`access_tables` hands out — so callers holding the tables
        observe the change; 1.0 restores nominal latency.  Models a PM
        DIMM falling into a thermally-throttled / media-error-retry mode.
        """
        if multiplier <= 0:
            raise ValueError(f"latency multiplier must be positive, got {multiplier}")
        self._read_ns[tier] = max(1, int(self._base_read_ns[tier] * multiplier))
        self._write_ns[tier] = max(1, int(self._base_write_ns[tier] * multiplier))

    def migrate_ns(self, pages: int = 1) -> int:
        """System cost of migrating ``pages`` pages between tiers."""
        return self._latency.page_copy_ns * pages

    def scan_ns(self, pages: int) -> int:
        """System cost of a CLOCK scan step over ``pages`` pages."""
        return self._latency.scan_page_ns * pages

    def hint_fault_ns(self) -> int:
        """Cost of one software hint page fault (AutoTiering/AutoNUMA)."""
        return self._latency.hint_fault_ns


class CpuCache:
    """The CPU cache hierarchy as a statistical filter on absorbable touches.

    Not simulated line by line: a touch a workload marks absorbable (a
    small, hot, provably cache-resident structure) is served by the cache
    with probability ``hit_rate`` -- but only when its first page has a
    translation right now (poisoned PTEs included); a cold page always
    reaches memory and draws nothing.  An absorbed touch is no access at
    all: it charges no time and is counted nowhere.

    Uniforms are fetched from ``rng`` in blocks of :attr:`BLOCK` and
    consumed strictly in order, one per decision; a block's leftover
    draws carry over to later batches, trials and phases.  ``rng.random(n)``
    yields the same values as ``n`` scalar draws, so the decision sequence
    is independent of how the draws are batched.
    """

    BLOCK = 8192

    def __init__(self, rng: np.random.Generator, hit_rate: float) -> None:
        if not 0.0 <= hit_rate < 1.0:
            raise ValueError("hit_rate must lie in [0, 1)")
        self.rng = rng
        self.hit_rate = hit_rate
        self._block = np.empty(0)
        self._draws: list[float] = []  # the block as floats, for hit()
        self._pos = 0

    def window(self) -> np.ndarray:
        """The unread draws of the current block (a fresh block once spent)."""
        if self._pos == len(self._block):
            self._block = self.rng.random(self.BLOCK)
            self._draws = self._block.tolist()
            self._pos = 0
        return self._block[self._pos :]

    def consume(self, k: int) -> None:
        """Mark the first ``k`` draws of :meth:`window` as used."""
        self._pos += k

    def hit(self) -> bool:
        """Draw the next uniform: does the cache serve a warm touch?"""
        pos = self._pos
        if pos == len(self._draws):
            self.window()
            pos = 0
        self._pos = pos + 1
        return self._draws[pos] < self.hit_rate

    def absorbs(self, page_table, vpage: int) -> bool:
        """The scalar rule: is a touch whose first page is ``vpage`` absorbed?"""
        return vpage in page_table and self.hit()

    def state(self) -> tuple[dict, list[float]]:
        """Generator state plus the unread draws -- equal iff two caches
        will make the same decisions from here on."""
        return self.rng.bit_generator.state, self._block[self._pos :].tolist()
