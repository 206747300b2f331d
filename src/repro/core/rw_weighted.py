"""Section VII extension: dirtiness-weighted page placement.

"One possible improvement ... is to also include the dirtiness
information for memory pages in a weighted formula to compute the
importance of a page. ... This additional information becomes
particularly relevant when the underlying memory hardware exhibits
non-uniform latency for the different types of accesses.  For instance,
some PM devices, e.g., Intel Optane PM, are known to have asymmetric
read and write latencies."

Under Optane's effective costs (sustained write bandwidth ~3x below read
bandwidth), write-dominated pages suffer the *most* in PM, so when DRAM
space is contended they are the pages a weighted formula should spend
migrations on.  This variant promotes any selected page while DRAM has
free frames, but once a promotion would require demand-demoting a DRAM
page it only pays that double-migration cost for dirty (recently
written) pages.  The dirty bit is consumed at each decision so a page's
classification tracks its recent behaviour, not its whole history.
"""

from __future__ import annotations

import numpy as np

from repro.core.multiclock import MultiClockPolicy
from repro.mm.page import Page
from repro.policies import movement
from repro.policies.base import PolicyFeatures, register_policy

__all__ = ["RWWeightedMultiClockPolicy"]


@register_policy("multiclock-rw")
class RWWeightedMultiClockPolicy(MultiClockPolicy):
    """MULTI-CLOCK that skips promoting write-dominated pages."""

    features = PolicyFeatures(
        tiering="MULTI-CLOCK (RW-weighted, §VII extension)",
        page_access_tracking="Reference Bit + Dirty Bit",
        selection_promotion="Recency + Frequency + Read-dominance",
        selection_demotion="Recency",
        numa_aware="Yes",
        space_overhead="No",
        generality="All",
        evaluation="PM",
        usability_limitation="None",
        key_insight="Spend DRAM on read-heavy pages under asymmetric PM latency",
    )

    def observe_scan(self, pfns: np.ndarray) -> None:
        """Refresh each visited page's written-this-window observation.

        Every kpromoted sweep harvests the PTE dirty bits of the pages it
        visits, in visit order, so by the time a page reaches a promotion
        decision (three-plus scans into the ladder) its recorded
        dirtiness reflects the latest inter-scan window — not stale
        history like the load phase's initial write.  A lap revisit
        finds the bits already harvested and records ``False``.
        """
        pages = self.system.pagestore.pages
        for pfn in pfns.tolist():
            page = pages[pfn]
            page.policy_data = page.harvest_dirty()

    def promote_page(self, page: Page) -> bool:
        """Edge 13, weighted by dirtiness when DRAM is contended.

        While DRAM has free headroom every selected page promotes,
        exactly as in the baseline.  Once promotion would displace a DRAM
        page (free frames at or below the high watermark — the steady
        state of a full machine), only write-heavy pages — the ones
        paying PM's worst effective latency — justify the double
        migration; clean pages are recycled to the active list and keep
        competing locally.
        """
        dest = movement.promotion_destination(self.system, page)
        contended = dest is None or dest.free_pages <= dest.watermarks.high_pages
        written_recently = bool(page.policy_data) or page.harvest_dirty()
        if contended and not written_recently:
            self.system.stats.inc("multiclock_rw.clean_skips_under_pressure")
            return False
        return super().promote_page(page)
