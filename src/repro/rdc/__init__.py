"""Remote data caches: the network cache, plus the page cache.

The storage classes here are deliberately *mechanical*: they hold remote
blocks and pages and answer inspection queries.  Every policy that needs
cluster context (allocation, replacement, forcing L1 copies out for
inclusion, absorbing dirty victims into the page cache, relocation
decisions) runs in :mod:`repro.sim.simulator`.

Structures
----------
`NetworkCache`
    one node's NC for every organisation of the paper, selected by
    :class:`~repro.params.NCKind`: none (`base`), the victim cache of
    Sec. 3 (`vb`, `vp`), the dirty-inclusion SRAM NC (`nc`), the
    full-inclusion DRAM NC (`NCD`), and the infinite SRAM/DRAM NCs (`NCS`
    and the normalisation reference of Figs. 9-11).
`PageCache`
    Simple-COMA style page cache with LRM replacement and block-grain
    states.
`relocation` / `adaptive`
    R-NUMA's directory counters vs. the paper's NC-set victimisation
    counters; fixed and adaptive relocation thresholds.
"""

from .nc import NetworkCache
from .pagecache import PageCache, PageFrame
from .relocation import DirectoryRelocationCounters, NCSetRelocationCounters
from .adaptive import AdaptiveThreshold, FixedThreshold, ThresholdState

__all__ = [
    "NetworkCache",
    "PageCache",
    "PageFrame",
    "DirectoryRelocationCounters",
    "NCSetRelocationCounters",
    "AdaptiveThreshold",
    "FixedThreshold",
    "ThresholdState",
]
