"""One DSM cluster: processors + caches + bus + pseudo-processor resources.

A :class:`Node` is a structural container; the bus/snooping *behaviour*
lives in :class:`repro.sim.simulator.Simulator`, which owns the protocol
orchestration (the pseudo-processor role of Fig. 1).
"""

from __future__ import annotations

from typing import List, Optional

from ..coherence.cache import SetAssocCache
from ..params import SystemConfig
from ..rdc.adaptive import ThresholdState
from ..rdc.nc import NetworkCache
from ..rdc.pagecache import PageCache
from ..rdc.relocation import NCSetRelocationCounters


class Node:
    """A cluster: per-processor L1 caches, an NC, and optionally a PC."""

    __slots__ = ("node_id", "l1s", "nc", "pc", "threshold", "nc_counters")

    def __init__(
        self,
        node_id: int,
        l1s: List[SetAssocCache],
        nc: NetworkCache,
        pc: Optional[PageCache] = None,
        threshold: Optional[ThresholdState] = None,
        nc_counters: Optional[NCSetRelocationCounters] = None,
    ) -> None:
        self.node_id = node_id
        self.l1s = l1s
        self.nc = nc
        self.pc = pc
        self.threshold = threshold
        self.nc_counters = nc_counters

    @property
    def n_procs(self) -> int:
        return len(self.l1s)

    def resident_in_l1s(self, block: int) -> bool:
        """Any processor cache in the node holds the block."""
        return any(l1.peek(block) is not None for l1 in self.l1s)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Node({self.node_id}, procs={self.n_procs}, "
            f"nc={self.nc.kind.value}, pc={'yes' if self.pc else 'no'})"
        )


def make_node(config: SystemConfig, node_id: int, nc: NetworkCache,
              pc: Optional[PageCache], threshold: Optional[ThresholdState],
              nc_counters: Optional[NCSetRelocationCounters]) -> Node:
    """Assemble a node with fresh L1 caches from a system config."""
    l1s = [SetAssocCache(config.cache) for _ in range(config.procs_per_node)]
    return Node(node_id, l1s, nc, pc, threshold, nc_counters)
