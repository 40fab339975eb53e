"""Full-map home directory with non-notifying presence bits.

Each home node keeps, per block, a presence bitmap over clusters and the
identity of the dirty owner (if any).  The protocol is *non-notifying*:
clean copies are dropped silently, so presence bits conservatively
over-approximate residency — exactly the property the paper relies on to
classify misses (Sec. 3.4):

* requesting cluster's presence bit already set  => **capacity** miss (the
  cluster once had the block and lost it to replacement);
* bit clear => **necessary** miss (cold, or cleared by an invalidation,
  i.e. a coherence miss).

Following R-NUMA's modification (kept here because our relocation counters
need the same information), presence bits remain set after a dirty block is
written back, at the price of possible false invalidations — which we model
faithfully: an invalidation may be sent to a cluster that no longer holds
the block.

The directory is a pure bookkeeping object; moving data, downgrading the
owner's cached copy, and delivering invalidations are the simulator's job.
The simulator runs the directory transaction of a miss inline over the
entries (classify, update presence and ownership, flush the owner,
invalidate the other sharers); this class keeps the upgrade and
write-back transactions and the inspection queries.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import ProtocolError


class Directory:
    """Machine-wide full-map directory (one logical entry per block).

    Entries are created lazily on first access; a block never touched by a
    remote cluster costs nothing.  State per block: ``presence`` bitmap and
    ``owner`` cluster id (``-1`` when memory is clean/up-to-date).
    """

    __slots__ = ("n_nodes", "_entries", "_tracer", "now")

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = n_nodes
        # block -> [presence_mask, owner]
        self._entries: Dict[int, List[int]] = {}
        # observability: an EventTracer attached by the simulator, plus the
        # simulator's reference clock (synced only while tracing is on, so
        # the untraced hot path never pays for it)
        self._tracer = None
        self.now = 0

    # ---- protocol operations -------------------------------------------

    def upgrade(self, block: int, cluster: int) -> Tuple[int, ...]:
        """A cluster writes a block it holds shared; invalidate other copies.

        Returns the clusters to invalidate.  Ownership moves to the writer.
        """
        bit = 1 << cluster
        entry = self._entries.get(block)
        if entry is None:
            # An upgrade of a block the directory never saw can only mean a
            # locally-homed block never shared remotely; register it.
            entry = [bit, -1]
            self._entries[block] = entry
        presence, owner = entry
        if owner >= 0 and owner != cluster:
            raise ProtocolError(
                f"upgrade of block {block:#x} by cluster {cluster} while "
                f"cluster {owner} owns it dirty"
            )
        others = presence & ~bit
        if others:
            invalidate = tuple(c for c in range(self.n_nodes) if (others >> c) & 1)
        else:
            invalidate = ()
        entry[0] = bit
        entry[1] = cluster
        tr = self._tracer
        if tr is not None:
            tr.emit("dir_upgrade", self.now, node=cluster, block=block)
        return invalidate

    def writeback(self, block: int, cluster: int) -> None:
        """A cluster writes the dirty block back to home memory.

        Presence bits stay on (the R-NUMA modification), so a later re-fetch
        by the same cluster classifies as a capacity miss.
        """
        entry = self._entries.get(block)
        if entry is None or entry[1] != cluster:
            owner = None if entry is None else entry[1]
            raise ProtocolError(
                f"write-back of block {block:#x} by cluster {cluster}, "
                f"but directory owner is {owner}"
            )
        entry[1] = -1
        tr = self._tracer
        if tr is not None:
            tr.emit("dir_writeback", self.now, node=cluster, block=block)

    # ---- inspection ------------------------------------------------------

    def is_present(self, block: int, cluster: int) -> bool:
        entry = self._entries.get(block)
        return bool(entry and (entry[0] >> cluster) & 1)

    def owner(self, block: int) -> Optional[int]:
        entry = self._entries.get(block)
        if entry is None or entry[1] < 0:
            return None
        return entry[1]

    def presence_mask(self, block: int) -> int:
        entry = self._entries.get(block)
        return entry[0] if entry else 0

    def entries(self) -> "List[Tuple[int, int, int]]":
        """Canonical snapshot: sorted ``(block, presence_mask, owner)``.

        ``owner`` is the raw stored value (-1 when memory is clean).  The
        model checker uses this to canonicalise machine states; sorting
        removes the (behaviourally irrelevant) creation order of entries.
        """
        return sorted((b, e[0], e[1]) for b, e in self._entries.items())

    def owned_blocks(self):
        """Blocks with a recorded dirty owner (validator sweep)."""
        return [b for b, e in self._entries.items() if e[1] >= 0]

    def n_entries(self) -> int:
        return len(self._entries)
