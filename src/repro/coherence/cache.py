"""A generic set-associative, LRU cache model.

Used for both the processor caches (16 KB, 2-way by default) and the finite
network caches (16 KB/512 KB, 4-way).  The cache stores *block numbers*
(byte address >> block bits) with an arbitrary integer state; all policy
decisions (what the states mean, what happens to victims) belong to the
caller.

Set indexing is parameterised by a right-shift applied to the block number
before masking, which implements the paper's two victim-NC indexing schemes
(Sec. 6.1.3):

* ``index_shift=0`` — least-significant block-address bits (`vb`);
* ``index_shift=log2(blocks_per_page)`` — least-significant page-address
  bits (`vp`), which maps all blocks of a page into the same set.

LRU is maintained by list order within each set (index 0 = LRU, last =
MRU).  Sets are tiny (2-4 ways), so list scans stay cheap; a cache-wide
``block -> line`` tag map makes the hit/miss decision O(1) so the per-set
list is only touched when LRU order actually changes.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..errors import ConfigurationError
from ..params import CacheGeometry


class CacheLine:
    """One cache frame: a block number plus an integer state.

    ``state`` is interpreted by the owner (a :class:`~repro.coherence.states.MESIR`
    value for L1s, an :class:`~repro.coherence.states.NCState` for NCs); it is
    stored as a plain int for speed.
    """

    __slots__ = ("block", "state")

    def __init__(self, block: int, state: int) -> None:
        self.block = block
        self.state = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheLine(block={self.block:#x}, state={self.state})"


class SetAssocCache:
    """Set-associative cache of block numbers with per-set LRU replacement."""

    __slots__ = ("geometry", "assoc", "n_sets", "_set_mask", "_shift", "_sets", "_tag")

    def __init__(self, geometry: CacheGeometry, index_shift: int = 0) -> None:
        if index_shift < 0:
            raise ConfigurationError("index_shift must be >= 0")
        self.geometry = geometry
        self.assoc = geometry.assoc
        self.n_sets = geometry.n_sets
        self._set_mask = self.n_sets - 1
        self._shift = index_shift
        self._sets: List[List[CacheLine]] = [[] for _ in range(self.n_sets)]
        # resident-block index; always consistent with the union of _sets
        self._tag: Dict[int, CacheLine] = {}

    # ---- indexing -------------------------------------------------------

    def set_index(self, block: int) -> int:
        """The set a block maps to under this cache's indexing scheme."""
        return (block >> self._shift) & self._set_mask

    def set_lines(self, index: int) -> List[CacheLine]:
        """The (mutable) LRU-ordered line list of one set. Test/policy hook."""
        return self._sets[index]

    # ---- lookups --------------------------------------------------------

    def lookup(self, block: int) -> Optional[CacheLine]:
        """Find a block and promote it to MRU; ``None`` on miss."""
        line = self._tag.get(block)
        if line is None:
            return None
        lines = self._sets[(block >> self._shift) & self._set_mask]
        if lines[-1] is not line:
            lines.remove(line)
            lines.append(line)
        return line

    def peek(self, block: int) -> Optional[CacheLine]:
        """Find a block without disturbing LRU order (snoops use this)."""
        return self._tag.get(block)

    def __contains__(self, block: int) -> bool:
        return block in self._tag

    # ---- mutation -------------------------------------------------------

    def insert(self, block: int, state: int) -> Optional[CacheLine]:
        """Insert a block as MRU; return the evicted LRU line, if any.

        The block must not already be present (callers update the existing
        line's state instead); violating this is a protocol bug.
        """
        lines = self._sets[(block >> self._shift) & self._set_mask]
        victim = None
        if len(lines) >= self.assoc:
            victim = lines.pop(0)
            del self._tag[victim.block]
        line = CacheLine(block, state)
        lines.append(line)
        self._tag[block] = line
        return victim

    def victim_candidate(self, block: int) -> Optional[CacheLine]:
        """The line that :meth:`insert` of ``block`` would evict (or None)."""
        lines = self._sets[(block >> self._shift) & self._set_mask]
        if len(lines) >= self.assoc:
            return lines[0]
        return None

    def remove(self, block: int) -> Optional[CacheLine]:
        """Remove a block (invalidation / victim-cache swap-out)."""
        line = self._tag.pop(block, None)
        if line is None:
            return None
        self._sets[(block >> self._shift) & self._set_mask].remove(line)
        return line

    def clear(self) -> None:
        for lines in self._sets:
            lines.clear()
        self._tag.clear()

    # ---- inspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._tag)

    def lines(self) -> Iterator[CacheLine]:
        """Iterate over all resident lines (arbitrary order)."""
        for lines in self._sets:
            yield from lines

    def blocks(self) -> Iterator[int]:
        for line in self.lines():
            yield line.block

    def occupancy(self) -> float:
        """Fraction of frames in use."""
        return len(self) / (self.n_sets * self.assoc)

    def set_contents(self) -> "Tuple[Tuple[Tuple[int, int], ...], ...]":
        """Canonical snapshot: per set, (block, state) pairs in LRU order.

        The tuple captures everything that determines future behaviour —
        residency, states, and the exact LRU order — so two caches with
        equal snapshots are behaviourally indistinguishable.  Used by the
        model checker (:mod:`repro.check.explore`) to canonicalise and to
        reconstruct machine states, and by the differential oracle.

        States are normalised to plain ints: the simulator stores a mix of
        ints and IntEnum members, which compare equal but hash differently,
        so unnormalised snapshots would not work as set or dict keys.
        """
        return tuple(
            tuple((line.block, int(line.state)) for line in lines) for lines in self._sets
        )

    def load_contents(
        self, contents: "Tuple[Tuple[Tuple[int, int], ...], ...]"
    ) -> None:
        """Restore a snapshot produced by :meth:`set_contents`."""
        self.clear()
        for index, lines in enumerate(contents):
            bucket = self._sets[index]
            for block, state in lines:
                line = CacheLine(block, state)
                bucket.append(line)
                self._tag[block] = line

    # ---- observability snapshots (repro.obs.metrics) --------------------

    def set_occupancies(self) -> List[int]:
        """Lines resident in each set, in set order."""
        return [len(lines) for lines in self._sets]
