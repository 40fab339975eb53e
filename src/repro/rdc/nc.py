"""The network cache: one storage class for every NC organisation.

The paper's organisations (Sec. 3 and 5.1) differ only in policy over the
same storage: when a frame is allocated, what an NC eviction forces upon
the processor caches, and how a set is indexed.  Those policies run in
:mod:`repro.sim.simulator`, keyed by :class:`~repro.params.NCKind`; this
class holds one node's storage and answers inspection queries.

=======================  ====================================================
kind                     storage and policy
=======================  ====================================================
``NONE``                 no NC (`base`, `p`): an empty map, never filled
``VICTIM``               set-associative SRAM; a frame is allocated only when
                         the L1s victimise a block, no inclusion, a hit swaps
                         the block back into the L1 (`vb`; `vp`/`vxp` index
                         sets by page address, so one page maps to one set)
``DIRTY_INCLUSION``      set-associative SRAM; allocates on every remote
                         fetch, inclusion kept for dirty blocks only (`nc`)
``DRAM_FULL_INCLUSION``  set-associative DRAM; allocates on every remote
                         fetch, full inclusion (`NCD`)
``INFINITE_SRAM``,       unbounded block -> state map: every fetched block
``INFINITE_DRAM``        stays until an invalidation removes it (`NCS`, and
                         `dinf`, the normalisation reference of Figs. 9-11)
=======================  ====================================================

The latency class (Table 1's SRAM or DRAM rows) is ``NCConfig.is_dram``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..coherence.cache import SetAssocCache
from ..params import NCIndexing, NCKind, SystemConfig


class NetworkCache:
    """One node's network cache.

    A finite kind keeps its lines in ``cache``, a :class:`SetAssocCache`
    over block numbers; an infinite kind keeps ``lines``, a block -> state
    dict, and ``cache`` is None.  ``NONE`` has no cache and an empty
    ``lines``.  Only remote blocks are ever stored.  The simulator binds
    these structures once and mutates them in place, so nothing here
    replaces them.
    """

    __slots__ = ("kind", "cache", "lines")

    def __init__(self, config: SystemConfig) -> None:
        nc = config.nc
        self.kind = nc.kind
        self.cache: Optional[SetAssocCache] = None
        self.lines: Dict[int, int] = {}
        if nc.kind is not NCKind.NONE and not nc.is_infinite:
            shift = 0
            if nc.kind is NCKind.VICTIM and nc.indexing is NCIndexing.PAGE:
                shift = config.blocks_per_page.bit_length() - 1
            self.cache = SetAssocCache(nc.geometry(config.block_size), index_shift=shift)

    def probe(self, block: int) -> Optional[int]:
        """State of a resident block (None when absent), without side effect."""
        if self.cache is None:
            return self.lines.get(block)
        line = self.cache.peek(block)
        return None if line is None else line.state

    def resident_blocks(self) -> Iterator[int]:
        if self.cache is None:
            return iter(tuple(self.lines))
        return self.cache.blocks()

    def __len__(self) -> int:
        return len(self.lines) if self.cache is None else len(self.cache)

    def set_occupancies(self) -> List[int]:
        """Lines per set, in set order; empty for the unbounded kinds."""
        return [] if self.cache is None else self.cache.set_occupancies()

    def set_blocks(self, index: int) -> List[int]:
        """Blocks resident in one set of a finite NC, LRU first."""
        assert self.cache is not None
        return [line.block for line in self.cache.set_lines(index)]

    def snapshot(self) -> Tuple[Any, ...]:
        """Canonical contents: a finite NC's
        :meth:`~repro.coherence.cache.SetAssocCache.set_contents`, or the
        sorted ``(block, state)`` pairs of an unbounded one, states as
        plain ints.  Two NCs of one kind with equal snapshots behave the
        same.
        """
        if self.cache is None:
            return tuple(sorted((b, int(s)) for b, s in self.lines.items()))
        return self.cache.set_contents()

    def load(self, snapshot: Tuple[Any, ...]) -> None:
        """Restore, in place, contents produced by :meth:`snapshot`."""
        if self.cache is None:
            self.lines.clear()
            self.lines.update(snapshot)
        else:
            self.cache.load_contents(snapshot)
