"""The network victim cache (the paper's proposal, Sec. 3), driven through
the simulator on the tiny 2x2 machine: victim capture, exclusive hits,
coherence actions and the two indexing schemes.

Node 0 (pids 0 and 1) is the observed cluster; pages 0-3 are homed at
node 1, so their blocks are remote to it.  The 1 KB 4-way NC has 4 sets:
`vb` indexes them by block address, `vp` by page address.
"""

from __future__ import annotations

import pytest

from repro.coherence.states import MESIR, NCState
from repro.params import NCKind, ThresholdPolicy
from tests.conftest import Harness, addr, tiny_config


def _harness(system: str, dataset_bytes: int = 1 << 22, **overrides) -> Harness:
    h = Harness(tiny_config(system, **overrides), dataset_bytes)
    for page in range(4):
        h.home(page, 1)
    return h


@pytest.fixture
def vb() -> Harness:
    return _harness("vb")


@pytest.fixture
def vp() -> Harness:
    return _harness("vp")


def capture(h: Harness, a: int, dirty: bool = False) -> None:
    """Fetch ``a`` into pid 0's L1 (written when ``dirty``), then victimise it."""
    if dirty:
        h.write(0, a)
    else:
        h.read(0, a)
    h.evict(0, a)


class TestPolicyFlags:
    def test_no_inclusion(self, vb):
        """Evicting a frame never disturbs the L1s: here the dirty frame an
        M->S bus downgrade left under a peer's S copy."""
        target = addr(0, 0)
        vb.write(0, target)
        vb.read(1, target)  # pid 0's M downgrades; its data enters the NC
        assert vb.nc_state(0, target) == NCState.DIRTY
        for off in (4, 8, 12, 16):  # four more captures overflow set 0
            capture(vb, addr(0, off))
        assert vb.nc_state(0, target) is None
        assert vb.l1_state(1, target) == MESIR.S
        assert vb.counters.nc_inclusion_evictions == 0

    def test_sram_latency_class(self, vb):
        assert vb.node(0).nc.kind is NCKind.VICTIM
        assert not vb.config.nc.is_dram


class TestAllocation:
    def test_never_allocates_on_fetch(self, vb):
        vb.read(0, addr(0, 0x10))
        vb.write(0, addr(0, 0x11))
        assert vb.nc_state(0, addr(0, 0x10)) is None
        assert len(vb.node(0).nc) == 0

    def test_accepts_clean_victim(self, vb):
        capture(vb, addr(0, 0x10))
        assert vb.nc_state(0, addr(0, 0x10)) == NCState.CLEAN
        assert vb.counters.nc_insertions == 1

    def test_accepts_dirty_victim(self, vb):
        capture(vb, addr(0, 0x10), dirty=True)
        assert vb.nc_state(0, addr(0, 0x10)) == NCState.DIRTY
        assert vb.counters.writebacks_absorbed == 1
        assert vb.counters.writebacks_remote == 0

    def test_dirty_refresh_of_existing_clean(self, vb):
        target = addr(0, 0x10)
        vb.write(0, target)
        # a clean frame of the block under its M copy
        vb.node(0).nc.cache.insert(target >> 6, NCState.CLEAN)
        vb.evict(0, target)
        assert vb.nc_state(0, target) == NCState.DIRTY
        assert len(vb.node(0).nc) == 1

    def test_set_overflow_reports_eviction(self, vb):
        # a fifth same-set block overflows the 4-way set
        for off in (0, 4, 8, 12):
            capture(vb, addr(0, off))
        capture(vb, addr(0, 16), dirty=True)
        assert vb.counters.nc_evictions == 1
        assert vb.nc_state(0, addr(0, 0)) is None  # LRU of set 0
        assert vb.nc_state(0, addr(0, 16)) == NCState.DIRTY
        assert vb.counters.writebacks_remote == 0  # it left clean

    def test_eviction_carries_dirtiness(self, vb):
        capture(vb, addr(0, 0), dirty=True)
        for off in (4, 8, 12, 16):
            capture(vb, addr(0, off))
        assert vb.nc_state(0, addr(0, 0)) is None
        assert vb.counters.nc_evictions == 1
        assert vb.counters.writebacks_remote == 1  # its data went home
        assert vb.machine.directory.owner(0) is None


class TestHits:
    def test_read_hit_removes_line(self, vb):
        capture(vb, addr(0, 0x10))
        vb.read(0, addr(0, 0x10))
        assert vb.counters.read_nc_hits == 1
        assert vb.nc_state(0, addr(0, 0x10)) is None  # exclusive swap
        assert vb.l1_state(0, addr(0, 0x10)) == MESIR.R

    def test_write_hit_removes_line(self, vb):
        capture(vb, addr(0, 0x10), dirty=True)
        vb.write(0, addr(0, 0x10))
        assert vb.counters.write_nc_hits == 1
        assert vb.nc_state(0, addr(0, 0x10)) is None
        assert vb.l1_state(0, addr(0, 0x10)) == MESIR.M

    def test_miss_returns_none(self, vb):
        vb.read(0, addr(0, 0x10))
        vb.write(0, addr(0, 0x11))
        assert vb.counters.read_nc_hits == vb.counters.write_nc_hits == 0
        assert vb.counters.read_remote == vb.counters.write_remote == 1


class TestCoherence:
    def test_invalidate_returns_state(self, vb):
        """A write by another cluster removes the NC copy, clean or dirty."""
        clean, dirty = addr(0, 1), addr(0, 2)
        capture(vb, clean)
        capture(vb, dirty, dirty=True)
        vb.write(2, clean)  # the home node writes: an invalidation
        vb.write(2, dirty)  # ... and an owner flush
        assert vb.nc_state(0, clean) is None
        assert vb.nc_state(0, dirty) is None
        assert vb.counters.remote_invalidations == 1
        assert vb.machine.directory.owner(dirty >> 6) == 1

    def test_downgrade(self, vb):
        """A read by another cluster cleans the dirty NC copy."""
        capture(vb, addr(0, 2), dirty=True)
        vb.read(2, addr(0, 2))
        assert vb.nc_state(0, addr(0, 2)) == NCState.CLEAN
        assert vb.counters.writebacks_remote == 1  # the sharing write-back
        assert vb.machine.directory.owner(addr(0, 2) >> 6) is None

    def test_flush_page(self):
        """A page leaving the page cache takes its NC blocks along; a dirty
        one is written home, another page's block stays."""
        h = _harness(
            "vxp5",
            dataset_bytes=5 * 4096,  # a single PC frame
            threshold_policy=ThresholdPolicy.FIXED,
            initial_threshold=2,
        )
        capture(h, addr(3, 3))
        capture(h, addr(0, 1))
        capture(h, addr(0, 2), dirty=True)
        capture(h, addr(0, 4))  # third capture in set 0: page 0 relocates
        pc = h.node(0).pc
        assert 0 in pc
        before = h.counters.pc_flush_writebacks
        for off in (1, 2, 4):  # page 1 relocates into the only frame
            capture(h, addr(1, off))
        assert 1 in pc and 0 not in pc
        for off in (1, 2, 4):
            assert h.nc_state(0, addr(0, off)) is None
        assert h.counters.pc_flush_writebacks == before + 1
        assert h.machine.directory.owner(addr(0, 2) >> 6) is None
        assert h.nc_state(0, addr(3, 3)) == NCState.CLEAN


class TestIndexing:
    def test_block_indexing_spreads_a_page(self, vb):
        for off in range(4):
            capture(vb, addr(0, off))
        assert vb.node(0).nc.set_occupancies() == [1, 1, 1, 1]

    def test_page_indexing_concentrates_a_page(self, vp):
        for off in range(4):
            capture(vp, addr(0, off))
        assert vp.node(0).nc.set_occupancies() == [4, 0, 0, 0]

    def test_page_indexing_separates_pages(self, vp):
        capture(vp, addr(0, 0))
        capture(vp, addr(1, 0))
        assert vp.node(0).nc.set_occupancies() == [1, 1, 0, 0]

    def test_set_blocks_lists_residents(self, vp):
        capture(vp, addr(0, 3))
        capture(vp, addr(0, 7))
        assert vp.node(0).nc.set_blocks(0) == [3, 7]  # LRU first

    def test_page_set_overflow(self, vp):
        """5 blocks of the same page overflow its single 4-way set."""
        for off in range(5):
            capture(vp, addr(0, off))
        assert vp.counters.nc_evictions == 1
        assert vp.nc_state(0, addr(0, 0)) is None
        assert vp.node(0).nc.set_blocks(0) == [1, 2, 3, 4]
