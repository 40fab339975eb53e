"""The inclusion-style, infinite and absent network caches, driven through
the simulator on the tiny 2x2 machine.

Node 0 (pids 0 and 1) is the observed cluster; pages 0-9 are homed at
node 1, so their blocks are remote to it.  The finite NCs are 1 KB
4-way (4 sets, block-address indexed) unless a test shrinks them.
"""

from __future__ import annotations

import pytest

from repro.coherence.states import MESIR, NCState
from repro.params import NCKind
from tests.conftest import Harness, addr, tiny_config

INFINITE = ("ncs", "dinf")


def _harness(system: str, **overrides) -> Harness:
    h = Harness(tiny_config(system, **overrides))
    for page in range(10):
        h.home(page, 1)
    return h


class TestDirtyInclusionNC:
    def test_policy_flags(self):
        h = _harness("nc")
        assert h.node(0).nc.kind is NCKind.DIRTY_INCLUSION
        assert not h.config.nc.is_dram

    def test_allocates_on_fetch(self):
        h = _harness("nc")
        h.read(0, addr(0, 0x10))
        h.write(0, addr(0, 0x11))
        assert h.nc_state(0, addr(0, 0x10)) == NCState.CLEAN
        assert h.nc_state(0, addr(0, 0x11)) == NCState.CLEAN  # stale under M

    def test_fetch_of_resident_block_is_noop(self):
        h = _harness("nc")
        h.read(0, addr(0, 0x10))
        h.read(1, addr(0, 0x10))
        h.write(0, addr(0, 0x10))  # the upgrade re-takes the frame it has
        assert h.nc_state(0, addr(0, 0x10)) == NCState.CLEAN
        assert len(h.node(0).nc) == 1
        assert h.counters.nc_evictions == 0

    def test_fetch_overflow_reports_eviction(self):
        h = _harness("nc")
        for off in (0, 4, 8, 12):  # fill set 0
            h.read(0, addr(0, off))
        h.read(1, addr(0, 16))
        assert h.counters.nc_evictions == 1
        assert h.nc_state(0, addr(0, 0)) is None  # LRU of set 0
        assert h.l1_state(0, addr(0, 0)) == MESIR.R  # clean: left alone

    def test_read_hit_keeps_frame(self):
        h = _harness("nc")
        h.read(0, addr(0, 0x10))
        h.evict(0, addr(0, 0x10))
        h.read(0, addr(0, 0x10))
        assert h.counters.read_nc_hits == 1
        assert h.nc_state(0, addr(0, 0x10)) == NCState.CLEAN
        assert h.l1_state(0, addr(0, 0x10)) == MESIR.S

    def test_write_hit_stales_frame(self):
        h = _harness("nc")
        h.write(0, addr(0, 0x10))
        h.evict(0, addr(0, 0x10))  # the dirty data lands in the frame
        h.write(0, addr(0, 0x10))
        assert h.counters.write_nc_hits == 1
        assert h.nc_state(0, addr(0, 0x10)) == NCState.CLEAN  # ownership moved to the L1
        assert h.l1_state(0, addr(0, 0x10)) == MESIR.M
        assert h.machine.directory.owner(addr(0, 0x10) >> 6) == 0

    def test_clean_victims_not_captured_when_frame_lost(self):
        h = _harness("nc", nc_size=256)  # one 4-way set
        for off in range(5):  # the fifth fetch evicts block 0's frame
            h.read(0, addr(0, off))
        assert h.nc_state(0, addr(0, 0)) is None
        h.evict(0, addr(0, 0))
        assert h.nc_state(0, addr(0, 0)) is None
        assert h.counters.nc_insertions == 0

    def test_clean_victim_with_frame_is_absorbed_quietly(self):
        h = _harness("nc")
        h.read(0, addr(0, 0x10))
        h.evict(0, addr(0, 0x10))
        assert h.counters.nc_insertions == 1
        assert h.nc_state(0, addr(0, 0x10)) == NCState.CLEAN
        assert len(h.node(0).nc) == 1
        assert h.counters.nc_evictions == h.counters.writebacks_remote == 0

    def test_dirty_victim_without_frame_declined(self):
        h = _harness("nc")
        h.write(0, addr(0, 0x10))
        h.node(0).nc.cache.remove(0x10)  # a dirty L1 copy without a frame
        h.evict(0, addr(0, 0x10))
        assert h.nc_state(0, addr(0, 0x10)) is None
        assert h.counters.writebacks_absorbed == 0
        assert h.counters.writebacks_remote == 1  # it crossed the network
        assert h.machine.directory.owner(0x10) is None

    def test_dirty_victim_absorbed_into_frame(self):
        h = _harness("nc")
        h.write(0, addr(0, 0x10))
        h.evict(0, addr(0, 0x10))
        assert h.nc_state(0, addr(0, 0x10)) == NCState.DIRTY
        assert h.counters.writebacks_absorbed == 1

    def test_invalidate_and_downgrade(self):
        h = _harness("nc")
        h.write(0, addr(0, 0x10))
        h.evict(0, addr(0, 0x10))
        h.read(2, addr(0, 0x10))  # the home node reads: the frame cleans
        assert h.nc_state(0, addr(0, 0x10)) == NCState.CLEAN
        assert h.counters.writebacks_remote == 1
        h.write(2, addr(0, 0x10))  # ... then writes: the frame goes
        assert h.nc_state(0, addr(0, 0x10)) is None


class TestFullInclusionDramNC:
    def test_policy_flags(self):
        h = _harness("ncd")
        assert h.node(0).nc.kind is NCKind.DRAM_FULL_INCLUSION
        assert h.config.nc.is_dram

    def test_allocate_and_hit(self):
        h = _harness("ncd")
        h.read(0, addr(0, 0x10))
        assert h.nc_state(0, addr(0, 0x10)) == NCState.CLEAN
        h.evict(0, addr(0, 0x10))
        h.read(0, addr(0, 0x10))
        assert h.counters.read_nc_hits == 1

    def test_eviction_reported(self):
        h = _harness("ncd")
        for off in (0, 4, 8, 12):
            h.read(0, addr(0, off))
        h.read(1, addr(0, 16))
        assert h.counters.nc_evictions == 1
        assert h.nc_state(0, addr(0, 0)) is None
        assert h.l1_state(0, addr(0, 0)) is None  # full inclusion
        assert h.counters.nc_inclusion_evictions == 1

    def test_resident_blocks(self):
        h = _harness("ncd")
        h.read(0, addr(0, 1))
        h.read(0, addr(0, 2))
        assert set(h.node(0).nc.resident_blocks()) == {1, 2}


class TestInfiniteNC:
    @pytest.mark.parametrize("is_dram", [False, True])
    def test_latency_class(self, is_dram):
        h = _harness("dinf" if is_dram else "ncs")
        assert h.config.nc.is_dram == is_dram
        assert h.node(0).nc.kind is (
            NCKind.INFINITE_DRAM if is_dram else NCKind.INFINITE_SRAM
        )

    def test_never_evicts(self):
        for system in INFINITE:
            h = _harness(system)
            for page in range(10):
                for off in range(64):
                    h.read(0, addr(page, off))
            assert len(h.node(0).nc) == 640
            assert h.counters.nc_evictions == 0

    def test_retains_until_invalidation(self):
        for system in INFINITE:
            h = _harness(system)
            h.read(0, addr(0, 0x10))
            h.evict(0, addr(0, 0x10))
            h.read(0, addr(0, 0x10))
            assert h.counters.read_nc_hits == 1
            h.write(2, addr(0, 0x10))  # the home node writes
            assert h.nc_state(0, addr(0, 0x10)) is None
            h.read(0, addr(0, 0x10))
            assert h.counters.read_nc_hits == 1
            assert h.counters.read_remote == 2

    def test_dirty_absorb_and_write_hit(self):
        for system in INFINITE:
            h = _harness(system)
            h.write(0, addr(0, 0x10))
            h.evict(0, addr(0, 0x10))
            assert h.nc_state(0, addr(0, 0x10)) == NCState.DIRTY
            assert h.counters.writebacks_absorbed == 1
            h.write(0, addr(0, 0x10))
            assert h.counters.write_nc_hits == 1
            assert h.nc_state(0, addr(0, 0x10)) == NCState.CLEAN  # stale under the new M
            assert h.l1_state(0, addr(0, 0x10)) == MESIR.M

    def test_clean_victim_accepted(self):
        for system in INFINITE:
            h = _harness(system)
            h.read(0, addr(0, 0x10))
            h.evict(0, addr(0, 0x10))
            assert h.counters.nc_insertions == 1
            assert h.nc_state(0, addr(0, 0x10)) == NCState.CLEAN
            assert len(h.node(0).nc) == 1

    def test_downgrade(self):
        for system in INFINITE:
            h = _harness(system)
            h.write(0, addr(0, 5))
            h.evict(0, addr(0, 5))
            h.read(2, addr(0, 5))  # the home node reads
            assert h.nc_state(0, addr(0, 5)) == NCState.CLEAN
            assert h.counters.writebacks_remote == 1


class TestNullNC:
    def test_everything_declines(self):
        h = _harness("base")
        h.read(0, addr(0, 1))
        h.write(0, addr(0, 2))
        h.evict(0, addr(0, 1))
        h.evict(0, addr(0, 2))
        nc = h.node(0).nc
        assert len(nc) == 0 and list(nc.resident_blocks()) == []
        assert nc.probe(1) is None and nc.probe(2) is None
        assert nc.set_occupancies() == [] and nc.snapshot() == ()
        assert h.counters.nc_insertions == 0
        assert h.counters.writebacks_remote == 1  # the dirty victim went home
