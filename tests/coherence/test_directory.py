"""The full-map, non-notifying home directory.

`TestAccess` drives a miss's directory transaction, which the simulator
runs inline, through a 4-cluster tiny machine; the other classes test the
:class:`Directory` object's own transactions and queries.
"""

from __future__ import annotations

import pytest

from repro.coherence.directory import Directory
from repro.coherence.states import MESIR
from repro.errors import ProtocolError
from tests.conftest import Harness, addr, tiny_config

BLOCK = addr(0, 0x10) >> 6


@pytest.fixture
def d():
    return Directory(n_nodes=4)


@pytest.fixture
def h():
    """Clusters 0-3 of two processors each; page 0 lives at cluster 3."""
    harness = Harness(tiny_config("base", n_nodes=4))
    harness.home(0, 3)
    return harness


def pid(cluster: int) -> int:
    """The first processor of a cluster."""
    return 2 * cluster


class TestAccess:
    def test_first_access_is_necessary(self, h):
        h.read(pid(1), addr(0, 0x10))
        assert h.counters.remote_necessary == 1
        assert h.counters.remote_capacity == 0
        assert h.counters.remote_invalidations == h.counters.writebacks_remote == 0

    def test_reaccess_is_capacity(self, h):
        h.read(pid(1), addr(0, 0x10))
        h.evict(pid(1), addr(0, 0x10))
        h.read(pid(1), addr(0, 0x10))
        assert h.counters.remote_capacity == 1

    def test_read_sets_presence(self, h):
        h.read(pid(1), addr(0, 0x10))
        assert h.machine.directory.is_present(BLOCK, 1)
        assert not h.machine.directory.is_present(BLOCK, 2)

    def test_write_claims_ownership(self, h):
        h.write(pid(1), addr(0, 0x10))
        assert h.machine.directory.owner(BLOCK) == 1
        assert h.machine.directory.presence_mask(BLOCK) == 0b0010

    def test_write_invalidates_other_sharers(self, h):
        h.read(pid(0), addr(0, 0x10))
        h.read(pid(2), addr(0, 0x10))
        h.write(pid(1), addr(0, 0x10))
        assert h.counters.remote_invalidations == 2
        assert h.l1_state(pid(0), addr(0, 0x10)) is None
        assert h.l1_state(pid(2), addr(0, 0x10)) is None
        assert h.machine.directory.presence_mask(BLOCK) == 0b0010

    def test_write_after_write_flushes_owner(self, h):
        h.write(pid(0), addr(0, 0x10))
        h.write(pid(1), addr(0, 0x10))
        assert h.l1_state(pid(0), addr(0, 0x10)) is None  # flushed
        assert h.counters.remote_invalidations == 0  # not counted twice
        assert h.machine.directory.owner(BLOCK) == 1

    def test_read_of_dirty_block_clears_owner(self, h):
        h.write(pid(0), addr(0, 0x10))
        h.read(pid(1), addr(0, 0x10))
        assert h.l1_state(pid(0), addr(0, 0x10)) == MESIR.S  # still a sharer
        assert h.counters.writebacks_remote == 1
        assert h.machine.directory.owner(BLOCK) is None
        assert h.machine.directory.is_present(BLOCK, 0)

    def test_invalidated_cluster_refetch_is_necessary(self, h):
        h.read(pid(0), addr(0, 0x10))
        h.write(pid(1), addr(0, 0x10))  # invalidates cluster 0
        h.read(pid(0), addr(0, 0x10))
        assert h.counters.remote_necessary == 3
        assert h.counters.remote_capacity == 0

    def test_owner_rerequest_raises(self, h):
        h.write(pid(0), addr(0, 0x10))
        h.l1(pid(0)).remove(BLOCK)  # the dirty copy vanishes without a write-back
        with pytest.raises(ProtocolError, match="re-requested"):
            h.read(pid(0), addr(0, 0x10))


class TestUpgrade:
    def test_upgrade_unknown_block_registers(self, d):
        invalidate = d.upgrade(0x20, 2)
        assert invalidate == ()
        assert d.owner(0x20) == 2

    def test_upgrade_invalidates_sharers(self, d):
        d._entries[0x20] = [0b1001, -1]  # clusters 0 and 3 share it
        invalidate = d.upgrade(0x20, 0)
        assert invalidate == (3,)
        assert d.presence_mask(0x20) == 0b0001

    def test_upgrade_by_owner_allowed(self, d):
        d.upgrade(0x20, 0)
        assert d.upgrade(0x20, 0) == ()

    def test_upgrade_while_other_owner_raises(self, d):
        d.upgrade(0x20, 0)
        with pytest.raises(ProtocolError):
            d.upgrade(0x20, 1)


class TestWriteback:
    def test_writeback_clears_owner_keeps_presence(self, d):
        d.upgrade(0x30, 2)
        d.writeback(0x30, 2)
        assert d.owner(0x30) is None
        assert d.is_present(0x30, 2)  # the R-NUMA modification

    def test_writeback_by_non_owner_raises(self, d):
        d.upgrade(0x30, 2)
        with pytest.raises(ProtocolError):
            d.writeback(0x30, 1)

    def test_writeback_of_unknown_block_raises(self, d):
        with pytest.raises(ProtocolError):
            d.writeback(0x99, 0)

    def test_capacity_after_writeback(self, h):
        """Presence bits stay on across write-backs => capacity on refetch."""
        h.write(pid(2), addr(0, 0x10))
        h.evict(pid(2), addr(0, 0x10))  # the dirty copy is written home
        assert h.counters.writebacks_remote == 1
        h.read(pid(2), addr(0, 0x10))
        assert h.counters.remote_capacity == 1


class TestInspection:
    def test_entries_created_lazily(self, d):
        assert d.n_entries() == 0
        d.upgrade(1, 0)
        d.upgrade(2, 0)
        assert d.n_entries() == 2

    def test_presence_mask_of_unknown_block(self, d):
        assert d.presence_mask(0xDEAD) == 0
        assert d.owner(0xDEAD) is None
