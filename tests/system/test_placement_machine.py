"""Unit tests for page placement and machine-level inspection."""

from __future__ import annotations

from repro.coherence.states import MESIR, NCState
from repro.system.builder import build_machine, system_config
from repro.system.placement import FirstTouchPlacement


class TestFirstTouchPlacement:
    def test_first_touch_assigns(self):
        p = FirstTouchPlacement()
        assert p.touch(5, 2) == 2
        assert p.home_of(5) == 2

    def test_later_touch_keeps_home(self):
        p = FirstTouchPlacement()
        p.touch(5, 2)
        assert p.touch(5, 7) == 2

    def test_preset_wins(self):
        p = FirstTouchPlacement(preset={5: 3})
        assert p.touch(5, 0) == 3

    def test_unassigned_is_none(self):
        assert FirstTouchPlacement().home_of(9) is None

    def test_balance_metrics(self):
        p = FirstTouchPlacement()
        for page in range(6):
            p.touch(page, page % 2)
        assert p.n_pages() == 6
        assert p.pages_homed_at(0) == 3
        assert p.pages_homed_at(1) == 3


class TestMachineInspection:
    def test_node_of_pid(self):
        m = build_machine(system_config("base"))
        assert m.node_of_pid(0) is m.nodes[0]
        assert m.node_of_pid(31) is m.nodes[7]

    def test_l1_of(self):
        m = build_machine(system_config("base"))
        assert m.l1_of(5) is m.nodes[1].l1s[1]

    def test_dirty_copies_counts_l1(self):
        m = build_machine(system_config("base"))
        m.l1_of(0).insert(0x40, int(MESIR.M))
        assert m.dirty_copies_of(0x40) == 1
        assert m.dirty_copies_of(0x41) == 0

    def test_valid_copy_nodes(self):
        m = build_machine(system_config("base"))
        m.l1_of(0).insert(0x40, int(MESIR.S))
        m.l1_of(4).insert(0x40, int(MESIR.R))
        assert m.valid_copy_nodes(0x40) == {0, 1}

    def test_valid_copy_sees_nc(self):
        m = build_machine(system_config("vb"))
        m.nodes[2].nc.cache.insert(0x40, NCState.CLEAN)
        assert m.valid_copy_nodes(0x40) == {2}
