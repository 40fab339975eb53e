"""Tests for the machine-wide invariant checker — and, through it, deeper
end-to-end validation of every system (the checker sweeps the full state
after real simulations)."""

from __future__ import annotations

import pytest

from repro.coherence.states import MESIR, NCState
from repro.sim.runner import get_trace
from repro.sim.simulator import Simulator
from repro.sim.validate import InvariantViolation, check_machine
from repro.system.builder import build_machine, system_config
from tests.conftest import Harness, addr, tiny_config


class TestDetectsViolations:
    def test_two_dirty_copies(self):
        m = build_machine(system_config("base"))
        m.placement.touch(1, 0)
        m.l1_of(0).insert(64, int(MESIR.M))
        m.l1_of(4).insert(64, int(MESIR.M))
        with pytest.raises(InvariantViolation, match="dirty in nodes"):
            check_machine(m)

    def test_exclusive_with_other_copies(self):
        m = build_machine(system_config("base"))
        m.placement.touch(1, 0)
        m.directory._entries[64] = [0b01, 0]  # cluster 0 owns it
        m.directory._entries[65] = [0b10, -1]
        m.l1_of(0).insert(64, int(MESIR.M))
        m.l1_of(4).insert(64, int(MESIR.S))
        with pytest.raises(InvariantViolation, match="E/M"):
            check_machine(m)

    def test_owner_without_dirty_copy(self):
        m = build_machine(system_config("base"))
        m.placement.touch(1, 0)
        m.directory.upgrade(64, 1)  # cluster 1 claims ownership
        with pytest.raises(InvariantViolation, match="owns"):
            check_machine(m)

    def test_remote_dirty_without_ownership(self):
        m = build_machine(system_config("base"))
        m.placement.touch(1, 0)  # home node 0
        m.directory._entries[64] = [0b10, -1]  # presence only
        m.l1_of(4).insert(64, int(MESIR.M))  # node 1 dirty, unregistered
        with pytest.raises(InvariantViolation, match="without"):
            check_machine(m)

    def test_missing_presence_bit(self):
        m = build_machine(system_config("base"))
        m.placement.touch(1, 0)
        m.l1_of(4).insert(64, int(MESIR.S))  # node 1, no directory trace
        with pytest.raises(InvariantViolation, match="presence"):
            check_machine(m)

    def test_nc_holding_local_block(self):
        m = build_machine(system_config("vb"))
        m.placement.touch(1, 2)
        m.nodes[2].nc.cache.insert(64, NCState.CLEAN)
        with pytest.raises(InvariantViolation, match="local block"):
            check_machine(m)

    def test_full_inclusion_hole(self):
        m = build_machine(system_config("ncd"))
        m.placement.touch(1, 1)
        m.directory._entries[64] = [0b01, -1]
        m.l1_of(0).insert(64, int(MESIR.S))  # L1 copy without NC frame
        with pytest.raises(InvariantViolation, match="full inclusion"):
            check_machine(m)

    def test_dirty_inclusion_hole(self):
        m = build_machine(system_config("nc"))
        m.placement.touch(1, 1)
        m.directory.upgrade(64, 0)  # node 0 owns the remote block
        m.l1_of(0).insert(64, int(MESIR.M))  # dirty L1 copy without NC frame
        with pytest.raises(InvariantViolation, match="dirty inclusion"):
            check_machine(m)

    def test_clean_machine_passes(self):
        check_machine(build_machine(system_config("vb")))


class TestRealRunsStayClean:
    @pytest.mark.parametrize(
        "system",
        ["base", "nc", "vb", "vp", "ncs", "ncd", "dinf", "ncp5", "vbp5", "vxp5"],
    )
    def test_after_barnes(self, system):
        trace = get_trace("barnes", refs=30_000)
        machine = build_machine(
            system_config(system), dataset_bytes=trace.dataset_bytes
        )
        Simulator(machine).run(trace)
        check_machine(machine)

    @pytest.mark.parametrize("bench", ["radix", "ocean", "lu"])
    def test_vxp_after_each_class(self, bench):
        trace = get_trace(bench, refs=30_000)
        machine = build_machine(
            system_config("vxp5"), dataset_bytes=trace.dataset_bytes
        )
        Simulator(machine).run(trace)
        check_machine(machine)

    def test_scripted_harness_state_validates(self):
        h = Harness(tiny_config("vbp5"))
        for i in range(4):
            h.home(i, i % 2)
        for pid in range(4):
            for page in range(4):
                h.read(pid, addr(page, pid * 7 % 64))
                h.write(pid, addr(page, (pid * 7 + 1) % 64))
        check_machine(h.machine)
