"""Shared fixtures and helpers for the repro test suite.

The protocol tests drive :class:`repro.sim.simulator.Simulator` directly
through scripted reference sequences on a small machine (2 nodes x 2
processors, 1 KB 2-way caches), which keeps scenarios readable: a 1 KB
cache has 8 sets, so eviction patterns are easy to construct by hand.
"""

from __future__ import annotations

import pytest

from repro.params import SystemConfig
from repro.sim.simulator import Simulator
from repro.system.builder import build_machine, system_config

PAGE = 4096
BLOCK = 64


def addr(page: int, block_off: int = 0, word: int = 0) -> int:
    """Byte address of word ``word`` of block ``block_off`` of ``page``."""
    return page * PAGE + block_off * BLOCK + word * 4


class Harness:
    """A tiny machine plus scripted access helpers."""

    #: :meth:`evict` reads its filler blocks from pages at this address on
    FILLER_BASE = 1 << 30

    def __init__(self, config: SystemConfig, dataset_bytes: int = 1 << 22):
        self.config = config
        self.machine = build_machine(config, dataset_bytes=dataset_bytes)
        self.sim = Simulator(self.machine)
        self._next_filler = self.FILLER_BASE

    # -- direct protocol drivers -------------------------------------

    def home(self, page: int, node: int) -> None:
        """Pin a page's home node (as first-touch would)."""
        self.machine.placement.touch(page, node)

    def read(self, pid: int, a: int) -> None:
        self.sim.step(pid, a, False)

    def write(self, pid: int, a: int) -> None:
        self.sim.step(pid, a, True)

    def evict(self, pid: int, a: int) -> None:
        """Push the block at ``a`` out of pid's L1: read one block per way
        into its set, each from a fresh page homed in pid's node, so the
        fillers always miss and never enter an NC themselves."""
        node = pid // self.config.procs_per_node
        cache = self.config.cache
        # stepping by whole pages and whole L1 ways keeps the set index
        stride = max(PAGE, cache.size // cache.assoc)
        for _ in range(cache.assoc):
            filler = self._next_filler + a % stride
            self._next_filler += stride
            self.home(filler // PAGE, node)
            self.read(pid, filler)

    # -- state inspection ----------------------------------------------

    def l1(self, pid: int):
        return self.machine.l1_of(pid)

    def l1_state(self, pid: int, a: int):
        line = self.machine.l1_of(pid).peek(a >> 6)
        return None if line is None else line.state

    def node(self, idx: int):
        return self.machine.nodes[idx]

    def nc_state(self, node: int, a: int):
        return self.machine.nodes[node].nc.probe(a >> 6)

    def pc_state(self, node: int, a: int):
        pc = self.machine.nodes[node].pc
        if pc is None:
            return None
        block = a >> 6
        return pc.block_state(block >> 6, block & 63)

    @property
    def counters(self):
        return self.sim.counters


def tiny_config(system: str = "base", **overrides) -> SystemConfig:
    """A 2-node x 2-proc machine with 1 KB 2-way caches and a 1 KB NC."""
    defaults = dict(
        n_nodes=2,
        procs_per_node=2,
        cache_size=1024,
        nc_size=1024,
    )
    defaults.update(overrides)
    return system_config(system, **defaults)


@pytest.fixture
def base_harness() -> Harness:
    return Harness(tiny_config("base"))


@pytest.fixture
def vb_harness() -> Harness:
    return Harness(tiny_config("vb"))


@pytest.fixture
def nc_harness() -> Harness:
    return Harness(tiny_config("nc"))


@pytest.fixture
def make_harness():
    def _make(system: str = "base", dataset_bytes: int = 1 << 22, **overrides):
        return Harness(tiny_config(system, **overrides), dataset_bytes)

    return _make
