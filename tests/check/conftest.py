"""Fault injection shared by the checker tests.

Each checker (the model checker, the differential oracle and the fuzzer)
must catch the same planted bug: a victim NC that silently cleans the
dirty victims it captures, losing the only up-to-date copy of a block
the directory says the cluster owns.
"""

from __future__ import annotations

import pytest

from repro.params import NCKind
from repro.sim.simulator import Simulator


def drop_victim_dirty_bits(monkeypatch) -> None:
    """Patch ``Simulator._nc_accept`` so a victim NC takes every dirty
    victim as clean."""
    accept = Simulator._nc_accept

    def dropping_accept(self, node_idx, block, dirty):
        if self.config.nc.kind is NCKind.VICTIM:
            dirty = False
        return accept(self, node_idx, block, dirty)

    monkeypatch.setattr(Simulator, "_nc_accept", dropping_accept)


@pytest.fixture
def dropped_dirty_bit(monkeypatch):
    """Inject: the victim NC silently cleans dirty write-backs."""
    drop_victim_dirty_bits(monkeypatch)
