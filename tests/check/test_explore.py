"""Exhaustive model checker: golden state counts and violation detection.

The golden values pin the *reachable state space* of each tiny
configuration — any protocol change that adds, removes, or re-shapes
reachable states shows up here as a count drift, long before it shifts a
paper figure.  The injected-violation tests prove the checker actually
catches bugs and reports a minimal event path.
"""

from __future__ import annotations

import os

import pytest

from repro.check.explore import (
    DEFAULT_VARIANTS,
    explore_variant,
    tiny_check_config,
)
from repro.coherence.directory import Directory
from repro.errors import ModelCheckViolation, VerificationError

# (states, transitions, max_depth) for the default tiny geometry
# (2 clusters x 2 procs, 1-line L1, 2-line NC, 2 blocks, fixed threshold 1)
GOLDEN = {
    "base": (1869, 29904, 7),
    "nc": (2969, 47504, 7),
    "ncd": (2969, 47504, 7),
    "ncs": (3701, 59216, 9),
    "vb": (2917, 46672, 8),
    "vp": (2917, 46672, 8),
    "p2": (6761, 108176, 11),
    "vbp2": (9665, 154640, 13),
    "vxp2": (9325, 149200, 10),
}

#: the page-cache variants have the largest state spaces (~10 s each);
#: they are explored on every CI run by ``repro check --explore`` and here
#: only when REPRO_CHECK_FULL is set
_HEAVY = {"p2", "vbp2", "vxp2"}

_run_heavy = pytest.mark.skipif(
    not os.environ.get("REPRO_CHECK_FULL"),
    reason="heavy exploration; set REPRO_CHECK_FULL=1 (CI covers it via "
    "`repro check --explore`)",
)


def test_goldens_cover_default_variants():
    assert set(GOLDEN) == set(DEFAULT_VARIANTS)


@pytest.mark.parametrize(
    "system",
    [
        pytest.param(s, marks=_run_heavy) if s in _HEAVY else s
        for s in DEFAULT_VARIANTS
    ],
)
def test_exhaustive_exploration_matches_golden(system):
    report = explore_variant(system)
    assert (report.n_states, report.n_transitions, report.max_depth) == GOLDEN[
        system
    ], f"reachable state space of {system} changed"


def test_self_check_round_trip():
    # canonical -> load -> canonical identity on every explored state
    report = explore_variant("vb", self_check=True)
    assert report.n_states == GOLDEN["vb"][0]


def test_tiny_config_geometry():
    config, dataset = tiny_check_config("vxp2")
    assert config.n_nodes == 2 and config.procs_per_node == 2
    assert config.cache.assoc == 1 and config.cache.n_sets == 1
    assert dataset >= 2 * config.block_size


def test_max_states_overflow_raises():
    with pytest.raises(VerificationError, match="exceeded"):
        explore_variant("base", max_states=10)


def test_injected_lost_invalidation_is_caught(monkeypatch):
    """A directory that grants upgrades without invalidating other copies
    must be caught, with a short (minimal) event path."""
    original = Directory.upgrade

    def broken_upgrade(self, block, cluster):
        original(self, block, cluster)
        return ()  # swallow the invalidation list

    monkeypatch.setattr(Directory, "upgrade", broken_upgrade)
    with pytest.raises(ModelCheckViolation) as exc_info:
        explore_variant("base")
    violation = exc_info.value
    assert violation.system == "base"
    # BFS guarantees minimality; two clusters must each touch the block
    # and one must write, so the path is short but not trivial
    assert 2 <= len(violation.path) <= 6
    assert "->" in str(violation)


def test_injected_dropped_dirty_bit_is_caught(dropped_dirty_bit):
    """A victim NC that silently cleans dirty write-backs loses the only
    up-to-date copy; the checker must notice."""
    with pytest.raises(ModelCheckViolation) as exc_info:
        explore_variant("vb")
    assert exc_info.value.path  # a concrete minimal reproduction exists
