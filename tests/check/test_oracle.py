"""Differential oracle: simulator agreement, value model, parallel identity."""

from __future__ import annotations

import pytest

from repro.check.oracle import (
    OracleSimulator,
    diff_cell,
    diff_parallel_sweep,
    machine_snapshot,
)
from repro.errors import ConfigurationError, OracleDivergenceError
from repro.params import BusProtocol
from repro.sim.runner import get_trace
from repro.sim.simulator import Simulator
from repro.system.builder import build_machine, system_config
from repro.trace.synthetic import BENCHMARK_NAMES

REFS = 2_000
SCALE = 0.03125


@pytest.mark.parametrize("bench", sorted(BENCHMARK_NAMES))
def test_oracle_agrees_on_every_benchmark(bench):
    # one NC-less, one victim-NC, one full page-cache system per benchmark
    for system in ("base", "vp", "vxp2"):
        diff_cell(system, bench, refs=REFS, seed=1, scale=SCALE)


@pytest.mark.parametrize(
    "system", ["nc", "ncd", "ncs", "vb", "p2", "vbp2"]
)
def test_oracle_agrees_on_every_nc_variant(system):
    diff_cell(system, "radix", refs=REFS, seed=2, scale=SCALE)
    diff_cell(system, "ocean", refs=REFS, seed=2, scale=SCALE)


def test_oracle_counters_and_state_match_simulator():
    config = system_config("vbp2")
    trace = get_trace("fft", refs=REFS, seed=3, scale=SCALE)
    machine = build_machine(config, dataset_bytes=trace.dataset_bytes)
    sim = Simulator(machine)
    sim.run(trace)
    oracle = OracleSimulator(config, dataset_bytes=trace.dataset_bytes)
    oracle.run(trace)
    assert sim.counters.as_dict() == oracle.counters.as_dict()
    assert machine_snapshot(machine) == oracle.snapshot()


def test_oracle_rejects_moesir():
    config = system_config("vb", protocol=BusProtocol.MOESIR)
    with pytest.raises(ConfigurationError, match="MESIR"):
        OracleSimulator(config)


def test_divergence_is_detected_and_localised(dropped_dirty_bit):
    """With a bug injected into the optimised simulator only, diff_cell
    must raise and name the first diverging reference."""
    with pytest.raises(OracleDivergenceError) as exc_info:
        diff_cell("vb", "radix", refs=REFS, seed=1, scale=SCALE)
    err = exc_info.value
    assert err.system == "vb" and err.benchmark == "radix"


def test_serial_and_parallel_sweeps_bit_identical():
    n = diff_parallel_sweep(
        ["base", "vp"], ["fft", "radix"], refs=REFS, seed=1, scale=SCALE, jobs=2
    )
    assert n == 4


def test_parallel_diff_now_covers_profiles_and_conservation(monkeypatch):
    """diff_parallel_sweep runs both sweeps profiled: the metrics
    snapshots (profile counters, histograms, series included) must be
    bit-identical and every cell must conserve Eq. 1 exactly — and the
    caller's REPRO_PROFILE setting must be restored afterwards."""
    import os

    from repro.obs.profile import PROFILE_ENV

    monkeypatch.delenv(PROFILE_ENV, raising=False)
    n = diff_parallel_sweep(
        ["vb", "vpp5"], ["radix"], refs=REFS, seed=1, scale=SCALE, jobs=2
    )
    assert n == 2
    assert PROFILE_ENV not in os.environ

    monkeypatch.setenv(PROFILE_ENV, "0")
    diff_parallel_sweep(["base"], ["fft"], refs=REFS, seed=1, scale=SCALE)
    assert os.environ[PROFILE_ENV] == "0"


def test_parallel_diff_catches_broken_attribution(monkeypatch):
    """A profiler that mis-charges a component must fail conservation."""
    from repro.check import oracle as oracle_mod
    from repro.obs.profile import StallProfiler

    original = StallProfiler.on_remote

    def lossy(self, now, is_write):
        # drop every second remote read from the attribution
        original(self, now, is_write)
        if not is_write and self.reads["remote_miss"] % 2 == 0:
            self.reads["remote_miss"] -= 1

    monkeypatch.setattr(StallProfiler, "on_remote", lossy)
    with pytest.raises(OracleDivergenceError, match="conservation"):
        oracle_mod.diff_parallel_sweep(
            ["base"], ["radix"], refs=REFS, seed=1, scale=SCALE, jobs=1
        )
