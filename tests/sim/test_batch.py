"""Tests for the batched reference loop of `Simulator.run()`.

`run()` converts the trace to Python ints ``_RUN_CHUNK`` references at a
time and inlines the L1-hit path over each batch; `step()` processes one
reference.  The batched loop is an optimisation, never a semantic change:
every test here pins bit-identity against reference-at-a-time `step()` —
counters *and* complete final machine state — across the full NC-variant
matrix, across batch boundaries, under the process pool, and with the
stall profiler attached.
"""

from __future__ import annotations

import pytest

from repro.check import tiny_check_config
from repro.check.fuzz import FuzzCase, case_trace
from repro.check.oracle import machine_snapshot
from repro.obs.profile import attributed_stall
from repro.sim.latency import remote_read_stall
from repro.sim.runner import get_trace, simulate, sweep
from repro.sim.simulator import Simulator
from repro.sim.validate import check_machine
from repro.system.builder import build_machine, system_config

ALL_VARIANTS = ["base", "nc", "ncd", "ncs", "vb", "vp", "p2", "vbp2", "vxp2"]
ALL_BENCHMARKS = [
    "barnes", "cholesky", "fft", "fmm", "lu", "ocean", "radix", "raytrace",
]


def run_and_step(config, dataset_bytes, trace):
    """Replay one trace through `run()` and through `step()`; return both."""
    batched = Simulator(build_machine(config, dataset_bytes=dataset_bytes))
    batched.run(trace)
    stepped = Simulator(build_machine(config, dataset_bytes=dataset_bytes))
    if trace.placement:
        for page, home in trace.placement.items():
            stepped.machine.placement.touch(page, home)
    for pid, addr, w in zip(
        trace.pids.tolist(), trace.addrs.tolist(), trace.writes.tolist()
    ):
        stepped.step(pid, addr, bool(w))
    return batched, stepped


def assert_identical(batched, stepped):
    assert batched.counters.as_dict() == stepped.counters.as_dict()
    assert batched.now == stepped.now
    assert machine_snapshot(batched.machine) == machine_snapshot(stepped.machine)


class TestBitIdentityMatrix:
    """run() == step() on every NC variant x every benchmark."""

    @pytest.mark.parametrize("system", ALL_VARIANTS)
    @pytest.mark.parametrize("bench", ALL_BENCHMARKS)
    def test_counters_and_state_identical(self, system, bench):
        trace = get_trace(bench, refs=3_000, scale=0.03125)
        batched, stepped = run_and_step(
            system_config(system), trace.dataset_bytes, trace
        )
        assert_identical(batched, stepped)


class TestBatchBoundaries:
    """Adversarial reference patterns straddling batch boundaries.

    Shrinking ``_RUN_CHUNK`` forces the crafted interactions to land both
    inside one batch and across consecutive batches; the tiny check
    machine (one-line L1s, two-line NCs) makes every pattern hit the miss
    path between inlined hits.
    """

    @pytest.fixture(params=[4, 16, 1 << 14], ids=["b4", "b16", "b16k"])
    def batch_size(self, request, monkeypatch):
        monkeypatch.setattr(Simulator, "_RUN_CHUNK", request.param)
        return request.param

    def _assert_identical(self, events, system="base", n_blocks=4):
        case = FuzzCase(system, 0, "crafted", n_blocks, events)
        config, dataset = tiny_check_config(system, n_blocks=n_blocks)
        batched, stepped = run_and_step(config, dataset, case_trace(case))
        assert_identical(batched, stepped)
        batched.counters.check()
        check_machine(batched.machine)

    def test_upgrade_then_read_same_block_two_pids(self, batch_size):
        # pid 0 holds the block shared; pid 1 upgrades it (invalidating
        # pid 0); pid 0 re-reads — all within one batch.  The re-read must
        # miss: the inlined hit path sees the invalidation immediately.
        events = []
        for block in range(4):
            events += [(0, block, 0), (1, block, 1), (0, block, 0)]
        self._assert_identical(events * 8)

    def test_write_then_read_same_pid(self, batch_size):
        events = []
        for block in range(4):
            events += [(0, block, 1), (0, block, 0), (1, block, 0), (1, block, 1)]
        self._assert_identical(events * 8)

    def test_miss_evicted_line_rereferenced(self, batch_size):
        # cycle more blocks than the tiny L1 holds so every miss evicts,
        # then immediately re-reference the victim inside the same batch
        events = []
        for round_ in range(8):
            for block in range(4):
                events.append((0, block, 0))
                events.append((0, (block + 1) % 4, 0))
                events.append((0, block, 0))
        self._assert_identical(events)

    def test_ping_pong_ownership(self, batch_size):
        events = []
        for i in range(64):
            events.append((i % 2, 1, i % 3 == 0))
            events.append(((i + 1) % 2, 1, 0))
        self._assert_identical(events, system="vb")

    def test_dense_read_run_split_by_boundary(self, batch_size):
        # a long pure-read run (inlined hit path) with a single remote
        # write dropped mid-run: correctness must not depend on where the
        # batch boundary falls inside the run
        events = [(0, 1, 0)] * 40 + [(1, 1, 1)] + [(0, 1, 0)] * 40
        self._assert_identical(events, system="vxp2")


class TestBatchUnderJobs:
    """serial == small-batch serial == small-batch parallel, cell for cell."""

    def test_three_way_sweep_identity(self, monkeypatch):
        systems, benches = ["base", "vb"], ["fft", "lu"]
        kw = dict(refs=4_000, scale=0.03125)
        serial = sweep(systems, benches, jobs=1, **kw)
        # forked sweep workers inherit the patched class attribute
        monkeypatch.setattr(Simulator, "_RUN_CHUNK", 64)
        small_serial = sweep(systems, benches, jobs=1, **kw)
        small_parallel = sweep(systems, benches, jobs=2, **kw)
        assert list(serial) == list(small_serial) == list(small_parallel)
        for key in serial:
            a = serial[key].counters.as_dict()
            assert a == small_serial[key].counters.as_dict()
            assert a == small_parallel[key].counters.as_dict()
            assert serial[key].metrics == small_parallel[key].metrics


class TestBatchProfiled:
    """The profiler attributes stalls identically at any batch size."""

    @pytest.mark.parametrize("system", ["vb", "vxp2"])
    def test_profiled_run_identical_and_conserves(self, system, monkeypatch):
        a = simulate(system, "radix", refs=6_000, scale=0.03125, profile=True)
        monkeypatch.setattr(Simulator, "_RUN_CHUNK", 64)
        b = simulate(system, "radix", refs=6_000, scale=0.03125, profile=True)
        assert a.counters.as_dict() == b.counters.as_dict()
        assert a.metrics == b.metrics
        attributed = attributed_stall(b.metrics, system, "radix")
        assert attributed == int(remote_read_stall(b.counters, b.config))
