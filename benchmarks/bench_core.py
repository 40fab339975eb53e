"""Micro-benchmarks of the simulator's hot paths.

These track the cost of the operations every reference pays (cache
lookup, the full per-reference step, trace generation), so a performance
regression in the engine shows up here rather than as a mysteriously slow
figure bench.
"""

import numpy as np
import pytest

from repro import build_machine, get_trace, system_config
from repro.coherence.cache import SetAssocCache
from repro.params import CacheGeometry
from repro.sim.simulator import Simulator
from repro.trace.record import Trace, TraceSpec
from repro.trace.synthetic import generate_trace


def test_cache_lookup_hit(benchmark):
    cache = SetAssocCache(CacheGeometry(16 * 1024, 2))
    for block in range(256):
        cache.insert(block, 1)
    blocks = list(range(256)) * 4

    def lookups():
        for b in blocks:
            cache.lookup(b)

    benchmark(lookups)


def test_cache_insert_evict(benchmark):
    cache = SetAssocCache(CacheGeometry(16 * 1024, 2))
    blocks = list(range(4096))

    def churn():
        for b in blocks:
            cache.insert(b, 1)

    benchmark(churn)


#: one cell per NC organisation's miss-path chain: none, victim (block-
#: and page-indexed, R-NUMA and NC-set counters), dirty inclusion, full
#: inclusion, infinite
@pytest.mark.parametrize("system", ["base", "vb", "vpp5", "ncd", "ncp5", "ncs", "vxp5"])
def test_step_throughput(benchmark, system):
    """Whole-simulator throughput: references simulated per benchmark round."""
    trace = get_trace("barnes", refs=40_000)
    config = system_config(system)

    def run_once():
        machine = build_machine(config, dataset_bytes=trace.dataset_bytes)
        Simulator(machine).run(trace)

    benchmark.pedantic(run_once, rounds=3, iterations=1)
    benchmark.extra_info["refs_per_sec"] = len(trace) / benchmark.stats.stats.min


def test_step_throughput_profiled(benchmark):
    """Whole-simulator throughput with the stall profiler attached.

    Tracked against its own baseline floor so a regression in the
    profiler's miss-path hooks (e.g. work leaking onto the read-hit fast
    path, or per-event allocation in the window tallies) fails the bench
    gate even though profiling is off by default.
    """
    from repro.obs.profile import StallProfiler

    trace = get_trace("barnes", refs=40_000)
    config = system_config("vpp5")

    def run_once():
        machine = build_machine(config, dataset_bytes=trace.dataset_bytes)
        profiler = StallProfiler(config)
        Simulator(machine, profiler=profiler).run(trace)
        profiler.finish(len(trace))

    benchmark.pedantic(run_once, rounds=3, iterations=1)
    benchmark.extra_info["refs_per_sec"] = len(trace) / benchmark.stats.stats.min


#: conservative floor for the L1 read-hit fast path: the inlined loop
#: clears 400k refs/s by a wide margin even on loaded CI machines
FAST_PATH_FLOOR_REFS_PER_SEC = 400_000.0


def test_run_read_hit_fast_path(benchmark):
    """The hot path in isolation: one processor re-reading an L1-resident
    footprint, so every reference after the first pass is an inlined
    read hit.  Records refs/sec and asserts the optimisation floor."""
    refs = 200_000
    n_blocks = 128  # 4 KB footprint: fits any configured L1
    config = system_config("base")
    block_size = config.cache.block_size
    addrs = (np.arange(refs, dtype=np.int64) % n_blocks) * block_size
    trace = Trace(
        "hitloop",
        np.zeros(refs, dtype=np.int32),
        addrs,
        np.zeros(refs, dtype=np.uint8),
        dataset_bytes=n_blocks * block_size,
    )

    def run_once():
        machine = build_machine(config, dataset_bytes=trace.dataset_bytes)
        Simulator(machine).run(trace)

    benchmark.pedantic(run_once, rounds=3, iterations=1)
    refs_per_sec = refs / benchmark.stats.stats.min
    benchmark.extra_info["refs_per_sec"] = refs_per_sec
    assert refs_per_sec >= FAST_PATH_FLOOR_REFS_PER_SEC, (
        f"read-hit fast path regressed: {refs_per_sec:,.0f} refs/s is below "
        f"the {FAST_PATH_FLOOR_REFS_PER_SEC:,.0f} floor"
    )


@pytest.mark.parametrize("bench", ["radix", "raytrace"])
def test_trace_generation(benchmark, bench):
    spec = TraceSpec(benchmark=bench, refs=100_000, seed=3)
    benchmark.pedantic(lambda: generate_trace(spec), rounds=3, iterations=1)
