"""Tests for the parallel sweep engine, trace round trips through
``repro.trace.io`` (``TestDiskTraceCache``: identical counters from a
saved and reloaded trace, distinct keys for distinct specs), the bounded
in-process trace cache, per-system sweep overrides, and the throughput
report."""

from __future__ import annotations

import pytest

from repro.analysis.report import throughput_report
from repro.check import DEFAULT_VARIANTS, fuzz, tiny_check_config
from repro.errors import ConfigurationError
from repro.sim import runner
from repro.sim.parallel import chunk_cells, plan_cells
from repro.sim.runner import (
    clear_trace_cache,
    get_trace,
    resolve_sweep_configs,
    run_trace,
    sweep,
)
from repro.trace import io as trace_io
from repro.trace.record import TraceSpec
from repro.trace.synthetic import generate_trace

from repro.system.builder import system_config
from tests.sim.test_batch import assert_identical, run_and_step

SYSTEMS = ["base", "vb"]
BENCHES = ["lu", "radix"]
REFS = 8_000


class TestRunStepEquivalence:
    """run()'s inlined fast path is an optimisation of step(), never a
    semantic change: identical counters, clock and final machine state."""

    @pytest.mark.parametrize("system", ["base", "vb", "vpp5", "ncd", "vxp5"])
    def test_run_matches_step(self, system):
        trace = get_trace("barnes", refs=6_000)
        fast, slow = run_and_step(
            system_config(system), trace.dataset_bytes, trace
        )
        assert_identical(fast, slow)

    @pytest.mark.parametrize("system", DEFAULT_VARIANTS)
    @pytest.mark.parametrize("strategy", fuzz.STRATEGIES)
    def test_fuzz_case_run_matches_step(self, system, strategy):
        # the fuzzer's adversarial interleavings on the tiny check machine:
        # upgrade races, victim storms and relocation edges through run()
        case = fuzz.generate_case(system, 11, strategy)
        config, dataset = tiny_check_config(system, n_blocks=case.n_blocks)
        fast, slow = run_and_step(config, dataset, fuzz.case_trace(case))
        assert_identical(fast, slow)


class TestParallelEquivalence:
    def test_jobs4_bit_identical_to_serial(self):
        serial = sweep(SYSTEMS, BENCHES, refs=REFS)
        clear_trace_cache()
        parallel = sweep(SYSTEMS, BENCHES, refs=REFS, jobs=4)
        assert list(serial) == list(parallel)  # deterministic merge order
        for key in serial:
            assert serial[key].counters == parallel[key].counters, key

    def test_jobs1_is_serial_path(self):
        a = sweep(SYSTEMS, ["lu"], refs=REFS, jobs=1)
        b = sweep(SYSTEMS, ["lu"], refs=REFS)
        for key in b:
            assert a[key].counters == b[key].counters

    def test_plan_matches_serial_order(self):
        configs = resolve_sweep_configs(SYSTEMS)
        cells = plan_cells(configs, BENCHES, refs=REFS)
        assert [(c.system, c.benchmark) for c in cells] == [
            (s, b) for b in BENCHES for s in SYSTEMS
        ]

    def test_chunks_cover_all_cells(self):
        configs = resolve_sweep_configs(SYSTEMS)
        cells = plan_cells(configs, BENCHES, refs=REFS)
        for jobs in (1, 2, 3, 8):
            chunks = chunk_cells(cells, jobs)
            flat = [c for chunk in chunks for c in chunk]
            assert sorted((c.system, c.benchmark) for c in flat) == sorted(
                (c.system, c.benchmark) for c in cells
            )

    def test_chunks_keep_benchmark_grouped_when_enough(self):
        configs = resolve_sweep_configs(SYSTEMS)
        cells = plan_cells(configs, BENCHES, refs=REFS)
        chunks = chunk_cells(cells, jobs=2)
        for chunk in chunks:
            assert len({c.benchmark for c in chunk}) == 1


class TestDiskTraceCache:
    def test_round_trip_identical_counters(self, tmp_path):
        spec = TraceSpec(benchmark="lu", refs=REFS, seed=1, scale=0.125)
        fresh = generate_trace(spec)
        trace_io.save_trace(fresh, tmp_path / "lu.npz")
        cached = trace_io.load_trace(tmp_path / "lu.npz")
        config = resolve_sweep_configs(["vb"])["vb"]
        a = run_trace(config, fresh, system_name="vb")
        b = run_trace(config, cached, system_name="vb")
        assert a.counters == b.counters

    def test_key_distinguishes_specs(self):
        a = trace_io.trace_cache_key(TraceSpec(benchmark="lu", refs=1000))
        b = trace_io.trace_cache_key(TraceSpec(benchmark="lu", refs=2000))
        c = trace_io.trace_cache_key(TraceSpec(benchmark="lu", refs=1000, seed=2))
        assert len({a, b, c}) == 3


class TestBoundedTraceCache:
    def test_lru_bound_respected(self):
        clear_trace_cache()
        for seed in range(runner.TRACE_CACHE_MAX + 4):
            get_trace("lu", refs=1_000, seed=seed)
        assert len(runner._trace_cache) == runner.TRACE_CACHE_MAX

    def test_lru_evicts_oldest_first(self):
        clear_trace_cache()
        first = get_trace("lu", refs=1_000, seed=0)
        for seed in range(1, runner.TRACE_CACHE_MAX):
            get_trace("lu", refs=1_000, seed=seed)
        # touching the oldest promotes it past the next eviction
        assert get_trace("lu", refs=1_000, seed=0) is first
        get_trace("lu", refs=1_000, seed=runner.TRACE_CACHE_MAX)
        assert get_trace("lu", refs=1_000, seed=0) is first

    def test_clear_still_works(self):
        get_trace("lu", refs=1_000)
        clear_trace_cache()
        assert len(runner._trace_cache) == 0


class TestSweepOverrides:
    def test_shared_overrides_apply_to_all(self):
        out = sweep(SYSTEMS, ["lu"], refs=REFS, cache_assoc=4)
        for r in out.values():
            assert r.config.cache.assoc == 4

    def test_per_system_overrides_scoped(self):
        out = sweep(
            SYSTEMS, ["lu"], refs=REFS, config_overrides={"vb": {"nc_size": 1024}}
        )
        assert out[("vb", "lu")].config.nc.size == 1024
        assert out[("base", "lu")].config.nc.size != 1024

    def test_per_system_layers_over_shared(self):
        out = sweep(
            SYSTEMS,
            ["lu"],
            refs=REFS,
            cache_assoc=4,
            config_overrides={"vb": {"cache_assoc": 1}},
        )
        assert out[("base", "lu")].config.cache.assoc == 4
        assert out[("vb", "lu")].config.cache.assoc == 1

    def test_unknown_shared_override_named(self):
        with pytest.raises(ConfigurationError, match="bogus_knob"):
            sweep(SYSTEMS, ["lu"], refs=REFS, bogus_knob=1)

    def test_unknown_per_system_override_named(self):
        with pytest.raises(ConfigurationError, match="bad_key"):
            sweep(
                SYSTEMS, ["lu"], refs=REFS, config_overrides={"vb": {"bad_key": 1}}
            )

    def test_override_for_absent_system_rejected(self):
        with pytest.raises(ConfigurationError, match="vpp5"):
            sweep(SYSTEMS, ["lu"], refs=REFS, config_overrides={"vpp5": {}})

    def test_validation_is_eager(self):
        # the error must fire before any simulation work happens
        clear_trace_cache()
        with pytest.raises(ConfigurationError):
            sweep(SYSTEMS, ["lu"], refs=REFS, config_overrides={"vb": {"nope": 1}})
        assert len(runner._trace_cache) == 0


class TestThroughputReport:
    def test_report_contains_cells_and_total(self):
        results = sweep(SYSTEMS, ["lu"], refs=REFS)
        report = throughput_report(results, wall_s=1.0, jobs=2)
        for system in SYSTEMS:
            assert system in report
        assert "total" in report and "refs/s" in report
        assert "jobs=2" in report

    def test_refs_per_sec_property(self):
        results = sweep(["base"], ["lu"], refs=REFS)
        r = results[("base", "lu")]
        assert r.refs_per_sec == pytest.approx(r.refs / r.elapsed_s)

    def test_refs_per_sec_zero_without_timing(self):
        results = sweep(["base"], ["lu"], refs=REFS)
        r = results[("base", "lu")]
        r.elapsed_s = 0.0
        assert r.refs_per_sec == 0.0
