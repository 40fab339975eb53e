"""Tests for the stall profiler and the Chrome trace exporter.

The two load-bearing guarantees pinned here:

* **conservation** — the profiler's per-component attributed stall sums
  *integer-equal* to ``remote_read_stall(counters, config)`` (Eq. 1) for
  every NC flavour, SRAM and DRAM latencies alike, and the profiled
  attribution matches the closed-form ``stall_components`` exactly;
* **determinism and transparency** — profiling never perturbs the
  simulation (counters identical with it on or off), and a serial sweep
  and a ``jobs=N`` sweep produce bit-identical profile snapshots.
"""

from __future__ import annotations

import math
import os

import pytest

from repro.errors import ConfigurationError
from repro.obs.profile import (
    STALL_COMPONENTS,
    StallProfiler,
    attributed_stall,
    profiled_cells,
    stall_breakdown,
)
from repro.obs.timeline import (
    export_chrome_trace,
    trace_simulation,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.params import SETTINGS
from repro.sim.latency import remote_read_stall, stall_components
from repro.sim.parallel import sweep_metrics
from repro.sim.runner import clear_trace_cache, simulate, sweep
from repro.system.builder import system_config

REFS = 8_000

#: every distinct NC/PC flavour, including the DRAM-latency systems
#: (ncd/dinf use DRAM hit/miss latencies, so they catch a profiler that
#: hard-codes the SRAM Table 1 numbers)
CONSERVATION_SYSTEMS = ["base", "vb", "vpp5", "ncd", "vxp5", "dinf", "p"]


class TestConservation:
    @pytest.mark.parametrize("system", CONSERVATION_SYSTEMS)
    def test_attribution_sums_to_eq1_exactly(self, system):
        r = simulate(system, "radix", refs=REFS, profile=True)
        attributed = attributed_stall(r.metrics, system, "radix")
        assert attributed == int(remote_read_stall(r.counters, r.config))

    @pytest.mark.parametrize("system", CONSERVATION_SYSTEMS)
    def test_breakdown_matches_closed_form_per_component(self, system):
        r = simulate(system, "radix", refs=REFS, profile=True)
        assert stall_breakdown(r.metrics, system, "radix") == stall_components(
            r.counters, r.config
        )

    def test_relocation_component_charged(self):
        # vpp5 relocates pages at this scale; the 225-cycle spans must
        # land in the 'relocation' component, not vanish
        r = simulate("vpp5", "barnes", refs=40_000, profile=True)
        parts = stall_breakdown(r.metrics, "vpp5", "barnes")
        assert parts["relocation"] == (
            r.counters.pc_relocations * r.config.latency.page_relocation
        )

    def test_stall_components_result_property(self):
        r = simulate("vb", "lu", refs=REFS)
        parts = r.stall_components
        assert set(parts) == set(STALL_COMPONENTS)
        assert sum(parts.values()) == int(remote_read_stall(r.counters, r.config))


class TestTransparency:
    @pytest.mark.parametrize("system", ["base", "vb", "vxp5", "ncd"])
    def test_counters_identical_with_and_without_profiler(self, system):
        plain = simulate(system, "radix", refs=REFS)
        profiled = simulate(system, "radix", refs=REFS, profile=True)
        assert plain.counters == profiled.counters

    def test_profile_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        r = simulate("vb", "radix", refs=REFS)
        assert profiled_cells(r.metrics) == []

    def test_env_enables_profiling(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        r = simulate("vb", "radix", refs=REFS)
        assert profiled_cells(r.metrics) == ["vb/radix"]
        monkeypatch.setenv("REPRO_PROFILE", "off")
        r2 = simulate("vb", "radix", refs=REFS)
        assert profiled_cells(r2.metrics) == []


class TestSweepDeterminism:
    def test_serial_and_parallel_profiles_bit_identical(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        systems, benches = ["base", "vb"], ["lu", "radix"]
        serial = sweep(systems, benches, refs=REFS, jobs=1)
        clear_trace_cache()
        parallel = sweep(systems, benches, refs=REFS, jobs=4)
        for key in serial:
            assert serial[key].metrics == parallel[key].metrics
        assert sweep_metrics(serial) == sweep_metrics(parallel)
        # the aggregate keeps every cell's attribution separate
        agg = sweep_metrics(serial)
        assert sorted(profiled_cells(agg)) == sorted(
            f"{s}/{b}" for s in systems for b in benches
        )

    def test_profile_flag_reaches_every_worker(self, monkeypatch):
        # the flag travels with each cell: no process-wide switch is set
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        results = sweep(["vb", "vpp5"], ["radix"], refs=REFS, jobs=2, profile=True)
        for (system, bench), r in results.items():
            assert profiled_cells(r.metrics) == [f"{system}/{bench}"]
        assert "REPRO_PROFILE" not in os.environ

    def test_aggregate_conserves_per_cell(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        results = sweep(["vb", "vpp5"], ["radix"], refs=REFS)
        agg = sweep_metrics(results)
        for (system, bench), r in results.items():
            assert attributed_stall(agg, system, bench) == int(
                remote_read_stall(r.counters, r.config)
            )


class TestTimelineSeries:
    def test_window_count_covers_the_whole_run(self):
        window = 1_000
        config = system_config("vb")
        profiler = StallProfiler(config, window=window)
        r = simulate("vb", "radix", refs=REFS, profile=True)
        refs = r.refs
        series = r.metrics["series"]["series.profile/vb/radix/remote_misses"]
        assert series["window"] == SETTINGS["REPRO_PROFILE_WINDOW"].default
        assert len(series["values"]) == math.ceil(
            refs / SETTINGS["REPRO_PROFILE_WINDOW"].default
        )
        assert profiler.window == window  # explicit window overrides env

    def test_series_totals_match_counters(self):
        r = simulate("vxp5", "radix", refs=REFS, profile=True)
        series = r.metrics["series"]
        pre = "series.profile/vxp5/radix/"
        c = r.counters
        assert sum(series[pre + "remote_misses"]["values"]) == (
            c.read_remote + c.write_remote
        )
        assert sum(series[pre + "nc_hits"]["values"]) == (
            c.read_nc_hits + c.write_nc_hits
        )
        assert sum(series[pre + "relocations"]["values"]) == c.pc_relocations
        assert sum(series[pre + "stall_cycles"]["values"]) == attributed_stall(
            r.metrics, "vxp5", "radix"
        )

    def test_window_env_is_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE_WINDOW", "500")
        profiler = StallProfiler(system_config("base"))
        assert profiler.window == 500
        monkeypatch.setenv("REPRO_PROFILE_WINDOW", "0")
        with pytest.raises(ConfigurationError, match="REPRO_PROFILE_WINDOW"):
            StallProfiler(system_config("base"))

    def test_snapshot_before_finish_is_an_error(self):
        profiler = StallProfiler(system_config("base"))
        with pytest.raises(RuntimeError, match="finish"):
            profiler.snapshot("base", "radix")

    def test_unit_hooks_and_finish(self):
        profiler = StallProfiler(system_config("vb"), window=10)
        profiler.on_nc_hit(1, False)
        profiler.on_remote(5, False)
        profiler.on_remote(12, True)   # write: counted, not charged
        profiler.on_cluster_hit(25, False)
        profiler.finish(30)
        lat = profiler.latencies
        assert profiler.stall_cycles["nc_hit"] == lat["nc_hit"]
        assert profiler.stall_cycles["remote_miss"] == lat["remote_miss"]
        assert profiler.total_stall == (
            lat["nc_hit"] + lat["remote_miss"] + lat["cluster_hit"]
        )
        tl = profiler.timeline()
        assert len(tl["remote_misses"]) == 3  # refs 1-10, 11-20, 21-30
        assert tl["remote_misses"] == [1, 1, 0]
        assert tl["cluster_hits"] == [0, 0, 1]
        profiler.finish(30)  # idempotent
        assert len(profiler.timeline()["remote_misses"]) == 3


class TestChromeTraceExport:
    def test_exported_trace_validates(self, tmp_path):
        result, doc = trace_simulation("vpp5", "radix", refs=REFS)
        assert validate_chrome_trace(doc) == []
        path = tmp_path / "trace.json"
        write_chrome_trace(doc, str(path))
        assert validate_chrome_trace(str(path)) == []
        assert result.refs > 0

    def test_spans_and_metadata_shape(self):
        _, doc = trace_simulation("vb", "radix", refs=REFS)
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases <= {"X", "i", "M"} and "X" in phases and "M" in phases
        # one process_name + one thread_name row per cluster
        names = [e for e in events if e["ph"] == "M" and e["name"] == "process_name"]
        clusters = {e["pid"] for e in events}
        assert len(names) == len(clusters)
        # spans carry the Table 1/2 latency as their duration
        spans = [e for e in events if e["ph"] == "X"]
        assert all(e["dur"] > 0 for e in spans)
        assert doc["metadata"]["system"] == "vb"

    def test_per_cluster_rows_never_self_overlap(self):
        _, doc = trace_simulation("vb", "radix", refs=REFS)
        last_end = {}
        for e in doc["traceEvents"]:
            if e["ph"] != "X":
                continue
            assert e["ts"] >= last_end.get(e["pid"], 0)
            last_end[e["pid"]] = e["ts"] + e["dur"]

    def test_export_is_deterministic(self):
        _, a = trace_simulation("vb", "radix", refs=REFS)
        clear_trace_cache()
        _, b = trace_simulation("vb", "radix", refs=REFS)
        assert a == b

    def test_validator_rejects_malformed_documents(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) == ["traceEvents is missing or not an array"]
        bad_phase = {"traceEvents": [
            {"name": "x", "ph": "B", "pid": 0, "tid": 0, "ts": 0}
        ]}
        assert any("phase" in p for p in validate_chrome_trace(bad_phase))
        no_dur = {"traceEvents": [
            {"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": 0}
        ]}
        assert any("dur" in p for p in validate_chrome_trace(no_dur))
        bad_ts = {"traceEvents": [
            {"name": "x", "ph": "i", "pid": 0, "tid": 0, "ts": -1, "s": "t"}
        ]}
        assert any("ts" in p for p in validate_chrome_trace(bad_ts))

    def test_validator_reads_files_and_reports_unreadable(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert any(
            "unreadable" in p for p in validate_chrome_trace(str(missing))
        )

    def test_export_empty_stream_flags_emptiness(self):
        doc = export_chrome_trace([], system_config("base"))
        assert any("empty" in p for p in validate_chrome_trace(doc))
