"""Tests for the observability subsystem: event tracing, the metrics
registry, deterministic sweep aggregation, and run manifests.

The two load-bearing guarantees pinned here:

* attaching a tracer **never changes simulation results** (counters are
  bit-identical with and without one), and the traced event totals agree
  exactly with the engine's own counters;
* metrics and manifests are **deterministic**: a parallel sweep's
  aggregate equals the serial one, and two manifests of the same sweep
  agree bit-for-bit once volatile (timing/environment) fields are
  stripped.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.events import EVENT_KINDS, EventTracer
from repro.obs.manifest import (
    build_manifest,
    config_digest,
    manifest_core,
    maybe_write_sweep_manifest,
    write_manifest,
)
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    aggregate_metrics,
    merge_snapshots,
)
from repro.sim.parallel import sweep_metrics, timed_sweep
from repro.sim.runner import (
    clear_trace_cache,
    resolve_sweep_configs,
    simulate,
    sweep,
)

REFS = 8_000

SYSTEMS = ["base", "vb"]
BENCHES = ["lu", "radix"]


def traced_pair(system: str, benchmark: str, refs: int = REFS):
    """The same simulation twice: without and with a tracer attached."""
    plain = simulate(system, benchmark, refs=refs)
    tracer = EventTracer()
    traced = simulate(system, benchmark, refs=refs, tracer=tracer)
    return plain, traced, tracer


class TestTracerTransparency:
    """A tracer observes the run; it must never perturb it."""

    @pytest.mark.parametrize("system", ["base", "vb", "vxp5", "ncd"])
    def test_counters_identical_with_and_without_tracer(self, system):
        plain, traced, _ = traced_pair(system, "radix")
        assert plain.counters == traced.counters

    def test_trace_totals_match_engine_counters(self):
        """Every traced kind with a counter twin agrees exactly."""
        _, traced, tracer = traced_pair("vxp5", "radix")
        c = traced.counters
        k = tracer.kind_counts.get
        assert k("nc_hit", 0) == c.read_nc_hits + c.write_nc_hits
        assert k("nc_insert", 0) == c.nc_insertions
        assert k("nc_evict", 0) == c.nc_evictions
        assert k("pc_hit", 0) == c.read_pc_hits + c.write_pc_hits
        assert k("pc_relocate", 0) == c.pc_relocations
        assert k("pc_evict", 0) == c.pc_evictions
        assert k("writeback_remote", 0) == c.writebacks_remote
        assert k("writeback_absorbed", 0) == c.writebacks_absorbed
        assert k("invalidate", 0) == c.remote_invalidations
        assert k("upgrade", 0) == c.local_upgrades + c.remote_upgrades

    def test_dir_access_covers_remote_fetches(self):
        # peer-supplied local misses never reach the directory, so the
        # event count bounds the remote-fetch counters from above via the
        # local-miss path but must cover every remote access exactly
        _, traced, tracer = traced_pair("vb", "radix")
        c = traced.counters
        assert tracer.kind_counts.get("dir_access", 0) >= c.read_remote + c.write_remote

    def test_all_emitted_kinds_are_documented(self):
        _, _, tracer = traced_pair("vxp5", "radix")
        assert set(tracer.kind_counts) <= set(EVENT_KINDS)
        # a real run on an NC+PC system emits a rich mix, not one kind
        assert len(tracer.kind_counts) >= 5


class TestEventTracer:
    def test_ring_bounds_retention_but_not_totals(self):
        tracer = EventTracer(capacity=8)
        for i in range(20):
            tracer.emit("nc_hit", now=i, node=1, block=i)
        assert len(tracer) == 8
        assert tracer.total_emitted == 20
        # the ring keeps the newest events, seq keeps counting
        assert [e.seq for e in tracer.events()] == list(range(12, 20))
        assert tracer.kind_counts["nc_hit"] == 20

    def test_events_of_filters_by_kind(self):
        tracer = EventTracer()
        tracer.emit("nc_hit", now=1)
        tracer.emit("nc_evict", now=2, detail="dirty")
        hits = list(tracer.events_of("nc_hit"))
        assert len(hits) == 1 and hits[0].kind == "nc_hit"

    def test_jsonl_round_trip(self, tmp_path):
        tracer = EventTracer()
        tracer.emit("nc_insert", now=7, node=2, block=99, detail="clean")
        path = tmp_path / "events.jsonl"
        assert tracer.to_jsonl(str(path)) == 1
        rec = json.loads(path.read_text().strip())
        assert rec == {
            "seq": 0, "now": 7, "kind": "nc_insert",
            "node": 2, "block": 99, "detail": "clean",
        }

    def test_streaming_sink_writes_every_event(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        with EventTracer(capacity=4, jsonl_path=str(path)) as tracer:
            for i in range(10):
                tracer.emit("invalidate", now=i)
        # the ring truncated to 4, the stream kept all 10
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 10
        assert json.loads(lines[-1])["seq"] == 9

    def test_ring_overflow_keeps_newest_drops_oldest(self):
        tracer = EventTracer(capacity=3)
        for i in range(7):
            tracer.emit("nc_evict", now=i, block=i)
        events = tracer.events()
        assert len(tracer) == 3 and len(events) == 3
        assert [e.block for e in events] == [4, 5, 6]  # newest survive
        assert tracer.total_emitted == 7  # totals are never truncated
        assert tracer.kind_counts["nc_evict"] == 7

    def test_flush_every_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            EventTracer(flush_every=0)


class TestSinkDurability:
    """JSONL-sink behaviour when the writing process dies mid-run.

    Reuses the fault-injection harness's worker-kill mechanism
    (``FaultPlan`` + ``mark_worker_process``) so the death is the same
    ``os._exit`` a killed sweep worker suffers — no ``close()``, no
    interpreter shutdown, no buffer flush.
    """

    @staticmethod
    def _die_mid_write(path: str, flush_every):
        from repro import faults
        from repro.faults import FaultPlan

        faults.mark_worker_process()
        tracer = EventTracer(jsonl_path=path, flush_every=flush_every)
        for i in range(200):
            tracer.emit("invalidate", now=i, block=i)
        # kill=1.0 always selects; fires because this is a marked worker
        FaultPlan.parse("seed=1;kill=1.0").maybe_kill("sink-test", 0)
        raise AssertionError("kill fault did not fire")  # pragma: no cover

    def _run_and_kill(self, path, flush_every):
        import multiprocessing

        from repro.faults import KILL_EXIT_CODE

        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(
            target=self._die_mid_write, args=(str(path), flush_every)
        )
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == KILL_EXIT_CODE

    def test_flushed_sink_survives_worker_kill_complete(self, tmp_path):
        path = tmp_path / "flushed.jsonl"
        self._run_and_kill(path, flush_every=1)
        lines = path.read_text().splitlines()
        assert len(lines) == 200  # every flushed event survived
        for i, line in enumerate(lines):
            rec = json.loads(line)  # every line is complete JSON
            assert rec["seq"] == i

    def test_batched_flush_loses_at_most_one_batch(self, tmp_path):
        path = tmp_path / "batched.jsonl"
        self._run_and_kill(path, flush_every=50)
        lines = path.read_text().splitlines()
        # 200 events at flush_every=50: all four batches were flushed
        assert len(lines) == 200
        assert all(json.loads(line) for line in lines)

    def test_unflushed_sink_loses_only_the_buffered_tail(self, tmp_path):
        # without flush_every the file may lose the buffered tail, but
        # whatever did reach disk must be a prefix of complete lines
        path = tmp_path / "unflushed.jsonl"
        self._run_and_kill(path, flush_every=None)
        text = path.read_text() if path.exists() else ""
        complete = text.splitlines()[: text.count("\n")]
        for i, line in enumerate(complete):
            assert json.loads(line)["seq"] == i


class TestMetricsRegistry:
    def test_snapshot_sections_and_sorting(self):
        reg = MetricsRegistry()
        reg.inc("b.count", 2)
        reg.inc("a.count")
        reg.gauge("z.level", 0.5)
        reg.hist("h.dist", (1.0, 2.0)).record(1.5)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a.count", "b.count"]
        assert snap["counters"]["b.count"] == 2
        assert snap["gauges"]["z.level"] == 0.5
        assert snap["histograms"]["h.dist"]["counts"] == [0, 1, 0]

    def test_merge_adds_counters_and_buckets(self):
        a = {"counters": {"x": 1}, "gauges": {},
             "histograms": {"h": {"bounds": [1.0], "counts": [2, 3]}}}
        b = {"counters": {"x": 4, "y": 1}, "gauges": {},
             "histograms": {"h": {"bounds": [1.0], "counts": [1, 1]}}}
        out = merge_snapshots(a, b)
        assert out["counters"] == {"x": 5, "y": 1}
        assert out["histograms"]["h"]["counts"] == [3, 4]

    def test_merge_averages_gauges_with_weights(self):
        a = {"counters": {}, "gauges": {"g": 1.0}, "histograms": {}}
        b = {"counters": {}, "gauges": {"g": 3.0}, "histograms": {}}
        once = merge_snapshots(a, b)
        assert once["gauges"]["g"] == 2.0 and once["gauges"]["g#n"] == 2.0
        # folding a third snapshot keeps a true mean, not a mean of means
        c = {"counters": {}, "gauges": {"g": 8.0}, "histograms": {}}
        twice = merge_snapshots(once, c)
        assert twice["gauges"]["g"] == pytest.approx(4.0)
        assert twice["gauges"]["g#n"] == 3.0

    def test_merge_handles_none(self):
        out = merge_snapshots(None, {"counters": {"x": 1}, "gauges": {},
                                     "histograms": {}})
        assert out["counters"] == {"x": 1}

    def test_histogram_bounds_mismatch_raises(self):
        h = Histogram((1.0,))
        with pytest.raises(ValueError, match="bounds mismatch"):
            h.merge(Histogram((2.0,)))

    def test_merge_snapshots_names_the_mismatched_histogram(self):
        a = {"counters": {}, "gauges": {},
             "histograms": {"h.bad": {"bounds": [1.0], "counts": [1, 1]}}}
        b = {"counters": {}, "gauges": {},
             "histograms": {"h.bad": {"bounds": [2.0], "counts": [1, 1]}}}
        with pytest.raises(ValueError, match="'h.bad'.*bounds mismatch"):
            merge_snapshots(a, b)

    def test_from_dict_rejects_wrong_bucket_count(self):
        with pytest.raises(ValueError, match="counts/bounds mismatch"):
            Histogram.from_dict({"bounds": [1.0, 2.0], "counts": [1, 2]})

    def test_series_merge_sums_elementwise_and_pads(self):
        a = {"counters": {}, "gauges": {}, "histograms": {},
             "series": {"s": {"window": 100, "values": [1, 2, 3]}}}
        b = {"counters": {}, "gauges": {}, "histograms": {},
             "series": {"s": {"window": 100, "values": [10, 10]}}}
        out = merge_snapshots(a, b)
        assert out["series"]["s"] == {"window": 100, "values": [11, 12, 3]}

    def test_series_window_mismatch_names_the_series(self):
        a = {"counters": {}, "gauges": {}, "histograms": {},
             "series": {"s.win": {"window": 100, "values": [1]}}}
        b = {"counters": {}, "gauges": {}, "histograms": {},
             "series": {"s.win": {"window": 200, "values": [1]}}}
        with pytest.raises(ValueError, match="'s.win'.*window mismatch"):
            merge_snapshots(a, b)

    def test_snapshots_without_series_section_still_merge(self):
        # pre-profiler snapshots (older journals) have no "series" key
        old = {"counters": {"x": 1}, "gauges": {}, "histograms": {}}
        new = {"counters": {"x": 1}, "gauges": {}, "histograms": {},
               "series": {"s": {"window": 10, "values": [5]}}}
        out = merge_snapshots(old, new)
        assert out["counters"]["x"] == 2
        assert out["series"]["s"]["values"] == [5]

    def test_histogram_overflow_bucket(self):
        h = Histogram((0.0, 1.0))
        for v in (-1.0, 0.0, 0.5, 1.0, 99.0):
            h.record(v)
        # bisect_right: a value equal to a bound falls in the next bucket
        assert h.counts == [1, 2, 2] and h.total == 5


class TestRunMetrics:
    def test_every_result_carries_a_snapshot(self):
        r = simulate("vb", "lu", refs=REFS)
        assert r.metrics is not None
        snap = r.metrics
        assert snap["counters"]["events.reads"] == r.counters.reads
        assert 0.0 <= snap["gauges"]["state.l1_occupancy"] <= 1.0
        assert snap["gauges"]["state.nc_resident_blocks"] >= 0.0

    def test_metrics_deterministic_across_runs(self):
        a = simulate("vxp5", "radix", refs=REFS)
        clear_trace_cache()
        b = simulate("vxp5", "radix", refs=REFS)
        assert a.metrics == b.metrics

    def test_trace_section_only_with_tracer(self):
        plain, traced, _ = traced_pair("vb", "lu")
        assert not any(k.startswith("trace.") for k in plain.metrics["counters"])
        assert any(k.startswith("trace.") for k in traced.metrics["counters"])

    def test_nc_occupancy_histogram_covers_all_sets(self):
        r = simulate("vb", "radix", refs=REFS)
        hist = r.metrics["histograms"]["hist.nc_set_occupancy"]
        n_sets = r.config.nc.size // r.config.block_size // r.config.nc.assoc
        # one sample per NC set per cluster
        assert sum(hist["counts"]) == n_sets * r.config.n_nodes


class TestSweepAggregation:
    def test_parallel_aggregate_equals_serial(self):
        serial = sweep(SYSTEMS, BENCHES, refs=REFS)
        clear_trace_cache()
        parallel = sweep(SYSTEMS, BENCHES, refs=REFS, jobs=4)
        assert sweep_metrics(serial) == sweep_metrics(parallel)

    def test_aggregate_counters_are_sums(self):
        results = sweep(SYSTEMS, ["lu"], refs=REFS)
        agg = aggregate_metrics(r.metrics for r in results.values())
        total_reads = sum(r.counters.reads for r in results.values())
        assert agg["counters"]["events.reads"] == total_reads


class TestManifests:
    def _sweep(self, jobs=1):
        configs = resolve_sweep_configs(SYSTEMS)
        return timed_sweep(configs, ["lu"], refs=REFS, jobs=jobs)

    def test_build_manifest_shape(self):
        results, wall = self._sweep()
        m = build_manifest(results, command="test", refs=REFS, seed=1,
                           scale=0.125, jobs=1, wall_s=wall)
        assert m["kind"] == "sweep" and m["parameters"]["refs"] == REFS
        assert len(m["cells"]) == len(results)
        cell = m["cells"][0]
        for key in ("system", "benchmark", "config_sha", "trace_key",
                    "counters_sha", "metrics"):
            assert key in cell
        assert m["aggregate_metrics"]["counters"]["events.reads"] > 0

    def test_core_identical_serial_vs_parallel(self):
        results_s, _ = self._sweep(jobs=1)
        clear_trace_cache()
        results_p, _ = self._sweep(jobs=4)
        core_s = manifest_core(build_manifest(results_s, refs=REFS, seed=1))
        core_p = manifest_core(build_manifest(results_p, refs=REFS, seed=1))
        assert json.dumps(core_s, sort_keys=True) == json.dumps(core_p, sort_keys=True)

    def test_core_strips_volatile_fields(self):
        results, wall = self._sweep()
        m = build_manifest(results, refs=REFS, seed=1, jobs=3, wall_s=wall)
        core = manifest_core(m)
        for key in ("created_unix", "timing", "git_sha", "version", "environment"):
            assert key not in core
        assert "jobs" not in core["parameters"]
        for cell in core["cells"]:
            assert "elapsed_s" not in cell
        # older manifests record an execution engine; their core matches
        legacy = dict(m, parameters=dict(m["parameters"], engine="batch"))
        assert manifest_core(legacy) == core

    def test_write_manifest_atomic_and_named(self, tmp_path):
        results, wall = self._sweep()
        m = build_manifest(results, refs=REFS, seed=1, wall_s=wall)
        path = write_manifest(m, tmp_path, name="probe")
        assert path.name == "probe-manifest.json"
        assert json.loads(path.read_text())["manifest_version"] == 1
        assert list(tmp_path.glob("*.tmp.json")) == []  # no temp debris

    def test_maybe_write_honours_env(self, tmp_path, monkeypatch):
        results, wall = self._sweep()
        monkeypatch.delenv("REPRO_MANIFEST_DIR", raising=False)
        assert maybe_write_sweep_manifest(
            results, command="t", refs=REFS, seed=1, scale=0.125,
            jobs=1, wall_s=wall) is None
        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path))
        path = maybe_write_sweep_manifest(
            results, command="t", refs=REFS, seed=1, scale=0.125,
            jobs=1, wall_s=wall)
        assert path is not None and path.parent == tmp_path

    def test_config_digest_distinguishes_configs(self):
        configs = resolve_sweep_configs(["base", "vb"])
        assert config_digest(configs["base"]) != config_digest(configs["vb"])
        assert config_digest(configs["base"]) == config_digest(configs["base"])
