"""Tests for the wall-clock telemetry pipeline across the service:
``/metrics`` exposition, request-id propagation, the request→job→cell
span tree, restart persistence of counters, and bit-identity of results
with telemetry on versus off."""

from __future__ import annotations

import asyncio
import json
import sys
import time
from pathlib import Path

import pytest

from repro.durable import read_jsonl as iter_journal_lines
from repro.obs.manifest import counters_digest, manifest_core
from repro.obs.registry import METRICS_CONTENT_TYPE, WallClockRegistry
from repro.obs.spans import (
    SpanRecorder,
    load_spans,
    request_root_span_id,
    span_tree_problems,
    spans_to_chrome,
)
from repro.obs.timeline import validate_chrome_trace
from repro.service.jobs import JobManager
from repro.sim.parallel import run_parallel_sweep
from repro.sim.runner import clear_trace_cache, resolve_sweep_configs
from tests.service.test_app import LiveServer

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))
from check_metrics_format import check as check_prometheus  # noqa: E402

REFS = 2_000
SPEC = {"systems": ["vb"], "benchmarks": ["fft"], "refs": REFS, "seed": 5,
        "scale": 0.02}


@pytest.fixture(autouse=True)
def _isolated(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
    clear_trace_cache()
    yield
    clear_trace_cache()


@pytest.fixture()
def server(tmp_path):
    with LiveServer(tmp_path / "svc") as s:
        yield s


def raw_request(port, method, path, body=None, headers=None):
    """Like LiveServer.request, but with caller-controlled headers."""

    async def go():
        payload = json.dumps(body).encode() if body is not None else b""
        extra = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: t\r\n{extra}"
            f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
        ).encode()
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(head + payload)
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), 30)
        finally:
            writer.close()
        header_blob, _, body_blob = raw.partition(b"\r\n\r\n")
        status = int(header_blob.split(b" ", 2)[1])
        resp_headers = {}
        for line in header_blob.decode().splitlines()[1:]:
            name, _, value = line.partition(":")
            resp_headers[name.strip().lower()] = value.strip()
        try:
            return status, json.loads(body_blob), resp_headers
        except ValueError:
            return status, body_blob.decode(), resp_headers

    return asyncio.run(go())


class TestMetricsEndpoint:
    def test_valid_prometheus_exposition(self, server):
        server.request("GET", "/healthz")
        job = server.request("POST", "/jobs", SPEC)[1]
        server.wait_done(job["id"])
        status, text, headers = server.request_with_headers("GET", "/metrics")
        assert status == 200
        assert headers["content-type"] == METRICS_CONTENT_TYPE
        problems, types, samples = check_prometheus(text)
        assert problems == []
        assert samples > 20
        # the catalogue spans every instrumented layer
        for family in ("repro_http_requests_total",
                       "repro_http_request_seconds",
                       "repro_jobs_submitted_total",
                       "repro_jobs_completed_total",
                       "repro_job_queue_wait_seconds",
                       "repro_job_run_seconds",
                       "repro_job_queue_depth",
                       "repro_store_misses_total",
                       "repro_store_puts_total",
                       "repro_sweep_cells_total",
                       "repro_sweep_cell_seconds"):
            assert family in types, f"{family} missing from /metrics"

    def test_requires_get(self, server):
        assert server.request("POST", "/metrics")[0] == 405

    def test_request_counter_moves(self, server):
        def scrape():
            text = server.request("GET", "/metrics")[1]
            for line in text.splitlines():
                if line.startswith('repro_http_requests_total{endpoint="/healthz"'):
                    return float(line.rsplit(" ", 1)[1])
            return 0.0

        server.request("GET", "/healthz")
        before = scrape()
        server.request("GET", "/healthz")
        server.request("GET", "/healthz")
        assert scrape() == before + 2


class TestRequestId:
    def test_generated_and_echoed(self, server):
        _, _, headers = server.request_with_headers("GET", "/healthz")
        assert headers.get("x-request-id")

    def test_client_id_wins(self, server):
        status, _, headers = raw_request(
            server.port, "GET", "/stats",
            headers={"X-Request-Id": "load-test-42"})
        assert status == 200
        assert headers["x-request-id"] == "load-test-42"

    def test_error_responses_carry_id_too(self, server):
        _, _, headers = server.request_with_headers("GET", "/no-such")
        assert headers.get("x-request-id")

    def test_threaded_into_job_journal_and_manifest(self, server):
        rid = "trace-me-7"
        status, job, headers = raw_request(
            server.port, "POST", "/jobs", SPEC,
            headers={"X-Request-Id": rid})
        assert status == 202
        assert headers["x-request-id"] == rid
        assert job["request_id"] == rid
        done = server.wait_done(job["id"])
        assert done["request_id"] == rid

        job_dir = server.manager.job_dir(job["id"])
        rows = list(iter_journal_lines(job_dir / "run" / "journal.jsonl"))
        assert rows and all(r["request_id"] == rid for r in rows)

        manifest = json.loads(
            (job_dir / "job-manifest.json").read_text(encoding="utf-8"))
        assert manifest["request_id"] == rid
        # ...but the correlation id is volatile: the reproducibility core
        # two identical runs must agree on never sees it
        assert "request_id" not in manifest_core(manifest)


class TestSpanTree:
    def test_one_job_yields_connected_wall_clock_tree(self, server, tmp_path):
        rid = "span-tree-1"
        _, job, _ = raw_request(server.port, "POST", "/jobs", SPEC,
                                headers={"X-Request-Id": rid})
        server.wait_done(job["id"])
        time.sleep(0.2)  # the HTTP respond span lands after the 202

        run_dir = server.manager.run_dir(job["id"])
        spans = load_spans(run_dir)
        assert span_tree_problems(spans) == []
        assert {s["trace_id"] for s in spans} == {rid}
        roots = [s for s in spans if not s.get("parent_id")]
        assert [r["span_id"] for r in roots] == [request_root_span_id(rid)]
        names = {s["name"] for s in spans}
        for expected in ("POST /jobs", "receive", "validate+enqueue",
                         "respond", "queue-wait", "sweep run",
                         "write-result", "store-put"):
            assert expected in names, f"missing span {expected!r}"
        assert "cell simulate" in names or "cell cache-hit" in names
        procs = {s["proc"] for s in spans}
        assert "http" in procs and "job-manager" in procs

        doc = spans_to_chrome(spans)
        assert validate_chrome_trace(doc) == []
        assert doc["metadata"]["clock_domain"] == "wall-clock"

    def test_serve_export_cli(self, server, tmp_path):
        from repro.cli import main as cli_main

        _, job = server.request("POST", "/jobs", SPEC)
        server.wait_done(job["id"])
        time.sleep(0.2)
        out = tmp_path / "spans.json"
        rc = cli_main(["trace", "serve-export",
                       str(server.manager.run_dir(job["id"])),
                       "--out", str(out)])
        assert rc == 0
        assert validate_chrome_trace(str(out)) == []

    def test_serve_export_refuses_empty(self, tmp_path):
        from repro.cli import main as cli_main

        rc = cli_main(["trace", "serve-export", str(tmp_path)])
        assert rc == 1


class TestRestartPersistence:
    """The /stats amnesia fix: lifecycle counters survive a restart."""

    def _run_job(self, mgr):
        job = mgr.submit(SPEC)
        deadline = time.time() + 60
        while mgr.get(job.id).state not in ("done", "failed"):
            assert time.time() < deadline, "job did not finish"
            time.sleep(0.02)
        assert mgr.get(job.id).state == "done"
        return job

    def test_stats_survive_close_and_reopen(self, tmp_path):
        data_dir = tmp_path / "svc"
        mgr = JobManager(data_dir=data_dir, job_workers=1)
        mgr.start()
        try:
            self._run_job(mgr)
            mgr.note_rejected("queue_full")
            before = mgr.stats()
        finally:
            mgr.close()
        assert before["admission"]["rejected"] == 1
        assert before["store"]["puts"] == 1

        mgr2 = JobManager(data_dir=data_dir, job_workers=1)
        try:
            after = mgr2.stats()
            assert after["admission"]["rejected"] == 1
            assert after["store"]["puts"] == 1
            assert after["store"]["misses"] == before["store"]["misses"]
            assert mgr2.metrics.counter_total(
                "repro_jobs_submitted_total") == 1
            assert mgr2.metrics.counter_total(
                "repro_jobs_completed_total") == 1
        finally:
            mgr2.close()

    def test_counters_survive_abandonment(self, tmp_path):
        """No clean close() — the SIGKILL shape of the chaos load test.

        Every terminal job transition snapshots the registry, so a
        manager that never got to shut down still leaves its completed
        work on disk for the next incarnation.
        """
        data_dir = tmp_path / "svc"
        mgr = JobManager(data_dir=data_dir, job_workers=1)
        mgr.start()
        try:
            self._run_job(mgr)
            reloaded = WallClockRegistry()
            assert reloaded.load(mgr.metrics_path)
            assert reloaded.counter_total("repro_jobs_submitted_total") == 1
            assert reloaded.counter_total("repro_jobs_completed_total") == 1
        finally:
            mgr.close()


class TestBitIdentity:
    def test_results_identical_with_telemetry_on_and_off(self, tmp_path):
        configs = resolve_sweep_configs(["vb", "base"])
        kwargs = dict(refs=3_000, seed=3, scale=0.02)

        plain = run_parallel_sweep(configs, ["lu"], **kwargs)
        clear_trace_cache()

        metrics = WallClockRegistry()
        with SpanRecorder("rid", sink_path=tmp_path / "spans.jsonl") as spans:
            traced = run_parallel_sweep(
                configs, ["lu"], metrics=metrics, spans=spans,
                request_id="rid", **kwargs)

        assert list(plain) == list(traced)
        for key in plain:
            assert counters_digest(plain[key].counters) == \
                counters_digest(traced[key].counters)
            assert plain[key].metrics == traced[key].metrics
        # and the telemetry did actually record the work
        assert metrics.counter_total("repro_sweep_cells_total") == 2
        count, _ = metrics.histogram_totals("repro_sweep_cell_seconds")
        assert count == 2
