"""Tests for the HTTP layer: every endpoint, every error path, over a
real asyncio server on an ephemeral port."""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.service.app import MAX_BODY_BYTES, ServiceApp, serve
from repro.service.jobs import JobManager
from repro.sim.runner import clear_trace_cache

REFS = 2_000
SPEC = {"systems": ["vb"], "benchmarks": ["fft"], "refs": REFS, "seed": 5,
        "scale": 0.02}


@pytest.fixture(autouse=True)
def _isolated(monkeypatch, tmp_path):
    clear_trace_cache()
    yield
    clear_trace_cache()


class LiveServer:
    """`repro serve` on an ephemeral port, on a background thread."""

    def __init__(self, data_dir, **manager_kwargs) -> None:
        manager_kwargs.setdefault("job_workers", 2)
        self.manager = JobManager(data_dir=data_dir, **manager_kwargs)
        self.port = None
        self._loop = None
        self._thread = None

    def __enter__(self) -> "LiveServer":
        started = threading.Event()
        lines = []

        class _Out:
            def write(self, text):
                lines.append(text)

            def flush(self):
                pass

        def runner():
            self._loop = asyncio.new_event_loop()
            asyncio.set_event_loop(self._loop)
            ready = asyncio.Event()

            async def main():
                task = asyncio.ensure_future(serve(
                    self.manager, host="127.0.0.1", port=0,
                    ready_event=ready, out=_Out(),
                ))
                await ready.wait()
                for line in lines:
                    if line.startswith("listening on http://"):
                        self.port = int(line.strip().rsplit(":", 1)[1])
                started.set()
                try:
                    await task
                except asyncio.CancelledError:
                    pass

            try:
                self._loop.run_until_complete(main())
            finally:
                self._loop.close()

        self._thread = threading.Thread(target=runner, daemon=True)
        self._thread.start()
        assert started.wait(timeout=30), "server did not start"
        assert self.port, "no listening line printed"
        return self

    def __exit__(self, *exc) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(
                lambda: [t.cancel() for t in asyncio.all_tasks(self._loop)])
        self._thread.join(timeout=10)

    # -- client (sync wrapper around one-shot asyncio connections) --------

    def request(self, method, path, body=None, raw_body=None):
        status, payload, _headers = asyncio.run(
            self._request(method, path, body, raw_body))
        return status, payload

    def request_with_headers(self, method, path, body=None, raw_body=None):
        return asyncio.run(self._request(method, path, body, raw_body))

    async def _request(self, method, path, body, raw_body):
        payload = raw_body if raw_body is not None else (
            json.dumps(body).encode() if body is not None else b"")
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
        ).encode()
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        try:
            writer.write(head + payload)
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), 30)
        finally:
            writer.close()
        header_blob, _, body_blob = raw.partition(b"\r\n\r\n")
        status = int(header_blob.split(b" ", 2)[1])
        ctype = ""
        headers = {}
        for line in header_blob.decode().splitlines()[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        ctype = headers.get("content-type", "")
        if ctype.startswith("application/json"):
            return status, json.loads(body_blob), headers
        return status, body_blob.decode(), headers

    def wait_done(self, job_id, timeout=60.0):
        deadline = time.time() + timeout
        while time.time() < deadline:
            status, j = self.request("GET", f"/jobs/{job_id}")
            if status == 200 and j["state"] in ("done", "failed"):
                return j
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} did not finish")


@pytest.fixture()
def server(tmp_path):
    with LiveServer(tmp_path / "svc") as s:
        yield s


class TestEndpoints:
    def test_healthz(self, server):
        assert server.request("GET", "/healthz") == (
            200, {"ok": True, "status": "ok"}
        )

    def test_submit_poll_result(self, server):
        status, job = server.request("POST", "/jobs", SPEC)
        assert status == 202
        finished = server.wait_done(job["id"])
        assert finished["state"] == "done"
        assert finished["progress"]["complete"] is True
        assert finished["progress"]["total_cells"] == 1
        status, result = server.request("GET", f"/jobs/{job['id']}/result")
        assert status == 200
        assert result["cells"][0]["counters_sha"]

    def test_resubmit_hits_cache_bit_identically(self, server):
        _, a = server.request("POST", "/jobs", SPEC)
        done_a = server.wait_done(a["id"])
        _, b = server.request("POST", "/jobs", SPEC)
        done_b = server.wait_done(b["id"])
        assert done_a["cache"]["hits"] == 0
        assert done_b["cache"]["hit_rate"] == 1.0
        _, ra = server.request("GET", f"/jobs/{a['id']}/result")
        _, rb = server.request("GET", f"/jobs/{b['id']}/result")
        assert ra["cells"][0]["counters"] == rb["cells"][0]["counters"]
        assert ra["cells"][0]["counters_sha"] == rb["cells"][0]["counters_sha"]
        # the cached cell renders as '+' on the board
        _, board = server.request("GET", f"/jobs/{b['id']}/top")
        assert "+" in board and "result store" in board

    def test_jobs_listing(self, server):
        _, job = server.request("POST", "/jobs", SPEC)
        server.wait_done(job["id"])
        status, listing = server.request("GET", "/jobs?limit=10")
        assert status == 200
        assert [j["id"] for j in listing["jobs"]] == [job["id"]]

    def test_top_text_and_json(self, server):
        _, job = server.request("POST", "/jobs", SPEC)
        server.wait_done(job["id"])
        status, text = server.request("GET", "/top")
        assert status == 200 and isinstance(text, str)
        assert "jobs     1 known" in text
        status, agg = server.request("GET", "/top?format=json")
        assert agg["totals"]["done_cells"] == 1
        status, snap = server.request(
            "GET", f"/jobs/{job['id']}/top?format=json")
        assert snap["done_cells"] == 1

    def test_stats(self, server):
        _, job = server.request("POST", "/jobs", SPEC)
        server.wait_done(job["id"])
        status, stats = server.request("GET", "/stats")
        assert status == 200
        assert stats["jobs"]["by_state"]["done"] == 1
        assert stats["store"]["puts"] == 1


class TestErrorPaths:
    def test_unknown_path_404(self, server):
        status, body = server.request("GET", "/bogus")
        assert status == 404 and "error" in body

    def test_unknown_job_404(self, server):
        assert server.request("GET", "/jobs/nope")[0] == 404
        assert server.request("GET", "/jobs/nope/result")[0] == 404

    def test_result_before_done_404(self, server):
        _, job = server.request("POST", "/jobs", SPEC)
        # immediately, before completion (state queued/running) — or the
        # job finished already, in which case skip the premise
        status, body = server.request("GET", f"/jobs/{job['id']}/result")
        if status != 200:
            assert status == 404 and "no result" in body["error"]
        server.wait_done(job["id"])

    def test_bad_spec_400_names_field(self, server):
        status, body = server.request(
            "POST", "/jobs", dict(SPEC, refs="many"))
        assert status == 400 and "refs" in body["error"]

    def test_unknown_system_400(self, server):
        status, body = server.request(
            "POST", "/jobs", dict(SPEC, systems=["warp9"]))
        assert status == 400 and "warp9" in body["error"]

    def test_non_json_body_400(self, server):
        status, body = server.request("POST", "/jobs", raw_body=b"not json")
        assert status == 400 and "JSON" in body["error"]

    def test_wrong_method_405(self, server):
        assert server.request("POST", "/healthz")[0] == 405
        assert server.request("DELETE", "/jobs")[0] == 405

    def test_oversized_body_413(self, server):
        blob = b"x" * (MAX_BODY_BYTES + 1)
        status, _ = server.request("POST", "/jobs", raw_body=blob)
        assert status == 413

    def test_bad_query_param_400(self, server):
        assert server.request("GET", "/jobs?limit=soon")[0] == 400


class _StalledExecutor:
    """Swallows submissions so jobs stay deterministically queued."""

    def submit(self, fn, *args):  # noqa: ARG002 - signature match
        return None

    def shutdown(self, wait=True, cancel_futures=False):  # noqa: ARG002
        return None


def _stall(server: LiveServer) -> None:
    server.manager._executor.shutdown(wait=True)
    server.manager._executor = _StalledExecutor()


class TestListLimit:
    def test_limit_zero_returns_empty_list(self, server):
        _, job = server.request("POST", "/jobs", SPEC)
        server.wait_done(job["id"])
        status, listing = server.request("GET", "/jobs?limit=0")
        assert status == 200
        assert listing["jobs"] == []

    def test_negative_limit_400(self, server):
        status, body = server.request("GET", "/jobs?limit=-1")
        assert status == 400 and "limit" in body["error"]


class TestCancelEndpoint:
    def test_cancel_queued_job(self, server):
        _stall(server)
        _, job = server.request("POST", "/jobs", SPEC)
        status, cancelled = server.request(
            "POST", f"/jobs/{job['id']}/cancel")
        assert status == 200 and cancelled["state"] == "cancelled"
        status, again = server.request("GET", f"/jobs/{job['id']}")
        assert status == 200 and again["state"] == "cancelled"

    def test_cancel_is_idempotent(self, server):
        _stall(server)
        _, job = server.request("POST", "/jobs", SPEC)
        server.request("POST", f"/jobs/{job['id']}/cancel")
        status, body = server.request("POST", f"/jobs/{job['id']}/cancel")
        assert status == 200 and body["state"] == "cancelled"

    def test_cancel_done_job_left_done(self, server):
        _, job = server.request("POST", "/jobs", SPEC)
        server.wait_done(job["id"])
        status, body = server.request("POST", f"/jobs/{job['id']}/cancel")
        assert status == 200 and body["state"] == "done"

    def test_cancel_unknown_404(self, server):
        assert server.request("POST", "/jobs/nope/cancel")[0] == 404

    def test_cancel_wrong_method_405(self, server):
        _stall(server)
        _, job = server.request("POST", "/jobs", SPEC)
        assert server.request("GET", f"/jobs/{job['id']}/cancel")[0] == 405


class TestOverload:
    def test_queue_full_503_with_retry_after(self, tmp_path):
        with LiveServer(tmp_path / "svc", max_queued_jobs=1,
                        max_inflight_cells=0) as server:
            _stall(server)
            status, _ = server.request("POST", "/jobs", SPEC)
            assert status == 202
            status, body, headers = server.request_with_headers(
                "POST", "/jobs", SPEC)
            assert status == 503
            assert "queue full" in body["error"]
            assert int(headers["retry-after"]) >= 1
            # shedding is visible in /stats, and reads still work
            status, stats = server.request("GET", "/stats")
            assert status == 200
            assert stats["admission"]["rejected"] == 1

    def test_cell_budget_503(self, tmp_path):
        wide = dict(SPEC, systems=["vb", "vp"])  # 2 cells > budget 1
        with LiveServer(tmp_path / "svc",
                        max_inflight_cells=1) as server:
            status, body = server.request("POST", "/jobs", wide)
            assert status == 503
            assert "cell budget" in body["error"]


class TestDraining:
    def test_draining_health_and_503(self, server):
        server.manager.begin_drain()
        status, health = server.request("GET", "/healthz")
        assert status == 200
        assert health == {"ok": False, "status": "draining"}
        status, body, headers = server.request_with_headers(
            "POST", "/jobs", SPEC)
        assert status == 503
        assert "draining" in body["error"]
        assert "retry-after" in headers
        # read-only endpoints stay live during drain
        assert server.request("GET", "/jobs")[0] == 200
        assert server.request("GET", "/stats")[0] == 200


class TestServiceFaultInjection:
    def test_injected_reject_503(self, server, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=1; reject=1.0")
        status, body = server.request("POST", "/jobs", SPEC)
        assert status == 503 and "injected" in body["error"]
        # reads are never shed by the reject fault
        assert server.request("GET", "/healthz")[0] == 200
        monkeypatch.delenv("REPRO_FAULTS")
        status, _ = server.request("POST", "/jobs", SPEC)
        assert status == 202

    def test_injected_hang_delays_response(self, server, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=1; hang=1.0:0.3")
        t0 = time.monotonic()
        status, _ = server.request("GET", "/healthz")
        elapsed = time.monotonic() - t0
        assert status == 200
        assert elapsed >= 0.25


class TestRouteUnit:
    """_route() details not worth a socket."""

    def _app(self, tmp_path):
        mgr = JobManager(data_dir=tmp_path / "svc")
        return ServiceApp(mgr)

    def test_trailing_slash_normalised(self, tmp_path):
        app = self._app(tmp_path)
        status, payload, _ = app._route("GET", "/healthz/", None)
        assert status == 200 and payload == {"ok": True, "status": "ok"}

    def test_internal_error_becomes_500(self, tmp_path):
        app = self._app(tmp_path)

        async def run():
            class Boom:
                def stats(self):
                    raise RuntimeError("kaput")

            app.manager = Boom()
            reader = asyncio.StreamReader()
            reader.feed_data(b"GET /stats HTTP/1.1\r\n\r\n")
            reader.feed_eof()

            sent = []

            class FakeWriter:
                def write(self, data):
                    sent.append(data)

                async def drain(self):
                    pass

                def close(self):
                    pass

                async def wait_closed(self):
                    pass

            await app.handle(reader, FakeWriter())
            return b"".join(sent)

        raw = asyncio.run(run())
        assert raw.startswith(b"HTTP/1.1 500")
        assert b"kaput" in raw
