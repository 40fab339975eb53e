"""The sweep service's HTTP layer: ``repro serve``.

A deliberately small asyncio server — raw :func:`asyncio.start_server`
over stream reader/writers, no ``http.server``, no third-party web
framework — because the protocol surface is tiny: JSON in, JSON out,
``Connection: close``.  All simulation work happens on the
:class:`~repro.service.jobs.JobManager`'s worker threads; handlers only
validate, enqueue, and read state, so the event loop never blocks on a
sweep.

Endpoints (full reference with examples in ``docs/SERVICE.md``):

==========================  ================================================
``GET /healthz``            health: ``{"ok": ..., "status": "ok" |
                            "degraded" | "draining"}``
``GET /stats``              server + result-store aggregate statistics
``POST /jobs``              submit a sweep spec; ``202`` with the queued
                            job, or ``503`` + ``Retry-After`` when
                            admission control sheds it
``GET /jobs``               recent jobs, newest first (``?limit=N``)
``GET /jobs/<id>``          one job's state plus a live progress snapshot
``POST /jobs/<id>/cancel``  cancel a queued/running job (idempotent)
``GET /jobs/<id>/result``   per-cell counters/digests of a finished job
``GET /jobs/<id>/top``      the ``repro top`` board (text; ``?format=json``)
``GET /top``                aggregate board over every known job
``GET /metrics``            wall-clock telemetry as Prometheus text
                            exposition format 0.0.4
==========================  ================================================

Errors are JSON too: ``{"error": "..."}`` with 400 (bad spec or body),
404 (unknown path or job), 405 (wrong method), 408 (request took longer
than ``$REPRO_REQUEST_TIMEOUT`` to arrive), 413 (oversized body), 503
(saturated or draining; carries a ``Retry-After`` header).

Every response carries an ``X-Request-Id`` header — the client's own id
when it sent one, a fresh one otherwise.  Accepted submissions stamp
that id into the job record, the sweep journal rows, and the run
manifest, and it becomes the trace id of the request's span tree
(``repro trace serve-export RUN_DIR``).

Resilience behaviours live at this layer too: slow-client read timeouts
(a stalled ``POST`` cannot pin the event loop's welcome mat), and the
deterministic ``reject``/``hang`` fault kinds from :mod:`repro.faults`,
which stress a client's retry/backoff and timeout handling without any
real saturation.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import sys
import time
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..errors import JobSpecError, ServiceUnavailableError
from ..faults import active_plan
from ..obs.registry import METRICS_CONTENT_TYPE
from ..obs.spans import new_request_id, request_root_span_id
from ..params import SETTINGS, setting
from .jobs import Job, JobManager

#: request bodies larger than this are rejected with 413 (a sweep spec is
#: a few hundred bytes; anything bigger is a mistake or an attack)
MAX_BODY_BYTES = 64 * 1024
MAX_HEADER_BYTES = 16 * 1024

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """An error response decided mid-handler (status + message)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _job_payload(job: Job) -> Dict[str, object]:
    return job.to_dict()


class ServiceApp:
    """Routes HTTP requests onto one :class:`JobManager`."""

    def __init__(
        self, manager: JobManager, request_timeout: Optional[float] = None
    ) -> None:
        self.manager = manager
        #: seconds a client gets to deliver its full request; slow/stalled
        #: clients are answered 408 and disconnected
        self.request_timeout = setting("REPRO_REQUEST_TIMEOUT", request_timeout)
        #: seconds between terminal-job TTL garbage-collection sweeps (the
        #: variable's 0 means the default)
        self.gc_interval_s = (
            setting("REPRO_GC_INTERVAL") or SETTINGS["REPRO_GC_INTERVAL"].default
        )
        manager.metrics.describe(
            "repro_http_requests_total",
            "HTTP requests answered, by endpoint template/method/status.",
        )
        manager.metrics.describe(
            "repro_http_request_seconds",
            "Wall-clock seconds from first request byte to response sent.",
        )

    # ---- request plumbing ------------------------------------------------

    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        t0 = time.time()
        request_id = new_request_id()
        endpoint = "<bad-request>"
        method = ""
        status: Optional[int] = None
        try:
            try:
                read = self._read_request(reader)
                if self.request_timeout and self.request_timeout > 0:
                    method, target, body, client_id = await asyncio.wait_for(
                        read, timeout=self.request_timeout
                    )
                else:
                    method, target, body, client_id = await read
                if client_id:
                    request_id = client_id
            except asyncio.TimeoutError:
                status = 408
                await self._send(
                    writer, 408,
                    {"error": "request not received in time (slow client?)"},
                    extra_headers={"X-Request-Id": request_id},
                )
                return
            except HttpError as exc:
                status = exc.status
                await self._send(writer, exc.status, {"error": exc.message},
                                 extra_headers={"X-Request-Id": request_id})
                return
            except (asyncio.IncompleteReadError, ConnectionError, ValueError):
                return  # client hung up or spoke garbage; nothing to answer
            endpoint = self._endpoint_label(target)
            t_read = time.time()
            await self._maybe_hang(method, target, body)
            headers: Dict[str, str] = {"X-Request-Id": request_id}
            ctx: Dict[str, object] = {"request_id": request_id, "job": None,
                                      "content_type": None}
            try:
                self._maybe_reject(method, target, body)
                status, payload, text = self._route(method, target, body, ctx)
            except ServiceUnavailableError as exc:
                status, text = 503, None
                payload = {
                    "error": exc.reason,
                    "retry_after_s": exc.retry_after_s,
                }
                headers["Retry-After"] = str(
                    max(1, math.ceil(exc.retry_after_s))
                )
            except HttpError as exc:
                status, payload, text = exc.status, {"error": exc.message}, None
            except JobSpecError as exc:
                status, payload, text = 400, {"error": str(exc)}, None
            except Exception as exc:  # noqa: BLE001 - last-resort boundary
                status = 500
                payload = {"error": f"{type(exc).__name__}: {exc}"}
                text = None
            t_routed = time.time()
            await self._send(writer, status, payload, text=text,
                             extra_headers=headers,
                             content_type=ctx.get("content_type"))
            job = ctx.get("job")
            if job is not None:
                self._attach_request_spans(
                    job, request_id, method, target,
                    t0=t0, t_read=t_read, t_routed=t_routed,
                )
        finally:
            if status is not None:
                self._observe_request(endpoint, method or "-", status,
                                      time.time() - t0)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _observe_request(
        self, endpoint: str, method: str, status: int, dur_s: float
    ) -> None:
        """Per-request telemetry; must never break a served response."""
        try:
            metrics = self.manager.metrics
            metrics.inc(
                "repro_http_requests_total",
                labels={"endpoint": endpoint, "method": method,
                        "status": str(status)},
            )
            metrics.observe("repro_http_request_seconds", max(0.0, dur_s),
                            labels={"endpoint": endpoint})
        except Exception:  # noqa: BLE001 - telemetry is strictly best-effort
            pass

    @staticmethod
    def _endpoint_label(target: str) -> str:
        """Template the path so metric label cardinality stays bounded."""
        try:
            path = urlsplit(target).path.rstrip("/") or "/"
        except ValueError:
            return "<bad-request>"
        if path in ("/healthz", "/stats", "/top", "/metrics"):
            return path
        parts = [p for p in path.split("/") if p]
        if parts and parts[0] == "jobs":
            if len(parts) == 1:
                return "/jobs"
            if len(parts) == 2:
                return "/jobs/{id}"
            if len(parts) == 3 and parts[2] in ("cancel", "result", "top"):
                return "/jobs/{id}/" + parts[2]
        return "<other>"

    def _attach_request_spans(
        self,
        job: Job,
        request_id: str,
        method: str,
        target: str,
        t0: float,
        t_read: float,
        t_routed: float,
    ) -> None:
        """Record the HTTP-side spans of an accepted submission.

        The root span id is derived from the request id, so the job
        manager's and sweep workers' spans parent to it without any
        cross-thread handshake.  Best-effort: a full disk must not turn
        into a failed submission.
        """
        try:
            now = time.time()
            root_id = request_root_span_id(request_id)

            def rec(span_id, parent, name, a, b, **args):
                payload = {
                    "trace_id": request_id,
                    "span_id": span_id,
                    "parent_id": parent,
                    "name": name,
                    "t0_unix": a,
                    "dur_s": max(0.0, b - a),
                    "proc": "http",
                }
                if args:
                    payload["args"] = args
                return payload

            path = urlsplit(target).path
            records = [
                rec(root_id, None, f"{method} {path}", t0, now,
                    job_id=job.id, request_id=request_id),
                rec(f"{root_id}-recv", root_id, "receive", t0, t_read),
                rec(f"{root_id}-route", root_id, "validate+enqueue",
                    t_read, t_routed),
                rec(f"{root_id}-resp", root_id, "respond", t_routed, now),
            ]
            self.manager.attach_request_spans(job.id, records)
        except Exception:  # noqa: BLE001 - tracing is strictly best-effort
            pass

    # ---- deterministic service-layer fault injection ---------------------

    @staticmethod
    def _fault_context(method: str, target: str, body: Optional[object]) -> str:
        """A canonical, process-independent context for one request."""
        spec = json.dumps(body, sort_keys=True) if body is not None else ""
        return f"{method} {target}|{spec}"

    async def _maybe_hang(
        self, method: str, target: str, body: Optional[object]
    ) -> None:
        plan = active_plan()
        if plan is None:
            return
        delay = plan.hang_delay(self._fault_context(method, target, body))
        if delay:
            await asyncio.sleep(delay)

    def _maybe_reject(
        self, method: str, target: str, body: Optional[object]
    ) -> None:
        """An injected 503, indistinguishable from real saturation."""
        if method != "POST":
            return
        plan = active_plan()
        if plan is None:
            return
        if plan.should_reject(self._fault_context(method, target, body)):
            try:
                self.manager.note_rejected("injected")
            except Exception:  # noqa: BLE001 - telemetry must not mask faults
                pass
            raise ServiceUnavailableError(
                "injected admission-control rejection",
                retry_after_s=self.manager.retry_after_s,
            )

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Optional[object], Optional[str]]:
        request_line = await reader.readline()
        if not request_line:
            raise ConnectionError("empty request")
        try:
            method, target, _version = request_line.decode("ascii").split()
        except (UnicodeDecodeError, ValueError):
            raise HttpError(400, "malformed request line")
        content_length = 0
        header_bytes = 0
        request_id: Optional[str] = None
        while True:
            line = await reader.readline()
            header_bytes += len(line)
            if header_bytes > MAX_HEADER_BYTES:
                raise HttpError(413, "headers too large")
            if line in (b"\r\n", b"\n", b""):
                break
            try:
                name, _, value = line.decode("latin-1").partition(":")
            except UnicodeDecodeError:
                raise HttpError(400, "malformed header")
            name = name.strip().lower()
            if name == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise HttpError(400, "bad Content-Length")
            elif name == "x-request-id":
                # adopt the client's correlation id (bounded: header bytes
                # already capped; keep it printable and reasonably short)
                candidate = value.strip()
                if 0 < len(candidate) <= 128 and candidate.isprintable():
                    request_id = candidate
        if content_length > MAX_BODY_BYTES:
            raise HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        body: Optional[object] = None
        if content_length > 0:
            raw = await reader.readexactly(content_length)
            try:
                body = json.loads(raw)
            except ValueError:
                raise HttpError(400, "body is not valid JSON")
        return method.upper(), target, body, request_id

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, object],
        text: Optional[str] = None,
        extra_headers: Optional[Dict[str, str]] = None,
        content_type: Optional[str] = None,
    ) -> None:
        if text is not None:
            data = text.encode("utf-8")
            ctype = content_type or "text/plain; charset=utf-8"
        else:
            data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
            ctype = "application/json"
        reason = _STATUS_TEXT.get(status, "Unknown")
        extra = "".join(
            f"{name}: {value}\r\n"
            for name, value in (extra_headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"{extra}"
            f"Connection: close\r\n\r\n"
        ).encode("ascii")
        writer.write(head + data)
        # a write timeout so a stalled reader cannot wedge the handler;
        # the kernel buffers our small responses, so this rarely fires
        drain = writer.drain()
        if self.request_timeout and self.request_timeout > 0:
            try:
                await asyncio.wait_for(drain, timeout=self.request_timeout)
            except asyncio.TimeoutError:
                writer.close()  # abandon the stalled client
        else:
            await drain

    # ---- routing ---------------------------------------------------------

    def _route(
        self,
        method: str,
        target: str,
        body: Optional[object],
        ctx: Optional[Dict[str, object]] = None,
    ) -> Tuple[int, Dict[str, object], Optional[str]]:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = parse_qs(split.query)
        parts = [p for p in path.split("/") if p]

        if path == "/healthz":
            self._require(method, "GET")
            health = self.manager.health()
            return 200, {"ok": health == "ok", "status": health}, None
        if path == "/stats":
            self._require(method, "GET")
            return 200, self.manager.stats(), None
        if path == "/metrics":
            self._require(method, "GET")
            if ctx is not None:
                ctx["content_type"] = METRICS_CONTENT_TYPE
            return 200, {}, self.manager.metrics.expose()
        if path == "/top":
            self._require(method, "GET")
            return self._aggregate_top(query)
        if parts and parts[0] == "jobs":
            if len(parts) == 1:
                if method == "POST":
                    request_id = ctx.get("request_id") if ctx else None
                    job = self.manager.submit(body, request_id=request_id)
                    if ctx is not None:
                        ctx["job"] = job
                    return 202, _job_payload(job), None
                self._require(method, "GET", "POST")
                limit = self._int_param(query, "limit", default=50)
                jobs = [_job_payload(j) for j in self.manager.list_jobs(limit)]
                return 200, {"jobs": jobs}, None
            job = self.manager.get(parts[1])
            if job is None:
                raise HttpError(404, f"no such job: {parts[1]}")
            if len(parts) == 2:
                self._require(method, "GET")
                payload = _job_payload(job)
                progress = self.manager.progress(job.id)
                if progress is not None:
                    payload["progress"] = progress.snapshot(jobs=job.spec.jobs)
                return 200, payload, None
            if len(parts) == 3 and parts[2] == "cancel":
                self._require(method, "POST")
                cancelled = self.manager.cancel(job.id)
                if cancelled is None:  # raced with TTL garbage collection
                    raise HttpError(404, f"no such job: {parts[1]}")
                return 200, _job_payload(cancelled), None
            if len(parts) == 3 and parts[2] == "result":
                self._require(method, "GET")
                if job.state != "done":
                    raise HttpError(
                        404, f"job {job.id} has no result (state: {job.state})"
                    )
                payload = self.manager.result_payload(job.id)
                if payload is None:
                    raise HttpError(500, f"result file for {job.id} unreadable")
                return 200, payload, None
            if len(parts) == 3 and parts[2] == "top":
                self._require(method, "GET")
                progress = self.manager.progress(job.id)
                if progress is None:
                    raise HttpError(404, f"no run directory for {job.id}")
                if query.get("format", [""])[0] == "json":
                    return 200, progress.snapshot(jobs=job.spec.jobs), None
                return 200, {}, progress.render(jobs=job.spec.jobs) + "\n"
        raise HttpError(404, f"no such endpoint: {path}")

    def _aggregate_top(
        self, query: Dict[str, list]
    ) -> Tuple[int, Dict[str, object], Optional[str]]:
        """One board over every job: the service-wide ``repro top``."""
        jobs = self.manager.list_jobs()
        boards = []
        totals = {"total_cells": 0, "done_cells": 0, "cached_cells": 0,
                  "simulated_refs": 0}
        for job in jobs:
            progress = self.manager.progress(job.id)
            snap = progress.snapshot(jobs=job.spec.jobs) if progress else {}
            snap["job_id"] = job.id
            snap["state"] = job.state
            boards.append(snap)
            for field in totals:
                totals[field] += int(snap.get(field, 0) or 0)
        store = self.manager.store_stats()
        payload: Dict[str, object] = {
            "jobs": boards,
            "totals": totals,
            "store": store,
        }
        if query.get("format", [""])[0] == "json":
            return 200, payload, None
        lines = [
            f"service {self.manager.data_dir}",
            f"jobs     {len(jobs)} known, "
            f"{sum(1 for j in jobs if j.state == 'running')} running",
            f"cells    {totals['done_cells']}/{totals['total_cells']} done, "
            f"{totals['cached_cells']} from the result store",
            f"refs     {totals['simulated_refs']:,} simulated",
            "store    " + ", ".join(f"{k}={v}" for k, v in sorted(store.items())),
        ]
        return 200, payload, "\n".join(lines) + "\n"

    @staticmethod
    def _require(method: str, *allowed: str) -> None:
        if method not in allowed:
            raise HttpError(405, f"method {method} not allowed here")

    @staticmethod
    def _int_param(query: Dict[str, list], name: str, default: int) -> int:
        raw = query.get(name, [None])[0]
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            raise HttpError(400, f"query parameter {name} must be an integer")
        if value < 0:
            raise HttpError(400, f"query parameter {name} must be >= 0")
        return value


async def _gc_loop(manager: JobManager, interval_s: float) -> None:
    """Periodic TTL reaping of terminal jobs (a no-op without a TTL).

    Doubles as the telemetry heartbeat: each tick refreshes the queue
    gauges and persists the metrics snapshot, bounding how much counter
    history a SIGKILL can lose between job completions.
    """
    while True:
        await asyncio.sleep(interval_s)
        try:
            manager.gc_terminal_jobs()
            manager.flush_telemetry()
        except Exception:  # noqa: BLE001 - GC must never kill the server
            pass


async def serve(
    manager: JobManager,
    host: str = "127.0.0.1",
    port: int = 8752,
    ready_event: Optional[asyncio.Event] = None,
    out=None,
    drain_timeout: Optional[float] = None,
) -> None:
    """Run the service until cancelled (or SIGINT/SIGTERM).

    Prints one machine-parseable ``listening on http://HOST:PORT`` line
    once the socket is bound — ``scripts/load_test.py --spawn`` and the
    CI service job both key off it.  ``port=0`` binds an ephemeral port
    (the printed line reports the real one).

    The first SIGINT/SIGTERM starts a **graceful drain**: submissions are
    503'd, status endpoints keep answering (``/healthz`` reports
    ``draining``), queued jobs keep their persisted queue order, and
    running jobs get :func:`JobManager.drain`'s timeout to finish before
    being parked back to ``queued`` at a cell boundary.  A second signal
    abandons the wait and exits immediately — the journal makes even
    that safe.
    """
    stream = out if out is not None else sys.stdout
    if drain_timeout is not None:  # a bad --drain-timeout fails now, not on SIGTERM
        setting("REPRO_DRAIN_TIMEOUT", drain_timeout)
    app = ServiceApp(manager)
    resumed = manager.start()
    if resumed:
        stream.write(f"resumed {len(resumed)} unfinished job(s): "
                     f"{', '.join(resumed)}\n")
    server = await asyncio.start_server(app.handle, host=host, port=port)
    actual_port = server.sockets[0].getsockname()[1]
    stream.write(f"listening on http://{host}:{actual_port}\n")
    stream.flush()
    if ready_event is not None:
        ready_event.set()
    stop = asyncio.Event()
    force = asyncio.Event()

    def _on_signal() -> None:
        if stop.is_set():
            force.set()
        else:
            stop.set()

    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, _on_signal)
        except (NotImplementedError, RuntimeError):
            pass  # non-main thread or platform without signal support
    gc_task = asyncio.ensure_future(_gc_loop(manager, app.gc_interval_s))
    try:
        async with server:
            await stop.wait()
            manager.begin_drain()
            stream.write("draining: refusing new jobs, waiting for "
                         "running sweeps to checkpoint\n")
            stream.flush()
            drain_call = loop.run_in_executor(
                None, lambda: manager.drain(timeout=drain_timeout)
            )
            force_wait = asyncio.ensure_future(force.wait())
            done, _pending = await asyncio.wait(
                {drain_call, force_wait},
                return_when=asyncio.FIRST_COMPLETED,
            )
            force_wait.cancel()
            if drain_call in done:
                summary = drain_call.result()
                stream.write(
                    "drained: {queued} job(s) left queued, {aborted} "
                    "parked at a cell boundary\n".format(**summary)
                )
                stream.flush()
            else:
                # second signal: abort every running sweep at its next
                # cell boundary so the pending drain unblocks fast
                manager.abort_running()
                stream.write("drain interrupted: exiting immediately "
                             "(journals preserve all completed cells)\n")
                stream.flush()
    finally:
        gc_task.cancel()
        manager.close(wait=False)


def run_service(
    data_dir=None,
    host: str = "127.0.0.1",
    port: int = 8752,
    job_workers: int = 2,
    max_queued_jobs: Optional[int] = None,
    max_inflight_cells: Optional[int] = None,
    job_ttl_s: Optional[float] = None,
    drain_timeout: Optional[float] = None,
) -> None:
    """Blocking entry point used by ``repro serve``."""
    manager = JobManager(
        data_dir=data_dir,
        job_workers=job_workers,
        max_queued_jobs=max_queued_jobs,
        max_inflight_cells=max_inflight_cells,
        job_ttl_s=job_ttl_s,
    )
    try:
        asyncio.run(serve(manager, host=host, port=port,
                          drain_timeout=drain_timeout))
    except KeyboardInterrupt:
        pass
