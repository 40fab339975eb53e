"""Wall-clock span tracing with cross-process correlation IDs.

Every HTTP request that reaches ``repro serve`` gets a ``request_id``
(honouring an incoming ``X-Request-Id`` header, otherwise freshly
minted), echoed back in the response and stamped into the job record,
journal rows, recovery events, and manifest.  That id doubles as the
**trace id**: the HTTP layer, the job thread, and the multiprocessing
sweep workers all append spans for it into ``spans.jsonl`` inside the
job's run directory, producing one connected tree per submission::

    request POST /jobs          (proc=http, span id "req-<request_id>")
      ├─ receive                (socket read)
      ├─ validate+route         (spec parse + admission + enqueue)
      ├─ respond                (response write)
      ├─ queue-wait             (proc=job-manager)
      └─ sweep run              (span id "run-<job_id>")
           ├─ cell simulate …   (proc=worker-N, recorded in the worker
           │                     process and shipped over the result
           │                     queue — genuinely cross-process)
           ├─ cell cache-hit …  (ResultStore short-circuits)
           └─ store-put         (memoise fresh cells)

The root and run span ids are *derived* (``req-`` + request id,
``run-`` + job id) so producers on different threads and processes can
parent to them without any handshake.

Spans are wall-clock (``time.time()`` unix seconds) — one machine, one
clock domain — unlike :mod:`repro.obs.timeline`, whose timestamps are
simulated bus cycles.  :func:`spans_to_chrome` renders the same
Chrome/Perfetto trace-event JSON as that exporter (validated by the same
``scripts/validate_trace.py``), with one process row per producer; the
``repro trace serve-export`` CLI wraps it.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from ..durable import JsonlSink, read_jsonl

__all__ = [
    "SPANS_NAME",
    "SpanRecorder",
    "new_request_id",
    "request_root_span_id",
    "run_span_id",
    "append_spans",
    "load_spans",
    "spans_to_chrome",
]

#: file name for persisted spans inside a job's run directory
SPANS_NAME = "spans.jsonl"

JsonDict = Dict[str, Any]


def new_request_id() -> str:
    """Mint a request correlation id (16 hex chars)."""
    return uuid.uuid4().hex[:16]


def request_root_span_id(request_id: str) -> str:
    """Span id of the HTTP root span for a request — derived, no handshake."""
    return f"req-{request_id}"


def run_span_id(job_id: str) -> str:
    """Span id of a job's sweep-run span — derived from the job id."""
    return f"run-{job_id}"


def _span_record(
    trace_id: str,
    span_id: str,
    name: str,
    t0_unix: float,
    dur_s: float,
    parent_id: Optional[str],
    proc: str,
    args: Optional[Dict[str, Any]] = None,
) -> JsonDict:
    rec: JsonDict = {
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "t0_unix": float(t0_unix),
        "dur_s": max(0.0, float(dur_s)),
        "proc": proc,
    }
    if args:
        rec["args"] = args
    return rec


class SpanRecorder:
    """Thread-safe span sink for one trace, persisted as JSONL.

    The recorder lives in the job-manager thread; worker processes ship
    raw span payloads back over the result queue and the supervisor feeds
    them through :meth:`add_raw`, which stamps the trace id and default
    parent.  A ``None`` sink keeps spans in memory only (CLI sweeps).
    """

    def __init__(
        self,
        trace_id: str,
        sink_path: Optional[Union[str, "os.PathLike[str]"]] = None,
        proc: str = "service",
        default_parent: Optional[str] = None,
    ) -> None:
        self.trace_id = trace_id
        self.default_proc = proc
        self.default_parent = default_parent
        self.spans: List[JsonDict] = []
        self._lock = threading.Lock()
        self._sink = JsonlSink(sink_path) if sink_path is not None else None

    def new_id(self) -> str:
        return uuid.uuid4().hex[:12]

    def add(
        self,
        name: str,
        t0_unix: float,
        dur_s: float,
        parent_id: Optional[str] = None,
        span_id: Optional[str] = None,
        proc: Optional[str] = None,
        **args: Any,
    ) -> str:
        """Record one finished span; returns its span id."""
        sid = span_id or self.new_id()
        rec = _span_record(
            self.trace_id,
            sid,
            name,
            t0_unix,
            dur_s,
            parent_id if parent_id is not None else self.default_parent,
            proc or self.default_proc,
            args or None,
        )
        self._write(rec)
        return sid

    def add_raw(self, payload: Dict[str, Any]) -> str:
        """Record a span produced elsewhere (e.g. a worker process).

        The payload supplies ``name``/``t0_unix``/``dur_s`` and optionally
        ``proc``/``args``/``parent_id``; trace id and default parent are
        stamped here so workers need no trace context.
        """
        rec = _span_record(
            self.trace_id,
            str(payload.get("span_id") or self.new_id()),
            str(payload.get("name", "span")),
            float(payload.get("t0_unix", 0.0)),
            float(payload.get("dur_s", 0.0)),
            payload.get("parent_id") or self.default_parent,
            str(payload.get("proc") or self.default_proc),
            payload.get("args") or None,
        )
        self._write(rec)
        return str(rec["span_id"])

    def span(self, name: str, **kwargs: Any) -> "_SpanContext":
        """``with recorder.span("store-put") as sid:`` convenience."""
        return _SpanContext(self, name, kwargs)

    def _write(self, rec: JsonDict) -> None:
        with self._lock:
            self.spans.append(rec)
            if self._sink is not None:
                self._sink.write(rec)

    def close(self) -> None:
        with self._lock:
            if self._sink is not None:
                self._sink.close()

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class _SpanContext:
    def __init__(self, recorder: SpanRecorder, name: str, kwargs: Dict[str, Any]):
        self._recorder = recorder
        self._name = name
        self._kwargs = kwargs
        self.span_id = kwargs.pop("span_id", None) or recorder.new_id()
        self._t0 = 0.0

    def __enter__(self) -> str:
        self._t0 = time.time()
        return self.span_id

    def __exit__(self, *exc: Any) -> None:
        self._recorder.add(
            self._name,
            self._t0,
            time.time() - self._t0,
            span_id=self.span_id,
            **self._kwargs,
        )


def append_spans(
    path: Union[str, "os.PathLike[str]"], records: Iterable[JsonDict]
) -> bool:
    """Append finished span records to a ``spans.jsonl`` file.

    Used by the HTTP layer to attach its request spans to the job's file
    after the response is written; best-effort, returns False on I/O
    trouble rather than failing the request.
    """
    records = list(records)
    if not records:
        return True
    sink = JsonlSink(path)
    ok = all(sink.write(rec) for rec in records)
    sink.close()
    return ok


def load_spans(source: Union[str, "os.PathLike[str]"]) -> List[JsonDict]:
    """Load spans from a ``spans.jsonl`` file, a run dir, or a job dir.

    Tolerates a torn final line (the writer may have been SIGKILLed) the
    same way the sweep journal reader does.
    """
    path = Path(source)
    if path.is_dir():
        for candidate in (path / SPANS_NAME, path / "run" / SPANS_NAME):
            if candidate.exists():
                path = candidate
                break
    return [rec for rec in read_jsonl(path) if "span_id" in rec]


def span_tree_problems(spans: List[JsonDict]) -> List[str]:
    """Structural check: every parent reference resolves within the set."""
    ids = {str(s.get("span_id")) for s in spans}
    problems = []
    for s in spans:
        parent = s.get("parent_id")
        if parent is not None and str(parent) not in ids:
            problems.append(
                f"span {s.get('span_id')!r} ({s.get('name')!r}) has dangling "
                f"parent {parent!r}"
            )
    return problems


def spans_to_chrome(
    spans: List[JsonDict], trace_id: Optional[str] = None
) -> JsonDict:
    """Render span records as a Chrome/Perfetto trace-event document.

    Wall-clock domain: ``ts`` is microseconds since the earliest span in
    the set (declared in ``metadata.ts_unit``); one process row per
    producer (``proc``), named via ``M`` metadata events — the same
    structure :func:`repro.obs.timeline.export_chrome_trace` emits, so
    ``scripts/validate_trace.py`` gates both.
    """
    if trace_id is not None:
        spans = [s for s in spans if s.get("trace_id") == trace_id]
    spans = sorted(
        spans, key=lambda s: (float(s.get("t0_unix", 0.0)), str(s.get("span_id")))
    )
    if not spans:
        return {
            "traceEvents": [],
            "displayTimeUnit": "ms",
            "metadata": {
                "ts_unit": "wall-clock microseconds since trace start",
                "clock_domain": "wall-clock",
                "system": "sweep-service",
                "benchmark": "",
            },
        }
    base = min(float(s.get("t0_unix", 0.0)) for s in spans)
    procs = sorted({str(s.get("proc", "service")) for s in spans})
    pid_of = {proc: i + 1 for i, proc in enumerate(procs)}
    events: List[JsonDict] = []
    for proc in procs:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid_of[proc],
                "tid": 0,
                "args": {"name": proc},
            }
        )
    for s in spans:
        args: Dict[str, Any] = {
            "trace_id": s.get("trace_id"),
            "span_id": s.get("span_id"),
        }
        if s.get("parent_id") is not None:
            args["parent_id"] = s.get("parent_id")
        extra = s.get("args")
        if isinstance(extra, dict):
            args.update(extra)
        ts = max(0, int(round((float(s.get("t0_unix", 0.0)) - base) * 1e6)))
        dur = max(1, int(round(float(s.get("dur_s", 0.0)) * 1e6)))
        events.append(
            {
                "name": str(s.get("name", "span")),
                "cat": "wallclock",
                "ph": "X",
                "ts": ts,
                "dur": dur,
                "pid": pid_of[str(s.get("proc", "service"))],
                "tid": 0,
                "args": args,
            }
        )
    traces = sorted({str(s.get("trace_id")) for s in spans if s.get("trace_id")})
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": {
            "ts_unit": "wall-clock microseconds since trace start",
            "clock_domain": "wall-clock",
            "base_unix": base,
            "system": "sweep-service",
            "benchmark": ",".join(traces[:4]) + ("..." if len(traces) > 4 else ""),
            "span_count": len(spans),
        },
    }
