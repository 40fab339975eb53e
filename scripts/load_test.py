#!/usr/bin/env python3
"""Load-test the sweep service: zipfian traffic, hit rates, chaos, 503s.

Drives a running ``repro serve`` (or spawns one with ``--spawn``) with
thousands of concurrent job submissions drawn from a **zipfian**
distribution over a pool of distinct sweep specs — the skewed popularity
pattern the service's content-addressed result store is built for, and
the same rank-frequency skew the source paper's network caches exploit.
Stdlib only: the HTTP client is raw :func:`asyncio.open_connection`,
matching the server's own framing (one request per connection,
``Connection: close``).

Two passes by default: the first populates the store (every distinct
spec simulates once), the second measures the steady state (popular
specs should be ~all cache hits).  The report asserts what
``ISSUE.md`` promises:

* cache-hit rate on the second pass (``--min-hit-rate`` gates CI);
* bit-identity: every response for the same spec must carry identical
  ``counters_sha`` digests, cached or freshly simulated;
* submit -> done latency percentiles (p50/p90/p99) and throughput;
* **telemetry reconciliation**: ``GET /metrics`` is scraped before and
  after every pass and the server's own counters must agree with the
  client's tally — accepted ``POST /jobs`` 202s against submissions,
  store hit/miss deltas against per-job cache summaries (exact in a
  clean steady pass, a ``>=`` floor when retries/503s blur the count),
  plus server-side p50/p90/p99 from the request-latency histogram
  reported beside the client's view.  In ``--chaos`` mode the kill can
  lose unsnapshotted increments, so the per-pass deltas are replaced by
  a persistence assertion: after the SIGKILL + restart the reloaded
  ``repro_jobs_submitted_total`` must still cover every job that had
  already completed before the kill.

Every request has a hard timeout and a bounded retry/backoff budget, so
a hung or draining server fails the run with a clear error instead of
hanging CI; ``503`` responses honour the server's ``Retry-After`` hint.

Resilience modes (both imply ``--spawn``):

* ``--chaos``: ``kill -9`` the server mid-pass, restart it on the same
  port and data dir, and assert **zero lost jobs** — every submission
  still completes (resumed from the journal) with bit-identical
  ``counters_sha`` digests, and the follow-up pass still meets the
  cache-hit gate.
* ``--saturate``: spawn the server with a tiny admission budget, verify
  overload answers are ``503`` + ``Retry-After`` (never hangs, never
  dropped connections), that retrying clients all eventually succeed,
  and that ``/healthz`` reports ``ok`` once the backlog drains.

Usage::

    python scripts/load_test.py --base-url http://127.0.0.1:8752 \
        --submissions 1000 --distinct 20
    python scripts/load_test.py --spawn --submissions 1000 \
        --min-hit-rate 0.8 --out load-report.json
    python scripts/load_test.py --chaos --submissions 120 \
        --min-hit-rate 0.8 --out chaos-report.json
    python scripts/load_test.py --saturate --submissions 60
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

#: systems the spec pool draws from (cheap, protocol-diverse)
SYSTEMS = ["base", "nc", "ncd", "vb", "vp", "vbp5", "vxp5", "p5"]
BENCHMARKS = ["radix", "fft", "lu", "ocean", "barnes", "cholesky"]

#: cap on any single retry sleep (Retry-After hints are clamped to this)
MAX_BACKOFF_S = 5.0


class RequestFailed(Exception):
    """A request kept failing after its whole retry budget."""


# ---------------------------------------------------------------------------
# minimal async HTTP client (mirrors the server: one request per connection)
# ---------------------------------------------------------------------------


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Optional[dict] = None,
    timeout: float = 10.0,
) -> Tuple[int, dict, Dict[str, str]]:
    payload = b""
    if body is not None:
        payload = json.dumps(body).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode("ascii")
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout
    )
    try:
        writer.write(head + payload)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    header_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    lines = header_blob.split(b"\r\n")
    try:
        status = int(lines[0].split(b" ", 2)[1])
    except (IndexError, ValueError):
        # empty or torn response: the server died mid-reply; retryable
        raise ConnectionError("malformed/empty response (server gone?)")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        return status, json.loads(body_blob), headers
    except ValueError:
        return status, {"raw": body_blob.decode("utf-8", "replace")}, headers


async def request_with_retry(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Optional[dict] = None,
    *,
    timeout: float = 10.0,
    attempts: int = 10,
    backoff: float = 0.25,
    deadline: Optional[float] = None,
    stats: Optional["PassStats"] = None,
) -> Tuple[int, dict]:
    """One request with bounded retries: connection faults and 503s.

    A dead/restarting server (connection refused/reset, timeout) is
    retried with exponential backoff, at most ``attempts`` times.  An
    explicit ``503`` is retried after the server's ``Retry-After`` hint:
    until ``deadline`` (a ``time.perf_counter()`` reading) when one is
    given, since a saturated server keeps shedding load for as long as
    its queue stays full and a fixed count fails the clients that are
    merely late in line; otherwise within the same ``attempts`` budget.
    Anything else (including 4xx/5xx) is returned to the caller verbatim.
    Exhausting the budget raises :class:`RequestFailed`, so a wedged
    server fails the run loudly instead of hanging it.
    """
    last: object = None
    failures = 0  # tries counted against ``attempts``
    tries = 0
    while True:
        tries += 1
        try:
            status, payload, headers = await http_request(
                host, port, method, path, body, timeout
            )
        except (OSError, asyncio.TimeoutError) as exc:
            last = f"{type(exc).__name__}: {exc}"
            if stats is not None:
                stats.conn_retries += 1
            failures += 1
            delay = backoff * (2 ** (tries - 1))
        else:
            if status != 503:
                return status, payload
            last = f"503: {payload.get('error', '?')}"
            if stats is not None:
                stats.rejected += 1
            try:
                delay = max(float(headers.get("retry-after", "")), backoff)
            except ValueError:
                delay = backoff * (2 ** (tries - 1))
            if deadline is None:
                failures += 1
            elif time.perf_counter() + min(delay, MAX_BACKOFF_S) > deadline:
                break
        if failures >= attempts:
            break
        await asyncio.sleep(min(delay, MAX_BACKOFF_S))
    raise RequestFailed(
        f"{method} {path} failed after {tries} attempt(s); last: {last}"
    )


# ---------------------------------------------------------------------------
# workload
# ---------------------------------------------------------------------------


def build_spec_pool(distinct: int, refs: int, seed: int) -> List[dict]:
    """``distinct`` single-cell sweep specs, deterministically varied."""
    rng = random.Random(seed)
    pool = []
    for i in range(distinct):
        pool.append(
            {
                "systems": [SYSTEMS[i % len(SYSTEMS)]],
                "benchmarks": [BENCHMARKS[(i // len(SYSTEMS)) % len(BENCHMARKS)]],
                "refs": refs,
                "seed": 1 + rng.randrange(4),
            }
        )
    return pool


def zipf_sequence(
    pool_size: int, n: int, s: float, seed: int
) -> List[int]:
    """``n`` pool indices drawn rank^-s zipfian (rank 0 most popular)."""
    weights = [1.0 / (rank + 1) ** s for rank in range(pool_size)]
    rng = random.Random(seed)
    return rng.choices(range(pool_size), weights=weights, k=n)


def percentile(sorted_values: List[float], p: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(p / 100.0 * len(sorted_values)))
    return sorted_values[idx]


# ---------------------------------------------------------------------------
# /metrics scraping + reconciliation
# ---------------------------------------------------------------------------


def parse_prometheus(text: str) -> Dict[str, Dict[tuple, float]]:
    """Prometheus text -> ``{family: {sorted-label-tuple: value}}``.

    Good enough for our own exposition (label values never contain
    commas or escaped quotes); the strict grammar check lives in
    ``scripts/check_metrics_format.py``.
    """
    samples: Dict[str, Dict[tuple, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "{" in line:
            name, rest = line.split("{", 1)
            blob, _, value_s = rest.rpartition("} ")
            labels = {}
            for pair in blob.split(","):
                if not pair:
                    continue
                key, _, value = pair.partition("=")
                labels[key.strip()] = value.strip().strip('"')
            series = tuple(sorted(labels.items()))
        else:
            name, _, value_s = line.rpartition(" ")
            series = ()
        try:
            samples.setdefault(name, {})[series] = float(value_s)
        except ValueError:
            continue
    return samples


def metric_total(
    samples: Dict[str, Dict[tuple, float]], name: str, **match: str
) -> float:
    """Sum a family over every series whose labels match ``match``."""
    total = 0.0
    for series, value in samples.get(name, {}).items():
        labels = dict(series)
        if all(labels.get(k) == v for k, v in match.items()):
            total += value
    return total


def metric_delta(before, after, name: str, **match: str) -> float:
    return metric_total(after, name, **match) - metric_total(before, name, **match)


def server_latency_percentiles(
    before, after, name: str = "repro_http_request_seconds"
) -> Dict[str, object]:
    """p50/p90/p99 upper bounds from the latency histogram's bucket deltas.

    Aggregates over endpoints; each percentile reports the ``le`` bound
    of the first cumulative bucket covering it (the usual
    histogram_quantile-style answer).
    """

    def buckets(samples) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for series, value in samples.get(f"{name}_bucket", {}).items():
            le = dict(series).get("le")
            if le is not None:
                out[le] = out.get(le, 0.0) + value
        return out

    b0, b1 = buckets(before), buckets(after)
    delta = {le: b1[le] - b0.get(le, 0.0) for le in b1}
    ordered = sorted(
        delta, key=lambda le: float("inf") if le == "+Inf" else float(le)
    )
    total = delta.get("+Inf", 0.0)
    out: Dict[str, object] = {"count": int(total)}
    for p in (50, 90, 99):
        chosen = None
        if total > 0:
            target = p / 100.0 * total
            for le in ordered:
                if delta[le] >= target:
                    chosen = le
                    break
        out[f"p{p}_le"] = chosen
    return out


def scrape_metrics(host: str, port: int, timeout: float = 10.0) -> str:
    """One ``GET /metrics`` (with retry/backoff); returns the raw text."""
    status, payload = asyncio.run(request_with_retry(
        host, port, "GET", "/metrics", timeout=timeout, attempts=5,
    ))
    if status != 200:
        raise RequestFailed(f"GET /metrics answered {status}")
    raw = payload.get("raw", "")
    if not isinstance(raw, str):
        raise RequestFailed("GET /metrics did not return text")
    return raw


def reconcile_pass(
    stats: "PassStats", before, after, strict: bool
) -> Dict[str, object]:
    """Server-side counter deltas vs the client's own tally for one pass.

    ``strict`` (a clean steady pass: no retries, no 503s, no failures)
    demands exact equality; otherwise the server may legitimately have
    seen *more* than the client credited (a retry whose first response
    was lost on the wire), so only the ``>=`` floor is asserted.
    """
    accepted = metric_delta(before, after, "repro_http_requests_total",
                            endpoint="/jobs", method="POST", status="202")
    hits = metric_delta(before, after, "repro_store_hits_total")
    misses = metric_delta(before, after, "repro_store_misses_total")
    simulated = stats.cells_total - stats.cells_hit
    problems: List[str] = []

    def check(label: str, server_side: float, client_side: int) -> None:
        if strict and round(server_side) != client_side:
            problems.append(
                f"{label}: server counted {server_side:g}, "
                f"clients counted {client_side}"
            )
        elif server_side + 1e-9 < client_side:
            problems.append(
                f"{label}: server counted {server_side:g} < "
                f"client floor {client_side}"
            )

    check("accepted submissions (POST /jobs -> 202)", accepted,
          stats.submitted)
    check("store hits", hits, stats.cells_hit)
    check("store misses (simulated cells)", misses, simulated)
    return {
        "strict": strict,
        "accepted_202_delta": accepted,
        "store_hits_delta": hits,
        "store_misses_delta": misses,
        "client_submitted": stats.submitted,
        "client_cells_hit": stats.cells_hit,
        "client_cells_simulated": simulated,
        "server_latency": server_latency_percentiles(before, after),
        "problems": problems,
    }


def export_spans(data_dir: str, out_path: str) -> Optional[str]:
    """Export the largest recorded span tree as Chrome trace JSON.

    Picks the job run directory with the biggest ``spans.jsonl`` and
    shells out to ``repro trace serve-export``; returns the run dir, or
    ``None`` when nothing was exportable.
    """
    jobs_dir = os.path.join(data_dir, "jobs")
    best, best_size = None, -1
    for root, _dirs, files in os.walk(jobs_dir):
        if "spans.jsonl" in files:
            size = os.path.getsize(os.path.join(root, "spans.jsonl"))
            if size > best_size:
                best, best_size = root, size
    if best is None:
        return None
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "trace", "serve-export", best,
         "--out", out_path],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        print(f"serve-export failed: {proc.stderr.strip()}", file=sys.stderr)
        return None
    return best


# ---------------------------------------------------------------------------
# the test itself
# ---------------------------------------------------------------------------


class PassStats:
    def __init__(self, name: str) -> None:
        self.name = name
        self.latencies: List[float] = []
        self.submitted = 0
        self.failed = 0
        self.rejected = 0  #: 503 answers absorbed by retry/backoff
        self.conn_retries = 0  #: connection-level faults absorbed
        self.cells_total = 0
        self.cells_hit = 0
        #: spec index -> sorted (system, benchmark, counters_sha) triples
        self.digests: Dict[int, Tuple] = {}

    def summary(self, wall_s: float) -> Dict[str, object]:
        lat = sorted(self.latencies)
        return {
            "pass": self.name,
            "submissions": self.submitted,
            "failed": self.failed,
            "rejected_503": self.rejected,
            "connection_retries": self.conn_retries,
            "wall_s": round(wall_s, 3),
            "throughput_jobs_per_s": round(self.submitted / wall_s, 2)
            if wall_s > 0 else 0.0,
            "cells_total": self.cells_total,
            "cells_from_cache": self.cells_hit,
            "cache_hit_rate": round(self.cells_hit / self.cells_total, 4)
            if self.cells_total else 0.0,
            "latency_s": {
                "p50": round(percentile(lat, 50), 4),
                "p90": round(percentile(lat, 90), 4),
                "p99": round(percentile(lat, 99), 4),
                "max": round(lat[-1], 4) if lat else 0.0,
            },
        }


async def run_one(
    server: Dict[str, object],
    spec_idx: int,
    spec: dict,
    stats: PassStats,
    sem: asyncio.Semaphore,
    poll_interval: float,
    request_timeout: float,
    job_timeout: float,
) -> None:
    async with sem:
        t0 = time.perf_counter()
        deadline = t0 + job_timeout
        try:
            status, job = await request_with_retry(
                server["host"], server["port"], "POST", "/jobs", spec,
                timeout=request_timeout, deadline=deadline, stats=stats,
            )
            if status != 202:
                stats.failed += 1
                return
            job_id = job["id"]
            while True:
                status, j = await request_with_retry(
                    server["host"], server["port"], "GET", f"/jobs/{job_id}",
                    timeout=request_timeout, stats=stats,
                )
                if status == 200 and j.get("state") in (
                    "done", "failed", "cancelled"
                ):
                    break
                if time.perf_counter() > deadline:
                    stats.failed += 1
                    return
                await asyncio.sleep(poll_interval)
            latency = time.perf_counter() - t0
            if j.get("state") != "done":
                stats.failed += 1
                return
            _, result = await request_with_retry(
                server["host"], server["port"], "GET", f"/jobs/{job_id}/result",
                timeout=request_timeout, stats=stats,
            )
        except (RequestFailed, OSError, asyncio.TimeoutError,
                KeyError, ValueError):
            stats.failed += 1
            return
    stats.submitted += 1
    stats.latencies.append(latency)
    cache = j.get("cache") or {}
    stats.cells_total += int(cache.get("total_cells", 0))
    stats.cells_hit += int(cache.get("hits", 0))
    digest = tuple(sorted(
        (c["system"], c["benchmark"], c["counters_sha"])
        for c in result.get("cells", [])
    ))
    previous = stats.digests.setdefault(spec_idx, digest)
    if previous != digest:
        raise SystemExit(
            f"BIT-IDENTITY VIOLATION: spec {spec_idx} returned differing "
            f"counter digests within pass {stats.name}"
        )


async def run_pass(
    name: str,
    server: Dict[str, object],
    pool: List[dict],
    sequence: List[int],
    concurrency: int,
    poll_interval: float,
    request_timeout: float,
    job_timeout: float,
    chaos: Optional[Dict[str, object]] = None,
) -> Tuple[PassStats, float]:
    stats = PassStats(name)
    sem = asyncio.Semaphore(concurrency)
    t0 = time.perf_counter()
    tasks = [
        asyncio.ensure_future(run_one(
            server, idx, pool[idx], stats, sem, poll_interval,
            request_timeout, job_timeout,
        ))
        for idx in sequence
    ]
    killer = None
    if chaos is not None:
        killer = asyncio.ensure_future(
            chaos_killer(server, stats, len(sequence), chaos)
        )
    await asyncio.gather(*tasks)
    if killer is not None:
        await killer
    return stats, time.perf_counter() - t0


async def chaos_killer(
    server: Dict[str, object],
    stats: PassStats,
    total: int,
    out: Dict[str, object],
) -> None:
    """SIGKILL the server once real work is in flight, then respawn it.

    Waits until some submissions have completed (so the result store and
    journals hold state worth losing) while others are still running,
    then ``kill -9``s the process and restarts it on the same port and
    data dir.  The restarted server re-enqueues unfinished jobs from
    their journals; clients ride the outage on retry/backoff.
    """
    trigger = max(1, total // 10)
    deadline = time.monotonic() + 60.0
    while stats.submitted < trigger and time.monotonic() < deadline:
        await asyncio.sleep(0.05)
    proc = server["proc"]
    assert proc is not None, "--chaos requires a spawned server"
    t_kill = time.perf_counter()
    proc.kill()  # SIGKILL: no drain, no warning — the crash we promise to survive
    proc.wait()
    out["killed_after_jobs_done"] = stats.submitted
    loop = asyncio.get_running_loop()
    new_proc, _host, _port, banner = await loop.run_in_executor(
        None,
        lambda: spawn_server(
            str(server["data_dir"]), port=int(server["port"]),
            job_workers=int(server["job_workers"]),
        ),
    )
    server["proc"] = new_proc
    out["restart_s"] = round(time.perf_counter() - t_kill, 3)
    out["restart_banner"] = banner


def spawn_server(
    data_dir: str,
    port: Optional[int] = None,
    job_workers: int = 4,
    env_extra: Optional[Dict[str, str]] = None,
) -> Tuple[subprocess.Popen, str, int, List[str]]:
    """Start ``repro serve``; returns (proc, host, port, banner lines).

    ``port=None`` binds an ephemeral port; pass the previous port to
    restart a killed server in place.  ``banner`` is every stdout line
    printed before ``listening on`` (e.g. the job-resume notice).
    """
    env = dict(os.environ, REPRO_SERVICE_DIR=data_dir)
    env.update(env_extra or {})
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--port", str(port if port is not None else 0),
         "--job-workers", str(job_workers)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.time() + 30
    banner: List[str] = []
    assert proc.stdout is not None
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        if line.startswith("listening on http://"):
            hostport = line.strip().rsplit("/", 1)[1]
            host, bound = hostport.rsplit(":", 1)
            return proc, host, int(bound), banner
        banner.append(line.strip())
    proc.kill()
    raise SystemExit("server failed to start (no 'listening on' line)")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base-url", default=None,
                    help="a running server (http://HOST:PORT); "
                         "omit with --spawn")
    ap.add_argument("--spawn", action="store_true",
                    help="spawn a repro serve on an ephemeral port with a "
                         "fresh temp data dir, kill it afterwards")
    ap.add_argument("--chaos", action="store_true",
                    help="kill -9 the spawned server mid-pass, restart it, "
                         "and assert zero lost jobs + bit-identity "
                         "(implies --spawn)")
    ap.add_argument("--saturate", action="store_true",
                    help="spawn the server with a tiny admission budget and "
                         "assert overload answers are 503 + Retry-After "
                         "that retrying clients absorb (implies --spawn)")
    ap.add_argument("--submissions", type=int, default=1000,
                    help="job submissions per pass (default %(default)s)")
    ap.add_argument("--distinct", type=int, default=20,
                    help="distinct specs in the zipfian pool "
                         "(default %(default)s)")
    ap.add_argument("--zipf-s", type=float, default=1.1,
                    help="zipf skew exponent (default %(default)s)")
    ap.add_argument("--refs", type=int, default=2000,
                    help="references per cell (default %(default)s)")
    ap.add_argument("--passes", type=int, default=2,
                    help="identical passes over the same sequence "
                         "(default %(default)s)")
    ap.add_argument("--concurrency", type=int, default=64,
                    help="in-flight submissions (default %(default)s)")
    ap.add_argument("--poll-interval", type=float, default=0.05,
                    help="job-status poll interval in seconds")
    ap.add_argument("--request-timeout", type=float, default=10.0,
                    help="per-request timeout in seconds (default "
                         "%(default)s); retried with backoff")
    ap.add_argument("--job-timeout", type=float, default=180.0,
                    help="submit -> done deadline per job in seconds "
                         "(default %(default)s); a job still pending after "
                         "this counts as failed")
    ap.add_argument("--workload-seed", type=int, default=42,
                    help="seed for the pool and the zipf sequence "
                         "(both passes replay the identical sequence)")
    ap.add_argument("--min-hit-rate", type=float, default=None,
                    help="fail (exit 1) if the final pass's cache-hit rate "
                         "is below this")
    ap.add_argument("--out", default=None,
                    help="write the JSON report here (default: stdout only)")
    ap.add_argument("--metrics-out", default=None,
                    help="write the final GET /metrics scrape (Prometheus "
                         "text) here, e.g. for check_metrics_format.py")
    ap.add_argument("--spans-out", default=None,
                    help="export the largest recorded span tree as Chrome "
                         "trace JSON here via 'repro trace serve-export' "
                         "(needs --spawn/--chaos/--saturate)")
    args = ap.parse_args(argv)
    if args.chaos or args.saturate:
        args.spawn = True

    server: Dict[str, object] = {
        "proc": None, "data_dir": None, "job_workers": 4,
    }
    tmp = None
    if args.spawn:
        tmp = tempfile.mkdtemp(prefix="repro-load-")
        env_extra: Dict[str, str] = {}
        if args.saturate:
            # a deliberately tiny admission budget: most of the burst
            # must be shed with 503s and absorbed by client backoff
            env_extra = {
                "REPRO_MAX_QUEUED_JOBS": "2",
                "REPRO_MAX_INFLIGHT_CELLS": "8",
            }
            server["job_workers"] = 1
        proc, host, port, _banner = spawn_server(
            tmp, job_workers=int(server["job_workers"]), env_extra=env_extra,
        )
        server.update(proc=proc, data_dir=tmp)
    elif args.base_url:
        hostport = args.base_url.rstrip("/").rsplit("/", 1)[1]
        host, port_s = hostport.rsplit(":", 1)
        port = int(port_s)
    else:
        ap.error("give --base-url, --spawn, --chaos, or --saturate")
    server.update(host=host, port=port)

    pool = build_spec_pool(args.distinct, args.refs, args.workload_seed)
    sequence = zipf_sequence(
        args.distinct, args.submissions, args.zipf_s, args.workload_seed
    )

    report: Dict[str, object] = {
        "workload": {
            "submissions_per_pass": args.submissions,
            "distinct_specs": args.distinct,
            "zipf_s": args.zipf_s,
            "refs_per_cell": args.refs,
            "passes": args.passes,
            "concurrency": args.concurrency,
            "workload_seed": args.workload_seed,
            "mode": ("chaos" if args.chaos
                     else "saturate" if args.saturate else "steady"),
        },
        "passes": [],
    }
    cross_pass_digests: Dict[int, Tuple] = {}
    metrics_problems: List[str] = []
    final_metrics_text = ""
    try:
        for pass_no in range(1, args.passes + 1):
            chaos_info: Optional[Dict[str, object]] = None
            if args.chaos and pass_no == 1:
                chaos_info = {}
            pre_metrics = parse_prometheus(scrape_metrics(
                host, port, args.request_timeout))
            stats, wall = asyncio.run(run_pass(
                f"pass{pass_no}", server, pool, sequence,
                args.concurrency, args.poll_interval,
                args.request_timeout, args.job_timeout,
                chaos=chaos_info,
            ))
            summary = stats.summary(wall)
            final_metrics_text = scrape_metrics(
                host, port, args.request_timeout)
            post_metrics = parse_prometheus(final_metrics_text)
            if chaos_info is None:
                # reconcile server deltas against the client tally; a
                # chaos pass is exempt (the SIGKILL may lose increments
                # recorded after the last snapshot) and asserts restart
                # persistence instead, below
                strict = (not stats.failed and not stats.rejected
                          and not stats.conn_retries)
                recon = reconcile_pass(stats, pre_metrics, post_metrics,
                                       strict=strict)
                summary["server_metrics"] = recon
                metrics_problems.extend(
                    f"{stats.name}: {p}" for p in recon["problems"]
                )
            else:
                summary["server_metrics"] = {
                    "skipped": "chaos pass (deltas not meaningful "
                               "across a SIGKILL)",
                    "server_latency": server_latency_percentiles(
                        pre_metrics, post_metrics),
                }
                summary["chaos"] = chaos_info
                report["chaos"] = chaos_info
            report["passes"].append(summary)
            print(json.dumps(summary), flush=True)
            # bit-identity must also hold ACROSS passes (cached vs simulated)
            for idx, digest in stats.digests.items():
                prev = cross_pass_digests.setdefault(idx, digest)
                if prev != digest:
                    print(f"BIT-IDENTITY VIOLATION across passes: spec {idx}",
                          file=sys.stderr)
                    return 1
        report["bit_identical_across_passes"] = True
        if args.chaos and "killed_after_jobs_done" in report.get("chaos", {}):
            # the counters reloaded after the kill -9 must still cover
            # every job that had already completed: each terminal
            # transition snapshots the registry before the job is
            # acknowledged done, so this floor survives any kill point
            floor = int(report["chaos"]["killed_after_jobs_done"])
            persisted = metric_total(parse_prometheus(final_metrics_text),
                                     "repro_jobs_submitted_total")
            report["chaos"]["persisted_submitted_total"] = persisted
            if persisted < floor:
                metrics_problems.append(
                    f"restart persistence: repro_jobs_submitted_total "
                    f"{persisted:g} < {floor} jobs already completed "
                    f"before the kill"
                )
        _, stats_resp, _ = asyncio.run(http_request(
            host, port, "GET", "/stats", timeout=args.request_timeout))
        report["server_stats"] = stats_resp
        _, health, _ = asyncio.run(http_request(
            host, port, "GET", "/healthz", timeout=args.request_timeout))
        report["final_health"] = health
        if args.spans_out:
            if server.get("data_dir") is None:
                metrics_problems.append(
                    "--spans-out needs a spawned server (use --spawn)")
            else:
                run_dir = export_spans(str(server["data_dir"]),
                                       args.spans_out)
                if run_dir is None:
                    metrics_problems.append(
                        "--spans-out: no exportable spans.jsonl found")
                else:
                    report["spans_export"] = {
                        "run_dir": run_dir, "out": args.spans_out,
                    }
    finally:
        proc = server.get("proc")
        if proc is not None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()

    if args.out:
        out_dir = os.path.dirname(args.out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.out}")
    if args.metrics_out:
        out_dir = os.path.dirname(args.metrics_out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(final_metrics_text)
        print(f"final /metrics scrape written to {args.metrics_out}")

    failures: List[str] = list(metrics_problems)
    final = report["passes"][-1]
    total_failed = sum(p["failed"] for p in report["passes"])
    if total_failed:
        failures.append(f"{total_failed} submission(s) failed or were lost")
    if args.min_hit_rate is not None:
        rate = final["cache_hit_rate"]
        if rate < args.min_hit_rate:
            failures.append(
                f"final-pass cache-hit rate {rate:.2%} < "
                f"required {args.min_hit_rate:.2%}"
            )
    if args.saturate:
        total_rejected = sum(p["rejected_503"] for p in report["passes"])
        if not total_rejected:
            failures.append(
                "saturation mode saw zero 503s — the admission budget "
                "never engaged"
            )
    if args.chaos and "restart_s" not in report.get("chaos", {}):
        failures.append("chaos mode never killed/restarted the server")
    if (args.chaos or args.saturate) and (
        report.get("final_health", {}).get("status") != "ok"
    ):
        failures.append(
            f"server health did not recover to ok: {report.get('final_health')}"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    if args.min_hit_rate is not None:
        print(f"PASS: final-pass cache-hit rate "
              f"{final['cache_hit_rate']:.2%} >= {args.min_hit_rate:.2%}, "
              f"bit-identical across passes")
    if args.chaos:
        print(f"PASS: survived kill -9 (restart in "
              f"{report['chaos']['restart_s']}s), zero lost jobs")
    if args.saturate:
        print(f"PASS: {sum(p['rejected_503'] for p in report['passes'])} "
              f"503(s) shed and absorbed by retry/backoff; health ok")
    print("PASS: server /metrics telemetry reconciles with the client tally")
    return 0


if __name__ == "__main__":
    sys.exit(main())
