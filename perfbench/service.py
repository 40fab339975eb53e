"""``service_hot`` and ``service_cold``: a closed loop of two clients in one
process (at most two connections) against a freshly spawned ``repro serve``.

Each client submits a spec (``POST /jobs``), polls ``GET /jobs/<id>`` at a
fixed interval until the job is terminal, fetches ``/result`` and checks
every cell's ``counters_sha`` against the committed goldens, then submits
the next spec.

* ``service_hot`` draws zipfian from a small pool of small-matrix specs
  that set-up has already simulated once, so every cell is a result-store
  hit and simulation is bypassed.
* ``service_cold`` submits single-cell specs with trace seeds never used
  before in the run, so every cell misses the store and the trace cache,
  is simulated, journalled and stored.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from common import (
    HERE, OUT, ROOT, Outcome, child_env, complete_layer_metrics, finish, load_goldens,
    metric, percentile, tail_line, trace_seed, validate_trace, vm_hwm_mb,
)

HOST = "127.0.0.1"
CLIENTS = 2
POLL_S = 0.005
REQUEST_TIMEOUT_S = 10.0
JOB_TIMEOUT_S = 60.0
START_TIMEOUT_S = 60.0
#: timed set-ups per run (the median is reported); a hot one includes warming
SETUPS = {"service_hot": 3, "service_cold": 5}

SYSTEMS = ("base", "nc", "ncd", "vb", "vp", "vbp5", "vxp5", "p5")
BENCHMARKS = ("radix", "fft", "lu", "ocean", "barnes", "cholesky")
#: requested refs per cell; the generators round this up to 12k-34k
SPEC_REFS = 2_000
HOT_POOL = 12
ZIPF_S = 1.1
#: cold spec i simulates SYSTEMS[i % 8] on BENCHMARKS[i // 8 % 6] with trace
#: seed COLD_FIRST_SEED + i; a run never submits more than COLD_SPECS
COLD_SPECS = 2_000
COLD_FIRST_SEED = 1_000
#: tail percentile per workload: the next standard one below the highest
#: that left ten jobs beyond it in every 20 s run measured (hot: 750-1200
#: jobs, so p98 leaves 15 or more; cold: 188-270 jobs, so p90 leaves 18)
TAIL_PCT = {"service_hot": 98.0, "service_cold": 90.0}
TERMINAL = ("done", "failed", "cancelled")


def hot_spec(j: int, seed: int) -> dict:
    """Pool spec ``j`` (2 systems x 2 benchmarks) at trace seed ``seed``."""
    return {
        "systems": [SYSTEMS[(2 * j) % 8], SYSTEMS[(2 * j + 1) % 8]],
        "benchmarks": [BENCHMARKS[j % 6], BENCHMARKS[(j + 3) % 6]],
        "refs": SPEC_REFS,
        "seed": seed,
    }


def cold_spec(i: int) -> dict:
    return {
        "systems": [SYSTEMS[i % 8]],
        "benchmarks": [BENCHMARKS[i // 8 % 6]],
        "refs": SPEC_REFS,
        "seed": COLD_FIRST_SEED + i,
    }


class JobFailed(Exception):
    """A job that did not end with a checked result."""


# ---------------------------------------------------------------------------
# HTTP (one request per connection, as the server speaks it)
# ---------------------------------------------------------------------------


async def http(port: int, method: str, path: str,
               body: Optional[dict] = None) -> Tuple[int, bytes]:
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    head = (f"{method} {path} HTTP/1.1\r\nHost: {HOST}:{port}\r\n"
            f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n")
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(HOST, port), REQUEST_TIMEOUT_S)
    try:
        writer.write(head.encode("ascii") + payload)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), REQUEST_TIMEOUT_S)
    finally:
        writer.close()
        with contextlib.suppress(ConnectionError, OSError):
            await writer.wait_closed()
    status_line, _, rest = raw.partition(b"\r\n")
    try:
        status = int(status_line.split(b" ", 2)[1])
    except (IndexError, ValueError):
        raise ConnectionError("empty or torn response") from None
    return status, rest.partition(b"\r\n\r\n")[2]


# ---------------------------------------------------------------------------
# the server under test
# ---------------------------------------------------------------------------


class Server:
    """One ``repro serve`` process on an ephemeral port and its own data dir.

    With ``spans_out`` it is started through the benchmark's launcher, which
    wraps the layer entry points before serving.
    """

    def __init__(self, data_dir: Path, spans_out: Optional[Path] = None) -> None:
        self.data_dir = data_dir
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--data-dir", str(data_dir)]
        else:
            cmd = [sys.executable, str(HERE / "launcher.py"),
                   "--data-dir", str(data_dir), "--spans-out", str(spans_out)]
        self.proc = subprocess.Popen(cmd, env=child_env(), cwd=str(ROOT),
                                     stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                     text=True)
        watchdog = threading.Timer(START_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        self.port = 0
        try:
            assert self.proc.stdout is not None
            for line in self.proc.stdout:
                if line.startswith("listening on http://"):
                    self.port = int(line.strip().rsplit(":", 1)[1])
                    break
        finally:
            watchdog.cancel()
        try:
            if not self.port:
                raise RuntimeError("repro serve exited before listening")
            asyncio.run(self._healthy())
        except BaseException:
            self.stop()
            raise

    async def _healthy(self) -> None:
        deadline = time.perf_counter() + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            with contextlib.suppress(OSError, asyncio.TimeoutError):
                status, body = await http(self.port, "GET", "/healthz")
                if status == 200 and json.loads(body).get("ok"):
                    return
            await asyncio.sleep(0.005)
        raise RuntimeError("repro serve never reported healthy")

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def scrape(port: int) -> Dict[str, Dict[Tuple, float]]:
    """``GET /metrics`` parsed to ``{family: {sorted label pairs: value}}``."""
    status, body = asyncio.run(http(port, "GET", "/metrics"))
    if status != 200:
        raise RuntimeError(f"GET /metrics answered {status}")
    samples: Dict[str, Dict[Tuple, float]] = {}
    for line in body.decode("utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        name, _, blob = series.partition("{")
        labels = tuple(sorted(
            (k, v.strip('"')) for k, _, v in
            (pair.partition("=") for pair in blob.rstrip("}").split(",") if pair)))
        samples.setdefault(name, {})[labels] = float(value)
    return samples


def delta(before, after, name: str, **match: str) -> float:
    def total(samples) -> float:
        return sum(v for labels, v in samples.get(name, {}).items()
                   if all(dict(labels).get(k) == want for k, want in match.items()))
    return total(after) - total(before)


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Tally:
    """What the clients saw, job by job."""

    def __init__(self) -> None:
        #: (client, job id, POST sent as unix time, latency s) per checked job
        self.jobs: List[Tuple[int, str, float, float]] = []
        self.requests = {"post": 0, "poll": 0, "result": 0}
        self.cells_total = 0
        self.cells_hit = 0
        self.refs = 0
        self.trace_refs: Dict[str, set] = {}
        self.totals: Dict[str, int] = {}

    def add(self, client: int, job_id: str, t0_unix: float, latency: float,
            job: dict, result: dict) -> None:
        self.jobs.append((client, job_id, t0_unix, latency))
        cache = job.get("cache") or {}
        self.cells_total += int(cache.get("total_cells", 0))
        self.cells_hit += int(cache.get("hits", 0))
        for cell in result["cells"]:
            self.refs += int(cell["refs"])
            self.trace_refs.setdefault(cell["benchmark"], set()).add(int(cell["refs"]))
            for name, value in cell["counters"].items():
                self.totals[name] = self.totals.get(name, 0) + int(value)

    @property
    def latencies(self) -> List[float]:
        return [lat for _, _, _, lat in self.jobs]


async def run_job(client: int, port: int, spec: dict, golden: Dict[str, str],
                  tally: Tally) -> None:
    t0 = time.perf_counter()
    t0_unix = time.time()
    status, body = await http(port, "POST", "/jobs", spec)
    if status != 202:
        raise JobFailed(f"POST /jobs answered {status}")
    tally.requests["post"] += 1
    job_id = json.loads(body)["id"]
    while True:
        await asyncio.sleep(POLL_S)
        status, body = await http(port, "GET", f"/jobs/{job_id}")
        if status != 200:
            raise JobFailed(f"GET /jobs/<id> answered {status}")
        tally.requests["poll"] += 1
        job = json.loads(body)
        if job["state"] in TERMINAL:
            break
        if time.perf_counter() - t0 > JOB_TIMEOUT_S:
            raise JobFailed("timeout")
    if job["state"] != "done":
        raise JobFailed(f"job {job['state']}")
    status, body = await http(port, "GET", f"/jobs/{job_id}/result")
    if status != 200:
        raise JobFailed(f"GET /jobs/<id>/result answered {status}")
    tally.requests["result"] += 1
    latency = time.perf_counter() - t0
    result = json.loads(body)
    got = {f"{c['system']}/{c['benchmark']}": c["counters_sha"] for c in result["cells"]}
    if got != golden:
        raise JobFailed("counters_sha differs from golden")
    tally.add(client, job_id, t0_unix, latency, job, result)


async def closed_loop(port: int, next_spec: Callable[[], Optional[Tuple[dict, dict]]],
                      seconds: float, outcome: Outcome, tally: Tally) -> float:
    """Clients run until ``seconds`` pass (or specs run out); returns the wall
    time until the last job in flight completed."""
    t0 = time.perf_counter()
    deadline = t0 + seconds

    async def client(index: int) -> None:
        while time.perf_counter() < deadline:
            item = next_spec()
            if item is None:
                return
            spec, golden = item
            outcome.attempted += 1
            try:
                await run_job(index, port, spec, golden, tally)
            except JobFailed as exc:
                outcome.fail(str(exc))
            except (OSError, asyncio.TimeoutError, ValueError, KeyError) as exc:
                outcome.fail(f"{type(exc).__name__}: {exc}")

    await asyncio.gather(*(client(i) for i in range(CLIENTS)))
    return time.perf_counter() - t0


class HotWorkload:
    """Zipfian draws over the pool of one committed trace seed."""

    name = "service_hot"

    def __init__(self, workload_seed: int) -> None:
        self.seed = trace_seed(workload_seed)
        self.pool = load_goldens(self.name)["seeds"][str(self.seed)]
        if [g["spec"] for g in self.pool] != [hot_spec(j, self.seed) for j in range(HOT_POOL)]:
            raise SystemExit("perfbench: service_hot goldens describe another pool")
        self._rng = random.Random(workload_seed)
        self._weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(HOT_POOL)]

    def describe(self) -> str:
        return f"pool of {HOT_POOL} specs at trace seed {self.seed}"

    def next_spec(self) -> Optional[Tuple[dict, dict]]:
        entry = self.pool[self._rng.choices(range(HOT_POOL), self._weights)[0]]
        return entry["spec"], entry["cells"]

    def warm(self, port: int, outcome: Outcome) -> None:
        """Simulate every pool spec once, so measured jobs all hit the store."""
        todo = [(g["spec"], g["cells"]) for g in self.pool]
        asyncio.run(closed_loop(port, lambda: todo.pop(0) if todo else None,
                                START_TIMEOUT_S, outcome, Tally()))


class ColdWorkload:
    """Consecutive cold specs from a start the workload seed picks."""

    name = "service_cold"

    def __init__(self, workload_seed: int) -> None:
        golden = load_goldens(self.name)
        self.digests = golden["digests"]
        if golden["spec0"] != cold_spec(0) or len(self.digests) != COLD_SPECS:
            raise SystemExit("perfbench: service_cold goldens describe other specs")
        self._first = workload_seed * 7919 % COLD_SPECS
        self._issued = 0

    def describe(self) -> str:
        return f"cold specs from index {self._first}"

    def next_spec(self) -> Optional[Tuple[dict, dict]]:
        if self._issued >= COLD_SPECS:
            return None
        i = (self._first + self._issued) % COLD_SPECS
        self._issued += 1
        spec = cold_spec(i)
        return spec, {f"{spec['systems'][0]}/{spec['benchmarks'][0]}": self.digests[i]}

    def warm(self, port: int, outcome: Outcome) -> None:
        """Nothing to warm: every cold spec is new to the server."""


Workload = Union[HotWorkload, ColdWorkload]
WORKLOADS = {w.name: w for w in (HotWorkload, ColdWorkload)}


# ---------------------------------------------------------------------------
# set-up, measurement, and the two report flavours
# ---------------------------------------------------------------------------


def set_up(work: Workload, outcome: Outcome,
           spans_out: Optional[Path] = None) -> Tuple[Server, float]:
    """Spawn a server on a fresh data dir until healthy (and warm); timed."""
    data_dir = OUT / f"{work.name}-data"
    shutil.rmtree(data_dir, ignore_errors=True)
    t0 = time.perf_counter()
    server = Server(data_dir, spans_out)
    work.warm(server.port, outcome)
    return server, time.perf_counter() - t0


class Pass:
    """One measured pass: client tally, wall, and server telemetry deltas."""

    def __init__(self, work: Workload, server: Server, seconds: float,
                 outcome: Outcome) -> None:
        self.tally = Tally()
        self.data_dir = server.data_dir
        self.before = scrape(server.port)
        self.wall = asyncio.run(closed_loop(server.port, work.next_spec, seconds,
                                            outcome, self.tally))
        self.after = scrape(server.port)
        self.peak_rss_mb = server.peak_rss_mb()
        self.problems = self.reconcile()

    @property
    def jobs_per_s(self) -> float:
        return len(self.tally.jobs) / self.wall

    def d(self, name: str, **match: str) -> float:
        return delta(self.before, self.after, name, **match)

    def reconcile(self) -> List[str]:
        """Server counters against the client tally (exact on a clean pass)."""
        t = self.tally
        pairs = [
            ("repro_jobs_submitted_total", self.d("repro_jobs_submitted_total"),
             t.requests["post"]),
            ("POST /jobs 202", self.d("repro_http_requests_total", endpoint="/jobs",
                                      method="POST", status="202"), t.requests["post"]),
            ("GET /jobs/{id} 200", self.d("repro_http_requests_total",
                                          endpoint="/jobs/{id}", method="GET",
                                          status="200"), t.requests["poll"]),
            ("GET /jobs/{id}/result 200", self.d("repro_http_requests_total",
                                                 endpoint="/jobs/{id}/result",
                                                 method="GET", status="200"),
             t.requests["result"]),
            ("store hits", self.d("repro_store_hits_total"), t.cells_hit),
            ("store misses", self.d("repro_store_misses_total"),
             t.cells_total - t.cells_hit),
        ]
        return [f"/metrics {label} delta {server:g} != client tally {client}"
                for label, server, client in pairs if round(server) != client]

    def mean_ms(self, name: str, **match: str) -> float:
        count = self.d(f"{name}_count", **match)
        return 1000.0 * self.d(f"{name}_sum", **match) / count if count else 0.0


def share_lines(work: Workload, p: Pass) -> List[str]:
    t = p.tally
    lines = [f"share store hits: {t.cells_hit / t.cells_total:.4f} of "
             f"{t.cells_total} cells" if t.cells_total else "share store hits: no cells"]
    simulated = t.cells_total - t.cells_hit
    if work.name == "service_cold":
        lines.append(f"share trace-cache hits: 0 of {simulated} simulated cells "
                     f"(every cell has a trace seed not used before in the run)")
    else:
        lines.append(f"share trace-cache hits: no lookups ({simulated} cells simulated)")
    for bench in sorted(t.trace_refs):
        sizes = ", ".join(str(n) for n in sorted(t.trace_refs[bench]))
        lines.append(f"trace {bench}: {sizes} refs (requested {SPEC_REFS})")
    return lines


def e2e(work: Workload, p: Pass, setup_s: float) -> Tuple[Dict[str, dict], List[str]]:
    lat_ms = [1000.0 * lat for lat in p.tally.latencies]
    tail = TAIL_PCT[work.name]
    return {
        "setup_s": metric(setup_s, "s"),
        "sim_refs_per_s": metric(p.tally.refs / p.wall, "refs/s"),
        "jobs_per_s": metric(p.jobs_per_s, "jobs/s"),
        "job_p50_ms": metric(percentile(lat_ms, 50), "ms"),
        "job_tail_ms": metric(percentile(lat_ms, tail), "ms"),
        "peak_rss_mb": metric(p.peak_rss_mb, "MB"),
    }, [
        f"jobs: {len(lat_ms)} completed in {p.wall:.2f}s by {CLIENTS} closed-loop "
        f"clients polling every {1000 * POLL_S:g} ms",
        tail_line("job_tail_ms", lat_ms, tail),
    ]


def job_ledgers(spans: List[dict], post_t0: Dict[str, float]) -> List[Tuple[str, float, Dict[str, float]]]:
    """Per job: server wall (POST handler start to the job thread's return)
    split into layer self times.

    The job's path crosses threads: the event loop reads the request and
    runs ``JobManager.submit``; a job thread later runs the sweep.  The
    POST handling before ``submit`` is the app layer's, the gap between
    ``submit`` returning and the job thread starting is queue wait, and a
    ``submit`` tail that overlaps the job thread is left to the job.
    """
    from tracing import SpanTree, span_arg

    tree = SpanTree(spans)
    submits = {span_arg(s, "job_id"): s for s in spans if s["name"] == "service.jobs.submit"}
    runs = {span_arg(s, "job_id"): s for s in spans if s["name"] == "service.jobs.run"}
    rename = {"service.jobs.run": "service.jobs.run_self",
              "sim.parallel.sweep": "sim.parallel.sweep_self"}
    out = []
    for job_id, t_post in post_t0.items():
        submit, run = submits[job_id], runs[job_id]
        sub0, sub1 = submit["t0_unix"], submit["t0_unix"] + submit["dur_s"]
        run0, run1 = run["t0_unix"], run["t0_unix"] + run["dur_s"]
        layers = tree.self_by_layer([submit["span_id"], run["span_id"]], rename)
        layers["service.app.handle"] = sub0 - t_post
        layers["service.jobs.queue_wait"] = max(0.0, run0 - sub1)
        layers["service.jobs.submit"] -= max(0.0, sub1 - run0)
        wall = run1 - t_post
        layers["residual"] = wall - sum(layers.values())
        out.append((job_id, wall, layers))
    return out


def layer_values(work: Workload, p: Pass, spans: List[dict],
                 untraced_jobs_per_s: float) -> Tuple[Dict[str, float], List[str], List[str]]:
    from repro.obs.spans import load_spans

    from tracing import SpanTree, span_arg

    t = p.tally
    n = len(t.jobs)
    post_t0 = {}
    for _, job_id, _, _ in t.jobs:
        root = [s for s in load_spans(p.data_dir / "jobs" / job_id / "run")
                if s["name"] == "POST /jobs"]
        post_t0[job_id] = float(root[0]["t0_unix"])
    ledgers = job_ledgers(spans, post_t0)
    wall = sum(w for _, w, _ in ledgers)
    layers: Dict[str, float] = {}
    for _, _, per in ledgers:
        for name, v in per.items():
            layers[name] = layers.get(name, 0.0) + v
    worst = max(abs(per["residual"]) / w for _, w, per in ledgers)
    lines = [f"ledger per job (server side, POST handler start to job done): "
             f"wall {1000 * wall / n:.3f} ms over {n} jobs"]
    for name, self_s in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:34s} {1000 * self_s / n:10.4f}ms  {100 * self_s / wall:6.2f}%")
    problems = []
    if abs(sum(layers.values()) - wall) > 1e-6 * wall:
        problems.append("ledger does not close")
    if worst >= 0.05:
        problems.append(f"a job's residual is {100 * worst:.2f}% of its wall (>= 5%)")
    lines.append(f"worst single-job residual: {100 * worst:.3f}% of its wall")

    measured = {job_id for _, job_id, _, _ in t.jobs}
    mine = SpanTree(spans).subtree(s["span_id"] for s in spans if s["name"] == "service.jobs.run"
                                   and span_arg(s, "job_id") in measured)
    generated = [s for s in mine if s["name"] == "trace.synthetic.generate"]
    lookups = [s for s in mine if s["name"] == "sim.runner.get_trace"]
    sim_refs = sum(int(span_arg(s, "refs", 0)) for s in mine if s["name"] == "sim.simulator.run")
    refs = t.totals.get("reads", 0) + t.totals.get("writes", 0)
    server_wall = {job_id: w for job_id, w, _ in ledgers}
    hits, misses = p.d("repro_store_hits_total"), p.d("repro_store_misses_total")

    out = {f"{name}_s": v / n for name, v in layers.items()}
    out.update({
        "ledger.wall_s": wall / n,
        "ledger.residual_pct": 100.0 * layers["residual"] / wall,
        "trace.overhead_pct": 100.0 * (untraced_jobs_per_s - p.jobs_per_s) / untraced_jobs_per_s,
        "trace.synthetic.generated_refs": sum(int(span_arg(s, "refs", 0)) for s in generated) / n,
        "sim.runner.trace_cache_hit_ratio":
            1.0 - len(generated) / len(lookups) if lookups else 0.0,
        "sim.simulator.ns_per_ref":
            1e9 * layers.get("sim.simulator.run", 0.0) / sim_refs if sim_refs else 0.0,
        "sim.refs": refs / n,
        "sim.l1_hit_share": (t.totals["l1_read_hits"] + t.totals["l1_write_hits"]) / refs,
        "coherence.cluster_hits":
            (t.totals["read_cluster_hits"] + t.totals["write_cluster_hits"]) / n,
        "coherence.remote_accesses": (t.totals["read_remote"] + t.totals["write_remote"]) / n,
        "coherence.invalidations": t.totals["remote_invalidations"] / n,
        "rdc.nc_hits": (t.totals["read_nc_hits"] + t.totals["write_nc_hits"]) / n,
        "rdc.pc_hits": (t.totals["read_pc_hits"] + t.totals["write_pc_hits"]) / n,
        "rdc.pc_relocations": t.totals["pc_relocations"] / n,
        "rdc.pc_evictions": t.totals["pc_evictions"] / n,
        "sim.parallel.cell_retries": p.d("repro_sweep_cell_retries_total"),
        "service.store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "service.jobs.queue_wait_ms": p.mean_ms("repro_job_queue_wait_seconds"),
        "service.jobs.run_ms": p.mean_ms("repro_job_run_seconds"),
        "service.app.request_ms.post_jobs":
            p.mean_ms("repro_http_request_seconds", endpoint="/jobs"),
        "service.app.request_ms.get_job":
            p.mean_ms("repro_http_request_seconds", endpoint="/jobs/{id}"),
        "service.app.request_ms.get_result":
            p.mean_ms("repro_http_request_seconds", endpoint="/jobs/{id}/result"),
        "service.app.requests_per_job": sum(t.requests.values()) / n,
        "service.app.rejected": p.d("repro_admission_rejected_total"),
        "service.client_wait_ms":
            1000.0 * sum(lat - server_wall[j] for _, j, _, lat in t.jobs) / n,
    })
    lines.append(f"tracing overhead: {out['trace.overhead_pct']:.2f}% of jobs_per_s "
                 f"({untraced_jobs_per_s:.2f} untraced, {p.jobs_per_s:.2f} traced)")
    return out, lines, problems


def run(name: str, workload_seed: int, seconds: float, traced: bool) -> int:
    work = WORKLOADS[name](workload_seed)
    outcome = Outcome()
    lines = [f"workload {name}: workload seed {workload_seed} -> {work.describe()}, "
             f"{CLIENTS} closed-loop clients, poll {1000 * POLL_S:g} ms"]
    if not traced:
        setups = []
        for i in range(SETUPS[name]):
            server, setup_s = set_up(work, outcome)
            setups.append(setup_s)
            if i < SETUPS[name] - 1:
                server.stop()
        try:
            p = Pass(work, server, seconds, outcome)
        finally:
            server.stop()
        shutil.rmtree(server.data_dir, ignore_errors=True)
        metrics, more = e2e(work, p, percentile(setups, 50))
        for mname, m in metrics.items():
            lines.append(f"{mname}: {m['value']:.6g} {m['unit']}")
        lines.append("setups: " + ", ".join(f"{s:.3f}s" for s in setups))
        return finish(outcome, metrics, lines + more + share_lines(work, p), p.problems)

    from repro.obs.spans import SpanRecorder, spans_to_chrome

    server, _ = set_up(work, outcome)
    try:
        untraced = Pass(work, server, seconds, outcome)
    finally:
        server.stop()
    shutil.rmtree(server.data_dir, ignore_errors=True)
    spans_path = OUT / f"{name}-server-spans.json"
    server, _ = set_up(work, outcome, spans_out=spans_path)
    try:
        p = Pass(work, server, seconds, outcome)
    finally:
        server.stop()
    spans = json.loads(spans_path.read_text(encoding="utf-8"))
    values, more, problems = layer_values(work, p, spans, untraced.jobs_per_s)
    client = SpanRecorder(trace_id="client")
    for index, job_id, t0_unix, latency in p.tally.jobs:
        client.add("client job", t0_unix, latency, proc=f"client-{index}", job_id=job_id)
    chrome = OUT / f"{name}-spans.json"
    chrome.write_text(json.dumps(spans_to_chrome(spans + client.spans)), encoding="utf-8")
    more.append(validate_trace(chrome))
    shutil.rmtree(server.data_dir, ignore_errors=True)
    return finish(outcome, complete_layer_metrics(values),
                  lines + more + share_lines(work, p),
                  untraced.problems + p.problems + problems)
