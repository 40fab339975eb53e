"""Job lifecycle for the sweep service: validate, queue, run, persist.

A **job** is one sweep spec (systems x benchmarks matrix plus trace
shape) submitted over HTTP.  The :class:`JobManager` gives each job a
directory under ``<data_dir>/jobs/<job_id>/`` holding

* ``job.json`` — the validated spec and the job's state machine
  (``queued -> running -> done | failed | cancelled``), written
  atomically at submit, at the terminal state and when a restart or a
  drain re-queues the job.  The ``running`` transition is not written:
  a restart treats a ``queued`` or ``running`` job alike and a run
  re-stamps ``started_unix``, so that write would carry nothing;
* ``run/`` — a standard :class:`~repro.sim.checkpoint.SweepJournal` run
  directory, written by the same fault-tolerant sweep engine every CLI
  sweep uses, which is what makes jobs **resumable**: a server killed
  mid-job re-enqueues it on startup, the journal restores every
  simulated cell bit-identically and the store serves again the cells
  it served before (a store hit is not journalled);
* ``job-manifest.json`` — the run manifest of the finished sweep, with
  the cache hit/simulated split under its ``cache`` key;
* ``result.json`` — the response payload for ``GET /jobs/<id>/result``
  (per-cell counters, digests, and headline metrics), written once on
  completion so serving a result is a file read, not a recomputation.

Execution is deliberately synchronous-core: the manager owns a small
thread pool (``job_workers``), each job runs through
:func:`repro.sim.parallel.run_parallel_sweep` with the shared
:class:`~repro.service.store.ResultStore` consulted per cell, and the
asyncio HTTP layer (:mod:`repro.service.app`) only ever calls fast,
lock-guarded accessors.  Each job thread keeps a spawned
:class:`~repro.sim.parallel.WorkerPool` between jobs, so the cells it
simulates run off the server's GIL; :meth:`JobManager.close` and
:meth:`JobManager.drain` stop every one of them.
"""

from __future__ import annotations

import json
import shutil
import threading
import time
import uuid
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..durable import read_json, write_atomic
from ..errors import (
    JobCancelledError,
    JobSpecError,
    ReproError,
    ServiceUnavailableError,
)
from ..obs.manifest import build_manifest, counters_digest, write_manifest
from ..obs.monitor import SweepProgress
from ..obs.registry import METRICS_SNAPSHOT_NAME, WallClockRegistry
from ..obs.spans import (
    SPANS_NAME,
    SpanRecorder,
    append_spans,
    request_root_span_id,
    run_span_id,
)
from ..params import SETTINGS, setting
from ..sim.parallel import RecoveryLog, WorkerPool, cache_summary, run_parallel_sweep
from ..sim.runner import DEFAULT_SCALE, resolve_sweep_configs
from ..trace.synthetic import BENCHMARK_NAMES
from .store import ResultStore

#: guard rails on what one HTTP request may ask for
MAX_CELLS_PER_JOB = 512
MAX_REFS_PER_CELL = 10_000_000

JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
#: states a job never leaves (and TTL garbage collection may reap)
TERMINAL_STATES = ("done", "failed", "cancelled")


@dataclass(frozen=True)
class JobSpec:
    """One validated sweep request.

    The JSON body of ``POST /jobs``: ``systems`` and ``benchmarks`` name
    the matrix, the rest shapes the traces and the execution.
    """

    systems: Tuple[str, ...]
    benchmarks: Tuple[str, ...]
    refs: int = 10_000
    seed: int = 1
    scale: float = DEFAULT_SCALE
    jobs: int = 1  #: worker processes for the sweep's pool

    @classmethod
    def from_dict(cls, raw: object) -> "JobSpec":
        """Validate an untrusted JSON object into a spec, eagerly.

        Raises :class:`~repro.errors.JobSpecError` naming the offending
        field; nothing is simulated (or even queued) on bad input.
        """
        if not isinstance(raw, dict):
            raise JobSpecError("spec must be a JSON object")
        unknown = set(raw) - {"systems", "benchmarks", "refs", "seed", "scale", "jobs"}
        if unknown:
            raise JobSpecError(f"unknown spec field(s): {', '.join(sorted(unknown))}")

        def _names(key: str) -> Tuple[str, ...]:
            value = raw.get(key)
            if isinstance(value, str):
                value = [v.strip() for v in value.split(",") if v.strip()]
            if not isinstance(value, (list, tuple)) or not value or not all(
                isinstance(v, str) and v for v in value
            ):
                raise JobSpecError(
                    f"{key} must be a non-empty list of names "
                    f"(or a comma-separated string)"
                )
            return tuple(value)

        def _int(key: str, default: int, lo: int, hi: int) -> int:
            value = raw.get(key, default)
            if not isinstance(value, int) or isinstance(value, bool):
                raise JobSpecError(f"{key} must be an integer")
            if not lo <= value <= hi:
                raise JobSpecError(f"{key} must be in [{lo}, {hi}]")
            return value

        systems = _names("systems")
        benchmarks = _names("benchmarks")
        for bench in benchmarks:
            if bench.lower() not in BENCHMARK_NAMES:
                raise JobSpecError(
                    f"unknown benchmark {bench!r}; known: "
                    f"{', '.join(BENCHMARK_NAMES)}"
                )
        if len(systems) * len(benchmarks) > MAX_CELLS_PER_JOB:
            raise JobSpecError(
                f"matrix of {len(systems) * len(benchmarks)} cells exceeds "
                f"the per-job limit of {MAX_CELLS_PER_JOB}"
            )
        refs = _int("refs", 10_000, 1, MAX_REFS_PER_CELL)
        seed = _int("seed", 1, 0, 2**31 - 1)
        jobs = _int("jobs", 1, 1, 64)
        scale = raw.get("scale", DEFAULT_SCALE)
        if isinstance(scale, bool) or not isinstance(scale, (int, float)):
            raise JobSpecError("scale must be a number")
        scale = float(scale)
        if not 0.0 < scale <= 8.0:
            raise JobSpecError("scale must be in (0, 8]")
        spec = cls(
            systems=systems, benchmarks=benchmarks, refs=refs, seed=seed,
            scale=scale, jobs=jobs,
        )
        # resolve every system eagerly: an unknown name or bad override
        # must 400 at submit time, not fail the job minutes later
        try:
            spec.resolve_configs()
        except ReproError as exc:
            raise JobSpecError(str(exc)) from exc
        return spec

    @property
    def n_cells(self) -> int:
        """Matrix size — the unit admission control budgets in."""
        return len(self.systems) * len(self.benchmarks)

    def resolve_configs(self) -> "OrderedDict[str, object]":
        return resolve_sweep_configs(list(self.systems))

    def to_dict(self) -> Dict[str, object]:
        return {
            "systems": list(self.systems),
            "benchmarks": list(self.benchmarks),
            "refs": self.refs,
            "seed": self.seed,
            "scale": self.scale,
            "jobs": self.jobs,
        }


@dataclass
class Job:
    """One job's in-memory record (mirrored to ``job.json`` on disk)."""

    id: str
    spec: JobSpec
    state: str = "queued"
    created_unix: float = field(default_factory=time.time)
    started_unix: Optional[float] = None
    finished_unix: Optional[float] = None
    error: Optional[str] = None
    cache: Optional[Dict[str, object]] = None
    resumed: bool = False  #: re-enqueued by startup recovery
    request_id: Optional[str] = None  #: X-Request-Id correlation (trace id)

    def to_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "spec": self.spec.to_dict(),
            "state": self.state,
            "created_unix": self.created_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "error": self.error,
            "cache": self.cache,
            "resumed": self.resumed,
            "request_id": self.request_id,
        }


def _write_json(path: Path, payload: Dict[str, object]) -> None:
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


class JobManager:
    """Persistent queue of sweep jobs over one shared result store.

    ``data_dir`` layout: ``store/`` (the content-addressed result store)
    and ``jobs/<job_id>/`` (one directory per job, see module docstring).
    Construct, then call :meth:`start` — which first **recovers**: jobs
    found on disk in ``queued``/``running`` state (a previous server
    died) are re-enqueued and resume from their journals.
    """

    def __init__(
        self,
        data_dir: Union[str, Path, None] = None,
        job_workers: int = 2,
        store: Optional[ResultStore] = None,
        max_queued_jobs: Optional[int] = None,
        max_inflight_cells: Optional[int] = None,
        job_ttl_s: Optional[float] = None,
        retry_after_s: float = 2.0,
        metrics: Optional[WallClockRegistry] = None,
    ) -> None:
        from .store import service_data_dir

        self.data_dir = Path(data_dir) if data_dir is not None else service_data_dir()
        self.jobs_dir = self.data_dir / "jobs"
        #: wall-clock telemetry registry, persisted to ``metrics.json`` in
        #: the data dir so counters survive a SIGKILL + restart.  Loaded
        #: (merged) here, before any tally can move.
        self.metrics = metrics if metrics is not None else WallClockRegistry()
        self.metrics_path = self.data_dir / METRICS_SNAPSHOT_NAME
        self.metrics.load(self.metrics_path)
        self.store = store if store is not None else ResultStore(
            self.data_dir / "store", metrics=self.metrics
        )
        self.started_unix = time.time()
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._lock = threading.Lock()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._job_workers = max(1, int(job_workers))
        # admission control: 0 disables a bound
        self.max_queued_jobs = setting("REPRO_MAX_QUEUED_JOBS", max_queued_jobs)
        self.max_inflight_cells = setting("REPRO_MAX_INFLIGHT_CELLS", max_inflight_cells)
        #: seconds a terminal job (and its directory) outlives completion;
        #: ``None``/0 keeps them forever
        self.job_ttl_s = setting("REPRO_JOB_TTL", job_ttl_s)
        #: seconds :meth:`drain` waits for running jobs when not told (the
        #: variable's 0 means the default)
        self.drain_timeout_s = (
            setting("REPRO_DRAIN_TIMEOUT") or SETTINGS["REPRO_DRAIN_TIMEOUT"].default
        )
        self.retry_after_s = float(retry_after_s)
        # rejected/expired are seeded from the persisted registry snapshot
        # and incremented in lockstep with it, which is what fixes the
        # /stats amnesia across restarts
        self.rejected = int(self.metrics.counter_total("repro_admission_rejected_total"))
        self.expired = int(self.metrics.counter_total("repro_jobs_expired_total"))
        self._last_health = "ok"
        self._draining = threading.Event()
        #: per-job abort signals consulted between sweep cells
        self._aborts: Dict[str, threading.Event] = {}
        #: jobs whose abort came from an explicit cancel (vs a drain)
        self._cancel_requested: set = set()
        #: each job thread's kept worker pool (created on its first job)
        self._pools: Dict[int, WorkerPool] = {}
        self._pools_closed = False

    # ---- lifecycle -------------------------------------------------------

    def start(self) -> List[str]:
        """Recover persisted jobs, then start accepting work.

        Returns the ids of the jobs that were re-enqueued (unfinished
        when the previous server stopped); completed/failed jobs are
        loaded for status queries but not re-run.
        """
        self._executor = ThreadPoolExecutor(
            max_workers=self._job_workers, thread_name_prefix="repro-job"
        )
        resumed: List[str] = []
        for job in self._load_persisted():
            with self._lock:
                self._jobs[job.id] = job
            if job.state in ("queued", "running"):
                job.state = "queued"
                job.resumed = True
                self._persist(job)
                self._executor.submit(self._run, job.id)
                resumed.append(job.id)
        if resumed:
            self.metrics.inc("repro_jobs_resumed_total", len(resumed))
        self._update_gauges()
        return resumed

    def close(self, wait: bool = True) -> None:
        """Stop the job threads (waiting for running jobs with ``wait``)
        and every worker process; no worker is alive once this returns."""
        if self._executor is not None:
            self._executor.shutdown(wait=wait)
            self._executor = None
        self._close_pools()
        self._save_metrics()

    def _job_pool(self) -> WorkerPool:
        """The calling job thread's kept worker pool."""
        with self._lock:
            pool = self._pools.get(threading.get_ident())
            if pool is None:
                pool = self._pools[threading.get_ident()] = WorkerPool(kept=True)
                if self._pools_closed:
                    pool.close()  # a thread still unwinding after close()
        return pool

    def _close_pools(self) -> None:
        with self._lock:
            self._pools_closed = True
            pools = list(self._pools.values())
        for pool in pools:
            pool.close()

    # ---- graceful drain --------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def begin_drain(self) -> None:
        """Stop admitting work; running jobs keep checkpointing."""
        if not self._draining.is_set():
            self._draining.set()
            self.metrics.inc("repro_drain_started_total")
            self.metrics.set_gauge("repro_service_draining", 1)

    def drain(self, timeout: Optional[float] = None) -> Dict[str, object]:
        """Blocking graceful shutdown; returns a summary of what happened.

        Steps: stop admitting (`503` from now on), cancel *queued* jobs'
        executor futures — they stay ``queued`` on disk, which IS the
        persisted queue order (:meth:`start` re-enqueues them in
        ``created_unix`` order) — then give running jobs ``timeout``
        seconds to finish naturally.  Jobs still running after that are
        aborted — their in-flight cell is dropped, every completed cell is
        already in the journal — and parked back to ``queued``, so a
        restarted server resumes them bit-identically.  Every job
        thread's worker pool is closed before this returns.
        """
        self.begin_drain()
        if timeout is None:
            timeout = self.drain_timeout_s
        executor, self._executor = self._executor, None
        if executor is not None:
            # cancel pending futures: queued jobs are not started, their
            # job.json rows survive, and the next start() resumes them
            executor.shutdown(wait=False, cancel_futures=True)
        deadline = time.time() + max(0.0, timeout)
        while time.time() < deadline and self._count_state("running"):
            time.sleep(0.02)
        aborted = []
        with self._lock:
            for job_id, event in self._aborts.items():
                job = self._jobs.get(job_id)
                if job is not None and job.state == "running":
                    aborted.append(job_id)
                    event.set()
        if executor is not None:
            # join job threads: an aborted sweep drops its in-flight cell
            # (the journal holds every completed one), so this is quick
            executor.shutdown(wait=True)
        self._close_pools()
        summary = {
            "queued": self._count_state("queued"),
            "finished": self._count_state("done") + self._count_state("failed"),
            "aborted": len(aborted),
        }
        self._save_metrics()
        return summary

    def abort_running(self) -> int:
        """Set every job's abort signal (forced exit); returns the count.

        Running sweeps park, dropping their in-flight cell; the journal
        already holds every completed cell, so nothing is lost.
        """
        with self._lock:
            events = list(self._aborts.values())
        for event in events:
            event.set()
        return len(events)

    def _count_state(self, state: str) -> int:
        with self._lock:
            return sum(1 for j in self._jobs.values() if j.state == state)

    # ---- admission accounting --------------------------------------------

    def queued_jobs(self) -> int:
        return self._count_state("queued")

    def inflight_cells(self) -> int:
        """Cells across every queued or running job — the load budget."""
        with self._lock:
            return sum(
                j.spec.n_cells for j in self._jobs.values()
                if j.state in ("queued", "running")
            )

    def health(self) -> str:
        """``ok`` | ``degraded`` (store writes failing) | ``draining``."""
        if self._draining.is_set():
            state = "draining"
        elif self.store.degraded:
            state = "degraded"
        else:
            state = "ok"
        if state != self._last_health:
            self._last_health = state
            self.metrics.inc("repro_health_transitions_total", labels={"to": state})
        return state

    def _load_persisted(self) -> List[Job]:
        jobs: List[Job] = []
        if not self.jobs_dir.is_dir():
            return jobs
        for job_file in sorted(self.jobs_dir.glob("*/job.json")):
            try:
                raw = json.loads(job_file.read_text(encoding="utf-8"))
                # older job.json files carry an ``engine`` spec field that
                # no longer exists; drop it rather than abandon the job
                spec_raw = dict(raw["spec"])
                spec_raw.pop("engine", None)
                spec = JobSpec.from_dict(spec_raw)
                job = Job(
                    id=str(raw["id"]),
                    spec=spec,
                    state=str(raw.get("state", "queued")),
                    created_unix=float(raw.get("created_unix", 0.0)),
                    started_unix=raw.get("started_unix"),
                    finished_unix=raw.get("finished_unix"),
                    error=raw.get("error"),
                    cache=raw.get("cache"),
                    resumed=bool(raw.get("resumed", False)),
                    request_id=raw.get("request_id"),
                )
            except (OSError, ValueError, KeyError, TypeError, ReproError):
                continue  # a torn job.json is abandoned, never fatal
            if job.state not in JOB_STATES:
                continue
            jobs.append(job)
        jobs.sort(key=lambda j: j.created_unix)
        return jobs

    # ---- submission ------------------------------------------------------

    def submit(self, raw_spec: object, request_id: Optional[str] = None) -> Job:
        """Validate, admit, and enqueue one sweep spec; returns the job.

        The job is persisted before this method returns, so a server
        crash between ``202 Accepted`` and execution loses nothing.
        ``request_id`` is the HTTP correlation id; it is stamped into the
        job record and becomes the trace id of the job's span tree.
        Raises :class:`~repro.errors.ServiceUnavailableError` when the
        server is draining or admission control finds the queue or the
        in-flight cell budget saturated — the submission is load-shed
        (nothing enqueued, nothing persisted) and safely retryable.
        """
        if self._draining.is_set():
            self.note_rejected("draining")
            raise ServiceUnavailableError(
                "server is draining and not accepting new jobs",
                retry_after_s=self.retry_after_s,
            )
        if self._executor is None:
            raise ReproError("job manager is not started")
        self.gc_terminal_jobs()
        spec = JobSpec.from_dict(raw_spec)
        self._admit(spec)
        job = Job(id=uuid.uuid4().hex[:12], spec=spec, request_id=request_id)
        with self._lock:
            self._jobs[job.id] = job
            self._aborts[job.id] = threading.Event()
        self._persist(job)
        self.metrics.inc("repro_jobs_submitted_total")
        self._executor.submit(self._run, job.id)
        self._update_gauges()
        return job

    def _admit(self, spec: JobSpec) -> None:
        """Reject (503) rather than queue unbounded work."""
        queued = self.queued_jobs()
        if self.max_queued_jobs and queued >= self.max_queued_jobs:
            self._note_rejection(
                f"job queue full ({queued} queued >= "
                f"{self.max_queued_jobs} limit)",
                kind="queue_full",
            )
        inflight = self.inflight_cells()
        if (
            self.max_inflight_cells
            and inflight + spec.n_cells > self.max_inflight_cells
        ):
            self._note_rejection(
                f"in-flight cell budget exhausted ({inflight} in flight "
                f"+ {spec.n_cells} requested > {self.max_inflight_cells} limit)",
                kind="cell_budget",
            )

    def note_rejected(self, kind: str) -> None:
        """Count one shed submission (admission, drain, or injected)."""
        with self._lock:
            self.rejected += 1
        self.metrics.inc("repro_admission_rejected_total", labels={"reason": kind})

    def _note_rejection(self, reason: str, kind: str = "admission") -> None:
        self.note_rejected(kind)
        raise ServiceUnavailableError(reason, retry_after_s=self.retry_after_s)

    # ---- cancellation & garbage collection -------------------------------

    def cancel(self, job_id: str) -> Optional[Job]:
        """Request cancellation; returns the job or ``None`` if unknown.

        Queued jobs flip straight to ``cancelled``.  Running jobs get
        their abort event set and stop within a supervisor tick, dropping
        their in-flight cell (the state transition happens in the job
        thread); terminal jobs are returned unchanged, making
        cancellation idempotent.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.state in TERMINAL_STATES:
                return job
            self._cancel_requested.add(job_id)
            self._aborts.setdefault(job_id, threading.Event()).set()
            flipped = job.state == "queued"
            if flipped:
                job.state = "cancelled"
                job.finished_unix = time.time()
        self.metrics.inc("repro_jobs_cancel_requests_total")
        if flipped:
            self._persist(job)
            self.metrics.inc("repro_jobs_completed_total", labels={"state": "cancelled"})
            self._update_gauges()
            self._save_metrics()
        return job

    def gc_terminal_jobs(self, now: Optional[float] = None) -> int:
        """Reap terminal jobs older than ``job_ttl_s``; returns the count.

        A no-op when no TTL is configured.  Reaped jobs disappear from
        the index *and* from disk (their whole directory, journal and
        result included) — the content-addressed result store is what
        keeps their cells reusable.
        """
        ttl = self.job_ttl_s
        if not ttl or ttl <= 0:
            return 0
        cutoff = (time.time() if now is None else now) - ttl
        reaped: List[Job] = []
        with self._lock:
            for job_id, job in list(self._jobs.items()):
                if (
                    job.state in TERMINAL_STATES
                    and job.finished_unix is not None
                    and job.finished_unix <= cutoff
                ):
                    del self._jobs[job_id]
                    reaped.append(job)
            self.expired += len(reaped)
        for job in reaped:
            shutil.rmtree(self.job_dir(job.id), ignore_errors=True)
        if reaped:
            self.metrics.inc("repro_jobs_expired_total", len(reaped))
            self._save_metrics()
        return len(reaped)

    # ---- execution -------------------------------------------------------

    def _run(self, job_id: str) -> None:
        try:
            self._run_locked_job(job_id)
        finally:
            with self._lock:
                self._aborts.pop(job_id, None)
                self._cancel_requested.discard(job_id)

    def _run_locked_job(self, job_id: str) -> None:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state != "queued":
                return
            job.state = "running"
            abort = self._aborts.setdefault(job_id, threading.Event())
        job.started_unix = time.time()
        queue_wait = max(0.0, job.started_unix - job.created_unix)
        self.metrics.observe("repro_job_queue_wait_seconds", queue_wait)
        self._update_gauges()
        # one span tree per job, rooted (when the submission came over
        # HTTP) at the request's derived root span id so the tree stays
        # connected without any handshake between layers
        spans = SpanRecorder(
            trace_id=job.request_id or job.id,
            sink_path=self.run_dir(job.id) / SPANS_NAME,
            proc="job-manager",
            default_parent=(
                request_root_span_id(job.request_id) if job.request_id else None
            ),
        )
        spans.add(
            "queue-wait", job.created_unix, queue_wait,
            job_id=job.id, resumed=job.resumed,
        )
        recovery = RecoveryLog()
        recovery.request_id = job.request_id
        run_t0 = time.time()
        try:
            configs = job.spec.resolve_configs()
            results = run_parallel_sweep(
                configs,
                list(job.spec.benchmarks),
                refs=job.spec.refs,
                seed=job.spec.seed,
                scale=job.spec.scale,
                jobs=job.spec.jobs,
                run_dir=self.run_dir(job.id),
                recovery=recovery,
                result_store=self.store,
                should_abort=abort.is_set,
                metrics=self.metrics,
                spans=spans,
                request_id=job.request_id,
                pool=self._job_pool(),
            )
        except JobCancelledError:
            if job_id in self._cancel_requested:
                self._finish(job, "cancelled", spans, run_t0)
            else:
                # drain abort: park back to queued so a restarted server
                # resumes from the journal (completed cells restore
                # bit-identically, nothing is lost)
                job.state = "queued"
                job.started_unix = None
                job.finished_unix = None
                self._persist(job)
                self.metrics.inc("repro_jobs_parked_total")
                spans.close()
                self._update_gauges()
                self._save_metrics()
            return
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            job.error = f"{type(exc).__name__}: {exc}"
            self._finish(job, "failed", spans, run_t0)
            return
        spans.add(
            "sweep run", run_t0, time.time() - run_t0,
            span_id=run_span_id(job.id), job_id=job.id,
        )
        job.cache = cache_summary(results, recovery)
        with spans.span("write-result", job_id=job.id):
            self._write_result(job, results)
        manifest = build_manifest(
            results,
            kind="service-job",
            command=f"POST /jobs {job.id}",
            refs=job.spec.refs,
            seed=job.spec.seed,
            scale=job.spec.scale,
            jobs=job.spec.jobs,
            wall_s=time.time() - (job.started_unix or time.time()),
            extra={
                "cache": job.cache,
                "recovery": recovery.summary() if len(recovery) else {},
                "request_id": job.request_id,
            },
        )
        write_manifest(manifest, self.job_dir(job.id), name="job")
        self._finish(job, "done", spans, run_t0, add_run_span=False)

    def _finish(
        self,
        job: Job,
        state: str,
        spans: SpanRecorder,
        run_t0: float,
        add_run_span: bool = True,
    ) -> None:
        """Terminal transition to ``state``.

        The job is counted, the registry snapshot saved and ``job.json``
        written *before* ``state`` is published, so a client that sees the
        job finished also finds it in ``/metrics``, in the snapshot a
        SIGKILL leaves behind and in ``job.json``.  The gauges follow the
        publish in memory; a restart recomputes them and the next save
        persists them.
        """
        job.finished_unix = time.time()
        if add_run_span:
            spans.add(
                "sweep run", run_t0, job.finished_unix - run_t0,
                span_id=run_span_id(job.id), job_id=job.id, state=state,
            )
        spans.close()
        if job.started_unix:
            self.metrics.observe(
                "repro_job_run_seconds", max(0.0, job.finished_unix - job.started_unix)
            )
        self.metrics.inc("repro_jobs_completed_total", labels={"state": state})
        self._save_metrics()
        self._persist(replace(job, state=state))
        job.state = state
        self._update_gauges()

    def _write_result(self, job: Job, results) -> None:
        cells = []
        for (system, bench), r in results.items():
            cells.append(
                {
                    "system": system,
                    "benchmark": bench,
                    "refs": r.refs,
                    "seed": r.seed,
                    "counters": r.counters.as_dict(),
                    "counters_sha": counters_digest(r.counters),
                    "miss_ratio_pct": round(r.miss_ratio, 6),
                    "stall_per_ref_cycles": round(r.stall_per_reference, 6),
                    "traffic_blocks": r.traffic_blocks,
                }
            )
        _write_json(
            self.job_dir(job.id) / "result.json",
            {"job_id": job.id, "cells": cells, "cache": job.cache},
        )

    # ---- paths & persistence --------------------------------------------

    def job_dir(self, job_id: str) -> Path:
        return self.jobs_dir / job_id

    def run_dir(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "run"

    def _persist(self, job: Job) -> None:
        _write_json(self.job_dir(job.id) / "job.json", job.to_dict())

    # ---- telemetry --------------------------------------------------------

    def _update_gauges(self) -> None:
        try:
            self.metrics.set_gauge("repro_job_queue_depth", self.queued_jobs())
            self.metrics.set_gauge("repro_jobs_running", self._count_state("running"))
            self.metrics.set_gauge("repro_inflight_cells", self.inflight_cells())
        except Exception:
            pass  # gauges are advisory; never fail a transition over them

    def _save_metrics(self) -> None:
        self.metrics.save(self.metrics_path)

    def flush_telemetry(self) -> None:
        """Refresh gauges and persist the snapshot (GC-loop heartbeat)."""
        self._update_gauges()
        self._save_metrics()

    def attach_request_spans(self, job_id: str, records: List[Dict[str, object]]) -> None:
        """Append HTTP-layer spans to a job's span file (best-effort)."""
        append_spans(self.run_dir(job_id) / SPANS_NAME, records)

    # ---- queries (called from the async HTTP layer; must stay fast) ------

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def list_jobs(self, limit: Optional[int] = None) -> List[Job]:
        with self._lock:
            jobs = list(self._jobs.values())
        jobs.reverse()  # newest first
        return jobs[:limit] if limit is not None else jobs

    def progress(self, job_id: str) -> Optional[SweepProgress]:
        """A read-only observation of the job's run directory."""
        if self.get(job_id) is None:
            return None
        return SweepProgress(self.run_dir(job_id))

    def result_payload(self, job_id: str) -> Optional[Dict[str, object]]:
        """The persisted ``result.json`` of a finished job, or ``None``."""
        payload = read_json(self.job_dir(job_id) / "result.json")
        return payload if isinstance(payload, dict) else None

    def store_stats(self) -> Dict[str, object]:
        """The result store's tallies for ``GET /stats`` and ``GET /top``.

        When the store feeds this manager's registry, each tally is the
        registry total (persisted totals + this process), so the counts
        survive restarts; otherwise it is the store's in-process tally.
        """
        stats = self.store.stats()
        if getattr(self.store, "metrics", None) is self.metrics:
            for tally in type(self.store)._TALLY_FIELDS:
                stats[tally] = int(
                    self.metrics.counter_total(f"repro_store_{tally}_total")
                )
        return stats

    def stats(self) -> Dict[str, object]:
        """Aggregate server statistics for ``GET /stats``.

        Counter-style fields (``admission.rejected``, ``lifecycle.expired``,
        the store tallies) are backed by the persisted metrics registry, so
        unlike the pre-telemetry service they survive restarts.
        """
        with self._lock:
            by_state: Dict[str, int] = {}
            for job in self._jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
            total = len(self._jobs)
        store_stats = dict(self.store_stats(), entries=self.store.entry_count())
        return {
            "uptime_s": round(time.time() - self.started_unix, 3),
            "health": self.health(),
            "jobs": {"total": total, "by_state": by_state},
            "admission": {
                "queued": by_state.get("queued", 0),
                "inflight_cells": self.inflight_cells(),
                "max_queued_jobs": self.max_queued_jobs,
                "max_inflight_cells": self.max_inflight_cells,
                "rejected": self.rejected,
            },
            "lifecycle": {
                "draining": self.draining,
                "job_ttl_s": self.job_ttl_s,
                "expired": self.expired,
            },
            "store": store_stats,
            "data_dir": str(self.data_dir),
        }
