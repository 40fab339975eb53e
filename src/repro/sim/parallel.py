"""Fault-tolerant parallel sweep execution over supervised worker processes.

Every figure in the paper is an embarrassingly parallel systems x
benchmarks matrix, and each cell is an independent simulation over a
deterministic trace — so the matrix fans out over processes with **no**
effect on the results: a parallel sweep is bit-identical to a serial one
(pinned by ``tests/sim/test_parallel.py``).

Mechanics:

* cells are planned benchmark-major (the serial order) and chunked so one
  worker runs all systems of one benchmark back to back, reusing its
  in-process trace cache instead of regenerating the trace per cell;
* the parent **pre-seeds the on-disk trace cache** (`repro.trace.io`)
  before forking, so workers — even under a ``spawn`` start method, which
  inherits no parent memory — load each trace once from disk rather than
  regenerating it per process;
* results come back keyed ``(system, benchmark)`` and are merged in plan
  order, so iteration order of the returned dict matches the serial path;
* anything that prevents pooling (a platform without working
  ``multiprocessing``, a sandboxed interpreter) degrades to the serial
  path rather than failing the sweep.

Workers belong to a :class:`WorkerPool`.  A ``repro sweep --jobs N``
pool lives for one sweep; a service job thread keeps its pool across
jobs (``kept=True``: spawned lazily, in-process trace cache only, reused
only after a clean sweep — see the class).

Resilience (see ``docs/ROBUSTNESS.md``):

* each cell gets ``max_retries`` attempts with exponential backoff; a
  transient failure (corrupt cache entry, injected fault, flaky I/O) is
  retried rather than sinking the sweep, and exhaustion raises
  :class:`~repro.errors.RetryExhaustedError` naming the exact cell;
* an optional per-cell wall-clock timeout kills the wedged worker and
  retries the cell (:class:`~repro.errors.CellTimeoutError` as the last
  error once retries run out);
* a worker that dies mid-cell (OOM-killed, segfault, injected kill) is
  detected by the supervisor; its in-flight cell is re-dispatched and the
  rest of its chunk re-queued at no attempt cost.  A cell that keeps
  dying with its workers falls back to running **serially in the parent**
  — degrade-to-serial affects only that cell, never the whole sweep;
* every recovery action is recorded in a :class:`RecoveryLog` — counted
  for ``obs.metrics``, streamed to the run directory's
  ``recovery.jsonl`` and surfaced in the run manifest;
* with a ``run_dir``, simulated cells are journalled through
  :class:`~repro.sim.checkpoint.SweepJournal` as they finish, and a
  resumed sweep skips them, re-merging bit-identically with a
  from-scratch run.
"""

from __future__ import annotations

import heapq
import os
import threading
import time
import traceback
import uuid
from collections import deque
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .. import faults
from ..durable import JsonlSink, Note
from ..errors import (
    CellTimeoutError,
    CheckpointError,
    ConfigurationError,
    JobCancelledError,
    RetryExhaustedError,
)
from ..obs.profile import StallProfiler
from ..params import SETTINGS, SystemConfig, setting
from .checkpoint import SweepJournal
from .results import SimulationResult
from .runner import DEFAULT_REFS, DEFAULT_SCALE, get_trace, run_trace


class SweepCell(NamedTuple):
    """One unit of sweep work: a (system, benchmark) cell plus trace shape."""

    system: str
    benchmark: str
    config: SystemConfig
    refs: int
    seed: int
    scale: float
    profile: bool = False  #: attach a StallProfiler to the run


def default_jobs() -> int:
    """Worker count when the caller does not choose: env ``REPRO_JOBS`` or
    the machine's CPU count."""
    jobs = setting("REPRO_JOBS")
    return max(1, jobs) if jobs is not None else os.cpu_count() or 1


# ---------------------------------------------------------------------------
# retry / timeout policy
# ---------------------------------------------------------------------------

class SweepPolicy(NamedTuple):
    """Per-cell fault handling knobs for one sweep."""

    max_retries: int = SETTINGS["REPRO_MAX_RETRIES"].default  #: retries after the first
    cell_timeout_s: Optional[float] = None  #: wall-clock budget per cell
    backoff_s: float = SETTINGS["REPRO_RETRY_BACKOFF"].default  #: exponential backoff base

    def backoff_for(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (exponential, capped at 30s)."""
        return min(30.0, self.backoff_s * (2.0**attempt)) if self.backoff_s else 0.0


def resolve_policy(
    max_retries: Optional[int] = None,
    cell_timeout: Optional[float] = None,
    backoff_s: Optional[float] = None,
) -> SweepPolicy:
    """Fold explicit knobs over the environment defaults, validating."""
    return SweepPolicy(
        setting("REPRO_MAX_RETRIES", max_retries),
        setting("REPRO_CELL_TIMEOUT", cell_timeout),
        setting("REPRO_RETRY_BACKOFF", backoff_s),
    )


class RecoveryLog:
    """Every recovery action one sweep took: its one record of events.

    ``counts`` aggregates per action kind (the numbers that land in
    ``obs.metrics``-style snapshots and the run manifest); ``actions``
    keeps the ordered detail.  Attach a JSONL sink (:meth:`attach_jsonl`)
    to additionally stream each action to disk as it happens — the feed
    ``repro top`` and a service job's progress read for store hits and
    the retry/fault column.  Sweeps given a ``run_dir`` get the sink
    automatically (``recovery.jsonl`` beside the journal).  The kinds are
    listed in ``docs/ROBUSTNESS.md``.
    """

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.actions: List[Dict[str, object]] = []
        #: cells restored from the sweep journal (each resume also notes
        #: one ``cells_resumed`` action)
        self.resumed_cells = 0
        self._sink: Optional[JsonlSink] = None
        #: HTTP correlation id stamped into every action (provenance only)
        self.request_id: Optional[str] = None

    def attach_jsonl(self, path: Union[str, "os.PathLike[str]"]) -> None:
        """Stream every future action to ``path``, one JSON line each.

        Lines are flushed per action (a monitor sees them promptly); a
        failure to open or write the sink never sinks the sweep — the log
        silently drops the sink and keeps counting in memory.
        """
        self._sink = JsonlSink(path)

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()

    def note(
        self, kind: str, system: str = "", benchmark: str = "", detail: str = ""
    ) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        action = {
            "kind": kind, "system": system, "benchmark": benchmark, "detail": detail
        }
        if self.request_id:
            action["request_id"] = self.request_id
        self.actions.append(action)
        if self._sink is not None:
            self._sink.write(action)

    def __len__(self) -> int:
        return len(self.actions)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """The counts as an ``obs.metrics``-style snapshot (``sweep.`` keys)."""
        return {
            "counters": {f"sweep.{k}": self.counts[k] for k in sorted(self.counts)},
            "gauges": {},
            "histograms": {},
        }

    def summary(self) -> Dict[str, object]:
        """The manifest payload: counts plus the ordered action list."""
        return {
            "counts": {k: self.counts[k] for k in sorted(self.counts)},
            "actions": list(self.actions),
        }


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------


def plan_cells(
    configs: Mapping[str, SystemConfig],
    benchmarks: Sequence[str],
    refs: int = DEFAULT_REFS,
    seed: int = 1,
    scale: float = DEFAULT_SCALE,
    profile: bool = False,
) -> List[SweepCell]:
    """The sweep's work list, benchmark-major (identical to serial order).

    ``REPRO_PROFILE`` is folded into each cell's ``profile`` flag here:
    :func:`~repro.sim.runner.run_trace` honours the variable in whichever
    process runs the cell, so the flag is what the result store keys on.
    """
    profile = profile or bool(setting("REPRO_PROFILE"))
    return [
        SweepCell(system, bench, config, refs, seed, scale, profile)
        for bench in benchmarks
        for system, config in configs.items()
    ]


def chunk_cells(cells: Sequence[SweepCell], jobs: int) -> List[List[SweepCell]]:
    """Group cells into per-benchmark chunks, splitting only when a single
    benchmark has more cells than would keep ``jobs`` workers busy.

    Keeping one benchmark's cells together lets a worker generate (or load)
    its trace once and reuse it for every system.
    """
    by_bench: "Dict[str, List[SweepCell]]" = {}
    order: List[str] = []
    for cell in cells:
        if cell.benchmark not in by_bench:
            by_bench[cell.benchmark] = []
            order.append(cell.benchmark)
        by_bench[cell.benchmark].append(cell)

    chunks: List[List[SweepCell]] = []
    if len(order) >= jobs:
        chunks = [by_bench[b] for b in order]
    else:
        # fewer benchmarks than workers: split each benchmark's cells so
        # every worker still gets something to do
        per = max(1, (len(cells) + jobs - 1) // jobs)
        for bench in order:
            group = by_bench[bench]
            for i in range(0, len(group), per):
                chunks.append(group[i : i + per])
    return chunks


# ---------------------------------------------------------------------------
# running one cell (shared by workers, the serial path, and serial degrade)
# ---------------------------------------------------------------------------


def _attempt_cell(
    cell: SweepCell,
    disk_cache: bool,
    attempt: int,
    note: Note,
    timings: Optional[List[Tuple[str, float, float]]] = None,
) -> SimulationResult:
    """One attempt at one cell, with the fault-injection sites armed;
    trace-cache recovery actions go to ``note``.  With ``timings``, the
    trace lookup (or generation) and the run are appended to it as
    ``(span name, t0_unix, dur_s)``."""
    plan = faults.active_plan()
    if plan is not None:
        context = faults.cell_context(cell.system, cell.benchmark, cell.seed)
        plan.maybe_kill(context, attempt)
        plan.maybe_slow(context, attempt)
        plan.maybe_fail_cell(context, attempt)
    t0 = time.time()
    trace = get_trace(
        cell.benchmark,
        refs=cell.refs,
        seed=cell.seed,
        scale=cell.scale,
        disk_cache=disk_cache,
        note=note,
    )
    t1 = time.time()
    profiler = StallProfiler(cell.config) if cell.profile else None
    result = run_trace(cell.config, trace, system_name=cell.system, profiler=profiler)
    if timings is not None:
        timings += [("get-trace", t0, t1 - t0), ("run-trace", t1, time.time() - t1)]
    return result


#: failures that retrying cannot fix (configuration is validated eagerly,
#: so these indicate caller error, not flakiness)
_NONRETRYABLE_TYPES = frozenset(
    {
        "ConfigurationError",
        "UnknownSystemError",
        "UnknownBenchmarkError",
        "CheckpointError",
        "KeyboardInterrupt",
        "SystemExit",
    }
)


def _run_cell_resilient(
    cell: SweepCell,
    policy: SweepPolicy,
    recovery: RecoveryLog,
    disk_cache: bool,
) -> SimulationResult:
    """Run one cell in this process, retrying transient failures."""
    last: BaseException = RuntimeError("cell never attempted")
    for attempt in range(policy.max_retries + 1):
        try:
            result = _attempt_cell(cell, disk_cache, attempt, recovery.note)
            if attempt:
                recovery.note(
                    "cell_recovered", cell.system, cell.benchmark,
                    f"succeeded on attempt {attempt + 1}",
                )
            return result
        except (ConfigurationError, CheckpointError, KeyboardInterrupt):
            raise
        except Exception as exc:
            last = exc
            if attempt < policy.max_retries:
                recovery.note(
                    "cell_retry", cell.system, cell.benchmark,
                    f"attempt {attempt + 1} failed: {exc!r}",
                )
                delay = policy.backoff_for(attempt)
                if delay:
                    time.sleep(delay)
    raise RetryExhaustedError(
        cell.system, cell.benchmark, cell.seed, policy.max_retries + 1, repr(last)
    )


def _cell_span(
    cell: SweepCell, t0_unix: float, proc: str, **args: object
) -> Dict[str, object]:
    """One cell's ``cell simulate`` span, timed from ``t0_unix`` to now,
    as :meth:`~repro.obs.spans.SpanRecorder.add_raw` takes it."""
    return {
        "name": "cell simulate",
        "t0_unix": t0_unix,
        "dur_s": time.time() - t0_unix,
        "proc": proc,
        "args": {"system": cell.system, "benchmark": cell.benchmark, **args},
    }


def _note_simulated(metrics, spans, payloads: List[Dict[str, object]]) -> None:
    """Per-cell telemetry: the simulated-cell counter, the wall-clock
    histogram (fed the ``cell simulate`` span, ``payloads[0]``) and every
    span in ``payloads``.

    All parent-side service-layer accounting — nothing here touches the
    simulator or its counters, so results stay bit-identical with
    telemetry on or off.
    """
    if metrics is not None:
        metrics.inc("repro_sweep_cells_total", labels={"outcome": "simulated"})
        metrics.observe("repro_sweep_cell_seconds", float(payloads[0]["dur_s"]))
    if spans is not None:
        for payload in payloads:
            spans.add_raw(payload)


def _run_cells_serial(
    cells: Iterable[SweepCell],
    policy: SweepPolicy,
    recovery: RecoveryLog,
    journal: Optional[SweepJournal],
    disk_cache: bool,
    should_abort: Optional[Callable[[], bool]] = None,
    metrics=None,
    spans=None,
) -> Dict[Tuple[str, str], SimulationResult]:
    out: Dict[Tuple[str, str], SimulationResult] = {}
    for cell in cells:
        if should_abort is not None and should_abort():
            raise JobCancelledError(
                f"sweep aborted before cell {cell.system}/{cell.benchmark}"
            )
        t0 = time.time()
        result = _run_cell_resilient(cell, policy, recovery, disk_cache)
        _note_simulated(metrics, spans, [_cell_span(cell, t0, "sweep")])
        out[(cell.system, cell.benchmark)] = result
        if journal is not None:
            journal.append(result, cell.scale)
    return out


# ---------------------------------------------------------------------------
# the supervised worker pool
# ---------------------------------------------------------------------------

#: how often the supervisor wakes to check liveness/deadlines/backoff
_POLL_S = 0.05
#: how often an idle worker checks that its parent is still alive
_ORPHAN_CHECK_S = 1.0


def _service_worker(worker_id: int, task_q, result_q, disk_cache: bool) -> None:
    """Worker loop: take a task (a list of cells), report per-cell results.

    Runs until it receives the ``None`` sentinel, or finds its parent
    gone.  Every cell is bracketed by a ``start`` message (so the parent
    can enforce wall-clock deadlines and attribute losses) and an
    ``ok``/``err`` message; a task ends with ``idle``.  Trace-cache
    recovery actions are forwarded as ``note``s.
    """
    import queue as queue_mod

    faults.mark_worker_process()
    parent_pid = os.getppid()

    def orphaned() -> bool:
        # This process holds both ends of task_q, so a dead parent never
        # reads as EOF there; re-parenting is what shows it.
        if os.getppid() == parent_pid:
            return False
        result_q.cancel_join_thread()  # nobody is left to read the buffer
        return True

    def note(kind: str, detail: str = "") -> None:
        result_q.put(("note", worker_id, kind, detail))

    proc = f"worker-{worker_id}"
    while True:
        try:
            task = task_q.get(timeout=_ORPHAN_CHECK_S)
        except queue_mod.Empty:
            if orphaned():
                return
            continue
        if task is None:
            return
        items = task  # list of (cell_index, SweepCell, attempt)
        for idx, cell, attempt in items:
            if orphaned():
                return
            result_q.put(("start", worker_id, idx))
            try:
                t0 = time.time()
                timings: List[Tuple[str, float, float]] = []
                result = _attempt_cell(cell, disk_cache, attempt, note, timings)
                # span payloads travel BEFORE the result: the supervisor's
                # message loop exits once every cell is accounted for, and
                # queue order per worker guarantees the spans are drained
                # first.  Wall-clock measured in the worker process — the
                # cross-process leg of the job's span tree — with the
                # trace and run children splitting it by layer.
                span = _cell_span(cell, t0, proc, attempt=attempt, os_pid=os.getpid())
                span["span_id"] = span_id = uuid.uuid4().hex[:12]
                payloads: List[Dict[str, object]] = [span]
                payloads += [
                    {"parent_id": span_id, "name": name, "t0_unix": start,
                     "dur_s": dur, "proc": proc}
                    for name, start, dur in timings
                ]
                result_q.put(("span", worker_id, idx, payloads))
                result_q.put(("ok", worker_id, idx, result))
            except Exception as exc:
                info = {
                    "type": type(exc).__name__,
                    "msg": str(exc),
                    "traceback": traceback.format_exc(limit=8),
                }
                result_q.put(("err", worker_id, idx, info))
        result_q.put(("idle", worker_id))


class _WorkerHandle:
    """Parent-side bookkeeping for one supervised worker process."""

    __slots__ = ("process", "task_q", "items", "started", "idle")

    def __init__(self, process, task_q) -> None:
        self.process = process
        self.task_q = task_q
        self.items: Dict[int, Tuple[SweepCell, int]] = {}  # idx -> (cell, attempt)
        self.started: Optional[Tuple[int, float]] = None  # (idx, t0)
        self.idle = True

    def send(self, items: List[Tuple[int, SweepCell, int]]) -> None:
        self.items = {idx: (cell, attempt) for idx, cell, attempt in items}
        self.started = None
        self.idle = False
        self.task_q.put(items)


def _repro_env() -> Dict[str, str]:
    """The ``REPRO_*`` settings a worker inherits when it starts."""
    return {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}


class WorkerPool:
    """Supervised sweep workers, their task queues and one result queue.

    A pool either lives for one sweep — ``repro sweep --jobs N``: workers
    from the default start method that share traces through the disk
    cache, every one stopped when the sweep ends — or is **kept** by a
    service job thread across its jobs (``kept=True``):

    * its workers use the ``spawn`` start method (the server runs
      threads) and start at the first simulated cell, not before;
    * they use only their in-process trace cache, like the serial path,
      so a job writes no trace file;
    * after a clean sweep — every worker idle and alive, none lost,
      killed or timed out, the sweep not aborted — worker 0 stays for the
      next sweep and the extra workers of a ``jobs > 1`` sweep stop;
    * after any other sweep, or once the ``REPRO_*`` environment has
      changed, every worker and queue is torn down (a busy worker is
      killed, its cell dropped) and the next sweep spawns fresh ones, so
      no message of one sweep can reach the next.

    :meth:`close` is final: a closed pool never respawns, and a sweep
    still running on it finishes the way ``pool_unavailable`` does.
    """

    #: workers a kept pool holds between sweeps
    KEEP = 1

    def __init__(self, kept: bool = False) -> None:
        self.kept = kept
        #: workers share traces through the on-disk cache
        self.disk_cache = not kept
        self.workers: Dict[int, _WorkerHandle] = {}
        self.result_q = None
        self._ctx = None
        self._env: Dict[str, str] = {}
        self._closed = False
        self._in_sweep = False
        self._lock = threading.Lock()

    def start(self, n: int) -> None:
        """Begin a sweep with workers ``0..n-1`` running."""
        if self.workers and self._env != _repro_env():
            self.shutdown()
        with self._lock:
            # checked under the lock close() takes, so a concurrent
            # close() either sees this sweep or this sweep sees it
            if self._closed:
                raise RuntimeError("worker pool is closed")
            self._in_sweep = True
        for wid in range(n):
            if wid not in self.workers:
                self.spawn(wid)

    def spawn(self, wid: int) -> None:
        """Start worker ``wid``, replacing a dead one."""
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            if self.result_q is None:
                import multiprocessing

                self._ctx = multiprocessing.get_context("spawn" if self.kept else None)
                self.result_q = self._ctx.Queue()
                self._env = _repro_env()
            task_q = self._ctx.Queue()
            process = self._ctx.Process(
                target=_service_worker,
                args=(wid, task_q, self.result_q, self.disk_cache),
                daemon=True,
                name=f"repro-sweep-{wid}",
            )
            process.start()
            self.workers[wid] = _WorkerHandle(process, task_q)

    def end_sweep(self, clean: bool) -> None:
        """Keep worker 0 of a kept pool after a clean sweep; else stop all."""
        with self._lock:
            self._in_sweep = False
            keep = (
                self.kept and clean and not self._closed
                and all(h.idle and h.process.is_alive() for h in self.workers.values())
            )
            extra = [self.workers.pop(w) for w in list(self.workers) if keep and w >= self.KEEP]
        if keep:
            _stop_workers(extra, kill_busy=True)
        else:
            self.shutdown()

    def shutdown(self) -> None:
        """Stop every worker and drop the queues; a later sweep respawns."""
        with self._lock:
            handles = list(self.workers.values())
            self.workers.clear()
            result_q, self.result_q = self.result_q, None
        _stop_workers(handles, kill_busy=self.kept)
        if result_q is not None:
            result_q.cancel_join_thread()

    def close(self) -> None:
        """Stop every worker for good; returns once none is alive.

        Safe from another thread while a sweep runs on the pool: its
        workers are killed, and the sweep's supervisor, unable to
        respawn them, finishes the remaining cells serially.
        """
        with self._lock:
            self._closed = True
            in_sweep = self._in_sweep
            handles = list(self.workers.values())
        if not in_sweep:
            self.shutdown()
            return
        for handle in handles:
            handle.process.kill()
        for handle in handles:
            handle.process.join(timeout=1.0)


def _stop_workers(handles: Sequence[_WorkerHandle], kill_busy: bool) -> None:
    """Stop worker processes and wait (briefly) for them to exit.

    An idle worker gets the ``None`` sentinel.  A busy one is killed at
    once with ``kill_busy``; otherwise it gets the sentinel too and two
    seconds to finish its cell before it is killed.
    """
    for handle in handles:
        if kill_busy and not handle.idle:
            handle.process.kill()
            continue
        try:
            handle.task_q.put(None)
        except (OSError, ValueError):
            pass
    deadline = time.monotonic() + 2.0
    for handle in handles:
        handle.process.join(timeout=max(0.0, deadline - time.monotonic()))
        if handle.process.is_alive():
            handle.process.kill()
            handle.process.join(timeout=1.0)


def _execute_cells(
    cells: Sequence[SweepCell],
    jobs: int,
    policy: SweepPolicy,
    recovery: RecoveryLog,
    journal: Optional[SweepJournal],
    pool: WorkerPool,
    should_abort: Optional[Callable[[], bool]] = None,
    metrics=None,
    spans=None,
) -> Dict[Tuple[str, str], SimulationResult]:
    """Fan ``cells`` over ``pool``'s supervised workers with full fault
    handling; the pool is released (kept or shut down) when this returns."""
    import queue as queue_mod

    try:
        pool.start(max(1, min(jobs, len(cells))))
    except Exception as exc:
        # sandboxed interpreter / no working multiprocessing / a closed
        # pool: run the whole sweep serially rather than failing it
        pool.end_sweep(clean=False)
        recovery.note("pool_unavailable", detail=repr(exc))
        return _run_cells_serial(
            cells, policy, recovery, journal, disk_cache=pool.disk_cache,
            should_abort=should_abort, metrics=metrics, spans=spans,
        )
    workers = pool.workers
    result_q = pool.result_q

    n = len(cells)
    results: Dict[int, SimulationResult] = {}
    failed_attempts: Dict[int, int] = {}  # idx -> attempts consumed so far
    task_queue: Deque[List[Tuple[int, SweepCell, int]]] = deque(
        [(_idx_of(cells, chunk)) for chunk in chunk_cells(cells, jobs)]
    )
    retry_heap: List[Tuple[float, int, int]] = []  # (ready_time, idx, attempt)
    fatal: List[BaseException] = []

    def record_ok(idx: int, result: SimulationResult) -> None:
        if idx in results:
            return  # duplicate completion after a redispatch race
        results[idx] = result
        if journal is not None:
            journal.append(result, cells[idx].scale)
        if failed_attempts.get(idx):
            cell = cells[idx]
            recovery.note(
                "cell_recovered", cell.system, cell.benchmark,
                f"succeeded after {failed_attempts[idx]} failed attempt(s)",
            )

    def handle_failure(idx: int, attempt: int, kind: str, description: str,
                       error_type: str = "") -> None:
        """One attempt at ``idx`` failed; retry, degrade, or give up."""
        if idx in results:
            return
        cell = cells[idx]
        used = attempt + 1
        failed_attempts[idx] = max(failed_attempts.get(idx, 0), used)
        retryable = error_type not in _NONRETRYABLE_TYPES
        if retryable and used <= policy.max_retries:
            event = {"timeout": "cell_timeout", "lost": "cell_redispatch"}.get(
                kind, "cell_retry"
            )
            recovery.note(event, cell.system, cell.benchmark, description)
            # a lost worker is the pool's fault, not the cell's: re-dispatch
            # immediately instead of backing off
            delay = 0.0 if kind == "lost" else policy.backoff_for(attempt)
            heapq.heappush(retry_heap, (time.monotonic() + delay, idx, used))
            return
        if kind == "lost":
            # the cell keeps taking workers down with it — run it in the
            # parent so only this cell degrades to serial, not the sweep
            recovery.note(
                "cell_degraded_serial", cell.system, cell.benchmark,
                f"after {used} worker loss(es)",
            )
            try:
                t0 = time.time()
                result = _attempt_cell(cell, pool.disk_cache, used, recovery.note)
                _note_simulated(metrics, spans, [_cell_span(cell, t0, "sweep")])
                record_ok(idx, result)
                return
            except Exception as exc:
                description = f"serial fallback failed: {exc!r}"
        last: object = description
        if kind == "timeout":
            last = CellTimeoutError(
                cell.system, cell.benchmark, policy.cell_timeout_s or 0.0, attempt
            )
        fatal.append(
            RetryExhaustedError(cell.system, cell.benchmark, cell.seed, used, last)
        )

    def dispatch() -> None:
        now = time.monotonic()
        while retry_heap and retry_heap[0][0] <= now:
            _, idx, attempt = heapq.heappop(retry_heap)
            if idx not in results:
                task_queue.append([(idx, cells[idx], attempt)])
        for handle in workers.values():
            if not task_queue:
                break
            if handle.idle and handle.process.is_alive():
                handle.send(task_queue.popleft())

    def respawn(wid: int) -> None:
        nonlocal lost
        lost = True
        handle = workers[wid]
        started_idx = handle.started[0] if handle.started else None
        for idx, (cell, attempt) in handle.items.items():
            if idx == started_idx or idx in results:
                continue
            # unstarted chunk-mates of a dead worker cost no attempt
            task_queue.append([(idx, cell, attempt)])
        try:
            pool.spawn(wid)
        except Exception as exc:  # spawn exhaustion or a pool closed under us
            recovery.note("pool_unavailable", detail=repr(exc))
            del workers[wid]

    def receive() -> List[tuple]:
        """Every queued message, blocking briefly on the first for pacing."""
        messages = []
        try:
            messages.append(result_q.get(timeout=_POLL_S))
            while True:
                messages.append(result_q.get_nowait())
        except queue_mod.Empty:
            pass
        return messages

    def handle_message(message: tuple) -> None:
        kind, wid = message[0], message[1]
        handle = workers.get(wid)
        if kind == "start":
            if handle is not None:
                handle.started = (message[2], time.monotonic())
        elif kind == "ok":
            idx, result = message[2], message[3]
            record_ok(idx, result)
            if handle is not None:
                handle.items.pop(idx, None)
                if handle.started and handle.started[0] == idx:
                    handle.started = None
        elif kind == "err":
            idx, info = message[2], message[3]
            attempt = 0
            if handle is not None:
                entry = handle.items.pop(idx, None)
                if entry is not None:
                    attempt = entry[1]
                if handle.started and handle.started[0] == idx:
                    handle.started = None
            handle_failure(
                idx, attempt, "error",
                f"{info['type']}: {info['msg']}", info["type"],
            )
        elif kind == "idle":
            if handle is not None:
                handle.idle = True
                handle.items = {}
                handle.started = None
        elif kind == "note":
            recovery.note(message[2], detail=message[3])
        elif kind == "span":
            # worker-measured wall clock of one cell (and its trace/run
            # children); a duplicate completion after a redispatch race
            # records its spans but is not counted again
            idx, payloads = message[2], message[3]
            _note_simulated(None if idx in results else metrics, spans, payloads)

    lost = False  # a worker died, was killed or timed out
    clean = False
    try:
        while len(results) < n and not fatal:
            if should_abort is not None and should_abort():
                # every journalled cell survives; the finally block below
                # stops the workers (an in-flight cell is dropped), and the
                # caller parks/cancels the job
                raise JobCancelledError(
                    f"sweep aborted with {len(results)}/{n} cell(s) complete"
                )
            dispatch()
            if not workers:
                # every worker slot died unrecoverably: finish serially
                remaining = [c for i, c in enumerate(cells) if i not in results]
                recovery.note(
                    "pool_unavailable", detail="all workers lost; finishing serially"
                )
                results.update(
                    {
                        _index_by_key(cells)[key]: res
                        for key, res in _run_cells_serial(
                            remaining, policy, recovery, journal,
                            disk_cache=pool.disk_cache,
                            should_abort=should_abort, metrics=metrics, spans=spans,
                        ).items()
                    }
                )
                break

            for message in receive():
                handle_message(message)

            # liveness: a worker that died mid-task loses its in-flight cell
            now = time.monotonic()
            for wid, handle in list(workers.items()):
                if handle.idle:
                    if not handle.process.is_alive():
                        respawn(wid)
                    continue
                if not handle.process.is_alive():
                    exitcode = handle.process.exitcode
                    recovery.note(
                        "worker_lost", detail=f"worker {wid} exited {exitcode}"
                    )
                    # Charge the crash to the cell the worker was on.  A hard
                    # kill (SIGKILL, os._exit) can lose the queued "start"
                    # message, so fall back to the first un-acknowledged cell
                    # in dispatch order — workers run their task in order, so
                    # that is the in-flight one.  Charging an attempt on every
                    # death is what bounds a crash-looping cell.
                    victim: Optional[int] = None
                    if handle.started is not None:
                        victim = handle.started[0]
                    else:
                        for idx in handle.items:
                            if idx not in results:
                                victim = idx
                                break
                    if victim is not None:
                        entry = handle.items.pop(victim, None)
                        attempt = entry[1] if entry is not None else 0
                        handle_failure(
                            victim, attempt, "lost",
                            f"worker {wid} died mid-cell (exit {exitcode})",
                        )
                    respawn(wid)
                elif (
                    policy.cell_timeout_s is not None
                    and handle.started is not None
                    and now - handle.started[1] > policy.cell_timeout_s
                ):
                    idx, _t0 = handle.started
                    entry = handle.items.pop(idx, None)
                    attempt = entry[1] if entry is not None else 0
                    handle.process.kill()
                    handle.process.join(timeout=1.0)
                    handle.started = None
                    handle_failure(
                        idx, attempt, "timeout",
                        f"exceeded {policy.cell_timeout_s:g}s wall clock",
                    )
                    respawn(wid)
        # a kept pool is reused only once every worker has reported idle,
        # which also leaves nothing of this sweep in the result queue
        deadline = time.monotonic() + 1.0
        while (pool.kept and not fatal and time.monotonic() < deadline
               and not all(h.idle or not h.process.is_alive()
                           for h in workers.values())):
            for message in receive():
                handle_message(message)
        clean = not fatal and not lost
    finally:
        pool.end_sweep(clean)

    if fatal:
        raise fatal[0]
    return {
        (cell.system, cell.benchmark): results[idx]
        for idx, cell in enumerate(cells)
    }


def _idx_of(
    cells: Sequence[SweepCell], chunk: Sequence[SweepCell]
) -> List[Tuple[int, SweepCell, int]]:
    index = _index_by_key(cells)
    return [(index[(c.system, c.benchmark)], c, 0) for c in chunk]


def _index_by_key(cells: Sequence[SweepCell]) -> Dict[Tuple[str, str], int]:
    return {(c.system, c.benchmark): i for i, c in enumerate(cells)}


# ---------------------------------------------------------------------------
# the sweep entry point
# ---------------------------------------------------------------------------


def run_parallel_sweep(
    configs: Mapping[str, SystemConfig],
    benchmarks: Sequence[str],
    refs: int = DEFAULT_REFS,
    seed: int = 1,
    scale: float = DEFAULT_SCALE,
    jobs: int = 1,
    run_dir: Optional[Union[str, "os.PathLike[str]"]] = None,
    max_retries: Optional[int] = None,
    cell_timeout: Optional[float] = None,
    recovery: Optional[RecoveryLog] = None,
    result_store=None,
    should_abort: Optional[Callable[[], bool]] = None,
    metrics=None,
    spans=None,
    request_id: Optional[str] = None,
    profile: bool = False,
    pool: Optional[WorkerPool] = None,
) -> Dict[Tuple[str, str], SimulationResult]:
    """Fan a sweep matrix over ``jobs`` worker processes, fault-tolerantly.

    Returns exactly what the serial sweep would: ``(system, benchmark) ->
    SimulationResult`` with bit-identical counters, in the same iteration
    order — including across crash/resume (``run_dir``), retries, worker
    loss, and injected faults.

    ``result_store`` — a :class:`repro.service.store.ResultStore` —
    memoises completed cells by content key: before simulating, each cell
    the journal lacks is looked up (a hit restores the exact
    counters/metrics the original run produced and costs zero engine
    time), and every cell the sweep *did* simulate is stored for the next
    request.  A hit's one record is its ``cell_cache_hit`` action in the
    recovery log, which manifests and ``repro top`` count; it is not
    journalled, so a resumed sweep reads the store again (and simulates a
    cell whose entry was evicted meanwhile).  A store read that finds
    corruption quarantines the entry and the cell transparently
    re-simulates.  Every recovery action of the trace cache and the store
    lands in ``recovery``.

    ``profile`` — attach a :class:`repro.obs.profile.StallProfiler` to
    every simulated cell, in whichever process runs it.

    ``pool`` — a kept :class:`WorkerPool` (a service job thread's): every
    cell left to simulate runs on it, even a single one, with no trace
    pre-seed.  Without one, ``jobs > 1`` runs on a pool that lives for
    this sweep and ``jobs == 1`` runs serially in this process.

    ``should_abort`` — an optional zero-argument callable polled between
    cells (and each supervisor tick).  When it turns true the sweep
    raises :class:`~repro.errors.JobCancelledError` at the next cell
    boundary: every completed cell is already journalled, so a resumed
    run restores them bit-identically.  This is how the job service
    implements ``POST /jobs/<id>/cancel`` and graceful drain.

    ``metrics`` / ``spans`` / ``request_id`` — optional wall-clock
    telemetry: a :class:`repro.obs.registry.WallClockRegistry` fed
    per-cell counters and duration histograms, a
    :class:`repro.obs.spans.SpanRecorder` fed per-cell spans (including
    worker-process-measured ones), and the HTTP correlation id stamped
    into journal rows and recovery actions as provenance.  All of it is
    service-layer accounting around the engine — counters and
    ``manifest_core`` are bit-identical with telemetry on or off.  The
    counters derived from the recovery log at the end (retries, timeouts,
    redispatches) assume a fresh ``recovery`` per call.
    """
    cells = plan_cells(configs, benchmarks, refs=refs, seed=seed, scale=scale,
                       profile=profile)
    policy = resolve_policy(max_retries, cell_timeout)
    if recovery is None:
        recovery = RecoveryLog()
    if request_id:
        recovery.request_id = request_id

    journal: Optional[SweepJournal] = None
    done: Dict[Tuple[str, str], SimulationResult] = {}
    if run_dir is not None:
        journal = SweepJournal.open(
            run_dir,
            refs=refs,
            seed=seed,
            scale=scale,
            systems=list(configs),
            benchmarks=list(benchmarks),
        )
        # provenance only — deliberately NOT part of the header identity,
        # so a resumed run under a different request id still matches
        journal.request_id = request_id
        # live recovery feed beside the journal (tailed by `repro top`)
        from .checkpoint import RECOVERY_NAME

        recovery.attach_jsonl(journal.run_dir / RECOVERY_NAME)
        done = journal.load(configs)
        recovery.resumed_cells += len(done)
        if done:
            recovery.note(
                "cells_resumed",
                detail=f"{len(done)} cell(s) restored from {journal.run_dir}",
            )
            if metrics is not None:
                metrics.inc(
                    "repro_sweep_cells_total", len(done),
                    labels={"outcome": "resumed"},
                )
        if journal.torn_lines or journal.stale_records:
            recovery.note(
                "journal_repaired",
                detail=(
                    f"skipped {journal.torn_lines} torn line(s) and "
                    f"{journal.stale_records} stale record(s)"
                ),
            )

    # consult the content-addressed result store before simulating anything:
    # a hit is bit-identical to simulating the cell (the store verifies the
    # counter digest on load) and costs no engine time
    cached_keys = set()
    todo = []
    try:
        for c in cells:
            if should_abort is not None and should_abort():
                raise JobCancelledError("sweep aborted during result-store lookup")
            key = (c.system, c.benchmark)
            if key in done:
                continue
            if result_store is not None:
                t_get = time.time()
                hit = result_store.get(
                    c.config, c.benchmark, refs=c.refs, seed=c.seed,
                    scale=c.scale, system=c.system, note=recovery.note,
                    profile=c.profile,
                )
                if hit is not None:
                    done[key] = hit
                    cached_keys.add(key)
                    recovery.note("cell_cache_hit", c.system, c.benchmark,
                                  "served from the result store")
                    if metrics is not None:
                        metrics.inc(
                            "repro_sweep_cells_total", labels={"outcome": "cached"}
                        )
                    if spans is not None:
                        spans.add(
                            "cell cache-hit", t_get, time.time() - t_get,
                            system=c.system, benchmark=c.benchmark,
                        )
                    continue
            todo.append(c)
        if todo and pool is None and (jobs <= 1 or len(todo) <= 1):
            done.update(_run_cells_serial(
                todo, policy, recovery, journal, disk_cache=False,
                should_abort=should_abort, metrics=metrics, spans=spans,
            ))
        elif todo:
            if pool is None:
                pool = WorkerPool()
                # Pre-seed the disk cache so no worker regenerates a trace.
                # Under the default fork start method workers additionally
                # inherit the parent's warm in-process cache for free.
                for bench in {c.benchmark for c in todo}:
                    try:
                        get_trace(bench, refs=refs, seed=seed, scale=scale,
                                  disk_cache=True, note=recovery.note)
                    except OSError:
                        pass  # workers fall back to generating it themselves
            done.update(_execute_cells(
                todo, jobs, policy, recovery, journal, pool,
                should_abort=should_abort, metrics=metrics, spans=spans,
            ))

        if result_store is not None:
            # memoise everything this sweep actually produced (fresh cells and
            # journal-restored ones alike) for the next identical request; a
            # failed write degrades to "not cached", never to a failed sweep
            stored = 0
            t_put = time.time()
            for cell in cells:
                key = (cell.system, cell.benchmark)
                if key in cached_keys:
                    continue
                if result_store.put(
                    done[key], cell.scale, refs=cell.refs, seed=cell.seed,
                    note=recovery.note, profile=cell.profile,
                ) is not None:
                    stored += 1
            if spans is not None:
                spans.add("store-put", t_put, time.time() - t_put, stored=stored)
            if stored < len(cells) - len(cached_keys):
                recovery.note(
                    "result_store_skipped",
                    detail=f"{len(cells) - len(cached_keys) - stored} "
                           f"cell(s) could not be written to the result store",
                )
    finally:
        if metrics is not None:
            # recovery-action counters, derived once per sweep (valid
            # because the service hands each run a fresh RecoveryLog)
            for note_kind, metric in (
                ("cell_retry", "repro_sweep_cell_retries_total"),
                ("cell_timeout", "repro_sweep_cell_timeouts_total"),
                ("cell_redispatch", "repro_sweep_cell_redispatches_total"),
            ):
                count = recovery.counts.get(note_kind, 0)
                if count:
                    metrics.inc(metric, count)
        # closed last, so the store phase's notes reach recovery.jsonl too
        if journal is not None:
            journal.close()
            recovery.close()

    # deterministic merge: plan order, exactly the serial dict order
    return {(cell.system, cell.benchmark): done[(cell.system, cell.benchmark)]
            for cell in cells}


def sweep_metrics(
    results: Mapping[Tuple[str, str], SimulationResult],
) -> Dict[str, Dict[str, object]]:
    """Deterministic sweep-level metrics aggregate.

    Folds every result's :attr:`SimulationResult.metrics` snapshot in the
    results' iteration order — the plan order both the serial and the
    parallel path produce — so the aggregate of a parallel sweep is
    bit-identical to the serial one (pinned by ``tests/sim/test_obs.py``).
    """
    from ..obs.metrics import aggregate_metrics

    return aggregate_metrics(r.metrics for r in results.values())


def cache_summary(
    results: Mapping[Tuple[str, str], SimulationResult],
    recovery: RecoveryLog,
) -> Dict[str, object]:
    """The hit/simulated split of one store-backed sweep.

    ``hits`` counts cells served from the result store this run (the
    recovery log's ``cell_cache_hit`` tally); ``resumed`` counts cells
    restored from the sweep's own journal; everything else was simulated.
    """
    total = len(results)
    hits = recovery.counts.get("cell_cache_hit", 0)
    resumed = recovery.resumed_cells
    simulated = max(0, total - hits - resumed)
    return {
        "total_cells": total,
        "hits": hits,
        "resumed": resumed,
        "simulated": simulated,
        "hit_rate": round(hits / total, 4) if total else 0.0,
    }


def timed_sweep(
    configs: Mapping[str, SystemConfig],
    benchmarks: Sequence[str],
    refs: int = DEFAULT_REFS,
    seed: int = 1,
    scale: float = DEFAULT_SCALE,
    jobs: int = 1,
    manifest_dir: Optional[str] = None,
    command: str = "",
    run_dir: Optional[str] = None,
    max_retries: Optional[int] = None,
    cell_timeout: Optional[float] = None,
    recovery: Optional[RecoveryLog] = None,
    result_store=None,
) -> Tuple[Dict[Tuple[str, str], SimulationResult], float]:
    """Run a sweep (parallel or serial) and return ``(results, wall_s)``.

    A run manifest is written to ``manifest_dir`` when given, else to
    ``$REPRO_MANIFEST_DIR`` when set, else not at all; any recovery
    actions the sweep took are surfaced in it, and with a
    ``result_store`` so is the cache hit/simulated split, under the
    manifest's ``cache`` key.
    """
    if recovery is None:
        recovery = RecoveryLog()
    start = time.perf_counter()
    results = run_parallel_sweep(
        configs, benchmarks, refs=refs, seed=seed, scale=scale, jobs=jobs,
        run_dir=run_dir, max_retries=max_retries, cell_timeout=cell_timeout,
        recovery=recovery, result_store=result_store,
    )
    wall_s = time.perf_counter() - start
    from ..obs.manifest import maybe_write_sweep_manifest

    maybe_write_sweep_manifest(
        results,
        command=command or "timed_sweep",
        refs=refs,
        seed=seed,
        scale=scale,
        jobs=jobs,
        wall_s=wall_s,
        directory=manifest_dir,
        recovery=recovery,
        cache=cache_summary(results, recovery) if result_store is not None else None,
    )
    return results, wall_s
