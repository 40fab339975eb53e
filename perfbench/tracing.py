"""Layer spans for the traced runs, and the per-layer ledger built from them.

The benchmark records spans from its own files, around the calls into
each layer's public entry points; the program itself is not edited.
:class:`LayerTracer` replaces those entry points with wrappers that time
each call and record it through :class:`repro.obs.spans.SpanRecorder`
(kept in memory, no sink), parented to the innermost traced call on the
same thread.  :func:`ledger` turns the recorded spans into self times per
layer: a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.spans import SpanRecorder

Span = Dict[str, object]


class LayerTracer:
    """Installs span wrappers on layer entry points and removes them again.

    Span timestamps are ``perf_counter`` readings anchored once to the unix
    clock, so durations are monotonic and spans recorded in another
    process (the traced server) line up with this one's.
    """

    def __init__(self, proc: str) -> None:
        self.proc = proc
        self.recorder = SpanRecorder(trace_id=proc, proc=proc)
        self._local = threading.local()
        self._anchor_unix = time.time()
        self._anchor_pc = time.perf_counter()
        self._undo: List[Tuple[object, str, object]] = []

    def unix(self, pc: float) -> float:
        """A ``perf_counter`` reading on the unix clock."""
        return self._anchor_unix + (pc - self._anchor_pc)

    @property
    def spans(self) -> List[Span]:
        return self.recorder.spans

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, t0: float, t1: float,
               parent: Optional[str] = None, span_id: Optional[str] = None,
               **args: object) -> str:
        """Record one finished span from two ``perf_counter`` readings."""
        thread = threading.current_thread().name
        return self.recorder.add(
            name, self.unix(t0), t1 - t0, parent_id=parent, span_id=span_id,
            proc=f"{self.proc}/{thread}", **args,
        )

    def span(self, name: str, **args: object) -> "_Span":
        """``with tracer.span("repro.sweep"):`` — a root or nested span."""
        return _Span(self, name, args)

    def _wrapper(self, fn: Callable, name: str,
                 describe: Optional[Callable] = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if args and args[0] is tracer.recorder:
                return fn(*args, **kwargs)  # the tracer's own bookkeeping
            with tracer.span(name) as span:
                result = fn(*args, **kwargs)
                if describe is not None:
                    span.args.update(describe(args, result))
                return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap(self, owner: object, attr: str, name: str,
             describe: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (a function, method or classmethod)."""
        # a class's own dict keeps classmethods unbound
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement: object = classmethod(
                self._wrapper(original.__func__, name, describe))
        else:
            replacement = self._wrapper(original, name, describe)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class _Span:
    """One open span; ``args`` may grow until it closes."""

    def __init__(self, tracer: LayerTracer, name: str, args: Dict[str, object]):
        self._tracer = tracer
        self._name = name
        self.args = args

    def __enter__(self) -> "_Span":
        stack = self._tracer._stack()
        self._parent = stack[-1] if stack else None
        self._sid = self._tracer.recorder.new_id()
        stack.append(self._sid)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        t1 = time.perf_counter()
        self._tracer._stack().pop()
        self._tracer.record(self._name, self._t0, t1, parent=self._parent,
                            span_id=self._sid, **self.args)


# ---------------------------------------------------------------------------
# which entry points belong to which layer
# ---------------------------------------------------------------------------


def install_sim_layers(tracer: LayerTracer) -> None:
    """Wrap the trace, builder, simulator, metrics and sweep entry points.

    Each module binds the functions it calls by name at import, so every
    binding on the call path is replaced, not only the defining one.
    """
    from repro.sim import parallel, runner
    from repro.sim.simulator import Simulator
    from repro.service import jobs

    tracer.wrap(runner, "generate_trace", "trace.synthetic.generate",
                lambda a, r: {"benchmark": a[0].benchmark,
                              "refs": len(r) if r is not None else 0})
    tracer.wrap(runner, "get_trace", "sim.runner.get_trace")
    tracer.wrap(parallel, "get_trace", "sim.runner.get_trace")
    tracer.wrap(runner, "build_machine", "system.builder.build_machine")
    tracer.wrap(Simulator, "run", "sim.simulator.run",
                lambda a, r: {"refs": len(a[1])})
    tracer.wrap(runner, "run_metrics", "obs.metrics.run_metrics")
    tracer.wrap(parallel, "run_parallel_sweep", "sim.parallel.sweep")
    tracer.wrap(jobs, "run_parallel_sweep", "sim.parallel.sweep")


def install_service_layers(tracer: LayerTracer) -> None:
    """Wrap the journal, store, job, manifest, registry and span writers."""
    from repro.obs.registry import WallClockRegistry
    from repro.obs.spans import SpanRecorder as Recorder
    from repro.service import jobs
    from repro.service.store import ResultStore
    from repro.sim.checkpoint import SweepJournal

    install_sim_layers(tracer)
    tracer.wrap(SweepJournal, "open", "sim.checkpoint.journal_open")
    tracer.wrap(SweepJournal, "append", "sim.checkpoint.journal_append")
    tracer.wrap(ResultStore, "get", "service.store.get",
                lambda a, r: {"hit": r is not None})
    tracer.wrap(ResultStore, "put", "service.store.put")
    tracer.wrap(jobs.JobManager, "submit", "service.jobs.submit",
                lambda a, r: {"job_id": r.id} if r is not None else {})
    tracer.wrap(jobs.JobManager, "_run_locked_job", "service.jobs.run",
                lambda a, r: {"job_id": a[1]})
    tracer.wrap(jobs.JobManager, "_persist", "service.jobs.persist")
    tracer.wrap(jobs.JobManager, "_write_result", "service.jobs.write_result")
    tracer.wrap(jobs, "build_manifest", "obs.manifest.build")
    tracer.wrap(jobs, "write_manifest", "obs.manifest.write")
    tracer.wrap(WallClockRegistry, "save", "obs.registry.save")
    tracer.wrap(Recorder, "__init__", "obs.spans.write")
    tracer.wrap(Recorder, "_write", "obs.spans.write")
    tracer.wrap(Recorder, "close", "obs.spans.write")
    tracer.wrap(jobs, "append_spans", "obs.spans.write")


# ---------------------------------------------------------------------------
# the ledger
# ---------------------------------------------------------------------------


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Span id -> its duration minus the durations of its child spans.

    Children run on their parent's thread and nest inside it, so their
    durations never overlap and subtracting them leaves the parent's own
    time.
    """
    own = {str(s["span_id"]): float(s["dur_s"]) for s in spans}
    for s in spans:
        parent = s.get("parent_id")
        if parent is not None and str(parent) in own:
            own[str(parent)] -= float(s["dur_s"])
    return own


def span_arg(span: Span, key: str, default: object = None) -> object:
    """An argument a wrapper recorded (absent when the call raised)."""
    return span.get("args", {}).get(key, default)  # type: ignore[union-attr]


class SpanTree:
    """Parent/child index over one set of spans, with their self times."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.by_id = {str(s["span_id"]): s for s in spans}
        self.children: Dict[str, List[str]] = {}
        for s in spans:
            if s.get("parent_id") is not None:
                self.children.setdefault(str(s["parent_id"]), []).append(str(s["span_id"]))
        self.own = self_times(spans)

    def subtree(self, roots: Iterable[str]) -> List[Span]:
        """Every span under the given root span ids (roots included)."""
        out: List[Span] = []
        todo = [r for r in roots if r in self.by_id]
        while todo:
            sid = todo.pop()
            out.append(self.by_id[sid])
            todo.extend(self.children.get(sid, ()))
        return out

    def self_by_layer(self, roots: Iterable[str], rename: Dict[str, str]) -> Dict[str, float]:
        """Self seconds per span name over the subtrees, names renamed."""
        layers: Dict[str, float] = {}
        for s in self.subtree(roots):
            name = rename.get(str(s["name"]), str(s["name"]))
            layers[name] = layers.get(name, 0.0) + self.own[str(s["span_id"])]
        return layers


def ledger(spans: Sequence[Span], root_name: str) -> Tuple[float, Dict[str, float]]:
    """``(wall_s, {layer: self_s})`` over every tree rooted at ``root_name``.

    The roots' own self time is the unattributed remainder and is reported
    as ``residual``; the layer self times plus it sum to ``wall_s``.
    """
    roots = [s for s in spans if s["name"] == root_name and s.get("parent_id") is None]
    wall = sum(float(s["dur_s"]) for s in roots)
    layers = SpanTree(spans).self_by_layer([str(s["span_id"]) for s in roots],
                                           {root_name: "residual"})
    return wall, layers
