"""repro.obs — the observability layer.

Cooperating pieces, all optional and all zero-cost when unused:

* :mod:`repro.obs.events` — structured event tracing.  An
  :class:`~repro.obs.events.EventTracer` attached to a
  :class:`~repro.sim.simulator.Simulator` records every protocol-level
  event (NC insert/evict/hit/pollution, page relocations, directory
  transactions, invalidations, owner flushes, bus cache-to-cache
  supplies) into a bounded in-memory ring buffer and, optionally, a
  JSONL sink.  With no tracer attached the simulator's hot path is
  untouched: the only cost is an ``is None`` check on the miss path,
  and the inlined L1 read-hit loop carries no check at all.

* :mod:`repro.obs.metrics` — a deterministic metrics registry.  Every
  :class:`~repro.sim.results.SimulationResult` carries a snapshot of
  named counters, gauges, and histograms; snapshots merge
  deterministically, so a parallel sweep aggregates to bit-identical
  totals as a serial one (pinned by ``tests/sim/test_obs.py``).

* :mod:`repro.obs.manifest` — run manifests.  A sweep (or a ``repro
  report`` run) can write a JSON manifest recording the exact inputs
  (config digests, trace cache keys, seeds, git SHA) and outputs
  (counter digests, metrics, timings) so every results artifact is
  reproducible from its manifest alone.

* :mod:`repro.obs.profile` — the simulated-time stall profiler.  A
  :class:`~repro.obs.profile.StallProfiler` attributes every remote
  reference's stall to its Eq. 1 component (exactly: the attribution
  sums integer-equal to the run's remote read stall) and records
  windowed interval time-series of how the caches evolve over a trace.

* :mod:`repro.obs.timeline` — Chrome/Perfetto trace-event export.
  ``repro trace export`` renders a traced run as ``trace.json`` in
  simulated bus-cycle time, openable in chrome://tracing or Perfetto.

* :mod:`repro.obs.monitor` — live sweep monitoring.  ``repro top``
  tails a running sweep's ``run.json`` / ``journal.jsonl`` /
  ``recovery.jsonl`` and renders per-cell progress, refs/sec, an ETA,
  and recovery counts, without touching the run directory.

* :mod:`repro.obs.registry` — the **wall-clock** telemetry registry.
  Where :mod:`repro.obs.metrics` measures the simulated machine in
  deterministic bus cycles, :class:`~repro.obs.registry.WallClockRegistry`
  measures the *service process itself* (request rates, queue depths,
  latency histograms) and renders Prometheus text format 0.0.4 at the
  service's ``GET /metrics``, with a crash-safe JSON snapshot for
  restart persistence.

* :mod:`repro.obs.spans` — cross-process request→job→cell span tracing.
  Every HTTP submission's correlation id becomes the trace id of a span
  tree (receive → queue-wait → per-cell simulate/cache-hit → store-put
  → respond) recorded to the job's ``spans.jsonl`` and exported as
  Chrome/Perfetto JSON by ``repro trace serve-export`` — the wall-clock
  sibling of :mod:`repro.obs.timeline`'s simulated-cycle exporter.

See ``docs/OBSERVABILITY.md`` for the event schema, the metrics
catalog, the profiler key layout, the manifest format, and the
wall-clock telemetry catalogue.
"""

from .events import (
    CHECK_EVENT_KINDS,
    EVENT_KINDS,
    EventTracer,
    TraceEvent,
)
from .manifest import (
    build_manifest,
    manifest_core,
    write_manifest,
)
from .metrics import (
    Histogram,
    MetricsRegistry,
    aggregate_metrics,
    merge_snapshots,
    run_metrics,
)
from .monitor import SweepProgress, watch
from .registry import (
    METRICS_CONTENT_TYPE,
    METRICS_SNAPSHOT_NAME,
    WallClockRegistry,
)
from .spans import (
    SPANS_NAME,
    SpanRecorder,
    load_spans,
    new_request_id,
    request_root_span_id,
    run_span_id,
    span_tree_problems,
    spans_to_chrome,
)
from .profile import (
    STALL_COMPONENTS,
    StallProfiler,
    attributed_stall,
    profiled_cells,
    stall_breakdown,
)
from .timeline import (
    export_chrome_trace,
    trace_simulation,
    validate_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "CHECK_EVENT_KINDS",
    "EVENT_KINDS",
    "EventTracer",
    "TraceEvent",
    "Histogram",
    "MetricsRegistry",
    "aggregate_metrics",
    "merge_snapshots",
    "run_metrics",
    "build_manifest",
    "manifest_core",
    "write_manifest",
    "STALL_COMPONENTS",
    "StallProfiler",
    "attributed_stall",
    "profiled_cells",
    "stall_breakdown",
    "export_chrome_trace",
    "trace_simulation",
    "validate_chrome_trace",
    "write_chrome_trace",
    "SweepProgress",
    "watch",
    "METRICS_CONTENT_TYPE",
    "METRICS_SNAPSHOT_NAME",
    "WallClockRegistry",
    "SPANS_NAME",
    "SpanRecorder",
    "load_spans",
    "new_request_id",
    "request_root_span_id",
    "run_span_id",
    "span_tree_problems",
    "spans_to_chrome",
]
