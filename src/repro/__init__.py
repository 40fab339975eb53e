"""repro — reproduction of *The Effectiveness of SRAM Network Caches in
Clustered DSMs* (Moga & Dubois, HPCA 1998).

A trace-driven simulator for clustered CC-NUMA machines with every
remote-data-cache organisation the paper evaluates: SRAM network victim
caches (block- and page-indexed), dirty-inclusion SRAM NCs, large DRAM
NCs, infinite NCs, Simple-COMA-style page caches with R-NUMA directory
relocation counters or the paper's NC-set victimisation counters, and
fixed/adaptive relocation thresholds — plus deterministic synthetic
SPLASH-2-like workload generators for the eight Table 3 benchmarks.

Quickstart
----------
>>> from repro import simulate
>>> r = simulate("vbp5", "radix", refs=100_000)
>>> print(f"{r.miss_ratio:.2f}% miss, {r.stall_per_reference:.2f} cy/ref")
... # doctest: +SKIP

See ``examples/`` for complete scenarios, ``repro.experiments`` for the
per-figure reproduction drivers, and DESIGN.md for the system inventory.
"""

from .errors import (
    CellTimeoutError,
    CheckpointError,
    ConfigurationError,
    CorruptTraceError,
    InjectedFaultError,
    ProtocolError,
    ReproError,
    RetryExhaustedError,
    TraceError,
    UnknownBenchmarkError,
    UnknownSystemError,
)
from .faults import FaultPlan, active_plan
from .params import (
    CacheGeometry,
    LatencyModel,
    NCConfig,
    NCIndexing,
    NCKind,
    PCConfig,
    RelocationCounters,
    SystemConfig,
    ThresholdPolicy,
)
from .stats import Counters, MissClass, Outcome
from .obs.events import EventTracer, TraceEvent
from .obs.manifest import build_manifest, manifest_core, write_manifest
from .obs.metrics import MetricsRegistry, aggregate_metrics
from .obs.monitor import SweepProgress
from .obs.profile import (
    STALL_COMPONENTS,
    StallProfiler,
    attributed_stall,
    stall_breakdown,
)
from .obs.timeline import export_chrome_trace, validate_chrome_trace
from .analysis.report import throughput_report
from .sim.checkpoint import SweepJournal
from .sim.parallel import (
    RecoveryLog,
    SweepPolicy,
    default_jobs,
    resolve_policy,
    run_parallel_sweep,
    sweep_metrics,
    timed_sweep,
)
from .sim.results import SimulationResult
from .sim.runner import (
    DEFAULT_REFS,
    DEFAULT_SCALE,
    clear_trace_cache,
    get_trace,
    run_trace,
    simulate,
    sweep,
)
from .sim.simulator import Simulator
from .system.builder import SYSTEM_NAMES, build_machine, system_config
from .trace.record import Trace, TraceSpec
from .trace.synthetic import BENCHMARK_NAMES, BENCHMARKS, generate_trace

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "ConfigurationError",
    "ProtocolError",
    "TraceError",
    "CorruptTraceError",
    "CellTimeoutError",
    "RetryExhaustedError",
    "CheckpointError",
    "InjectedFaultError",
    "UnknownSystemError",
    "UnknownBenchmarkError",
    # resilience
    "FaultPlan",
    "active_plan",
    "SweepJournal",
    "SweepPolicy",
    "RecoveryLog",
    "resolve_policy",
    # configuration
    "SystemConfig",
    "CacheGeometry",
    "LatencyModel",
    "NCConfig",
    "NCKind",
    "NCIndexing",
    "PCConfig",
    "RelocationCounters",
    "ThresholdPolicy",
    "SYSTEM_NAMES",
    "system_config",
    "build_machine",
    # simulation
    "Simulator",
    "SimulationResult",
    "Counters",
    "MissClass",
    "Outcome",
    "simulate",
    "sweep",
    "run_trace",
    "get_trace",
    "clear_trace_cache",
    "run_parallel_sweep",
    "default_jobs",
    "throughput_report",
    "timed_sweep",
    "DEFAULT_REFS",
    "DEFAULT_SCALE",
    # observability
    "EventTracer",
    "TraceEvent",
    "MetricsRegistry",
    "aggregate_metrics",
    "sweep_metrics",
    "build_manifest",
    "manifest_core",
    "write_manifest",
    "STALL_COMPONENTS",
    "StallProfiler",
    "attributed_stall",
    "stall_breakdown",
    "export_chrome_trace",
    "validate_chrome_trace",
    "SweepProgress",
    # traces
    "Trace",
    "TraceSpec",
    "BENCHMARKS",
    "BENCHMARK_NAMES",
    "generate_trace",
]
