"""High-level entry points: ``simulate`` one (system, benchmark) pair, or
``sweep`` a whole matrix.

Traces are cached per (benchmark, refs, seed, scale, n_procs) within the
process, since every figure sweeps many systems over identical traces —
exactly as the paper's trace-driven methodology does.  The in-process
cache is LRU-bounded (:data:`TRACE_CACHE_MAX` entries) so long sweeps over
many trace shapes cannot grow memory without limit; an optional on-disk
cache (see :mod:`repro.trace.io`) shares generated traces across
processes, which the parallel sweep engine relies on.
"""

from __future__ import annotations

import inspect
import time
from collections import OrderedDict
from typing import Dict, Iterable, Mapping, Optional, Tuple

from ..durable import Note, ignore_note
from ..errors import ConfigurationError
from ..obs.metrics import merge_snapshots, run_metrics
from ..obs.profile import StallProfiler
from ..params import SystemConfig, setting
from ..system.builder import build_machine, system_config
from ..trace.record import Trace, TraceSpec
from ..trace.synthetic import generate_trace
from .results import SimulationResult
from .simulator import Simulator

#: default dataset scale: 1/8 of the paper's Table 3 footprints, matched to
#: the default trace length (see DESIGN.md's scaling argument)
DEFAULT_SCALE = 0.125
DEFAULT_REFS = 400_000

#: in-process trace cache bound; oldest-used entries are dropped beyond it
TRACE_CACHE_MAX = 16

_trace_cache: "OrderedDict[Tuple[str, int, int, float, int], Trace]" = OrderedDict()


def get_trace(
    benchmark: str,
    refs: int = DEFAULT_REFS,
    seed: int = 1,
    scale: float = DEFAULT_SCALE,
    n_procs: int = 32,
    disk_cache: bool = False,
    note: Note = ignore_note,
) -> Trace:
    """Generate (or fetch from cache) one benchmark trace.

    With ``disk_cache=True`` the content-addressed on-disk cache is
    consulted before generating, and a freshly generated trace is stored
    there — the mechanism parallel sweep workers use to share traces.
    The disk cache's recovery actions are reported to ``note``.
    """
    key = (benchmark.lower(), refs, seed, scale, n_procs)
    trace = _trace_cache.get(key)
    if trace is None:
        spec = TraceSpec(
            benchmark=benchmark.lower(),
            refs=refs,
            seed=seed,
            scale=scale,
            n_procs=n_procs,
        )
        if disk_cache:
            from ..trace import io as trace_io

            trace = trace_io.load_cached_trace(spec, note)
            if trace is None:
                trace = generate_trace(spec)
                try:
                    trace_io.store_cached_trace(spec, trace, note)
                except OSError as exc:
                    # a full disk (or an injected I/O fault) must not sink
                    # the run: continue with the in-memory trace, uncached
                    note("trace_cache_skipped", detail=f"{benchmark}: {exc}")
        else:
            trace = generate_trace(spec)
        _trace_cache[key] = trace
        if len(_trace_cache) > TRACE_CACHE_MAX:
            _trace_cache.popitem(last=False)
    else:
        _trace_cache.move_to_end(key)
    return trace


def clear_trace_cache() -> None:
    _trace_cache.clear()


def run_trace(
    config: SystemConfig,
    trace: Trace,
    system_name: str = "",
    tracer=None,
    profiler=None,
) -> SimulationResult:
    """Run one prepared trace through one machine configuration.

    ``tracer`` — an optional :class:`repro.obs.events.EventTracer` —
    enables structured event emission for this run (see ``repro.obs``).
    ``profiler`` — an optional :class:`repro.obs.profile.StallProfiler` —
    enables per-reference stall attribution; with ``$REPRO_PROFILE`` set
    one is constructed automatically.  A profiled run's snapshot carries
    the attribution under ``profile.*``/``series.profile/*`` keys.
    Every result carries a deterministic metrics snapshot either way.
    """
    if profiler is None and setting("REPRO_PROFILE"):
        profiler = StallProfiler(config)
    machine = build_machine(config, dataset_bytes=trace.dataset_bytes)
    sim = Simulator(machine, tracer=tracer, profiler=profiler)
    start = time.perf_counter()
    counters = sim.run(trace)
    elapsed = time.perf_counter() - start
    counters.check()
    metrics = run_metrics(counters, machine, tracer=tracer)
    name = system_name or config.name
    if profiler is not None:
        profiler.finish(sim.now)
        metrics = merge_snapshots(metrics, profiler.snapshot(name, trace.name))
    return SimulationResult(
        system=name,
        benchmark=trace.name,
        config=config,
        counters=counters,
        refs=len(trace),
        seed=int(trace.meta.get("seed", 0)),
        elapsed_s=elapsed,
        metrics=metrics,
    )


def simulate(
    system: str,
    benchmark: str,
    refs: int = DEFAULT_REFS,
    seed: int = 1,
    scale: float = DEFAULT_SCALE,
    config: Optional[SystemConfig] = None,
    tracer=None,
    profile: bool = False,
    **config_overrides: object,
) -> SimulationResult:
    """Simulate one paper system on one benchmark.

    >>> result = simulate("vbp5", "radix", refs=100_000)
    >>> result.miss_ratio  # doctest: +SKIP

    ``config`` supplies a fully-custom :class:`SystemConfig`; otherwise the
    named system is built with optional keyword overrides (``cache_assoc``,
    ``nc_size``, ``threshold_policy``, ``initial_threshold``, ...).
    ``tracer`` attaches an :class:`repro.obs.events.EventTracer` to the run;
    ``profile=True`` attaches a :class:`repro.obs.profile.StallProfiler`.
    """
    trace = get_trace(benchmark, refs=refs, seed=seed, scale=scale)
    if config is None:
        config = system_config(system, **config_overrides)  # type: ignore[arg-type]
    profiler = StallProfiler(config) if profile else None
    return run_trace(
        config, trace, system_name=system, tracer=tracer, profiler=profiler
    )


# ---------------------------------------------------------------------------
# matrix sweeps
# ---------------------------------------------------------------------------

#: keyword overrides system_config accepts; computed once for validation
_VALID_OVERRIDES = frozenset(
    name
    for name, p in inspect.signature(system_config).parameters.items()
    if p.kind is inspect.Parameter.KEYWORD_ONLY
)


def _check_override_names(overrides: Mapping[str, object], context: str) -> None:
    for key in overrides:
        if key not in _VALID_OVERRIDES:
            raise ConfigurationError(
                f"unknown config override {key!r} {context}; valid overrides: "
                f"{', '.join(sorted(_VALID_OVERRIDES))}"
            )


def resolve_sweep_configs(
    systems: Iterable[str],
    config_overrides: Optional[Mapping[str, Mapping[str, object]]] = None,
    **shared_overrides: object,
) -> "OrderedDict[str, SystemConfig]":
    """Build one :class:`SystemConfig` per system, validating eagerly.

    ``shared_overrides`` apply to every system; ``config_overrides`` maps a
    system name to overrides for **that system only** (layered over the
    shared ones).  Unknown override names and overrides for systems not in
    the sweep raise :class:`ConfigurationError` up front, naming the bad
    key — not after half the matrix has already been simulated.
    """
    systems = list(systems)
    _check_override_names(shared_overrides, "(shared)")
    per_system: Dict[str, Mapping[str, object]] = dict(config_overrides or {})
    for name, overrides in per_system.items():
        if name not in systems:
            raise ConfigurationError(
                f"config_overrides given for system {name!r}, which is not in "
                f"the sweep ({', '.join(systems)})"
            )
        _check_override_names(overrides, f"for system {name!r}")
    configs: "OrderedDict[str, SystemConfig]" = OrderedDict()
    for system in systems:
        merged = dict(shared_overrides)
        merged.update(per_system.get(system, {}))
        configs[system] = system_config(system, **merged)  # type: ignore[arg-type]
    return configs


def sweep(
    systems: Iterable[str],
    benchmarks: Iterable[str],
    refs: int = DEFAULT_REFS,
    seed: int = 1,
    scale: float = DEFAULT_SCALE,
    jobs: int = 1,
    config_overrides: Optional[Mapping[str, Mapping[str, object]]] = None,
    run_dir: Optional[str] = None,
    max_retries: Optional[int] = None,
    cell_timeout: Optional[float] = None,
    recovery=None,
    result_store=None,
    profile: bool = False,
    **shared_overrides: object,
) -> Dict[Tuple[str, str], SimulationResult]:
    """Run a systems x benchmarks matrix; keys are ``(system, benchmark)``.

    ``jobs > 1`` fans the cells out over a process pool (see
    :mod:`repro.sim.parallel`); results are merged deterministically and are
    bit-identical to a serial run.  ``config_overrides`` scopes overrides to
    a single system (``{"vxp5": {"initial_threshold": 8}}``) while plain
    keyword overrides apply to the whole matrix.

    Resilience knobs (serial and parallel alike; see ``docs/ROBUSTNESS.md``):
    ``run_dir`` journals completed cells so an interrupted sweep resumes
    bit-identically; ``max_retries``/``cell_timeout`` bound per-cell fault
    handling (defaults from ``REPRO_MAX_RETRIES``/``REPRO_CELL_TIMEOUT``);
    ``recovery`` — a :class:`repro.sim.parallel.RecoveryLog` — collects
    every recovery action the sweep took.  ``result_store`` — a
    :class:`repro.service.store.ResultStore` — memoises completed cells
    by content key, so repeating a sweep serves them without simulating
    (see ``docs/SERVICE.md``).  ``profile=True`` attaches a
    :class:`repro.obs.profile.StallProfiler` to every simulated cell.
    """
    systems = list(systems)
    benchmarks = list(benchmarks)
    configs = resolve_sweep_configs(
        systems, config_overrides=config_overrides, **shared_overrides
    )
    from .parallel import run_parallel_sweep

    return run_parallel_sweep(
        configs, benchmarks, refs=refs, seed=seed, scale=scale, jobs=jobs,
        run_dir=run_dir, max_retries=max_retries, cell_timeout=cell_timeout,
        recovery=recovery, result_store=result_store, profile=profile,
    )
