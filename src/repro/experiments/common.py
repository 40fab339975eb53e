"""Shared machinery for the per-figure experiment drivers.

Each ``figNN`` module exposes ``run(refs, seed) -> ExperimentResult`` that
re-generates one figure of the paper: same benchmarks down the rows, same
system configurations across the columns, same metric.  The benchmarks in
``benchmarks/`` print these tables and record timings.

The reference count is taken from the ``REPRO_BENCH_REFS`` environment
variable when not passed explicitly, so CI can dial the fidelity/runtime
trade-off without touching code.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from ..params import env_number
from ..sim.parallel import env_jobs
from ..sim.results import SimulationResult
from ..sim.runner import DEFAULT_REFS, DEFAULT_SCALE, sweep

#: Table 3 order, used for every figure's rows
BENCHES = (
    "barnes",
    "cholesky",
    "fft",
    "fmm",
    "lu",
    "ocean",
    "radix",
    "raytrace",
)

#: scaled equivalents of the paper's 32/64 initial thresholds (see
#: repro.params.THRESHOLD_SCALE)
SCALED_THRESHOLD_32 = 8
SCALED_THRESHOLD_64 = 16


def default_refs() -> int:
    """Trace length for experiments (env ``REPRO_BENCH_REFS`` or 400k)."""
    return max(32, env_number("REPRO_BENCH_REFS", int, DEFAULT_REFS))


def default_jobs() -> int:
    """Worker processes for experiment sweeps (env ``REPRO_JOBS`` or 1).

    Experiments default to serial so unit tests and one-off figure runs
    stay dependency-free; set ``REPRO_JOBS`` (or pass ``--jobs`` to the
    CLI) to fan matrices out over a process pool.
    """
    return env_jobs() or 1


@dataclass
class ExperimentResult:
    """One regenerated figure/table: identification, data, rendered text."""

    experiment: str  #: e.g. "fig09"
    title: str
    table: str  #: the paper-shaped text table
    data: Dict[Tuple[str, str], float] = field(default_factory=dict)
    results: Dict[Tuple[str, str], SimulationResult] = field(default_factory=dict)
    notes: str = ""
    #: sweep wall-clock and per-cell engine timings (see run_matrix_timed)
    timing: Dict[str, float] = field(default_factory=dict)

    def __str__(self) -> str:
        out = [f"== {self.experiment}: {self.title} ==", self.table]
        if self.notes:
            out.append(self.notes)
        return "\n".join(out)


def matrix_timing(
    results: Dict[Tuple[str, str], SimulationResult], wall_s: float, jobs: int
) -> Dict[str, float]:
    """Aggregate throughput numbers for one simulated matrix."""
    total_refs = sum(r.refs for r in results.values())
    engine_s = sum(r.elapsed_s for r in results.values())
    timing: Dict[str, float] = {
        "wall_s": wall_s,
        "engine_s": engine_s,
        "total_refs": float(total_refs),
        "refs_per_sec": total_refs / wall_s if wall_s > 0 else 0.0,
        "jobs": float(jobs),
    }
    for (system, bench), r in results.items():
        timing[f"cell_s:{system}/{bench}"] = r.elapsed_s
    return timing


def merge_timings(*timings: Dict[str, float]) -> Dict[str, float]:
    """Combine the timing dicts of several sequential matrices into one."""
    merged: Dict[str, float] = {}
    wall = engine = total_refs = 0.0
    jobs = 1.0
    for t in timings:
        wall += t.get("wall_s", 0.0)
        engine += t.get("engine_s", 0.0)
        total_refs += t.get("total_refs", 0.0)
        jobs = max(jobs, t.get("jobs", 1.0))
        for key, value in t.items():
            if key.startswith("cell_s:"):
                # identical cells across sub-matrices (same system swept
                # twice with different overrides) accumulate
                merged[key] = merged.get(key, 0.0) + value
    merged.update(
        wall_s=wall,
        engine_s=engine,
        total_refs=total_refs,
        refs_per_sec=total_refs / wall if wall > 0 else 0.0,
        jobs=jobs,
    )
    return merged


def run_matrix_timed(
    systems: Iterable[str],
    refs: Optional[int] = None,
    seed: int = 1,
    benches: Iterable[str] = BENCHES,
    jobs: Optional[int] = None,
    **overrides: object,
) -> Tuple[Dict[Tuple[str, str], SimulationResult], Dict[str, float]]:
    """Simulate a matrix at experiment fidelity; returns (results, timing).

    ``timing`` carries the sweep wall-clock, summed engine seconds,
    aggregate refs/sec, and one ``cell_s:system/bench`` entry per cell —
    the payload experiment drivers attach to their ExperimentResult.

    Set ``REPRO_RUN_DIR`` to journal every matrix under
    ``$REPRO_RUN_DIR/matrix-<id>``: an interrupted experiment re-run with
    the same environment skips cells already recorded there and merges
    bit-identically with a from-scratch run (see docs/ROBUSTNESS.md).
    """
    systems = list(systems)
    benches = list(benches)
    n = refs if refs is not None else default_refs()
    j = jobs if jobs is not None else default_jobs()

    matrix_id = None
    if os.environ.get("REPRO_MANIFEST_DIR") or os.environ.get("REPRO_RUN_DIR"):
        from ..obs.manifest import config_digest

        matrix_id = config_digest((tuple(systems), tuple(benches), n, seed,
                                   tuple(sorted(overrides.items(), key=repr))))
    run_dir = None
    if os.environ.get("REPRO_RUN_DIR"):
        run_dir = os.path.join(os.environ["REPRO_RUN_DIR"], f"matrix-{matrix_id}")

    start = time.perf_counter()
    results = sweep(systems, benches, refs=n, seed=seed, jobs=j,
                    run_dir=run_dir, **overrides)
    wall = time.perf_counter() - start

    # Drop a run manifest when a destination is configured (no-op, and no
    # import cost, in the common interactive case).
    if os.environ.get("REPRO_MANIFEST_DIR"):
        from ..obs.manifest import maybe_write_sweep_manifest

        maybe_write_sweep_manifest(
            results,
            command="run_matrix:" + ",".join(systems),
            refs=n,
            seed=seed,
            scale=DEFAULT_SCALE,
            jobs=j,
            wall_s=wall,
            name=f"matrix-{matrix_id}",
        )
    return results, matrix_timing(results, wall, j)


def run_matrix(
    systems: Iterable[str],
    refs: Optional[int] = None,
    seed: int = 1,
    benches: Iterable[str] = BENCHES,
    **overrides: object,
) -> Dict[Tuple[str, str], SimulationResult]:
    """Simulate a systems x benchmarks matrix at experiment fidelity."""
    results, _ = run_matrix_timed(systems, refs=refs, seed=seed, benches=benches, **overrides)
    return results
