"""Shared machinery for the per-figure experiment drivers.

Each ``figNN`` module exposes ``run(refs, seed) -> ExperimentResult`` that
re-generates one figure of the paper: same benchmarks down the rows, same
system configurations across the columns, same metric.  Every driver
simulates through one :func:`run_matrix` call over its labelled
configurations.  ``benchmarks/bench_experiments.py`` times each driver and
prints its table.

The reference count is taken from the ``REPRO_BENCH_REFS`` environment
variable when not passed explicitly, so CI can dial the fidelity/runtime
trade-off without touching code.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Tuple

from ..analysis.report import format_grid
from ..params import SystemConfig, setting
from ..sim.parallel import run_parallel_sweep
from ..sim.results import SimulationResult
from ..sim.runner import DEFAULT_SCALE

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
    return max(32, setting("REPRO_BENCH_REFS"))


def default_jobs() -> int:
    """Worker processes for experiment sweeps (env ``REPRO_JOBS`` or 1).

    Experiments default to serial so unit tests and one-off figure runs
    stay dependency-free; set ``REPRO_JOBS`` (or pass ``--jobs`` to the
    CLI) to fan matrices out over a process pool.
    """
    return max(1, setting("REPRO_JOBS") or 1)


@dataclass
class ExperimentResult:
    """One regenerated figure/table: identification, data, rendered text."""

    experiment: str  #: e.g. "fig09"
    title: str
    table: str  #: the paper-shaped text table
    data: Dict[Tuple[str, str], float] = field(default_factory=dict)
    results: Dict[Tuple[str, str], SimulationResult] = field(default_factory=dict)
    notes: str = ""

    def __str__(self) -> str:
        out = [f"== {self.experiment}: {self.title} ==", self.table]
        if self.notes:
            out.append(self.notes)
        return "\n".join(out)


def bench_grid(
    title: str,
    columns: Iterable[str],
    data: Mapping[Tuple[str, str], float],
    col_width: int,
) -> str:
    """``data[(column, benchmark)]`` as a grid: benchmarks down, columns across."""
    return format_grid(title, list(BENCHES), list(columns),
                       lambda b, c: data[(c, b)], col_width=col_width)


def run_matrix(
    columns: Mapping[str, SystemConfig],
    refs: Optional[int] = None,
    seed: int = 1,
) -> Dict[Tuple[str, str], SimulationResult]:
    """Simulate every labelled configuration on every benchmark.

    ``columns`` maps each column label to its :class:`SystemConfig`
    (``resolve_sweep_configs(names)`` for named systems); the result is
    keyed ``(label, benchmark)``, benchmark-major.  The matrix runs on
    ``REPRO_JOBS`` worker processes.  Set ``REPRO_RUN_DIR`` to journal it
    under ``$REPRO_RUN_DIR/matrix-<id>``: an interrupted experiment re-run
    with the same environment skips cells already recorded there and
    merges bit-identically with a from-scratch run (see
    docs/ROBUSTNESS.md).  Set ``REPRO_MANIFEST_DIR`` to drop one
    ``matrix-<id>`` manifest there.
    """
    n = refs if refs is not None else default_refs()
    jobs = default_jobs()

    manifest_dir = setting("REPRO_MANIFEST_DIR")
    runs_dir = setting("REPRO_RUN_DIR")
    matrix_id = None
    if manifest_dir or runs_dir:
        from ..obs.manifest import config_digest

        matrix_id = config_digest((tuple(columns.items()), BENCHES, n, seed))
    run_dir = os.path.join(runs_dir, f"matrix-{matrix_id}") if runs_dir else None

    start = time.perf_counter()
    results = run_parallel_sweep(columns, BENCHES, refs=n, seed=seed,
                                 scale=DEFAULT_SCALE, jobs=jobs, run_dir=run_dir)
    wall = time.perf_counter() - start

    # Drop a run manifest when a destination is configured (no-op, and no
    # import cost, in the common interactive case).
    if manifest_dir:
        from ..obs.manifest import maybe_write_sweep_manifest

        maybe_write_sweep_manifest(
            results,
            command="run_matrix:" + ",".join(columns),
            refs=n,
            seed=seed,
            scale=DEFAULT_SCALE,
            jobs=jobs,
            wall_s=wall,
            name=f"matrix-{matrix_id}",
        )
    return results
