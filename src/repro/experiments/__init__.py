"""Experiment drivers: one module per table/figure of the paper.

Each ``figNN.run(refs=None, seed=1)`` regenerates one evaluation figure
(same rows, columns, and metric as the paper) and returns an
:class:`~repro.experiments.common.ExperimentResult` whose ``table`` is a
paper-shaped text rendering.  ``tables.table1/2/3()`` regenerate the
structural tables.  Every figure and ablation simulates through one
:func:`~repro.experiments.common.run_matrix` call, so each honours
``REPRO_JOBS``, ``REPRO_RUN_DIR`` and ``REPRO_MANIFEST_DIR``.
``benchmarks/bench_experiments.py`` wraps them in pytest-benchmark.

>>> from repro.experiments import fig09
>>> print(fig09.run(refs=100_000))  # doctest: +SKIP
"""

from . import ablations, fig03, fig04, fig05, fig06, fig07, fig08, fig09, fig10, fig11, tables
from .common import BENCHES, ExperimentResult, default_jobs, default_refs, run_matrix

#: experiment id -> callable returning an ExperimentResult
ALL_EXPERIMENTS = {
    "table1": tables.table1,
    "table2": tables.table2,
    "table3": tables.table3,
    "fig03": fig03.run,
    "fig04": fig04.run,
    "fig05": fig05.run,
    "fig06": fig06.run,
    "fig07": fig07.run,
    "fig08": fig08.run,
    "fig09": fig09.run,
    "fig10": fig10.run,
    "fig11": fig11.run,
    # ablations of the paper's one-line design decisions (see ablations.py)
    "abl_ostate": ablations.ostate,
    "abl_decrement": ablations.decrement,
    "abl_counter_sharing": ablations.counter_sharing,
    "abl_nc_size": ablations.nc_size,
}

__all__ = [
    "ALL_EXPERIMENTS",
    "BENCHES",
    "ExperimentResult",
    "default_refs",
    "default_jobs",
    "run_matrix",
    "fig03",
    "fig04",
    "fig05",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "tables",
    "ablations",
]
