"""Ablations of the paper's explicit design decisions.

The paper makes several design calls it justifies in one sentence each;
these drivers re-measure them:

* ``ostate`` — Sec. 3.2: "The problem could be solved by adding an
  explicit dirty-shared (O) state... our evaluations have indicated very
  little benefit."  MESIR vs. MOESIR on the victim-NC system.
* ``decrement`` — Sec. 3.4: "The policy can be improved by decrementing
  the counters when invalidations are received... our base system does
  not use this improvement."  `ncp5` with and without the refinement.
* ``counter_sharing`` — Sec. 3.4: "The robustness of counter sharing is
  something well worth investigating, but beyond our scope here."  `vxp5`
  with 1 (the paper), 2, 4, and 8 NC sets per relocation counter.
* ``nc_size`` — Fig. 2's qualitative size axis, measured: the victim NC
  swept from 1 KB to 64 KB.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..params import BusProtocol
from ..system.builder import system_config
from .common import ExperimentResult, bench_grid, run_matrix


def ostate(refs: Optional[int] = None, seed: int = 1) -> ExperimentResult:
    """MESIR vs. MOESIR: does the dirty-shared O state matter?"""
    results = run_matrix(
        {
            "mesir": system_config("vb", protocol=BusProtocol.MESIR),
            "moesir": system_config("vb", protocol=BusProtocol.MOESIR),
        },
        refs=refs, seed=seed,
    )
    data: Dict[Tuple[str, str], float] = {}
    for (label, bench), r in results.items():
        data[(label, bench)] = r.stall_per_reference
        data[(label + ":wb", bench)] = float(
            r.counters.writebacks_absorbed + r.counters.writebacks_remote
        )
    cols = ("mesir", "moesir", "mesir:wb", "moesir:wb")
    table = bench_grid(
        "Victim-NC system `vb`: remote read stall per reference (cycles) and "
        "write-backs, MESIR vs. MOESIR",
        cols, data, col_width=11,
    )
    return ExperimentResult(
        "abl_ostate",
        "Dirty-shared O state ablation (Sec. 3.2)",
        table,
        data,
        results,
        notes="The paper found 'very little benefit'; the stall columns "
        "should be near-identical, with MOESIR trimming write-backs.",
    )


def decrement(refs: Optional[int] = None, seed: int = 1) -> ExperimentResult:
    """Counter decrement-on-invalidation refinement (off in the paper)."""
    results = run_matrix(
        {
            "base": system_config("ncp5"),
            "decrement": system_config("ncp5", decrement_on_invalidation=True),
        },
        refs=refs, seed=seed,
    )
    data: Dict[Tuple[str, str], float] = {}
    for (label, bench), r in results.items():
        data[(label, bench)] = r.miss_ratio + r.relocation_overhead_ratio
        data[(label + ":rel", bench)] = float(r.counters.pc_relocations)
    cols = ("base", "decrement", "base:rel", "decrement:rel")
    table = bench_grid(
        "ncp5: miss%+overhead and relocation counts, with/without the "
        "Sec. 3.4 counter decrement",
        cols, data, col_width=14,
    )
    return ExperimentResult(
        "abl_decrement",
        "Relocation-counter decrement-on-invalidation ablation (Sec. 3.4)",
        table,
        data,
        results,
        notes="The paper judged the improvement 'not significant'.",
    )


def counter_sharing(refs: Optional[int] = None, seed: int = 1) -> ExperimentResult:
    """How robust are vxp's per-set counters to being shared?"""
    sharings = (1, 2, 4, 8)
    results = run_matrix(
        {f"share{sh}": system_config("vxp5", nc_counter_sharing=sh) for sh in sharings},
        refs=refs, seed=seed,
    )
    data: Dict[Tuple[str, str], float] = {}
    for (label, bench), r in results.items():
        data[(label, bench)] = r.stall_per_reference
        data[(f"{label}:rel", bench)] = float(r.counters.pc_relocations)
    cols = [f"share{sh}" for sh in sharings] + [f"share{sh}:rel" for sh in sharings]
    table = bench_grid(
        "vxp5: remote read stall per reference (cycles) and relocations vs. "
        "NC sets per counter",
        cols, data, col_width=11,
    )
    return ExperimentResult(
        "abl_counter_sharing",
        "NC-set relocation-counter sharing robustness (Sec. 3.4)",
        table,
        data,
        results,
        notes="share1 is the paper's design (64 counters per node); higher "
        "sharing saves counter memory at the cost of relocation precision.",
    )


def nc_size(refs: Optional[int] = None, seed: int = 1) -> ExperimentResult:
    """Fig. 2's size axis: victim-NC capacity vs. remote stall."""
    sizes = (1024, 4096, 16 * 1024, 65536)
    columns = {f"vb{s // 1024}k": system_config("vb", nc_size=s) for s in sizes}
    matrix = run_matrix({"dinf": system_config("dinf"), **columns}, refs=refs, seed=seed)
    results = {key: r for key, r in matrix.items() if key[0] != "dinf"}
    data: Dict[Tuple[str, str], float] = {
        (label, bench): r.normalized_stall(matrix[("dinf", bench)])
        for (label, bench), r in results.items()
    }
    table = bench_grid(
        "Victim-NC size sweep: remote read stall normalised to an infinite "
        "DRAM NC",
        columns, data, col_width=9,
    )
    return ExperimentResult(
        "abl_nc_size",
        "Victim-NC capacity sweep (the Fig. 2 trade-off, measured)",
        table,
        data,
        results,
    )
