"""Figure 6: adaptive vs. fixed relocation-threshold policies for `ncp5`.

Paper setup: `ncp` with a page cache of 1/5 of the dataset; the fixed
policy keeps the initial threshold (paper 32 — scaled here, see
``repro.params.THRESHOLD_SCALE``) for the whole run, the adaptive policy
raises it by the increment whenever PC thrashing is detected.  Expected
shape: the adaptive policy suppresses thrashing for Barnes and Radix
(lower relocation overhead at equal-or-better miss ratios); regular
applications are unaffected.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..analysis.metrics import stacked_miss_bars
from ..analysis.report import format_stacked_bars
from ..params import ThresholdPolicy
from ..system.builder import system_config
from .common import BENCHES, ExperimentResult, run_matrix

POLICIES = ("adaptive", "fixed")


def run(refs: Optional[int] = None, seed: int = 1) -> ExperimentResult:
    matrix = run_matrix(
        {p: system_config("ncp5", threshold_policy=ThresholdPolicy(p)) for p in POLICIES},
        refs=refs, seed=seed,
    )
    # policy-major: the cell order `repro report` records in its manifest
    results = {(p, b): matrix[(p, b)] for p in POLICIES for b in BENCHES}
    stacks = {key: stacked_miss_bars(r) for key, r in results.items()}
    data: Dict[Tuple[str, str], float] = {
        key: r.miss_ratio + r.relocation_overhead_ratio
        for key, r in results.items()
    }
    table = format_stacked_bars(
        "Cluster miss ratios (%) + relocation overhead: adaptive vs. fixed "
        "threshold, ncp5 (PC = 1/5 of dataset)",
        list(BENCHES),
        list(POLICIES),
        {(b, p): stacks[(p, b)] for p in POLICIES for b in BENCHES},
    )
    return ExperimentResult(
        "fig06",
        "Adaptive vs. fixed relocation threshold policies for ncp5",
        table,
        data,
        results,
    )
