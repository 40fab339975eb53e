"""Figure 4: miss ratios under dirty-inclusion (`nc`) vs. victim (`vb`) NCs.

Expected shape: `vb` <= `nc` everywhere (the victim cache never duplicates
L1-resident blocks, so its effective capacity is larger); the gap is
moderate for read-capacity applications and dramatic for Radix, where
dirty inclusion caps the cluster's dirty-block capacity at the NC size and
inflates write-backs.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..analysis.metrics import stacked_miss_bars
from ..analysis.report import format_stacked_bars
from ..sim.runner import resolve_sweep_configs
from .common import BENCHES, ExperimentResult, run_matrix

SYSTEMS = ("nc", "vb")


def run(refs: Optional[int] = None, seed: int = 1) -> ExperimentResult:
    results = run_matrix(resolve_sweep_configs(SYSTEMS), refs=refs, seed=seed)
    stacks = {key: stacked_miss_bars(r) for key, r in results.items()}
    data: Dict[Tuple[str, str], float] = {
        key: r.miss_ratio for key, r in results.items()
    }
    table = format_stacked_bars(
        "Cluster miss ratios (%): dirty-inclusion NC vs. victim NC (16 KB, 4-way)",
        list(BENCHES),
        list(SYSTEMS),
        {(b, s): stacks[(s, b)] for s in SYSTEMS for b in BENCHES},
    )
    return ExperimentResult(
        "fig04",
        "Cluster miss ratios for different ways of integrating the NC",
        table,
        data,
        results,
    )
