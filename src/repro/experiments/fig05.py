"""Figure 5: block-indexed (`vb`) vs. page-indexed (`vp`) victim caches.

Expected shape: page indexing helps the irregular, low-spatial-locality
applications (FMM, Radix) — their sparse working sets spread across pages
— and hurts the high-spatial-locality ones (LU, Cholesky, Ocean) whose
dense pages collide inside single NC sets.  Because the victim cache keeps
no inclusion, `vp` can never be worse than having no NC at all.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..analysis.metrics import stacked_miss_bars
from ..analysis.report import format_stacked_bars
from ..sim.runner import resolve_sweep_configs
from .common import BENCHES, ExperimentResult, run_matrix

SYSTEMS = ("vb", "vp")


def run(refs: Optional[int] = None, seed: int = 1) -> ExperimentResult:
    results = run_matrix(resolve_sweep_configs(SYSTEMS), refs=refs, seed=seed)
    stacks = {key: stacked_miss_bars(r) for key, r in results.items()}
    data: Dict[Tuple[str, str], float] = {
        key: r.miss_ratio for key, r in results.items()
    }
    table = format_stacked_bars(
        "Cluster miss ratios (%): victim NC indexed by block vs. page address",
        list(BENCHES),
        list(SYSTEMS),
        {(b, s): stacks[(s, b)] for s in SYSTEMS for b in BENCHES},
    )
    return ExperimentResult(
        "fig05",
        "Cluster miss ratios for different victim-cache indexing schemes",
        table,
        data,
        results,
    )
