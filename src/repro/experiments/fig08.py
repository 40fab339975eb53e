"""Figure 8: victim-cache indexing (`vbp` vs `vpp`) with a 1/5 page cache.

Expected shape: the page cache largely evens out the indexing schemes —
pages that conflict in the page-indexed NC get relocated and served from
the PC — so the Fig. 5 gaps shrink (Cholesky) or vanish (Ocean, FFT),
demonstrating that a page-address-indexed victim cache is feasible.  LU
remains the worst case for `vpp`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..analysis.metrics import stacked_miss_bars
from ..analysis.report import format_stacked_bars
from ..sim.runner import resolve_sweep_configs
from .common import BENCHES, ExperimentResult, run_matrix

SYSTEMS = ("vbp5", "vpp5")


def run(refs: Optional[int] = None, seed: int = 1) -> ExperimentResult:
    results = run_matrix(resolve_sweep_configs(SYSTEMS), refs=refs, seed=seed)
    stacks = {key: stacked_miss_bars(r) for key, r in results.items()}
    data: Dict[Tuple[str, str], float] = {
        key: r.miss_ratio + r.relocation_overhead_ratio
        for key, r in results.items()
    }
    table = format_stacked_bars(
        "Cluster miss ratios (%) with a 1/5 page cache: block- vs. "
        "page-indexed victim NC",
        list(BENCHES),
        list(SYSTEMS),
        {(b, s): stacks[(s, b)] for s in SYSTEMS for b in BENCHES},
    )
    return ExperimentResult(
        "fig08",
        "Victim-cache indexing in systems with page caches",
        table,
        data,
        results,
    )
