"""Figure 3: cluster miss ratio vs. L1 associativity and victim-NC size.

Paper setup: 16 KB processor caches at associativity 1/2/4, with a
block-indexed network victim cache of size 0 (none), 1 KB, or 16 KB.
Expected shape: the 1 KB victim NC lifts 2-way caches to roughly 4-way
no-NC miss ratios (it absorbs conflict misses); 16 KB additionally absorbs
capacity misses (clearest for Barnes/Ocean; for Radix the win is on write
misses).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..system.builder import system_config
from .common import ExperimentResult, bench_grid, run_matrix

ASSOCS = (1, 2, 4)
NC_SIZES = (0, 1024, 16 * 1024)  # 0 = no NC


def _label(assoc: int, nc_size: int) -> str:
    kb = nc_size // 1024
    return f"{assoc}w-vb{kb}"


def run(refs: Optional[int] = None, seed: int = 1) -> ExperimentResult:
    columns = {
        _label(assoc, nc_size): (
            system_config("vb", cache_assoc=assoc, nc_size=nc_size)
            if nc_size else system_config("base", cache_assoc=assoc)
        )
        for assoc in ASSOCS
        for nc_size in NC_SIZES
    }
    results = run_matrix(columns, refs=refs, seed=seed)
    data: Dict[Tuple[str, str], float] = {
        key: r.miss_ratio for key, r in results.items()
    }
    table = bench_grid(
        "Cluster miss ratio (% of shared refs); L1 assoc x victim-NC size",
        columns, data, col_width=9,
    )
    return ExperimentResult(
        "fig03",
        "Effects of the network victim cache on the cluster remote miss ratio",
        table,
        data,
        results,
    )
