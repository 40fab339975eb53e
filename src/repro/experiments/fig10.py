"""Figure 10: remote data traffic, normalised to an infinite NC.

Same systems as Fig. 9; traffic = read misses + write misses +
write-backs crossing the network, in blocks.

Expected shapes: page-cache systems match `NCD` for the regular
applications; for Radix — the high-traffic stress case — the victim NC
slashes write/write-back traffic relative to both `base` and `ncp`
(R-NUMA), and the page cache itself absorbs write-backs locally; Raytrace
improves less (read traffic dominates); Barnes/FMM moderately (write
traffic is low).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..sim.runner import resolve_sweep_configs
from .common import BENCHES, ExperimentResult, bench_grid, run_matrix
from .fig09 import REFERENCE, SYSTEMS


def run(refs: Optional[int] = None, seed: int = 1) -> ExperimentResult:
    results = run_matrix(resolve_sweep_configs((REFERENCE,) + SYSTEMS),
                         refs=refs, seed=seed)
    data: Dict[Tuple[str, str], float] = {}
    for bench in BENCHES:
        ref = results[(REFERENCE, bench)]
        for system in SYSTEMS:
            data[(system, bench)] = results[(system, bench)].normalized_traffic(ref)

    table = bench_grid(
        "Remote data traffic (blocks), normalised to an infinite NC",
        SYSTEMS, data, col_width=8,
    )
    return ExperimentResult(
        "fig10",
        "Remote data traffic",
        table,
        data,
        results,
    )
