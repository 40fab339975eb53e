"""Figure 9: remote read stalls, normalised to an infinite DRAM NC.

Paper setup: `base` (nothing), `NCS` (infinite SRAM NC), `NCD` (512 KB
DRAM NC), then the page-cache systems `ncp`/`vbp`/`vpp` at 512 KB (the
equal-DRAM comparison against `NCD`) and at 1/5 of the dataset size.  The
relocation-overhead share of each PC bar is reported alongside.

Expected shapes:

* `base` beats the infinite DRAM NC for FFT (necessary misses dominate;
  the DRAM NC only adds its tag-check overhead) and Cholesky/Ocean come
  close;
* regular, high-spatial-locality applications (Cholesky, FFT, LU, Ocean):
  512 KB-PC systems beat `NCD`;
* irregular, sparse-working-set applications (FMM, Radix, Raytrace):
  `NCD` beats the PC systems (page fragmentation + relocation churn);
  Barnes sits with the PC systems because its dataset is small;
* the victim-NC variants beat `ncp` (R-NUMA), most visibly at PC = 1/5.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..sim.runner import resolve_sweep_configs
from .common import BENCHES, ExperimentResult, bench_grid, run_matrix

REFERENCE = "dinf"
SYSTEMS = ("base", "ncs", "ncd", "ncp", "vbp", "vpp", "ncp5", "vbp5", "vpp5")


def run(refs: Optional[int] = None, seed: int = 1) -> ExperimentResult:
    results = run_matrix(resolve_sweep_configs((REFERENCE,) + SYSTEMS),
                         refs=refs, seed=seed)
    data: Dict[Tuple[str, str], float] = {}
    reloc_share: Dict[Tuple[str, str], float] = {}
    for bench in BENCHES:
        ref = results[(REFERENCE, bench)]
        for system in SYSTEMS:
            r = results[(system, bench)]
            data[(system, bench)] = r.normalized_stall(ref)
            denom = ref.remote_read_stall
            reloc_share[(system, bench)] = (
                r.relocation_overhead_cycles / denom if denom else 0.0
            )

    table = bench_grid(
        "Remote read stall, normalised to an infinite DRAM NC",
        SYSTEMS, data, col_width=8,
    )
    table += "\n\n" + bench_grid(
        "...of which page-relocation overhead (same normalisation)",
        SYSTEMS, reloc_share, col_width=8,
    )
    return ExperimentResult(
        "fig09",
        "Remote read stalls",
        table,
        data,
        results,
    )
