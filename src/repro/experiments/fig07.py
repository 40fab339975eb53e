"""Figure 7: page-cache systems at several memory pressures.

Paper setup: three system families — no NC (`p*`), dirty-inclusion NC
(`ncp*`, i.e. R-NUMA), victim NC (`vbp*`) — each with page caches of 0,
1/9, 1/7, and 1/5 of the dataset (memory pressures 90/87.5/83.3%).  The
relocation overhead is stacked on top of the read+write miss-ratio bars.

Expected shape: the 16 KB NC (either kind) lowers both the miss ratio and
the relocation overhead over the no-NC system (it filters conflict misses
out of the relocation counters); the victim NC beats the inclusion NC,
most clearly for the irregular applications (Barnes, FMM, Radix,
Raytrace) and at the smaller page caches; FFT and Ocean show no
`ncp`-vs-`vbp` difference (their relocated sets are small and stable).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..analysis.metrics import stacked_miss_bars
from ..analysis.report import format_stacked_bars
from ..sim.runner import resolve_sweep_configs
from .common import BENCHES, ExperimentResult, run_matrix

#: columns: family x PC fraction; fraction 0 = no page cache
FAMILIES = ("p", "ncp", "vbp")
FRACTIONS = (0, 9, 7, 5)

_NO_PC = {"p": "base", "ncp": "nc", "vbp": "vb"}


def _label(family: str, frac: int) -> str:
    return f"{family}{frac}" if frac else _NO_PC[family]


def run(refs: Optional[int] = None, seed: int = 1) -> ExperimentResult:
    systems = [_label(f, frac) for f in FAMILIES for frac in FRACTIONS]
    results = run_matrix(resolve_sweep_configs(systems), refs=refs, seed=seed)
    stacks = {key: stacked_miss_bars(r) for key, r in results.items()}
    data: Dict[Tuple[str, str], float] = {
        key: r.miss_ratio + r.relocation_overhead_ratio
        for key, r in results.items()
    }
    table = format_stacked_bars(
        "Cluster miss ratios (%) + relocation overhead for page-cache "
        "systems at PC = 0, 1/9, 1/7, 1/5 of the dataset",
        list(BENCHES),
        systems,
        {(b, s): stacks[(s, b)] for s in systems for b in BENCHES},
        col_width=20,
    )
    return ExperimentResult(
        "fig07",
        "Comparison of cluster miss ratios for several systems with page caches",
        table,
        data,
        results,
    )
