#!/usr/bin/env python3
"""Regenerate the committed ``counters_sha`` goldens of every workload.

    python3 perfbench/goldens.py

Every cell is simulated through the library (``repro.sweep``), not the
service, and digested with ``repro.obs.manifest.counters_digest``.  The
goldens pin the simulator's results: regenerate them only for a change
that is meant to alter simulated counts.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Sequence, Tuple

from common import GOLDEN_DIR, GOLDEN_SEEDS, require_checkout

Matrix = Tuple[Tuple[str, ...], Tuple[str, ...], int, int]  # systems, benchmarks, refs, seed


def digests(job: Matrix) -> Dict[str, str]:
    """``system/benchmark -> counters_sha`` for one matrix."""
    require_checkout()
    import repro
    from repro.obs.manifest import counters_digest

    systems, benchmarks, refs, seed = job
    results = repro.sweep(systems, benchmarks, refs=refs, seed=seed, jobs=1)
    return {f"{s}/{b}": counters_digest(r.counters) for (s, b), r in results.items()}


def run_all(pool: ProcessPoolExecutor, jobs: Sequence[Matrix]) -> List[Dict[str, str]]:
    return list(pool.map(digests, jobs, chunksize=8))


def write(name: str, payload: dict) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    path = GOLDEN_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def main() -> int:
    require_checkout()
    import matrix
    import service
    from repro import BENCHMARK_NAMES as benches

    seeds = range(1, GOLDEN_SEEDS + 1)
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
        per_bench = run_all(pool, [(matrix.SYSTEMS, (b,), matrix.REFS, s)
                                   for s in seeds for b in benches])
        by_seed: Dict[str, Dict[str, str]] = {}
        for i, cells in enumerate(per_bench):
            by_seed.setdefault(str(seeds[i // len(benches)]), {}).update(cells)
        write("paper_matrix", {"refs": matrix.REFS, "systems": list(matrix.SYSTEMS),
                               "benchmarks": list(benches), "seeds": by_seed})

        specs = {s: [service.hot_spec(j, s) for j in range(service.HOT_POOL)] for s in seeds}
        flat = [(tuple(sp["systems"]), tuple(sp["benchmarks"]), sp["refs"], sp["seed"])
                for s in seeds for sp in specs[s]]
        cells = iter(run_all(pool, flat))
        write("service_hot", {"seeds": {
            str(s): [{"spec": sp, "cells": next(cells)} for sp in specs[s]] for s in seeds}})

        cold = [service.cold_spec(i) for i in range(service.COLD_SPECS)]
        found = run_all(pool, [(tuple(sp["systems"]), tuple(sp["benchmarks"]),
                                sp["refs"], sp["seed"]) for sp in cold])
        write("service_cold", {"spec0": cold[0],
                               "digests": [next(iter(d.values())) for d in found]})
    return 0


if __name__ == "__main__":
    sys.exit(main())
