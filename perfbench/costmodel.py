"""Engine cost model: ``Simulator.run`` time as a linear function of the
event counts the run produced.

    t_ns ~ sum_k cost_ns[k] * n_k + cost_ns["per_cell"]

Fitted by non-negative least squares over the paper-matrix cells (a
negative per-event cost has no physical reading), with a leave-one-
benchmark-out error, and cross-checked against ``cProfile`` on single
cells.
"""

from __future__ import annotations

import cProfile
import pstats
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

#: model term -> the Counters fields it sums
EVENTS: Dict[str, Tuple[str, ...]] = {
    "l1_hit": ("l1_read_hits", "l1_write_hits"),
    "cluster_hit": ("read_cluster_hits", "write_cluster_hits"),
    "nc_hit": ("read_nc_hits", "write_nc_hits"),
    "pc_hit": ("read_pc_hits", "write_pc_hits"),
    "remote": ("read_remote", "write_remote"),
    "local_miss": ("local_read_misses", "local_write_misses"),
    "upgrade": ("remote_upgrades", "local_upgrades"),
    "relocation": ("pc_relocations",),
}
TERMS = tuple(EVENTS) + ("per_cell",)
#: terms that are not the per-reference miss path
HIT_PATH = ("l1_hit", "per_cell")

Cell = Tuple[str, Mapping[str, int], float]  # (benchmark, counters, run seconds)


def features(counters: Mapping[str, int]) -> np.ndarray:
    row = [sum(int(counters[f]) for f in fields) for fields in EVENTS.values()]
    return np.array(row + [1], dtype=float)


def nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lawson-Hanson non-negative least squares (columns pre-scaled)."""
    scale = np.linalg.norm(a, axis=0)
    scale[scale == 0] = 1.0
    a = a / scale
    n = a.shape[1]
    passive = np.zeros(n, dtype=bool)
    x = np.zeros(n)
    tol = 10 * np.finfo(float).eps * np.abs(a).sum(axis=0).max() * max(a.shape)
    for _ in range(3 * n):
        w = a.T @ (b - a @ x)
        if passive.all() or w[~passive].max() <= tol:
            break
        passive[np.argmax(np.where(passive, -np.inf, w))] = True
        while True:
            z = np.zeros(n)
            z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            if (z[passive] > tol).all():
                break
            neg = passive & (z <= tol)
            alpha = np.min(x[neg] / (x[neg] - z[neg]))
            x = x + alpha * (z - x)
            passive &= x > tol
        x = z
    return x / scale


def fit(cells: Sequence[Cell]) -> Dict[str, float]:
    """Per-term costs in nanoseconds."""
    a = np.array([features(c) for _, c, _ in cells])
    b = np.array([t * 1e9 for _, _, t in cells])
    return dict(zip(TERMS, (float(v) for v in nnls(a, b))))


def predict_ns(cost: Mapping[str, float], counters: Mapping[str, int]) -> float:
    return float(features(counters) @ np.array([cost[t] for t in TERMS]))


def leave_one_benchmark_out(cells: Sequence[Cell]) -> Tuple[float, Dict[str, float]]:
    """Mean absolute error (percent) predicting each benchmark's cells from a
    model fitted on the other benchmarks' cells; also per benchmark."""
    per_bench: Dict[str, List[float]] = {}
    for bench in sorted({b for b, _, _ in cells}):
        cost = fit([c for c in cells if c[0] != bench])
        for b, counters, t in cells:
            if b == bench:
                err = abs(predict_ns(cost, counters) - t * 1e9) / (t * 1e9)
                per_bench.setdefault(bench, []).append(100.0 * err)
    every = [e for errs in per_bench.values() for e in errs]
    return (float(np.mean(every)),
            {b: float(np.mean(errs)) for b, errs in per_bench.items()})


def miss_path_share(cost: Mapping[str, float], counters: Mapping[str, int]) -> float:
    """Fraction of the predicted run time outside the L1-hit and per-cell terms."""
    total = predict_ns(cost, counters)
    hit = sum(cost[t] * features(counters)[TERMS.index(t)] for t in HIT_PATH)
    return (total - hit) / total if total else 0.0


def profiled_miss_share(repro, system: str, benchmark: str, refs: int,
                        seed: int) -> Tuple[float, Dict[str, int]]:
    """``cProfile`` share of ``Simulator.run`` spent under ``_miss``/``_upgrade``."""
    trace = repro.get_trace(benchmark, refs=refs, seed=seed)
    machine = repro.build_machine(repro.system_config(system),
                                  dataset_bytes=trace.dataset_bytes)
    sim = repro.Simulator(machine)
    profile = cProfile.Profile()
    profile.enable()
    counters = sim.run(trace)
    profile.disable()
    cumulative: Dict[str, float] = {}
    for (path, _line, func), row in pstats.Stats(profile).stats.items():
        if path.endswith("simulator.py") and func in ("run", "_miss", "_upgrade"):
            cumulative[func] = cumulative.get(func, 0.0) + row[3]
    share = (cumulative.get("_miss", 0.0) + cumulative.get("_upgrade", 0.0)) / cumulative["run"]
    return share, counters.as_dict()
