"""Design-space search: rank everything, simulate only the frontier.

``repro explore`` enumerates (or samples) a cross product of NC/PC/
threshold/latency axes, scores every candidate with the fitted surrogate
in one vectorised pass — no :class:`~repro.params.SystemConfig` is ever
built during ranking, so a hundred thousand candidates score in well
under a second — and then simulates *only* the predicted Pareto frontier
of (hardware cost, predicted stall).  Each simulated frontier cell is
graded against its prediction with the same cell-by-cell machinery the
calibration uses, so every ``explore`` run ends with an honest
predicted-vs-simulated error report.

Cost model: SRAM-equivalent bytes.  The paper's core trade-off is that
DRAM capacity is roughly an order of magnitude cheaper than SRAM, so a
DRAM NC's bytes and a page cache's DRAM frames are charged
:data:`DRAM_BYTE_COST` (= 1/8) per byte while SRAM NC bytes are charged
1.0.  Page-cache bytes are averaged over the target benchmarks (their
fraction-based size depends on the dataset).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..params import DEFAULT_BLOCK_SIZE, DEFAULT_NC_SIZE, LatencyModel, SystemConfig
from ..sim.results import SimulationResult
from ..sim.runner import DEFAULT_SCALE
from ..system.builder import system_config
from .features import TraceFeatures, feature_matrix
from .fit import (
    DEFAULT_FIT_BENCHMARKS,
    CellValidation,
    error_summary,
    fit_surrogate,
    holdout_configs,
    trace_features_for,
    training_configs,
    validate_model,
)
from .model import SurrogateModel, SurrogateError

_KB = 1024

#: relative cost of a DRAM byte vs. an SRAM byte (Sec. 2: DRAM is about
#: an order of magnitude denser/cheaper; 1/8 keeps the arithmetic exact)
DRAM_BYTE_COST = 0.125

#: families with no network cache at all
_NO_NC_FAMILIES = ("base", "p")
#: families whose NC is the large DRAM one (sizes from ``dram_nc_sizes``)
_DRAM_FAMILIES = ("ncd",)
#: families with a page cache (take the fraction/threshold axes)
_PC_FAMILIES = ("p", "ncp", "vbp", "vpp", "vxp")

#: per-family configuration traits: (has_nc, victim, page_indexed, dram).
#: Mirrors repro.system.builder._NC_FLAVOURS; pinned against
#: config_scalars() in tests/surrogate/test_features.py.
_FAMILY_TRAITS: Dict[str, Tuple[float, float, float, float]] = {
    "base": (0.0, 0.0, 0.0, 0.0),
    "p": (0.0, 0.0, 0.0, 0.0),
    "nc": (1.0, 0.0, 0.0, 0.0),
    "ncp": (1.0, 0.0, 0.0, 0.0),
    "vb": (1.0, 1.0, 0.0, 0.0),
    "vbp": (1.0, 1.0, 0.0, 0.0),
    "vp": (1.0, 1.0, 1.0, 0.0),
    "vpp": (1.0, 1.0, 1.0, 0.0),
    "vxp": (1.0, 1.0, 1.0, 0.0),
    "ncd": (1.0, 0.0, 0.0, 1.0),
}


class Candidate(NamedTuple):
    """One point of the design space.

    Zero means "axis not applicable": ``nc_size == 0`` for NC-less
    families, ``pc_denom == threshold == 0`` for PC-less ones.
    """

    family: str
    nc_size: int
    pc_denom: int
    threshold: int
    remote_latency: int

    @property
    def label(self) -> str:
        parts = [self.family + (str(self.pc_denom) if self.pc_denom else "")]
        if self.nc_size:
            parts.append(f"nc{self.nc_size // _KB}k")
        if self.threshold:
            parts.append(f"t{self.threshold}")
        if self.remote_latency != 30:
            parts.append(f"r{self.remote_latency}")
        return "/".join(parts)

    def to_config(self) -> SystemConfig:
        """Materialise the real :class:`SystemConfig` (frontier cells only)."""
        name = self.family + (str(self.pc_denom) if self.pc_denom else "")
        kwargs: Dict[str, object] = {
            "latency": LatencyModel(remote_access=self.remote_latency),
        }
        if self.nc_size:
            kwargs["nc_size"] = self.nc_size
        if self.threshold:
            kwargs["initial_threshold"] = self.threshold
        return system_config(name, **kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class DesignSpace:
    """The cross product of configuration axes ``repro explore`` searches.

    Infinite-NC systems (``ncs``/``dinf``) are deliberately absent: their
    coverage feature saturates and the surrogate has nothing to
    interpolate — simulate them directly if you need the ideal bound.
    """

    families: Tuple[str, ...] = ("base", "nc", "vb", "vp", "ncd", "p", "ncp", "vbp", "vpp", "vxp")
    nc_sizes: Tuple[int, ...] = (4 * _KB, 8 * _KB, 16 * _KB, 32 * _KB, 64 * _KB, 128 * _KB)
    dram_nc_sizes: Tuple[int, ...] = (256 * _KB, 512 * _KB, 1024 * _KB)
    pc_denoms: Tuple[int, ...] = (9, 7, 5, 3)
    thresholds: Tuple[int, ...] = (2, 4, 8, 16)
    remote_latencies: Tuple[int, ...] = (30,)

    def __post_init__(self) -> None:
        unknown = [f for f in self.families if f not in _FAMILY_TRAITS]
        if unknown:
            raise ConfigurationError(
                f"unknown design-space families: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(_FAMILY_TRAITS))})"
            )

    def _axes(self, family: str) -> Tuple[Sequence[int], ...]:
        if family in _NO_NC_FAMILIES:
            nc_sizes: Sequence[int] = (0,)
        elif family in _DRAM_FAMILIES:
            nc_sizes = self.dram_nc_sizes
        else:
            nc_sizes = self.nc_sizes
        if family in _PC_FAMILIES:
            denoms: Sequence[int] = self.pc_denoms
            thresholds: Sequence[int] = self.thresholds
        else:
            denoms = (0,)
            thresholds = (0,)
        return nc_sizes, denoms, thresholds, self.remote_latencies

    @property
    def size(self) -> int:
        """Number of candidates, computed without enumerating them."""
        total = 0
        for family in self.families:
            n = 1
            for axis in self._axes(family):
                n *= len(axis)
            total += n
        return total

    def candidates(self) -> List[Candidate]:
        """Enumerate the full space, family-major, axes in declared order."""
        out: List[Candidate] = []
        for family in self.families:
            nc_sizes, denoms, thresholds, latencies = self._axes(family)
            for nc, denom, thr, rl in product(nc_sizes, denoms, thresholds, latencies):
                out.append(Candidate(family, nc, denom, thr, rl))
        return out

    def sample(self, n: int, seed: int = 1) -> List[Candidate]:
        """``n`` distinct candidates, decoded arithmetically by index.

        Deterministic for a given seed, and never materialises the full
        space — sampling a million-point space costs O(n).
        """
        total = self.size
        if n >= total:
            return self.candidates()
        rng = np.random.default_rng(seed)
        picks = np.sort(rng.choice(total, size=n, replace=False))
        out = []
        base = 0
        fam_iter = iter(self.families)
        family = next(fam_iter)
        axes = self._axes(family)
        fam_size = int(np.prod([len(a) for a in axes]))
        for idx in picks.tolist():
            while idx >= base + fam_size:
                base += fam_size
                family = next(fam_iter)
                axes = self._axes(family)
                fam_size = int(np.prod([len(a) for a in axes]))
            local = idx - base
            coords = np.unravel_index(local, [len(a) for a in axes])
            nc, denom, thr, rl = (
                axes[i][int(c)] for i, c in enumerate(coords)
            )
            out.append(Candidate(family, nc, denom, thr, rl))
        return out


# ---------------------------------------------------------------------------
# vectorised ranking
# ---------------------------------------------------------------------------


def _candidate_arrays(cands: Sequence[Candidate]) -> Dict[str, np.ndarray]:
    """Parallel float64 arrays of every candidate's configuration scalars."""
    traits = np.array([_FAMILY_TRAITS[c.family] for c in cands], dtype=np.float64)
    nc_size = np.array([c.nc_size for c in cands], dtype=np.float64)
    # NC families without an explicit size axis keep the default geometry
    has_nc = traits[:, 0]
    nc_size = np.where((has_nc > 0) & (nc_size == 0), float(DEFAULT_NC_SIZE), nc_size)
    denom = np.array([c.pc_denom for c in cands], dtype=np.float64)
    return {
        "has_nc": has_nc,
        "nc_victim": traits[:, 1],
        "nc_page_indexed": traits[:, 2],
        "nc_dram": traits[:, 3],
        "nc_blocks": nc_size / float(DEFAULT_BLOCK_SIZE),
        "pc_enabled": (denom > 0).astype(np.float64),
        "denom_inv": np.where(denom > 0, 1.0 / np.maximum(denom, 1.0), 0.0),
        "threshold": np.array([c.threshold for c in cands], dtype=np.float64),
        "remote_latency": np.array(
            [c.remote_latency for c in cands], dtype=np.float64
        ),
    }


def _latency_matrix(arrays: Mapping[str, np.ndarray]) -> np.ndarray:
    """(N, 5) Table 1 latencies per candidate, in STALL_COMPONENTS order."""
    lat = LatencyModel()
    dram = arrays["nc_dram"]
    rl = arrays["remote_latency"]
    n = len(rl)
    out = np.empty((n, 5), dtype=np.float64)
    out[:, 0] = lat.cache_to_cache
    out[:, 1] = np.where(dram > 0, lat.dram_access + lat.tag_check, lat.cache_to_cache)
    out[:, 2] = lat.pc_hit
    out[:, 3] = np.where(dram > 0, rl + lat.tag_check, rl)
    out[:, 4] = lat.page_relocation
    return out


def candidate_costs(
    arrays: Mapping[str, np.ndarray], tfs: Mapping[str, TraceFeatures]
) -> np.ndarray:
    """SRAM-equivalent hardware cost per candidate, in bytes."""
    dram = arrays["nc_dram"]
    nc_bytes = arrays["nc_blocks"] * float(DEFAULT_BLOCK_SIZE)
    mean_dataset = float(
        np.mean([tf.dataset_bytes for tf in tfs.values()])
    ) if tfs else 0.0
    pc_bytes = arrays["pc_enabled"] * arrays["denom_inv"] * mean_dataset
    return (
        nc_bytes * np.where(dram > 0, DRAM_BYTE_COST, 1.0)
        + pc_bytes * DRAM_BYTE_COST
    )


def rank_candidates(
    model: SurrogateModel,
    cands: Sequence[Candidate],
    tfs: Mapping[str, TraceFeatures],
) -> Tuple[np.ndarray, np.ndarray]:
    """(predicted stall cycles/ref, cost bytes) for every candidate.

    The stall is the mean over the target benchmarks of the predicted
    Eq. 1 total; one matrix multiply per benchmark.
    """
    if not tfs:
        raise SurrogateError("rank_candidates needs at least one benchmark")
    arrays = _candidate_arrays(cands)
    lat = _latency_matrix(arrays)
    stall = np.zeros(len(cands), dtype=np.float64)
    for tf in tfs.values():
        x = feature_matrix(
            tf,
            has_nc=arrays["has_nc"],
            nc_victim=arrays["nc_victim"],
            nc_page_indexed=arrays["nc_page_indexed"],
            nc_dram=arrays["nc_dram"],
            nc_blocks=arrays["nc_blocks"],
            pc_enabled=arrays["pc_enabled"],
            pc_bytes=arrays["pc_enabled"] * arrays["denom_inv"] * tf.dataset_bytes,
            threshold=arrays["threshold"],
        )
        stall += model.predict_cycles_per_ref(x, lat).sum(axis=1)
    stall /= len(tfs)
    return stall, candidate_costs(arrays, tfs)


def pareto_frontier(cost: np.ndarray, stall: np.ndarray) -> List[int]:
    """Indices of the non-dominated (cost, stall) points, cost-ascending.

    A candidate survives iff no other candidate is at most as expensive
    *and* strictly faster.  Ties resolve deterministically: the lowest
    index among equals wins (lexsort is stable).
    """
    order = np.lexsort((np.arange(len(cost)), stall, cost))
    frontier: List[int] = []
    best = np.inf
    for i in order.tolist():
        if stall[i] < best:
            frontier.append(i)
            best = stall[i]
    return frontier


def select_frontier(frontier: Sequence[int], max_cells: int) -> List[int]:
    """At most ``max_cells`` frontier points, evenly spaced along it.

    The endpoints (cheapest and fastest) always survive, so the report
    spans the whole trade-off curve.
    """
    if max_cells <= 0 or len(frontier) <= max_cells:
        return list(frontier)
    picks = np.linspace(0, len(frontier) - 1, max_cells).round().astype(int)
    return [frontier[i] for i in sorted(set(picks.tolist()))]


# ---------------------------------------------------------------------------
# the end-to-end search
# ---------------------------------------------------------------------------


@dataclass
class FrontierEntry:
    """One simulated Pareto-frontier cell in the explore report."""

    label: str
    candidate: Candidate
    cost_bytes: float
    predicted_stall: float  #: mean predicted cycles/ref over the benchmarks
    simulated_stall: Optional[float] = None  #: mean measured cycles/ref

    @property
    def error_pct(self) -> Optional[float]:
        if self.simulated_stall is None or self.simulated_stall == 0.0:
            return None
        return (self.predicted_stall - self.simulated_stall) / self.simulated_stall * 100.0


@dataclass
class ExploreOutcome:
    """Everything one ``repro explore`` run produced."""

    benchmarks: List[str]
    refs: int
    seed: int
    scale: float
    space_size: int
    n_ranked: int
    sampled: bool
    rank_seconds: float
    model: SurrogateModel
    frontier: List[FrontierEntry] = field(default_factory=list)
    frontier_total: int = 0  #: full frontier size before selection
    validations: List[CellValidation] = field(default_factory=list)
    summary: Dict[str, object] = field(default_factory=dict)
    train_cells: int = 0
    sim_wall_s: float = 0.0
    cache: Optional[Dict[str, object]] = None

    @property
    def candidates_per_sec(self) -> float:
        if self.rank_seconds <= 0.0:
            return 0.0
        return self.n_ranked / self.rank_seconds


def calibrate(
    benchmarks: Sequence[str] = DEFAULT_FIT_BENCHMARKS,
    refs: int = 40_000,
    seed: int = 1,
    scale: float = DEFAULT_SCALE,
    jobs: int = 1,
    result_store=None,
    train_configs: Optional[Mapping[str, SystemConfig]] = None,
    recovery=None,
) -> Tuple[SurrogateModel, Dict[Tuple[str, str], SimulationResult], Dict[str, TraceFeatures]]:
    """Fit a fresh surrogate on a real training sweep.

    Returns ``(model, training results, per-benchmark trace features)``.
    The sweep reuses all the standard machinery — parallel workers,
    retries, the optional content-addressed result store — so a repeated
    calibration is mostly cache hits.
    """
    from ..sim.parallel import run_parallel_sweep

    configs = OrderedDict(train_configs) if train_configs else training_configs()
    results = run_parallel_sweep(
        configs, list(benchmarks), refs=refs, seed=seed, scale=scale,
        jobs=jobs, result_store=result_store, recovery=recovery,
    )
    tfs = trace_features_for(benchmarks, refs=refs, seed=seed, scale=scale)
    model = fit_surrogate(
        results, tfs,
        meta={"refs": refs, "seed": seed, "scale": scale},
    )
    return model, results, tfs


def explore(
    space: DesignSpace,
    benchmarks: Sequence[str] = DEFAULT_FIT_BENCHMARKS,
    refs: int = 40_000,
    seed: int = 1,
    scale: float = DEFAULT_SCALE,
    jobs: int = 1,
    sample: Optional[int] = None,
    frontier_max: int = 12,
    simulate_frontier: bool = True,
    result_store=None,
    model: Optional[SurrogateModel] = None,
    train_configs: Optional[Mapping[str, SystemConfig]] = None,
) -> ExploreOutcome:
    """Search ``space``: calibrate, rank everything, simulate the frontier.

    With ``model`` given the calibration sweep is skipped.  ``sample``
    ranks a deterministic random subset instead of the full cross
    product.  ``simulate_frontier=False`` stops after ranking (pure
    prediction, no verification — the report says so).
    """
    train_cells = 0
    if model is None:
        model, train_results, tfs = calibrate(
            benchmarks, refs=refs, seed=seed, scale=scale, jobs=jobs,
            result_store=result_store, train_configs=train_configs,
        )
        train_cells = len(train_results)
    else:
        tfs = trace_features_for(benchmarks, refs=refs, seed=seed, scale=scale)

    start = time.perf_counter()
    if sample is not None and sample < space.size:
        cands = space.sample(sample, seed=seed)
        sampled = True
    else:
        cands = space.candidates()
        sampled = False
    stall, cost = rank_candidates(model, cands, tfs)
    rank_seconds = time.perf_counter() - start

    frontier_idx = pareto_frontier(cost, stall)
    chosen = select_frontier(frontier_idx, frontier_max)
    entries = [
        FrontierEntry(
            label=cands[i].label,
            candidate=cands[i],
            cost_bytes=float(cost[i]),
            predicted_stall=float(stall[i]),
        )
        for i in chosen
    ]

    outcome = ExploreOutcome(
        benchmarks=list(benchmarks),
        refs=refs,
        seed=seed,
        scale=scale,
        space_size=space.size,
        n_ranked=len(cands),
        sampled=sampled,
        rank_seconds=rank_seconds,
        model=model,
        frontier=entries,
        frontier_total=len(frontier_idx),
        train_cells=train_cells,
    )
    if not simulate_frontier or not entries:
        outcome.summary = error_summary([])
        return outcome

    from ..sim.parallel import RecoveryLog, cache_summary, run_parallel_sweep

    configs: "OrderedDict[str, SystemConfig]" = OrderedDict(
        (e.label, e.candidate.to_config()) for e in entries
    )
    recovery = RecoveryLog()
    sim_start = time.perf_counter()
    results = run_parallel_sweep(
        configs, list(benchmarks), refs=refs, seed=seed, scale=scale,
        jobs=jobs, result_store=result_store, recovery=recovery,
    )
    outcome.sim_wall_s = time.perf_counter() - sim_start
    if result_store is not None:
        outcome.cache = cache_summary(results, recovery)

    outcome.validations = validate_model(model, results, tfs)
    outcome.summary = error_summary(outcome.validations)
    by_label: Dict[str, List[float]] = {}
    for (label, bench), r in results.items():
        n = max(1, r.counters.refs)
        by_label.setdefault(label, []).append(r.remote_read_stall / n)
    for e in entries:
        measured = by_label.get(e.label)
        if measured:
            e.simulated_stall = float(np.mean(measured))
    outcome.summary["rank_correlation"] = frontier_rank_correlation(entries)
    return outcome


# ---------------------------------------------------------------------------
# rendering (text via analysis.report/analysis.charts, JSON for the gate)
# ---------------------------------------------------------------------------

#: component key -> short column label, Eq. 1 order (matches
#: analysis.report._STALL_COLUMNS)
_COMPONENT_LABELS = (
    ("cluster_hit", "c2c"),
    ("nc_hit", "nc_hit"),
    ("pc_hit", "pc_hit"),
    ("remote_miss", "remote"),
    ("relocation", "reloc"),
)


def explore_report(outcome: ExploreOutcome) -> str:
    """The human-readable ``repro explore`` report."""
    from ..analysis.charts import bar_chart
    from ..analysis.report import format_comparison_grid

    lines = [
        f"design-space exploration  ({outcome.n_ranked:,} of "
        f"{outcome.space_size:,} candidates ranked"
        + (", sampled" if outcome.sampled else "")
        + f" in {outcome.rank_seconds:.3f}s = "
        f"{outcome.candidates_per_sec:,.0f}/s)",
        f"benchmarks: {', '.join(outcome.benchmarks)}   "
        f"refs={outcome.refs} seed={outcome.seed}",
    ]
    if outcome.train_cells:
        lines.append(
            f"surrogate calibrated on {outcome.train_cells} simulated cells "
            f"(model {outcome.model.digest()[:12]})"
        )
    else:
        lines.append(f"surrogate model {outcome.model.digest()[:12]} (pre-fitted)")
    lines.append("")

    def frontier_cell(label: str, col: str) -> Optional[str]:
        e = next(x for x in outcome.frontier if x.label == label)
        if col == "cost(KB)":
            return f"{e.cost_bytes / 1024.0:,.1f}"
        if col == "predicted":
            return f"{e.predicted_stall:.3f}"
        if col == "simulated":
            return None if e.simulated_stall is None else f"{e.simulated_stall:.3f}"
        if col == "err%":
            return None if e.error_pct is None else f"{e.error_pct:+.1f}"
        return None

    n_shown = len(outcome.frontier)
    title = (
        f"predicted Pareto frontier (cost vs. mean stall/ref; "
        f"{n_shown} of {outcome.frontier_total} points"
        + (" simulated)" if any(e.simulated_stall is not None
                                for e in outcome.frontier) else ", NOT simulated)")
    )
    lines.append(format_comparison_grid(
        title, [e.label for e in outcome.frontier],
        ["cost(KB)", "predicted", "simulated", "err%"], frontier_cell,
        col_width=12,
    ))

    simulated = [e for e in outcome.frontier if e.simulated_stall is not None]
    if simulated:
        values: Dict[Tuple[str, str], float] = {}
        for e in simulated:
            values[("predicted", e.label)] = e.predicted_stall
            values[("simulated", e.label)] = e.simulated_stall  # type: ignore[assignment]
        lines.append("")
        lines.append(bar_chart(
            "frontier stall cycles/ref, predicted vs. simulated",
            [e.label for e in simulated], ["predicted", "simulated"], values,
        ))

    if outcome.validations:
        lines.append("")
        lines.append(validation_report(outcome.validations))

    if outcome.summary:
        s = outcome.summary
        lines.append("")
        lines.append(
            f"validation: {s.get('cells', 0)} cells, median |total| error "
            f"{s.get('median_abs_total_error_pct', 0.0):.2f}%  "
            f"(max {s.get('max_abs_total_error_pct', 0.0):.2f}%)"
        )
        rho = s.get("rank_correlation")
        if rho is not None:
            lines.append(
                f"frontier rank correlation (predicted vs. simulated "
                f"ordering): {rho:+.2f}"
            )
    if outcome.cache:
        lines.append(f"result store: {outcome.cache}")
    return "\n".join(lines)


def validation_report(cells: Sequence[CellValidation]) -> str:
    """Per-benchmark predicted-vs-simulated grids, one row per system."""
    from ..analysis.report import format_prediction_grid

    by_bench: Dict[str, List[CellValidation]] = {}
    for c in cells:
        by_bench.setdefault(c.benchmark, []).append(c)
    cols = [label for _k, label in _COMPONENT_LABELS] + ["total"]
    grids = []
    for bench in sorted(by_bench):
        group = by_bench[bench]
        predicted: Dict[Tuple[str, str], float] = {}
        actual: Dict[Tuple[str, str], float] = {}
        for c in group:
            for key, label in _COMPONENT_LABELS:
                predicted[(c.system, label)] = c.predicted[key]
                actual[(c.system, label)] = c.actual[key]
            predicted[(c.system, "total")] = c.predicted_total
            actual[(c.system, "total")] = c.actual_total
        grids.append(format_prediction_grid(
            f"per-component surrogate error — {bench}",
            [c.system for c in group], cols, predicted, actual,
        ))
    return "\n\n".join(grids)


def explore_json(outcome: ExploreOutcome) -> Dict[str, object]:
    """Machine-readable ``repro explore`` outcome (``--json``).

    Mirrors the ``repro perf --json`` convention: a flat ``kind``-tagged
    document whose numbers CI gates consume directly.
    """
    return {
        "kind": "explore",
        "benchmarks": outcome.benchmarks,
        "refs": outcome.refs,
        "seed": outcome.seed,
        "scale": outcome.scale,
        "space_size": outcome.space_size,
        "n_ranked": outcome.n_ranked,
        "sampled": outcome.sampled,
        "rank_seconds": outcome.rank_seconds,
        "candidates_per_sec": outcome.candidates_per_sec,
        "frontier_total": outcome.frontier_total,
        "frontier": [
            {
                "label": e.label,
                "family": e.candidate.family,
                "nc_size": e.candidate.nc_size,
                "pc_denom": e.candidate.pc_denom,
                "threshold": e.candidate.threshold,
                "remote_latency": e.candidate.remote_latency,
                "cost_bytes": e.cost_bytes,
                "predicted_stall_per_ref": e.predicted_stall,
                "simulated_stall_per_ref": e.simulated_stall,
                "error_pct": e.error_pct,
            }
            for e in outcome.frontier
        ],
        "validation": outcome.summary,
        "train_cells": outcome.train_cells,
        "sim_wall_s": outcome.sim_wall_s,
        "cache": outcome.cache,
        "model": {
            "digest": outcome.model.digest(),
            "n_cells": outcome.model.meta.get("n_cells"),
            "in_sample_rmse": outcome.model.meta.get("in_sample_rmse"),
        },
    }


def check_surrogate(
    baseline: Mapping[str, object],
    space: DesignSpace,
    benchmarks: Sequence[str] = DEFAULT_FIT_BENCHMARKS,
    refs: int = 40_000,
    seed: int = 1,
    scale: float = DEFAULT_SCALE,
    jobs: int = 1,
    sample: Optional[int] = None,
    result_store=None,
) -> Tuple[Dict[str, object], List[CellValidation], List[str]]:
    """The CI accuracy gate behind ``repro explore --check``.

    Calibrates on the training matrix, validates on the **held-out**
    matrix (:func:`~repro.surrogate.fit.holdout_configs` — configurations
    the fit never saw), ranks the design space for the throughput floor,
    and compares every metric against the committed baseline
    (``benchmarks/baseline_surrogate.json``).  Returns ``(summary doc,
    holdout cells, failure strings)`` — empty failures means the gate is
    green.
    """
    from ..sim.parallel import run_parallel_sweep

    model, _train, tfs = calibrate(
        benchmarks, refs=refs, seed=seed, scale=scale, jobs=jobs,
        result_store=result_store,
    )
    holdout = run_parallel_sweep(
        holdout_configs(), list(benchmarks), refs=refs, seed=seed,
        scale=scale, jobs=jobs, result_store=result_store,
    )
    cells = validate_model(model, holdout, tfs)
    summary = error_summary(cells)

    start = time.perf_counter()
    cands = space.sample(sample, seed=seed) if sample else space.candidates()
    rank_candidates(model, cands, tfs)
    rank_seconds = time.perf_counter() - start
    cand_per_sec = len(cands) / rank_seconds if rank_seconds > 0 else 0.0

    failures: List[str] = []
    limits = baseline.get("max_median_abs_error_cycles_per_ref", {})
    measured = summary["median_abs_error_cycles_per_ref"]
    for comp, limit in limits.items():  # type: ignore[union-attr]
        got = measured.get(comp)  # type: ignore[union-attr]
        if got is None:
            failures.append(f"baseline component {comp!r} missing from summary")
        elif got > float(limit):
            failures.append(
                f"median |{comp}| error {got:.5f} cycles/ref exceeds "
                f"baseline limit {float(limit):.5f}"
            )
    limit = baseline.get("max_median_abs_total_error_pct")
    if limit is not None and summary["median_abs_total_error_pct"] > float(limit):
        failures.append(
            f"median |total| error {summary['median_abs_total_error_pct']:.2f}% "
            f"exceeds baseline limit {float(limit):.2f}%"
        )
    floor = baseline.get("min_candidates_ranked")
    if floor is not None and len(cands) < int(floor):
        failures.append(
            f"ranked only {len(cands)} candidates; baseline requires "
            f">= {int(floor)} (widen the axes)"
        )
    floor = baseline.get("min_candidates_per_sec")
    if floor is not None and cand_per_sec < float(floor):
        failures.append(
            f"ranking throughput {cand_per_sec:,.0f} candidates/s below "
            f"baseline floor {float(floor):,.0f}"
        )

    doc: Dict[str, object] = {
        "kind": "surrogate-check",
        "benchmarks": list(benchmarks),
        "refs": refs,
        "seed": seed,
        "scale": scale,
        "holdout_systems": sorted({c.system for c in cells}),
        "validation": summary,
        "n_candidates_ranked": len(cands),
        "rank_seconds": rank_seconds,
        "candidates_per_sec": cand_per_sec,
        "model": {
            "digest": model.digest(),
            "n_cells": model.meta.get("n_cells"),
            "in_sample_rmse": model.meta.get("in_sample_rmse"),
        },
        "baseline": dict(baseline),
        "failures": failures,
        "passed": not failures,
    }
    return doc, cells, failures


def frontier_rank_correlation(entries: Sequence[FrontierEntry]) -> Optional[float]:
    """Spearman rank correlation of predicted vs. simulated frontier stall.

    The number that says whether the surrogate *orders* designs
    correctly, which matters more than absolute error for a search tool.
    ``None`` with fewer than three simulated points or zero variance.
    """
    pts = [
        (e.predicted_stall, e.simulated_stall)
        for e in entries
        if e.simulated_stall is not None
    ]
    if len(pts) < 3:
        return None
    pred = np.array([p for p, _ in pts])
    sim = np.array([s for _, s in pts])
    pr = np.argsort(np.argsort(pred)).astype(np.float64)
    sr = np.argsort(np.argsort(sim)).astype(np.float64)
    if np.ptp(pr) == 0.0 or np.ptp(sr) == 0.0:
        return None
    pc = np.corrcoef(pr, sr)[0, 1]
    return float(pc) if np.isfinite(pc) else None
