"""Plain-text tables in the shape of the paper's figures.

Every experiment driver renders its output through these formatters, so a
bench run prints the same rows/series the paper reports (benchmarks down,
systems/configurations across).  ``repro perf`` renders a sweep's engine
throughput through :func:`throughput_report` and :func:`perf_json`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..sim.results import SimulationResult


def format_grid(
    title: str,
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    cell: Callable[[str, str], Optional[float]],
    fmt: str = "{:.2f}",
    col_width: int = 9,
) -> str:
    """A labelled 2-D grid: rows x columns with a title line."""
    lines = [title]
    header = f"{'':12s}" + "".join(f"{c:>{col_width}s}" for c in col_labels)
    lines.append(header)
    lines.append("-" * len(header))
    for r in row_labels:
        cells = []
        for c in col_labels:
            v = cell(r, c)
            cells.append("-".rjust(col_width) if v is None else fmt.format(v).rjust(col_width))
        lines.append(f"{r:12s}" + "".join(cells))
    return "\n".join(lines)


def format_comparison_grid(
    title: str,
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    cell: Callable[[str, str], Optional[str]],
    col_width: int = 17,
) -> str:
    """A grid of pre-formatted string cells (fidelity comparisons).

    Like :func:`format_grid` but the cell callback returns display text
    (e.g. ``"4.11 (+2.3%)"``) rather than a float; ``None`` renders ``-``.
    The title may span several lines.
    """
    lines = list(title.splitlines())
    header = f"{'':12s}" + "".join(f"{c:>{col_width}s}" for c in col_labels)
    lines.append(header)
    lines.append("-" * len(header))
    for r in row_labels:
        cells = []
        for c in col_labels:
            txt = cell(r, c)
            cells.append(("-" if txt is None else txt).rjust(col_width))
        lines.append(f"{r:12s}" + "".join(cells))
    return "\n".join(lines)


def format_stacked_bars(
    title: str,
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    stacks: Mapping[Tuple[str, str], Dict[str, float]],
    col_width: int = 18,
) -> str:
    """Miss-ratio 'bars': read+write(+relocation) per cell, like Figs. 3-8.

    Each cell renders ``read/write`` or ``read/write+reloc`` percentages.
    """
    lines = [title]
    header = f"{'':12s}" + "".join(f"{c:>{col_width}s}" for c in col_labels)
    lines.append(header)
    lines.append("-" * len(header))
    for r in row_labels:
        cells = []
        for c in col_labels:
            s = stacks.get((r, c)) or stacks.get((c, r))
            if s is None:
                cells.append("-".rjust(col_width))
                continue
            txt = f"{s['read']:.2f}r+{s['write']:.2f}w"
            if s.get("relocation"):
                txt += f"+{s['relocation']:.2f}p"
            cells.append(txt.rjust(col_width))
        lines.append(f"{r:12s}" + "".join(cells))
    lines.append(
        "(r = read miss %, w = write miss %, p = relocation overhead in "
        "equivalent miss %)"
    )
    return "\n".join(lines)


def format_prediction_grid(
    title: str,
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    predicted: Mapping[Tuple[str, str], float],
    actual: Mapping[Tuple[str, str], float],
    fmt: str = "{:.3f}",
    col_width: int = 22,
) -> str:
    """Predicted-vs-measured cells: ``pred/meas (signed err%)``.

    The surrogate error report renders through this: each cell shows the
    model's prediction, the simulated truth, and the signed relative
    error — ``(err%)`` is omitted when the truth is zero.  ``None``/
    missing cells render ``-``.
    """

    def cell(r: str, c: str) -> Optional[str]:
        p = predicted.get((r, c))
        a = actual.get((r, c))
        if p is None or a is None:
            return None
        txt = f"{fmt.format(p)}/{fmt.format(a)}"
        if a != 0.0:
            txt += f" ({(p - a) / a * 100.0:+.1f}%)"
        return txt

    grid = format_comparison_grid(title, row_labels, col_labels, cell,
                                  col_width=col_width)
    return grid + "\n(predicted/simulated stall cycles per reference, signed error in parens)"


#: Eq. 1 component order and display labels for the stall breakdown table
_STALL_COLUMNS = (
    ("cluster_hit", "c2c"),
    ("nc_hit", "nc_hit"),
    ("pc_hit", "pc_hit"),
    ("remote_miss", "remote"),
    ("relocation", "reloc"),
)


def format_stall_breakdown(
    title: str,
    row_labels: Sequence[str],
    breakdowns: Mapping[str, Dict[str, float]],
    col_width: int = 14,
) -> str:
    """Per-system Eq. 1 stall attribution table (cycles and % of total).

    ``breakdowns`` maps a row label (usually a system) to component ->
    cycles — the shape the stall profiler and
    :func:`repro.sim.latency.stall_components` both produce.  Components
    render as absolute cycles with their share of the row's total, so a
    reader sees at a glance *where* each system's stall goes.
    """
    lines = [title]
    header = f"{'':12s}" + "".join(
        f"{label:>{col_width}s}" for _key, label in _STALL_COLUMNS
    ) + f"{'total':>{col_width}s}"
    lines.append(header)
    lines.append("-" * len(header))
    for r in row_labels:
        parts = breakdowns.get(r)
        if parts is None:
            lines.append(f"{r:12s}" + "-".rjust(col_width) * (len(_STALL_COLUMNS) + 1))
            continue
        total = sum(parts.values())
        cells = []
        for key, _label in _STALL_COLUMNS:
            v = parts.get(key, 0.0)
            pct = 100.0 * v / total if total else 0.0
            cells.append(f"{v:,.0f}({pct:.0f}%)".rjust(col_width))
        cells.append(f"{total:,.0f}".rjust(col_width))
        lines.append(f"{r:12s}" + "".join(cells))
    lines.append("(Eq. 1 cycles per component, share of the row total in parens)")
    return "\n".join(lines)


def per_benchmark_throughput(
    results: Mapping[Tuple[str, str], SimulationResult],
) -> "OrderedDict[str, Dict[str, float]]":
    """Aggregate engine throughput per benchmark, in results order.

    Each entry: ``{"refs": total simulated refs, "elapsed_s": engine
    seconds, "refs_per_sec": aggregate rate, "cells": cell count}``.
    """
    out: "OrderedDict[str, Dict[str, float]]" = OrderedDict()
    for (_system, bench), r in results.items():
        agg = out.setdefault(
            bench, {"refs": 0.0, "elapsed_s": 0.0, "refs_per_sec": 0.0, "cells": 0.0}
        )
        agg["refs"] += r.refs
        agg["elapsed_s"] += r.elapsed_s
        agg["cells"] += 1
    for agg in out.values():
        agg["refs_per_sec"] = (
            agg["refs"] / agg["elapsed_s"] if agg["elapsed_s"] > 0 else 0.0
        )
    return out


def throughput_report(
    results: Mapping[Tuple[str, str], SimulationResult],
    wall_s: Optional[float] = None,
    jobs: int = 1,
) -> str:
    """Human-readable engine throughput report for one sweep.

    Per-cell simulated references, engine seconds, and refs/sec; a
    per-benchmark aggregate block; and the sweep total — the number CI
    tracks for hot-path regressions.
    """
    lines = ["engine throughput report", "=" * 24]
    lines.append(f"{'system':<8} {'benchmark':<10} {'refs':>9} {'secs':>8} {'refs/s':>11}")
    total_refs = 0
    total_elapsed = 0.0
    for (system, bench), r in results.items():
        total_refs += r.refs
        total_elapsed += r.elapsed_s
        lines.append(
            f"{system:<8} {bench:<10} {r.refs:>9,} {r.elapsed_s:>8.3f} "
            f"{r.refs_per_sec:>11,.0f}"
        )
    per_bench = per_benchmark_throughput(results)
    if len(per_bench) > 1 or any(a["cells"] > 1 for a in per_bench.values()):
        lines.append("-" * 50)
        lines.append("per benchmark:")
        for bench, agg in per_bench.items():
            lines.append(
                f"{'':<8} {bench:<10} {int(agg['refs']):>9,} "
                f"{agg['elapsed_s']:>8.3f} {agg['refs_per_sec']:>11,.0f}"
                f"  ({int(agg['cells'])} cells)"
            )
    agg_rate = total_refs / total_elapsed if total_elapsed > 0 else 0.0
    lines.append("-" * 50)
    lines.append(
        f"{'total':<8} {'':<10} {total_refs:>9,} {total_elapsed:>8.3f} {agg_rate:>11,.0f}"
    )
    if wall_s is not None and wall_s > 0:
        lines.append(
            f"wall-clock {wall_s:.3f}s with jobs={jobs} "
            f"({total_refs / wall_s:,.0f} refs/s end-to-end, "
            f"speedup x{total_elapsed / wall_s:.2f} over engine time)"
        )
    return "\n".join(lines)


def perf_json(
    results: Mapping[Tuple[str, str], SimulationResult],
    wall_s: Optional[float] = None,
    jobs: int = 1,
) -> Dict[str, object]:
    """Machine-readable throughput payload for ``repro perf --json``.

    The shape matches what ``scripts/check_bench_regression.py`` consumes
    from pytest-benchmark (``benchmarks[].extra_info.refs_per_sec``), so
    one gate script handles both sources.  One benchmark entry per sweep
    *benchmark* (aggregated over its systems) plus a ``sweep_total``
    entry; per-cell rates ride in ``extra_info.cells``.
    """
    per_bench = per_benchmark_throughput(results)
    entries: List[Dict[str, object]] = []
    for bench, agg in per_bench.items():
        cells = {
            system: round(r.refs_per_sec, 1)
            for (system, b), r in results.items()
            if b == bench
        }
        entries.append(
            {
                "name": f"perf::{bench}",
                "extra_info": {
                    "refs_per_sec": agg["refs_per_sec"],
                    "refs": int(agg["refs"]),
                    "elapsed_s": agg["elapsed_s"],
                    "cells": cells,
                },
            }
        )
    total_refs = sum(int(a["refs"]) for a in per_bench.values())
    total_elapsed = sum(a["elapsed_s"] for a in per_bench.values())
    entries.append(
        {
            "name": "perf::sweep_total",
            "extra_info": {
                "refs_per_sec": (
                    total_refs / total_elapsed if total_elapsed > 0 else 0.0
                ),
                "refs": total_refs,
                "elapsed_s": total_elapsed,
                "wall_s": wall_s,
                "jobs": jobs,
            },
        }
    )
    return {"benchmarks": entries}
