"""Live sweep monitoring: the engine behind ``repro top``.

A sweep started with ``--run-dir`` leaves a complete, crash-safe account
of itself on disk while it runs: ``run.json`` (the planned matrix),
``journal.jsonl`` (one fsynced record per simulated cell, with engine
timings), and ``recovery.jsonl`` (every store hit and retry/timeout/fault
action, streamed by the sweep's :class:`~repro.sim.parallel.RecoveryLog`).
This module *tails* those three files — read-only, tolerant of torn lines
and of the directory not existing yet — and renders a progress board:

* per-cell grid (``.`` planned, ``#`` simulated, ``+`` from the result
  store) in plan order;
* completed/total cells, simulated refs, engine refs/sec;
* an ETA extrapolated from the mean engine-seconds of completed cells
  and the observed completion rate;
* recovery-action counts (retries, timeouts, lost workers, faults).

``repro top RUN_DIR`` prints the board once; ``--follow`` redraws every
``--interval`` seconds until the matrix completes.  The monitor never
writes to the run directory and works equally on a finished sweep (a
post-mortem summary) or a directory another process is mid-way through.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from ..durable import read_jsonl
from ..sim.checkpoint import JOURNAL_NAME, RECOVERY_NAME, read_run_header


class SweepProgress:
    """One observation of a run directory's state."""

    def __init__(self, run_dir: Union[str, Path]) -> None:
        self.run_dir = Path(run_dir)
        header = read_run_header(self.run_dir) or {}
        self.systems: List[str] = list(header.get("systems", []))
        self.benchmarks: List[str] = list(header.get("benchmarks", []))
        self.refs_per_cell = int(header.get("refs", 0))
        self.header_present = bool(header)
        #: (system, benchmark) -> journal record of a simulated cell
        #: (newest wins, like resume)
        self.done: Dict[Tuple[str, str], dict] = {}
        for rec in read_jsonl(self.run_dir / JOURNAL_NAME):
            try:
                key = (str(rec["system"]), str(rec["benchmark"]))
            except KeyError:
                continue
            self.done[key] = rec
        self.recovery_counts: Dict[str, int] = {}
        self.recovery_last: Optional[dict] = None
        hits: Set[Tuple[str, str]] = set()
        for rec in read_jsonl(self.run_dir / RECOVERY_NAME):
            kind = str(rec.get("kind", "?"))
            self.recovery_counts[kind] = self.recovery_counts.get(kind, 0) + 1
            self.recovery_last = rec
            if kind == "cell_cache_hit":
                hits.add((str(rec.get("system")), str(rec.get("benchmark"))))
        #: cells served from the result store: a ``cell_cache_hit`` action
        #: and no journal record (a record means a later run simulated it)
        self.cached: Set[Tuple[str, str]] = hits - set(self.done)

    # ---- derived numbers -------------------------------------------------

    @property
    def total_cells(self) -> int:
        return len(self.systems) * len(self.benchmarks)

    @property
    def done_cells(self) -> int:
        if not self.total_cells:
            return len(self.done) + len(self.cached)
        return sum(
            1
            for s in self.systems
            for b in self.benchmarks
            if (s, b) in self.done or (s, b) in self.cached
        )

    @property
    def complete(self) -> bool:
        return self.total_cells > 0 and self.done_cells >= self.total_cells

    @property
    def cached_cells(self) -> int:
        """Cells served from the content-addressed result store
        (:mod:`repro.service.store`) instead of simulated."""
        return len(self.cached)

    @property
    def simulated_refs(self) -> int:
        return sum(int(rec.get("refs", 0)) for rec in self.done.values())

    @property
    def engine_seconds(self) -> float:
        return sum(float(rec.get("elapsed_s", 0.0)) for rec in self.done.values())

    @property
    def refs_per_sec(self) -> float:
        secs = self.engine_seconds
        return self.simulated_refs / secs if secs > 0 else 0.0

    def eta_seconds(self, jobs: int = 1) -> Optional[float]:
        """Engine-time estimate for the remaining cells.

        Mean engine-seconds of completed cells x cells left, divided by
        ``jobs`` (the best the monitor can do without knowing scheduling).
        ``None`` until at least one cell has finished or when done.
        """
        completed = self.done_cells
        remaining = self.total_cells - completed
        if completed <= 0 or remaining <= 0:
            return None
        mean = self.engine_seconds / completed
        return mean * remaining / max(1, jobs)

    # ---- rendering -------------------------------------------------------

    def grid(self) -> List[str]:
        """Per-cell progress grid, one row per benchmark, in plan order.

        ``.`` planned, ``#`` simulated, ``+`` served from the result store.
        """
        if not self.systems or not self.benchmarks:
            return []
        width = max(len(b) for b in self.benchmarks)
        rows = [
            " " * (width + 2)
            + " ".join(f"{s[:7]:<7}" for s in self.systems)
        ]
        for bench in self.benchmarks:
            marks = " ".join(
                f"{self._mark(s, bench):<7}" for s in self.systems
            )
            rows.append(f"{bench:<{width}}  {marks}")
        return rows

    def _mark(self, system: str, bench: str) -> str:
        if (system, bench) in self.cached:
            return "+"
        return "#" if (system, bench) in self.done else "."

    def snapshot(self, jobs: int = 1) -> Dict[str, object]:
        """The board as a plain JSON-serialisable dict.

        The machine-readable twin of :meth:`render`, served by the job
        server's ``/jobs/<id>`` and ``/top`` endpoints — same numbers, no
        text parsing.
        """
        eta = self.eta_seconds(jobs=jobs)
        return {
            "run_dir": str(self.run_dir),
            "header_present": self.header_present,
            "systems": list(self.systems),
            "benchmarks": list(self.benchmarks),
            "total_cells": self.total_cells,
            "done_cells": self.done_cells,
            "cached_cells": self.cached_cells,
            "simulated_cells": self.done_cells - self.cached_cells,
            "complete": self.complete,
            "simulated_refs": self.simulated_refs,
            "engine_seconds": round(self.engine_seconds, 6),
            "refs_per_sec": round(self.refs_per_sec, 1),
            "eta_seconds": round(eta, 3) if eta is not None else None,
            "recovery_counts": dict(self.recovery_counts),
            "recovery_last": dict(self.recovery_last) if self.recovery_last else None,
        }

    def render(self, jobs: int = 1) -> str:
        """The full progress board as printable text."""
        lines = [f"sweep {self.run_dir}"]
        if not self.header_present:
            lines.append("  (no run.json yet — sweep not started or wrong dir)")
        total = self.total_cells
        done = self.done_cells
        if total:
            pct = 100.0 * done / total
            lines.append(f"cells    {done}/{total} done ({pct:.0f}%)")
        else:
            lines.append(f"cells    {done} journalled (header missing)")
        lines.append(
            f"refs     {self.simulated_refs:,} simulated, "
            f"{self.refs_per_sec:,.0f} refs/s engine"
        )
        if self.cached_cells:
            lines.append(
                f"cache    {self.cached_cells} cell(s) from the result "
                f"store, {self.done_cells - self.cached_cells} simulated"
            )
        eta = self.eta_seconds(jobs=jobs)
        if self.complete:
            lines.append(f"status   complete ({self.engine_seconds:.1f}s engine time)")
        elif eta is not None:
            lines.append(f"status   running, ~{eta:.0f}s engine time remaining")
        else:
            lines.append("status   waiting for the first cell")
        if self.recovery_counts:
            counts = ", ".join(
                f"{k}={self.recovery_counts[k]}"
                for k in sorted(self.recovery_counts)
            )
            lines.append(f"recovery {counts}")
            last = self.recovery_last or {}
            detail = str(last.get("detail", ""))[:60]
            if detail:
                lines.append(f"         last: {last.get('kind')}: {detail}")
        grid = self.grid()
        if grid:
            lines.append("")
            lines.extend(grid)
        return "\n".join(lines)


def watch(
    run_dir: Union[str, Path],
    follow: bool = False,
    interval: float = 2.0,
    jobs: int = 1,
    max_updates: Optional[int] = None,
    out=None,
) -> SweepProgress:
    """Print the progress board for ``run_dir``; optionally keep watching.

    With ``follow=True`` the board is re-read and re-printed every
    ``interval`` seconds until the sweep completes (or ``max_updates``
    boards have been printed — the testing hook).  Returns the final
    observation.
    """
    import sys

    stream = out if out is not None else sys.stdout
    updates = 0
    while True:
        progress = SweepProgress(run_dir)
        if updates:
            stream.write("\n")
        stream.write(progress.render(jobs=jobs) + "\n")
        stream.flush()
        updates += 1
        if not follow or progress.complete:
            return progress
        if max_updates is not None and updates >= max_updates:
            return progress
        time.sleep(interval)
