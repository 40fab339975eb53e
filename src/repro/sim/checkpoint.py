"""Sweep journal: crash-safe checkpoint/resume for sweep matrices.

The paper's figures are hours-long systems x benchmarks sweeps; a worker
crash or a killed parent must not throw away a 400k-reference run.  A
:class:`SweepJournal` is an on-disk run directory holding

* ``run.json`` — the sweep's identifying parameters (refs, seed, scale,
  systems, benchmarks), written atomically when the run starts.  Resuming
  with different parameters raises
  :class:`~repro.errors.CheckpointError` instead of silently mixing runs.
* ``journal.jsonl`` — one JSON record per simulated ``(system,
  benchmark)`` cell: :meth:`SimulationResult.record
  <repro.sim.results.SimulationResult.record>` (the full counter tally,
  the metrics snapshot, and content digests of both the counters and the
  system configuration) plus the version, provenance and elapsed time.
  A cell served from the result store is not journalled: its record is
  the ``cell_cache_hit`` action in ``recovery.jsonl``, and a resumed
  sweep looks it up in the store again.
  Records are appended with flush + fsync, so a crash loses at most the
  line being written — and a torn final line is *tolerated* on load
  (skipped and re-simulated), never fatal.

Resume is **bit-identical** to a from-scratch run: restored cells carry
the exact counters and metrics the original run produced (verified
against their digest on load), and the sweep merges restored + fresh
cells in plan order — pinned by ``tests/sim/test_checkpoint.py``.  A
journal entry whose config digest no longer matches the resolved system
configuration (the code or overrides changed between runs) is discarded
and its cell re-simulated rather than trusted.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Dict, Mapping, Optional, Sequence, Tuple, Union

from ..durable import read_json, write_atomic
from ..errors import CheckpointError
from ..params import SystemConfig
from .results import SimulationResult, StaleRecord

#: 2: histogram buckets became upper-inclusive and the stall histograms
#: left the profile, so version-1 metrics must never merge with fresh ones
JOURNAL_VERSION = 2
HEADER_NAME = "run.json"
JOURNAL_NAME = "journal.jsonl"
#: live recovery-action feed written beside the journal (one JSON object
#: per RecoveryLog action; tailed by `repro top`)
RECOVERY_NAME = "recovery.jsonl"


def read_run_header(run_dir: Union[str, Path]) -> Optional[dict]:
    """Best-effort read of a run directory's ``run.json``.

    Returns ``None`` when the header is missing, unparsable or not a JSON
    object — monitors observing a directory mid-creation must tolerate
    all three, never raise.
    """
    header = read_json(Path(run_dir) / HEADER_NAME)
    return header if isinstance(header, dict) else None


class SweepJournal:
    """One sweep's on-disk run directory (see module docstring)."""

    def __init__(self, run_dir: Union[str, Path]) -> None:
        self.run_dir = Path(run_dir)
        self._fh: Optional[IO[str]] = None
        #: load() statistics, surfaced by the sweep's recovery log
        self.torn_lines = 0
        self.stale_records = 0
        #: HTTP correlation id stamped into appended rows.  Provenance
        #: only: deliberately NOT part of the run.json identity (a resumed
        #: run under a new request id must match), and ignored by
        #: :meth:`load`.
        self.request_id: Optional[str] = None

    # ---- lifecycle -------------------------------------------------------

    @classmethod
    def open(
        cls,
        run_dir: Union[str, Path],
        *,
        refs: int,
        seed: int,
        scale: float,
        systems: Sequence[str],
        benchmarks: Sequence[str],
    ) -> "SweepJournal":
        """Open (creating if needed) the journal for one sweep's parameters.

        A fresh directory gets a ``run.json`` header; an existing one must
        match the requested parameters exactly, else resuming would merge
        cells from a different sweep.  Only the keys written here are
        compared, so a header carrying a key this version no longer
        writes (the retired ``engine``) still resumes.
        """
        journal = cls(run_dir)
        params = {
            "journal_version": JOURNAL_VERSION,
            "refs": int(refs),
            "seed": int(seed),
            "scale": float(scale),
            "systems": list(systems),
            "benchmarks": list(benchmarks),
        }
        header_path = journal.run_dir / HEADER_NAME
        if header_path.exists():
            try:
                existing = json.loads(header_path.read_text(encoding="utf-8"))
                if not isinstance(existing, dict):
                    raise ValueError("not a JSON object")
            except (OSError, ValueError) as exc:
                raise CheckpointError(
                    f"unreadable run header {header_path}: {exc}"
                ) from exc
            mismatched = [
                key
                for key, value in params.items()
                if existing.get(key) != value
            ]
            if "journal_version" in mismatched:
                raise CheckpointError(
                    f"run directory {journal.run_dir} holds journal_version "
                    f"{existing.get('journal_version')!r}, but this release "
                    f"writes journal_version {JOURNAL_VERSION}; it cannot be "
                    f"resumed and needs a fresh directory"
                )
            if mismatched:
                raise CheckpointError(
                    f"run directory {journal.run_dir} was started with different "
                    f"parameters ({', '.join(mismatched)}); use a fresh directory "
                    f"or matching --refs/--seed/--scale/systems/benchmarks"
                )
        else:
            write_atomic(header_path, json.dumps(params, indent=2, sort_keys=True) + "\n")
        return journal

    @property
    def journal_path(self) -> Path:
        return self.run_dir / JOURNAL_NAME

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ---- reading ---------------------------------------------------------

    def load(
        self, configs: Mapping[str, SystemConfig]
    ) -> Dict[Tuple[str, str], SimulationResult]:
        """Restore every trustworthy completed cell from the journal.

        Tolerates a torn trailing line (a worker or parent killed
        mid-append), or any line that is not a JSON object, by skipping
        it; discards as stale the records of another journal version or
        of a system not in ``configs``, and those whose counter digest
        fails or whose config digest no longer matches ``configs`` — those
        cells are simply re-simulated.
        Duplicate cells keep the newest record.
        """
        self.torn_lines = 0
        self.stale_records = 0
        path = self.journal_path
        if not path.exists():
            return {}
        out: Dict[Tuple[str, str], SimulationResult] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    if not isinstance(rec, dict):
                        raise TypeError("journal line is not a JSON object")
                    if (rec.get("journal_version") != JOURNAL_VERSION
                            or rec["system"] not in configs):
                        raise StaleRecord("another journal version or system")
                    result = SimulationResult.restore(rec, configs[rec["system"]])
                    result.elapsed_s = float(rec.get("elapsed_s", 0.0))
                except StaleRecord:
                    self.stale_records += 1
                    continue
                except (ValueError, KeyError, TypeError):
                    self.torn_lines += 1
                    continue
                out[(result.system, result.benchmark)] = result
        return out

    # ---- writing ---------------------------------------------------------

    def append(self, result: SimulationResult, scale: float) -> None:
        """Atomically append one simulated cell.

        One JSON line, flushed and fsynced before returning: once this
        method returns, the cell survives any crash of the process.
        """
        rec = result.record(scale)
        rec.update(journal_version=JOURNAL_VERSION, elapsed_s=result.elapsed_s)
        if self.request_id:
            rec["request_id"] = self.request_id
        if self._fh is None:
            self.run_dir.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.journal_path, "a", encoding="utf-8")
        self._fh.write(json.dumps(rec, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
