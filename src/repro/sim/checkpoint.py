"""Sweep journal: crash-safe checkpoint/resume for sweep matrices.

The paper's figures are hours-long systems x benchmarks sweeps; a worker
crash or a killed parent must not throw away a 400k-reference run.  A
:class:`SweepJournal` is an on-disk run directory holding

* ``run.json`` — the sweep's identifying parameters (refs, seed, scale,
  systems, benchmarks), written atomically when the run starts.  Resuming
  with different parameters raises
  :class:`~repro.errors.CheckpointError` instead of silently mixing runs.
* ``journal.jsonl`` — one JSON record per completed ``(system,
  benchmark)`` cell: the full counter tally, the metrics snapshot, and
  content digests of both the counters and the system configuration.
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
import tempfile
from pathlib import Path
from typing import IO, Dict, Mapping, Optional, Sequence, Tuple, Union

from ..errors import CheckpointError
from ..params import SystemConfig
from ..stats import Counters
from .results import SimulationResult

JOURNAL_VERSION = 1
HEADER_NAME = "run.json"
JOURNAL_NAME = "journal.jsonl"
#: live recovery-action feed written beside the journal (one JSON object
#: per RecoveryLog action; tailed by `repro top`)
RECOVERY_NAME = "recovery.jsonl"


def read_run_header(run_dir: Union[str, Path]) -> Optional[dict]:
    """Best-effort read of a run directory's ``run.json``.

    Returns ``None`` when the header is missing or unparsable — monitors
    observing a directory mid-creation must tolerate both, never raise.
    """
    path = Path(run_dir) / HEADER_NAME
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def iter_journal_lines(path: Union[str, Path]):
    """Yield parsed records from a (possibly live) JSONL file.

    Torn or half-written lines — normal while a sweep is appending — are
    skipped, exactly like :meth:`SweepJournal.load` treats them; a missing
    file yields nothing.  Used by ``repro top`` on both ``journal.jsonl``
    and ``recovery.jsonl``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except ValueError:
                    continue
                if isinstance(rec, dict):
                    yield rec
    except OSError:
        return


def _config_digest(config: SystemConfig) -> str:
    from ..obs.manifest import config_digest

    return config_digest(config)


def _counters_digest(counters: Counters) -> str:
    from ..obs.manifest import counters_digest

    return counters_digest(counters)


class SweepJournal:
    """One sweep's on-disk run directory (see module docstring)."""

    def __init__(self, run_dir: Union[str, Path]) -> None:
        self.run_dir = Path(run_dir)
        self._fh: Optional[IO[str]] = None
        #: load() statistics, surfaced by the sweep's recovery log
        self.restored = 0
        self.torn_lines = 0
        self.stale_records = 0
        #: HTTP correlation id stamped into appended rows.  Provenance
        #: only, like ``source``: deliberately NOT part of the run.json
        #: identity (a resumed run under a new request id must match),
        #: and ignored by :meth:`_restore`.
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
            except (OSError, ValueError) as exc:
                raise CheckpointError(
                    f"unreadable run header {header_path}: {exc}"
                ) from exc
            mismatched = [
                key
                for key, value in params.items()
                if existing.get(key) != value
            ]
            if mismatched:
                raise CheckpointError(
                    f"run directory {journal.run_dir} was started with different "
                    f"parameters ({', '.join(mismatched)}); use a fresh directory "
                    f"or matching --refs/--seed/--scale/systems/benchmarks"
                )
        else:
            journal.run_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                prefix="run.", suffix=".tmp.json", dir=journal.run_dir
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(params, fh, indent=2, sort_keys=True)
                    fh.write("\n")
                os.replace(tmp_name, header_path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
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
        mid-append) by skipping it; discards records whose counter digest
        fails or whose config digest no longer matches ``configs`` — those
        cells are simply re-simulated.  Duplicate cells keep the newest
        record.
        """
        self.restored = 0
        self.torn_lines = 0
        self.stale_records = 0
        path = self.journal_path
        if not path.exists():
            return {}
        config_digests = {
            name: _config_digest(config) for name, config in configs.items()
        }
        out: Dict[Tuple[str, str], SimulationResult] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    result = self._restore(rec, configs, config_digests)
                except (ValueError, KeyError, TypeError):
                    self.torn_lines += 1
                    continue
                if result is None:
                    self.stale_records += 1
                    continue
                out[(result.system, result.benchmark)] = result
        self.restored = len(out)
        return out

    def _restore(
        self,
        rec: dict,
        configs: Mapping[str, SystemConfig],
        config_digests: Mapping[str, str],
    ) -> Optional[SimulationResult]:
        if rec.get("journal_version") != JOURNAL_VERSION:
            return None
        system = rec["system"]
        if system not in configs:
            return None
        if rec["config_sha"] != config_digests[system]:
            return None  # configuration changed since the cell ran
        counters = Counters(**{k: int(v) for k, v in rec["counters"].items()})
        if _counters_digest(counters) != rec["counters_sha"]:
            return None  # bit-rot or a hand-edited journal
        return SimulationResult(
            system=system,
            benchmark=rec["benchmark"],
            config=configs[system],
            counters=counters,
            refs=int(rec["refs"]),
            seed=int(rec["seed"]),
            elapsed_s=float(rec.get("elapsed_s", 0.0)),
            metrics=rec.get("metrics"),
        )

    # ---- writing ---------------------------------------------------------

    def append(
        self, result: SimulationResult, scale: float, source: str = "simulated"
    ) -> None:
        """Atomically append one completed cell.

        One JSON line, flushed and fsynced before returning: once this
        method returns, the cell survives any crash of the process.
        ``source`` records how the cell was obtained — ``"simulated"`` by
        the simulator, or ``"cache"`` from the content-addressed result store
        (:mod:`repro.service.store`); it is provenance only and plays no
        part in resume validation, but ``repro top`` and the service's
        job endpoints surface it so cache hits are visible per cell.
        """
        rec = {
            "journal_version": JOURNAL_VERSION,
            "source": source,
            "system": result.system,
            "benchmark": result.benchmark,
            "refs": result.refs,
            "seed": result.seed,
            "scale": scale,
            "config_sha": _config_digest(result.config),
            "counters": result.counters.as_dict(),
            "counters_sha": _counters_digest(result.counters),
            "metrics": result.metrics,
            "elapsed_s": result.elapsed_s,
        }
        if self.request_id:
            rec["request_id"] = self.request_id
        if self._fh is None:
            self.run_dir.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.journal_path, "a", encoding="utf-8")
        self._fh.write(json.dumps(rec, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
