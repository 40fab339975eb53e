"""Persistent content-addressed result store: the service's memo table.

Under real traffic, repeated requests for the same configuration dominate
(the skewed-popularity access pattern the network-caching literature
documents), so the service memoises every completed cell by **content
key** — a SHA-256 over the same identity :func:`repro.obs.manifest.manifest_core`
keeps: the system-configuration digest and the content-addressed trace
key (benchmark, refs, seed, scale, format version).  Everything that
*cannot* change the counters is deliberately excluded:

* the **system display name** — two names resolving to the same
  configuration share one entry;
* worker counts, retries, wall-clock timings.

Entries are single JSON files named by their key, written and
quarantined through the same :mod:`repro.durable` helpers as the trace
cache (:mod:`repro.trace.io`) and digest-verified on read: a crashed
writer can never leave a torn entry, a corrupt or tampered entry is renamed
``*.corrupt`` for post-mortem and the cell transparently re-simulated,
and concurrent writers racing on one key are harmless (last rename wins,
both bodies are identical by determinism).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Union

from ..durable import Note, cache_dir, ignore_note, quarantine, remove_files, write_atomic
from ..faults import active_plan
from ..params import SystemConfig, setting
from ..trace.io import trace_cache_key
from ..trace.record import TraceSpec
from ..sim.results import SimulationResult

#: 2: histogram buckets became upper-inclusive and the stall histograms
#: left the profile; version-1 entries are never read (their keys differ)
STORE_VERSION = 2


def service_data_dir() -> Path:
    """The service's default data directory: ``$REPRO_SERVICE_DIR``, else
    the ``service`` :func:`repro.durable.cache_dir`."""
    return cache_dir(setting("REPRO_SERVICE_DIR"), "service")


def result_key(
    config: SystemConfig,
    benchmark: str,
    refs: int,
    seed: int,
    scale: float,
    n_procs: int = 32,
    profile: bool = False,
) -> str:
    """Stable content key for one simulation cell.

    Combines the configuration digest (covers every protocol/geometry/
    latency knob) with the trace-cache key (covers everything that shapes
    the reference stream, including the trace format version), plus the
    store's own version so a schema change can never misread old entries.
    A profiled cell's metrics carry ``profile.*`` keys an unprofiled
    one's lack, so ``profile`` joins the key — only when set, which keeps
    every unprofiled key (and store on disk) as it was.
    """
    from ..obs.manifest import config_digest

    spec = TraceSpec(
        benchmark=benchmark.lower(), refs=refs, seed=seed, scale=scale,
        n_procs=n_procs,
    )
    canon = (
        f"store-v{STORE_VERSION}|config={config_digest(config)}"
        f"|trace={trace_cache_key(spec)}"
    )
    if profile:
        canon += "|profile"
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:40]


def _payload_sha(body: Dict[str, object]) -> str:
    """Integrity digest over everything that must not rot in an entry."""
    canon = {k: v for k, v in body.items() if k not in _VOLATILE_FIELDS}
    return hashlib.sha256(
        json.dumps(canon, sort_keys=True).encode("utf-8")
    ).hexdigest()


#: entry fields that legitimately differ between identical cells (the
#: producing system's display name and timestamps are provenance, not
#: content)
_VOLATILE_FIELDS = ("payload_sha", "created_unix", "system")


class ResultStore:
    """On-disk ``result_key -> simulation outcome`` memo table.

    Thread-safe: the job manager's executor threads put/get concurrently,
    and the only shared mutable state (the hit/miss tally) sits behind a
    lock.  Process-safe: writes are atomic renames, reads verify digests.
    """

    #: stats() tally fields (all guarded by the lock)
    _TALLY_FIELDS = (
        "hits", "misses", "puts", "quarantined",
        "evicted", "put_failures", "quarantine_failed",
    )

    def __init__(
        self,
        root: Union[str, Path, None] = None,
        max_bytes: Optional[int] = None,
        metrics=None,
    ) -> None:
        self.root = Path(root) if root is not None else service_data_dir() / "store"
        #: size budget for eviction; ``None`` = unbounded.  Explicit
        #: argument wins over ``$REPRO_STORE_MAX_BYTES``; 0 = unbounded.
        self.max_bytes: Optional[int] = setting("REPRO_STORE_MAX_BYTES", max_bytes) or None
        #: optional :class:`repro.obs.registry.WallClockRegistry`; every
        #: tally below is mirrored into ``repro_store_<field>_total`` so
        #: the counts survive restarts via the registry snapshot
        self.metrics = metrics
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.quarantined = 0
        self.evicted = 0
        self.put_failures = 0
        self.quarantine_failed = 0
        #: True after a failed write until the next successful one: the
        #: store is running degraded (full disk, read-only root) and
        #: every cell simulates uncached.  Surfaced in ``/healthz``.
        self.degraded = False
        self.degraded_reason: Optional[str] = None

    # ---- paths -----------------------------------------------------------

    def path_for(self, key: str) -> Path:
        # two-level fan-out keeps directories small under millions of entries
        return self.root / key[:2] / f"{key}.json"

    # ---- reading ---------------------------------------------------------

    def get(
        self,
        config: SystemConfig,
        benchmark: str,
        refs: int,
        seed: int,
        scale: float,
        system: str = "",
        note: Note = ignore_note,
        profile: bool = False,
    ) -> Optional[SimulationResult]:
        """The memoised result for one cell, or ``None`` on miss.

        A hit reconstructs a :class:`SimulationResult` carrying the exact
        counters and metrics the original simulation produced (verified
        against their digest), under the *caller's* system name and
        config.  Any corruption — unreadable JSON, digest mismatch,
        version skew — quarantines the entry and reports a miss, so the
        caller transparently re-simulates; the store can never serve
        wrong bytes, only fail to serve.  The quarantine is reported to
        ``note``.  ``profile`` asks for a profiled cell's entry.
        """
        key = result_key(config, benchmark, refs, seed, scale, profile=profile)
        path = self.path_for(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            self._note("misses")
            return None
        try:
            body = json.loads(raw)
            if not isinstance(body, dict):
                raise ValueError("entry is not an object")
            if body.get("store_version") != STORE_VERSION:
                raise ValueError(f"store version {body.get('store_version')}")
            if body.get("payload_sha") != _payload_sha(body):
                raise ValueError("payload digest mismatch")
            result = SimulationResult.restore(body, config)
            if (int(body["req_refs"]) != int(refs)
                    or int(body["req_seed"]) != int(seed)):
                raise ValueError("identity fields disagree with the key")
        except (ValueError, KeyError, TypeError) as exc:
            self._quarantine(path, exc, note)
            self._note("misses")
            return None
        self._note("hits")
        try:
            # refresh recency so size-bounded eviction is LRU, not FIFO
            os.utime(path, None)
        except OSError:
            pass  # read-only root: recency update is best-effort
        result.system = system or result.system
        result.benchmark = benchmark
        return result

    # ---- writing ---------------------------------------------------------

    def put(
        self,
        result: SimulationResult,
        scale: float,
        refs: Optional[int] = None,
        seed: Optional[int] = None,
        note: Note = ignore_note,
        profile: bool = False,
    ) -> Optional[Path]:
        """Memoise one completed cell; returns the entry path.

        ``refs``/``seed`` are the *requested* trace identity — what the
        next ``get`` for the same cell will key on.  They can differ from
        ``result.refs`` (the trace generator rounds the reference count
        up to fill whole per-processor streams), so the entry records
        both: the request identity in the key, the actual values for
        bit-identical reconstruction.  Callers that simulated exactly
        what they asked for may omit them.

        Atomic (:func:`repro.durable.write_atomic`), so readers and
        concurrent writers of the same key never observe a torn entry.
        I/O failure (full disk) returns ``None`` rather than raising: the
        store is an accelerator, never a single point of failure.
        Degradation, recovery and evictions are reported to ``note``.
        ``profile`` marks a result simulated with the stall profiler.
        """
        req_refs = result.refs if refs is None else int(refs)
        req_seed = result.seed if seed is None else int(seed)
        key = result_key(
            result.config, result.benchmark, req_refs, req_seed, scale,
            profile=profile,
        )
        body = result.record(scale)
        body.update(
            store_version=STORE_VERSION,
            key=key,
            req_refs=req_refs,
            req_seed=req_seed,
            created_unix=time.time(),
        )
        body["payload_sha"] = _payload_sha(body)
        path = self.path_for(key)
        plan = active_plan()
        try:
            if plan is not None:
                plan.maybe_disk_full(f"store-put/{key}")
            write_atomic(path, json.dumps(body, sort_keys=True) + "\n")
        except OSError as exc:
            self._enter_degraded(exc, note)
            return None
        if plan is not None and plan.maybe_corrupt_store(
            path, f"store-entry/{key}"
        ):
            note("fault_injected", detail=f"corrupted store entry {key[:12]}")
        self._note("puts")
        self._leave_degraded(note)
        self._maybe_evict(path, note)
        return path

    # ---- degradation (full disk, read-only root) -------------------------

    def _enter_degraded(self, exc: BaseException, note: Note) -> None:
        self._note("put_failures")
        with self._lock:
            first = not self.degraded
            self.degraded = True
            self.degraded_reason = str(exc)
        if first:
            note("store_degraded", detail=f"writes failing: {exc}")
            if self.metrics is not None:
                try:
                    self.metrics.inc("repro_store_degradations_total")
                    self.metrics.set_gauge("repro_store_degraded", 1)
                except Exception:
                    pass

    def _leave_degraded(self, note: Note) -> None:
        with self._lock:
            recovered = self.degraded
            self.degraded = False
            self.degraded_reason = None
        if recovered:
            note("store_recovered", detail="result-store writes succeeding again")
        if recovered and self.metrics is not None:
            try:
                self.metrics.set_gauge("repro_store_degraded", 0)
            except Exception:
                pass

    # ---- size-bounded LRU eviction ---------------------------------------

    def size_bytes(self) -> int:
        """Total bytes of live entries (quarantined files excluded)."""
        total = 0
        if not self.root.is_dir():
            return 0
        for entry in self.root.glob("*/*.json"):
            try:
                total += entry.stat().st_size
            except OSError:
                pass  # lost a race with an evicting/quarantining peer
        return total

    def _maybe_evict(self, keep: Path, note: Note) -> int:
        """Evict least-recently-used entries until under ``max_bytes``.

        Concurrent-writer-safe: eviction is plain ``unlink`` of whole
        atomic entries, so a reader racing an eviction sees either a
        valid entry or a miss, never torn bytes; two servers evicting
        the same file tolerate each other's ``FileNotFoundError``.  The
        just-written entry (``keep``) is never evicted — the budget must
        not thrash the newest result.
        """
        if self.max_bytes is None or not self.root.is_dir():
            return 0
        entries = []
        total = 0
        for entry in self.root.glob("*/*.json"):
            try:
                st = entry.stat()
            except OSError:
                continue
            total += st.st_size
            entries.append((st.st_mtime, st.st_size, entry))
        if total <= self.max_bytes:
            return 0
        entries.sort()  # oldest mtime (least recently touched) first
        removed = 0
        for _mtime, size, entry in entries:
            if total <= self.max_bytes:
                break
            if entry == keep:
                continue
            try:
                entry.unlink()
            except OSError:
                continue  # a peer evicted or quarantined it first
            total -= size
            removed += 1
        if removed:
            self._note("evicted", removed)
            note(
                "result_store_evicted",
                detail=f"{removed} LRU entr{'y' if removed == 1 else 'ies'} evicted "
                f"to stay under {self.max_bytes} bytes",
            )
        return removed

    # ---- maintenance -----------------------------------------------------

    def _quarantine(self, path: Path, exc: BaseException, note: Note) -> None:
        # an entry that can be neither renamed nor deleted stays and keeps
        # reporting misses: a broken store degrades to re-simulation
        if quarantine(path) is None:
            self._note("quarantine_failed")
            note("result_quarantine_failed",
                 detail=f"{path.name}: could not quarantine or delete")
        else:
            self._note("quarantined")
            note("result_quarantined", detail=f"{path.name}: {exc}")

    def _note(self, field: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + amount)
        if self.metrics is not None:
            try:
                self.metrics.inc(f"repro_store_{field}_total", amount)
            except Exception:
                pass  # telemetry must never break the store

    def entry_count(self) -> int:
        """Entries currently on disk (excluding quarantined ones)."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry (and quarantined file); returns the count."""
        return remove_files(self.root, ("*/*.json", "*/*.json.corrupt"))

    def stats(self) -> Dict[str, object]:
        """The in-process tally, plus the degradation flag.

        ``hits``/``misses``/``puts``/``quarantined`` as before, joined by
        ``evicted`` (LRU size-budget evictions), ``put_failures`` /
        ``quarantine_failed`` (I/O degradations survived), and
        ``degraded`` (True while writes are failing).
        """
        with self._lock:
            out: Dict[str, object] = {
                field: getattr(self, field) for field in self._TALLY_FIELDS
            }
            out["degraded"] = self.degraded
        return out
