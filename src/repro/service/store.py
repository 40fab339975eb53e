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

Entries are single JSON files named by their key, written with the same
atomic write-then-rename + digest-verify + quarantine discipline as the
trace cache (:mod:`repro.trace.io`): a crashed writer can never leave a
torn entry for other readers, a corrupt or tampered entry is renamed
``*.corrupt`` for post-mortem and the cell transparently re-simulated,
and concurrent writers racing on one key are harmless (last rename wins,
both bodies are identical by determinism).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Union

from ..faults import active_plan
from ..params import SystemConfig
from ..stats import Counters
from ..trace.io import trace_cache_key
from ..trace.record import TraceSpec
from ..sim.results import SimulationResult

STORE_VERSION = 1

#: environment variable: the service's data directory (store + job state)
SERVICE_DIR_ENV = "REPRO_SERVICE_DIR"

#: environment variable: size budget (bytes) for the store; 0/unset = unbounded
STORE_MAX_BYTES_ENV = "REPRO_STORE_MAX_BYTES"


def _env_max_bytes() -> Optional[int]:
    raw = os.environ.get(STORE_MAX_BYTES_ENV)
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def service_data_dir() -> Path:
    """The service's default data directory.

    Resolution order: ``$REPRO_SERVICE_DIR``, ``$XDG_CACHE_HOME/repro/service``,
    ``~/.cache/repro/service`` — the same ladder the trace cache climbs.
    """
    env = os.environ.get(SERVICE_DIR_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "service"


def result_key(
    config: SystemConfig,
    benchmark: str,
    refs: int,
    seed: int,
    scale: float,
    n_procs: int = 32,
) -> str:
    """Stable content key for one simulation cell.

    Combines the configuration digest (covers every protocol/geometry/
    latency knob) with the trace-cache key (covers everything that shapes
    the reference stream, including the trace format version), plus the
    store's own version so a schema change can never misread old entries.
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
        #: argument wins over ``$REPRO_STORE_MAX_BYTES``.
        self.max_bytes = max_bytes if max_bytes is not None else _env_max_bytes()
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
    ) -> Optional[SimulationResult]:
        """The memoised result for one cell, or ``None`` on miss.

        A hit reconstructs a :class:`SimulationResult` carrying the exact
        counters and metrics the original simulation produced (verified
        against their digest), under the *caller's* system name and
        config.  Any corruption — unreadable JSON, digest mismatch,
        version skew — quarantines the entry and reports a miss, so the
        caller transparently re-simulates; the store can never serve
        wrong bytes, only fail to serve.
        """
        from ..obs.manifest import config_digest, counters_digest

        key = result_key(config, benchmark, refs, seed, scale)
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
            if body.get("config_sha") != config_digest(config):
                raise ValueError("config digest mismatch")
            counters = Counters(
                **{k: int(v) for k, v in body["counters"].items()}
            )
            if counters_digest(counters) != body["counters_sha"]:
                raise ValueError("counters digest mismatch")
            if (int(body["req_refs"]) != int(refs)
                    or int(body["req_seed"]) != int(seed)):
                raise ValueError("identity fields disagree with the key")
        except (ValueError, KeyError, TypeError) as exc:
            self._quarantine(path, exc)
            self._note("misses")
            return None
        self._note("hits")
        try:
            # refresh recency so size-bounded eviction is LRU, not FIFO
            os.utime(path, None)
        except OSError:
            pass  # read-only root: recency update is best-effort
        return SimulationResult(
            system=system or str(body.get("system", "")),
            benchmark=benchmark,
            config=config,
            counters=counters,
            refs=int(body["refs"]),
            seed=int(body["seed"]),
            elapsed_s=0.0,  # a cache hit costs no engine time
            metrics=body.get("metrics"),
        )

    # ---- writing ---------------------------------------------------------

    def put(
        self,
        result: SimulationResult,
        scale: float,
        refs: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> Optional[Path]:
        """Memoise one completed cell; returns the entry path.

        ``refs``/``seed`` are the *requested* trace identity — what the
        next ``get`` for the same cell will key on.  They can differ from
        ``result.refs`` (the trace generator rounds the reference count
        up to fill whole per-processor streams), so the entry records
        both: the request identity in the key, the actual values for
        bit-identical reconstruction.  Callers that simulated exactly
        what they asked for may omit them.

        Atomic (temp file + ``os.replace``), so readers and concurrent
        writers of the same key never observe a torn entry.  I/O failure
        (full disk) returns ``None`` rather than raising: the store is an
        accelerator, never a single point of failure.
        """
        from ..obs.manifest import config_digest, counters_digest

        req_refs = result.refs if refs is None else int(refs)
        req_seed = result.seed if seed is None else int(seed)
        key = result_key(
            result.config, result.benchmark, req_refs, req_seed, scale
        )
        body: Dict[str, object] = {
            "store_version": STORE_VERSION,
            "key": key,
            "system": result.system,
            "benchmark": result.benchmark,
            "req_refs": req_refs,
            "req_seed": req_seed,
            "refs": result.refs,
            "seed": result.seed,
            "scale": scale,
            "config_sha": config_digest(result.config),
            "counters": result.counters.as_dict(),
            "counters_sha": counters_digest(result.counters),
            "metrics": result.metrics,
            "created_unix": time.time(),
        }
        body["payload_sha"] = _payload_sha(body)
        path = self.path_for(key)
        plan = active_plan()
        try:
            if plan is not None:
                plan.maybe_disk_full(f"store-put/{key}")
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                prefix=key[:8] + ".", suffix=".tmp.json", dir=path.parent
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(body, fh, sort_keys=True)
                    fh.write("\n")
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError as exc:
            self._enter_degraded(exc)
            return None
        if plan is not None and plan.maybe_corrupt_store(
            path, f"store-entry/{key}"
        ):
            from ..trace.io import note_recovery

            note_recovery("fault_injected", f"corrupted store entry {key[:12]}")
        self._note("puts")
        self._leave_degraded()
        self._maybe_evict(keep=path)
        return path

    # ---- degradation (full disk, read-only root) -------------------------

    def _enter_degraded(self, exc: BaseException) -> None:
        from ..trace.io import note_recovery

        self._note("put_failures")
        with self._lock:
            first = not self.degraded
            self.degraded = True
            self.degraded_reason = str(exc)
        if first:
            note_recovery("store_degraded", f"writes failing: {exc}")
            if self.metrics is not None:
                try:
                    self.metrics.inc("repro_store_degradations_total")
                    self.metrics.set_gauge("repro_store_degraded", 1)
                except Exception:
                    pass

    def _leave_degraded(self) -> None:
        from ..trace.io import note_recovery

        with self._lock:
            recovered = self.degraded
            self.degraded = False
            self.degraded_reason = None
        if recovered:
            note_recovery("store_recovered", "result-store writes succeeding again")
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

    def _maybe_evict(self, keep: Optional[Path] = None) -> int:
        """Evict least-recently-used entries until under ``max_bytes``.

        Concurrent-writer-safe: eviction is plain ``unlink`` of whole
        atomic entries, so a reader racing an eviction sees either a
        valid entry or a miss, never torn bytes; two servers evicting
        the same file tolerate each other's ``FileNotFoundError``.  The
        just-written entry (``keep``) is never evicted — the budget must
        not thrash the newest result.
        """
        from ..trace.io import note_recovery

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
            if keep is not None and entry == keep:
                continue
            try:
                entry.unlink()
            except OSError:
                continue  # a peer evicted or quarantined it first
            total -= size
            removed += 1
        if removed:
            self._note("evicted", removed)
            note_recovery(
                "result_store_evicted",
                f"{removed} LRU entr{'y' if removed == 1 else 'ies'} evicted "
                f"to stay under {self.max_bytes} bytes",
            )
        return removed

    # ---- maintenance -----------------------------------------------------

    def _quarantine(self, path: Path, exc: BaseException) -> None:
        from ..trace.io import note_recovery

        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
            self._note("quarantined")
            note_recovery("result_quarantined", f"{path.name}: {exc}")
        except OSError:
            # read-only root, or a directory squatting on the .corrupt
            # name: fall back to deleting the bad entry; if even that
            # fails the entry stays (and keeps reporting misses) — a
            # broken store degrades to re-simulation, never to a crash
            try:
                path.unlink()
                self._note("quarantined")
                note_recovery("result_quarantined", f"{path.name}: {exc}")
            except OSError:
                self._note("quarantine_failed")
                note_recovery(
                    "result_quarantine_failed",
                    f"{path.name}: could not quarantine or delete",
                )

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
        if not self.root.is_dir():
            return 0
        removed = 0
        for pattern in ("*/*.json", "*/*.json.corrupt"):
            for entry in self.root.glob(pattern):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

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
