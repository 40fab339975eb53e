"""Trace persistence: compressed ``.npz`` with a JSON metadata sidecar field.

Generating a trace is cheap, but experiments sweep many systems over the
same trace; saving lets a bench generate once and reuse across processes.

On top of explicit :func:`save_trace`/:func:`load_trace` there is a
**content-addressed disk cache**: a :class:`~repro.trace.record.TraceSpec`
hashes to a stable file name under :func:`trace_cache_dir`, so parallel
sweep workers and repeated figure runs load each trace once instead of
regenerating it per process.  Set ``REPRO_TRACE_CACHE`` to move the cache
(e.g. to a tmpfs in CI) and :func:`clear_disk_trace_cache` to empty it.

Integrity: every file carries a SHA-256 **payload digest** over the
reference arrays and metadata, written with :func:`repro.durable.write_atomic`
so a killed worker can never leave a half-written file for other workers
to load.  :func:`load_trace` verifies the digest and
raises :class:`~repro.errors.CorruptTraceError` on mismatch; the disk
cache converts any corruption into **quarantine + regenerate** (the bad
file is renamed ``*.corrupt`` for post-mortem, the caller regenerates)
instead of crashing the sweep worker that tripped over it.
"""

from __future__ import annotations

import hashlib
import io
import json
import zipfile
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from ..durable import cache_dir, quarantine, remove_files, write_atomic
from ..errors import CorruptTraceError, TraceError
from .record import Trace, TraceSpec

#: bumped to 2 when the payload digest field was added
_FORMAT_VERSION = 2


def _payload_digest(
    pids: np.ndarray, addrs: np.ndarray, writes: np.ndarray, meta: dict
) -> str:
    """SHA-256 over the reference arrays plus the digest-free metadata."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(pids).tobytes())
    h.update(np.ascontiguousarray(addrs).tobytes())
    h.update(np.ascontiguousarray(writes).tobytes())
    canon = {k: v for k, v in meta.items() if k != "digest"}
    h.update(json.dumps(canon, sort_keys=True, default=str).encode("utf-8"))
    return h.hexdigest()


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write a trace to ``path`` (``.npz``), atomically.

    A crash mid-write leaves either the old file or no file — never a torn
    one (:func:`repro.durable.write_atomic`).  The embedded payload digest
    lets :func:`load_trace` verify the file end to end.
    """
    meta = {
        "version": _FORMAT_VERSION,
        "name": trace.name,
        "dataset_bytes": trace.dataset_bytes,
        "placement": (
            {str(k): v for k, v in trace.placement.items()} if trace.placement else None
        ),
        "meta": trace.meta,
    }
    meta["digest"] = _payload_digest(trace.pids, trace.addrs, trace.writes, meta)
    buf = io.BytesIO()
    np.savez_compressed(
        buf,
        pids=trace.pids,
        addrs=trace.addrs,
        writes=trace.writes,
        meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
    )
    write_atomic(path, buf.getvalue())


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace written by :func:`save_trace`, verifying its digest."""
    path = Path(path)
    if not path.exists():
        raise TraceError(f"trace file not found: {path}")
    try:
        with np.load(path) as data:
            try:
                meta = json.loads(bytes(data["meta"].tobytes()).decode("utf-8"))
                pids = data["pids"]
                addrs = data["addrs"]
                writes = data["writes"]
            except KeyError as exc:
                raise TraceError(f"malformed trace file {path}: missing {exc}") from exc
    except (OSError, ValueError, zipfile.BadZipFile, EOFError) as exc:
        # zipfile/np.load failures on torn or bit-flipped files
        raise CorruptTraceError(path, f"unreadable archive: {exc}") from exc
    if meta.get("version") != _FORMAT_VERSION:
        raise TraceError(
            f"trace file {path} has version {meta.get('version')}, "
            f"expected {_FORMAT_VERSION}"
        )
    expected = meta.get("digest")
    if expected is not None:
        actual = _payload_digest(pids, addrs, writes, meta)
        if actual != expected:
            raise CorruptTraceError(
                path, f"payload digest mismatch ({actual[:12]} != {expected[:12]})"
            )
    placement = meta.get("placement")
    if placement is not None:
        placement = {int(k): int(v) for k, v in placement.items()}
    return Trace(
        meta["name"],
        pids,
        addrs,
        writes,
        meta["dataset_bytes"],
        placement,
        meta.get("meta"),
    )


# ---------------------------------------------------------------------------
# content-addressed disk cache
# ---------------------------------------------------------------------------

#: environment variable overriding the cache directory
CACHE_ENV = "REPRO_TRACE_CACHE"

# recovery hook: the sweep executor installs one so cache-level recovery
# actions (quarantines, skipped writes) surface as obs events / metrics
_recovery_hook: Optional[Callable[[str, str], None]] = None


def set_recovery_hook(
    hook: Optional[Callable[[str, str], None]],
) -> Optional[Callable[[str, str], None]]:
    """Install ``hook(kind, detail)`` for cache recovery actions.

    Returns the previous hook so callers can restore it.  Kinds emitted:
    ``trace_quarantined`` and ``trace_cache_skipped``.
    """
    global _recovery_hook
    previous = _recovery_hook
    _recovery_hook = hook
    return previous


def note_recovery(kind: str, detail: str) -> None:
    if _recovery_hook is not None:
        _recovery_hook(kind, detail)


def trace_cache_dir() -> Path:
    """Directory holding cached traces (not created until first store):
    ``$REPRO_TRACE_CACHE``, else the ``traces`` :func:`repro.durable.cache_dir`."""
    return cache_dir(CACHE_ENV, "traces")


def trace_cache_key(spec: TraceSpec) -> str:
    """Stable content hash for one generation request.

    Every field that influences the generated arrays participates, plus the
    file format version so stale cache entries are never misread after a
    format change.
    """
    canon = (
        f"v{_FORMAT_VERSION}|{spec.benchmark.lower()}|refs={spec.refs}"
        f"|seed={spec.seed}|procs={spec.n_procs}|scale={spec.scale!r}"
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:32]


def trace_cache_path(spec: TraceSpec) -> Path:
    return trace_cache_dir() / f"{spec.benchmark.lower()}-{trace_cache_key(spec)}.npz"


def load_cached_trace(spec: TraceSpec) -> Optional[Trace]:
    """The cached trace for ``spec``, or None on miss/corruption.

    A corrupt or version-skewed entry is **quarantined** (renamed
    ``*.corrupt``) rather than raised: the caller can always regenerate,
    so the cache must never brick a sweep — but the bad bytes are kept
    around so the corruption can be diagnosed.  Every quarantine is
    reported through the recovery hook.
    """
    path = trace_cache_path(spec)
    if not path.exists():
        return None
    try:
        return load_trace(path)
    except (TraceError, OSError, ValueError) as exc:
        if quarantine(path) == "renamed":
            note_recovery("trace_quarantined", f"{path.name}: {exc}")
        return None


def store_cached_trace(spec: TraceSpec, trace: Trace) -> Path:
    """Persist ``trace`` under its content key; returns the cache path.

    The write is atomic (:func:`save_trace`), so concurrent workers racing
    to store the same trace cannot leave a torn file behind.
    """
    from .. import faults

    path = trace_cache_path(spec)
    plan = faults.active_plan()
    if plan is not None:
        plan.maybe_io_error(f"store:{trace_cache_key(spec)}")
    save_trace(trace, path)
    if plan is not None and plan.maybe_corrupt_file(
        path, f"corrupt:{trace_cache_key(spec)}"
    ):
        note_recovery("fault_injected", f"corrupted cache entry {path.name}")
    return path


def clear_disk_trace_cache() -> int:
    """Delete every cached trace (and quarantined entry); returns the count."""
    return remove_files(trace_cache_dir(), ("*.npz", "*.npz.corrupt"))
