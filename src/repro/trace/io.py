"""Trace persistence: compressed ``.npz`` with a JSON metadata sidecar field.

Sweeps generate each trace once per process and keep it in memory
(:func:`repro.sim.runner.get_trace`); this module writes a trace out
for other tools (``repro trace --out``) and reads it back.

Integrity: every file carries a SHA-256 **payload digest** over the
reference arrays and metadata, written with :func:`repro.durable.write_atomic`
so a crash mid-write never leaves a torn file.  :func:`load_trace`
verifies the digest and raises :class:`~repro.errors.CorruptTraceError`
on mismatch.

:func:`trace_cache_key` names one generation request by content; run
manifests record it as each cell's ``trace_key`` and the result store
builds its keys on it.
"""

from __future__ import annotations

import hashlib
import io
import json
import zipfile
from pathlib import Path
from typing import Union

import numpy as np

from ..durable import write_atomic
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


def trace_cache_key(spec: TraceSpec) -> str:
    """Stable content hash for one generation request.

    Every field that influences the generated arrays participates, plus the
    file format version, so a format change moves every key.
    """
    canon = (
        f"v{_FORMAT_VERSION}|{spec.benchmark.lower()}|refs={spec.refs}"
        f"|seed={spec.seed}|procs={spec.n_procs}|scale={spec.scale!r}"
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:32]
