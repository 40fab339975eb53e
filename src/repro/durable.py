"""Durable on-disk I/O: the one rule for how every artifact reaches disk.

Whole-file artifacts — cached traces, result-store entries, ``run.json``,
``job.json``/``result.json``, run manifests, the metrics snapshot — are
written by :func:`write_atomic` (temp file, fsync, rename), so a reader
sees the old file or the new one, never a torn one.  Caches that verify a
digest on read park a bad file with :func:`quarantine`; best-effort
readers use :func:`read_json`.  Telemetry feeds
(recovery actions, spans) are best-effort JSONL: :class:`JsonlSink`
appends, :func:`read_jsonl` reads back and skips the torn tail a killed
writer leaves.  The sweep journal is stricter (it fsyncs every record and
a failed append fails the sweep) and keeps its own writer.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import IO, Any, Dict, Iterable, Iterator, Optional, Union

PathLike = Union[str, "os.PathLike[str]"]


def write_atomic(path: PathLike, data: Union[bytes, str]) -> None:
    """Replace ``path`` with ``data`` (a str is UTF-8 encoded), durably.

    Writes a temp file in the (created if missing) parent directory,
    flushes and fsyncs it, then renames it over ``path``.  On any
    exception the temp file is removed and the exception re-raised,
    leaving the previous ``path`` (or its absence) untouched.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    # the ".tmp" suffix matches no artifact glob, so a peer's eviction or
    # size scan never touches a write in progress
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def quarantine_path(path: PathLike) -> Path:
    """Where :func:`quarantine` parks a corrupt file: ``<name>.corrupt``."""
    path = Path(path)
    return path.with_name(path.name + ".corrupt")


def quarantine(path: PathLike) -> Optional[str]:
    """Move a corrupt file out of its reader's way.

    Returns ``"renamed"`` after renaming it to :func:`quarantine_path` for
    post-mortem; ``"deleted"`` when the rename failed (read-only root, or a
    directory squatting on the name) and the file was deleted instead;
    ``None`` when both failed and the file stays.
    """
    path = Path(path)
    try:
        os.replace(path, quarantine_path(path))
        return "renamed"
    except OSError:
        pass
    try:
        path.unlink()
        return "deleted"
    except OSError:
        return None


class JsonlSink:
    """Best-effort JSONL appender: one sorted-key JSON line per record,
    flushed at once so a tailing reader sees it.  An I/O error drops the
    sink and later records are discarded: telemetry never fails the work
    it describes."""

    def __init__(self, path: PathLike) -> None:
        self._fh: Optional[IO[str]] = None
        try:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(path, "a", encoding="utf-8")
        except OSError:
            pass  # no sink: every write is dropped

    def write(self, rec: Dict[str, Any]) -> bool:
        """Append one record; False when the sink is (now) dropped."""
        if self._fh is None:
            return False
        try:
            self._fh.write(json.dumps(rec, sort_keys=True) + "\n")
            self._fh.flush()
        except (OSError, ValueError):
            self.close()
            return False
        return True

    def close(self) -> None:
        fh, self._fh = self._fh, None
        if fh is not None:
            try:
                fh.close()
            except OSError:
                pass


def read_json(path: PathLike) -> Any:
    """The parsed JSON document at ``path``, or ``None`` when it is
    missing, unreadable or torn."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def read_jsonl(path: PathLike) -> Iterator[Dict[str, Any]]:
    """Yield the dict records of a (possibly live) JSONL file, skipping
    blank and torn lines; a missing file yields nothing."""
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


def remove_files(root: PathLike, patterns: Iterable[str]) -> int:
    """Delete the files under ``root`` (which may not exist) matching any
    of the glob ``patterns``; returns how many were removed."""
    removed = 0
    for pattern in patterns:
        for entry in Path(root).glob(pattern):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass  # a peer removed it first
    return removed


def cache_dir(env: str, sub: str) -> Path:
    """``$<env>``, else ``$XDG_CACHE_HOME/repro/<sub>``, else
    ``~/.cache/repro/<sub>``."""
    override = os.environ.get(env)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    return (Path(xdg) if xdg else Path.home() / ".cache") / "repro" / sub
