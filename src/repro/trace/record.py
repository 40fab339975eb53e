"""Trace containers.

A :class:`Trace` is three parallel numpy arrays — processor id, byte
address, is-write flag — plus the metadata the simulator needs (dataset
size for fraction-sized page caches, an optional explicit page-placement
map).  Only *shared* references are recorded: the paper expresses all miss
ratios as a percentage of shared (non-stack) references.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from ..errors import TraceError


@dataclass(frozen=True)
class TraceSpec:
    """Parameters of a synthetic trace generation request."""

    benchmark: str
    refs: int = 400_000
    seed: int = 1
    n_procs: int = 32
    scale: float = 1.0  #: dataset scale factor (1.0 = the paper's Table 3 size)

    def __post_init__(self) -> None:
        if self.refs <= 0:
            raise TraceError("refs must be positive")
        if self.n_procs <= 0:
            raise TraceError("n_procs must be positive")
        if not (0.0 < self.scale <= 4.0):
            raise TraceError("scale must be in (0, 4]")


def _normalise(name: str, arr, dtype) -> np.ndarray:
    """One C-contiguous, native-order, fixed-width 1-D array.

    :func:`np.ascontiguousarray` converts dtype, byte order, and layout in
    a single pass and is a no-op view when the input already conforms — so
    the simulator indexes the arrays directly instead of paying a silent
    copy per run when a cached trace deserialises with a mismatched dtype
    (or a strided/byte-swapped view sneaks in through a slice).
    """
    out = np.ascontiguousarray(arr, dtype=dtype)
    if out.ndim != 1:
        raise TraceError(f"{name} must be one-dimensional, got shape {out.shape}")
    return out


class Trace:
    """An interleaved shared-reference trace for the whole machine.

    The reference arrays are normalised **once at construction**:
    ``pids`` is C-contiguous native ``int32``, ``addrs`` native ``int64``,
    ``writes`` native ``uint8``.  The simulator relies on this — it
    slices them into chunks and iterates them as Python scalars — so no
    per-run conversion or copying ever happens downstream.
    """

    __slots__ = ("name", "pids", "addrs", "writes", "dataset_bytes", "placement", "meta")

    def __init__(
        self,
        name: str,
        pids: np.ndarray,
        addrs: np.ndarray,
        writes: np.ndarray,
        dataset_bytes: int,
        placement: Optional[Dict[int, int]] = None,
        meta: Optional[Dict[str, object]] = None,
    ) -> None:
        if not (len(pids) == len(addrs) == len(writes)):
            raise TraceError("pids/addrs/writes must have equal length")
        if dataset_bytes <= 0:
            raise TraceError("dataset_bytes must be positive")
        self.name = name
        self.pids = _normalise("pids", pids, np.int32)
        self.addrs = _normalise("addrs", addrs, np.int64)
        self.writes = _normalise("writes", writes, np.uint8)
        self.dataset_bytes = int(dataset_bytes)
        self.placement = placement
        self.meta = dict(meta) if meta else {}

    def __len__(self) -> int:
        return len(self.pids)

    def __iter__(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate (pid, addr, is_write) as plain Python ints."""
        return zip(self.pids.tolist(), self.addrs.tolist(), self.writes.tolist())

    @property
    def write_fraction(self) -> float:
        if len(self) == 0:
            return 0.0
        return float(self.writes.sum()) / len(self)

    @property
    def n_procs(self) -> int:
        return int(self.pids.max()) + 1 if len(self) else 0

    def slice(self, start: int, stop: int) -> "Trace":
        """A sub-trace (used by tests and incremental runs)."""
        return Trace(
            self.name,
            self.pids[start:stop],
            self.addrs[start:stop],
            self.writes[start:stop],
            self.dataset_bytes,
            self.placement,
            self.meta,
        )

    def validate(self, n_procs: int, address_limit: Optional[int] = None) -> None:
        """Raise :class:`TraceError` on out-of-range pids/addresses."""
        if len(self) == 0:
            raise TraceError("empty trace")
        if int(self.pids.min()) < 0 or int(self.pids.max()) >= n_procs:
            raise TraceError(
                f"pid out of range [0, {n_procs}): "
                f"[{int(self.pids.min())}, {int(self.pids.max())}]"
            )
        if int(self.addrs.min()) < 0:
            raise TraceError("negative address in trace")
        limit = address_limit if address_limit is not None else self.dataset_bytes
        if int(self.addrs.max()) >= limit:
            raise TraceError(
                f"address {int(self.addrs.max()):#x} beyond limit {limit:#x}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mb = self.dataset_bytes / (1 << 20)
        return (
            f"Trace({self.name!r}, refs={len(self)}, dataset={mb:.2f}MB, "
            f"writes={self.write_fraction:.1%})"
        )
