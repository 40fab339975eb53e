"""Structured event tracing for the protocol engine.

The simulator and the directory emit one :class:`TraceEvent` per
protocol-level action when (and only when) an :class:`EventTracer` is
attached.  Events land in a bounded ring buffer — the newest
``capacity`` events survive — and, when a ``jsonl_path`` is given, are
also streamed to disk as one JSON object per line, so arbitrarily long
runs can be traced without holding every event in memory.

The emission sites all live on the *miss* path (an L1 read hit emits
nothing), so the tracing-off overhead is a single ``is None`` check per
miss and exactly zero per inlined read hit — the guarantee
``benchmarks/bench_core.py`` pins and ``docs/OBSERVABILITY.md``
documents.

Event schema (also the JSONL field order)::

    {"seq": 17, "now": 1042, "kind": "nc_insert", "node": 3,
     "block": 81930, "detail": "dirty"}

``seq`` is the 0-based emission index (monotonic even after the ring
buffer wraps), ``now`` the simulator's reference clock, ``node`` the
cluster the event happened in (-1 when machine-wide), ``block`` the
block number (-1 when the event is page- or set-grained; pages go in
``detail``).
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO, Dict, Iterator, List, NamedTuple, Optional, Union


class TraceEvent(NamedTuple):
    """One traced protocol event."""

    seq: int
    now: int
    kind: str
    node: int
    block: int
    detail: str

    def as_dict(self) -> Dict[str, Union[int, str]]:
        return {
            "seq": self.seq,
            "now": self.now,
            "kind": self.kind,
            "node": self.node,
            "block": self.block,
            "detail": self.detail,
        }


#: every kind the simulator/directory can emit, with its meaning
EVENT_KINDS = {
    # bus / L1 level
    "upgrade": "write hit on a shared copy raised an upgrade transaction",
    "bus_c2c": "miss supplied cache-to-cache by a peer L1 on the cluster bus",
    # network cache
    "nc_hit": "miss serviced by the network cache (detail: read|write)",
    "nc_insert": "victimised block captured by the NC (detail: clean|dirty)",
    "nc_evict": "block replaced out of the NC (detail: clean|dirty)",
    "nc_pollution": "polluting clean NC copy of an L1-resident block died",
    # page cache
    "pc_hit": "miss serviced by a relocated page's frame (detail: read|write)",
    "pc_relocate": "page relocated into the page cache (detail: page number)",
    "pc_evict": "LRM frame eviction flushed a page from the cluster "
    "(detail: page number)",
    # directory / network
    "dir_access": "remote fetch reached the home directory "
    "(detail: capacity|necessary)",
    "dir_upgrade": "directory processed an ownership upgrade",
    "dir_writeback": "dirty data written back to home memory",
    "invalidate": "invalidation delivered to one cluster",
    "owner_flush": "dirty owner forced to surrender its copy (detail: read|write)",
    "writeback_remote": "dirty victim crossed the network to its home node",
    "writeback_absorbed": "dirty victim absorbed locally (NC or PC frame)",
}


#: verification events emitted by the ``repro check`` engines (node and
#: block are -1 unless the event names one; ``now`` is the engine's own
#: ordinal — explored states, diffed cells, or fuzz cases — not a simulated
#: clock)
CHECK_EVENT_KINDS = {
    "explore_variant": "one tiny configuration exhaustively explored "
    "(detail: system=states=transitions)",
    "explore_violation": "the explorer hit an invariant violation "
    "(detail: the minimal event path)",
    "diff_cell": "one (system, benchmark) cell diffed against the oracle "
    "(detail: system/benchmark)",
    "diff_divergence": "the optimised simulator and the oracle disagree "
    "(detail: cell and first differing counter)",
    "diff_parallel": "serial vs --jobs N sweep counters compared "
    "(detail: identical|divergent)",
    "fuzz_case": "one fuzz case executed (detail: strategy)",
    "fuzz_failure": "a fuzz case failed and will be shrunk "
    "(detail: error class)",
    "fuzz_shrunk": "a failing fuzz case was minimised and saved "
    "(detail: artifact path)",
    "replay": "a saved fuzz artifact was re-executed (detail: verdict)",
}


class EventTracer:
    """Bounded in-memory event ring with an optional JSONL sink.

    ``capacity`` bounds the ring buffer (oldest events fall off);
    ``jsonl_path`` additionally streams every event to a file, one JSON
    object per line, flushed on :meth:`close`.  By default the stream
    relies on the interpreter's buffering — a worker killed mid-run can
    lose the buffered tail — so durability-sensitive callers pass
    ``flush_every`` to force a flush after every N emitted events
    (``flush_every=1`` flushes per event; whole lines are written before
    any flush, so a flushed event always survives as a complete line).
    The tracer is cheap but not free — attach one only when the events
    are wanted.
    """

    __slots__ = (
        "_ring", "_seq", "kind_counts", "_sink", "_own_sink",
        "_flush_every", "_since_flush",
    )

    def __init__(
        self,
        capacity: int = 65536,
        jsonl_path: Optional[str] = None,
        flush_every: Optional[int] = None,
    ) -> None:
        self._ring: "deque[TraceEvent]" = deque(maxlen=capacity)
        self._seq = 0
        #: events emitted per kind since construction (never truncated)
        self.kind_counts: Dict[str, int] = {}
        self._sink: Optional[IO[str]] = None
        self._own_sink = False
        if flush_every is not None and flush_every <= 0:
            raise ValueError("flush_every must be a positive integer")
        self._flush_every = flush_every
        self._since_flush = 0
        if jsonl_path is not None:
            self._sink = open(jsonl_path, "w", encoding="utf-8")
            self._own_sink = True

    # ---- emission (called by the simulator/directory) -------------------

    def emit(
        self, kind: str, now: int, node: int = -1, block: int = -1, detail: str = ""
    ) -> None:
        event = TraceEvent(self._seq, now, kind, node, block, detail)
        self._seq += 1
        self._ring.append(event)
        counts = self.kind_counts
        counts[kind] = counts.get(kind, 0) + 1
        if self._sink is not None:
            self._sink.write(json.dumps(event.as_dict()) + "\n")
            if self._flush_every is not None:
                self._since_flush += 1
                if self._since_flush >= self._flush_every:
                    self._sink.flush()
                    self._since_flush = 0

    # ---- inspection ------------------------------------------------------

    def __len__(self) -> int:
        """Events currently held in the ring (<= capacity)."""
        return len(self._ring)

    @property
    def total_emitted(self) -> int:
        """Events emitted since construction (not bounded by the ring)."""
        return self._seq

    def events(self) -> List[TraceEvent]:
        """The retained events, oldest first."""
        return list(self._ring)

    def events_of(self, kind: str) -> Iterator[TraceEvent]:
        return (e for e in self._ring if e.kind == kind)

    def clear(self) -> None:
        self._ring.clear()
        self.kind_counts.clear()

    # ---- sinks ----------------------------------------------------------

    def to_jsonl(self, path: str) -> int:
        """Dump the retained ring to ``path``; returns events written."""
        with open(path, "w", encoding="utf-8") as fh:
            for event in self._ring:
                fh.write(json.dumps(event.as_dict()) + "\n")
        return len(self._ring)

    def close(self) -> None:
        """Flush and close the streaming JSONL sink, if any."""
        if self._sink is not None and self._own_sink:
            self._sink.close()
            self._sink = None

    def __enter__(self) -> "EventTracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
