"""A deterministic registry of named counters, gauges, and histograms.

Snapshots are plain nested dicts (JSON- and pickle-friendly, so they
ride back from sweep worker processes unchanged) with three sections:

* ``counters`` — summable integer event tallies.  Merging snapshots adds
  them, so the aggregate of a parallel sweep equals the serial one
  bit-for-bit.
* ``gauges`` — per-run state readings (occupancies, entry counts) taken
  at the end of a run.  Merging averages them (deterministically: plain
  arithmetic over the merge order, which the sweep engine fixes to plan
  order).
* ``histograms`` — fixed-bucket distributions; merging sums buckets.
  Merging histograms with *different* bucket bounds is a caller error
  and raises :class:`ValueError` naming the offending metric — never a
  silent mis-merge.
* ``series`` — windowed interval time-series (``{"window": W, "values":
  [...]}``): one value per simulated-time window of ``W`` references,
  written by the stall profiler (:mod:`repro.obs.profile`).  Merging
  adds values element-wise (shorter series are zero-padded); a window
  size mismatch raises :class:`ValueError`.

:func:`run_metrics` builds the standard snapshot for one finished
simulation: every :class:`~repro.stats.Counters` field under
``events.``, machine-state gauges under ``state.``, the NC set-occupancy
distribution under ``hist.``, and — when an
:class:`~repro.obs.events.EventTracer` was attached — per-kind event
totals under ``trace.``.  The full catalog is documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Snapshot = Dict[str, Dict[str, object]]


class Histogram:
    """Fixed-boundary histogram: ``len(bounds) + 1`` buckets.

    Buckets are upper-inclusive, the Prometheus ``le`` rule: a value
    ``v`` lands in the first bucket whose bound ``b`` has ``v <= b``;
    values above every bound land in the overflow bucket.  This is the
    one bucketing rule of both registries.  ``sum`` totals the recorded
    values for the wall-clock registry's ``_sum`` series; :meth:`as_dict`,
    the simulated-time snapshot form, keeps bounds and counts only.
    """

    __slots__ = ("bounds", "counts", "sum")

    def __init__(self, bounds: Sequence[float]) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0

    def record(self, value: float, count: int = 1) -> None:
        self.counts[bisect_left(self.bounds, value)] += count
        self.sum += value * count

    @property
    def total(self) -> int:
        return sum(self.counts)

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                f"histogram bounds mismatch: {self.bounds} vs {other.bounds}"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.sum += other.sum

    def as_dict(self) -> Dict[str, object]:
        return {"bounds": list(self.bounds), "counts": list(self.counts)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Histogram":
        h = cls(data["bounds"])  # type: ignore[arg-type]
        counts = [int(c) for c in data["counts"]]  # type: ignore[attr-defined]
        if len(counts) != len(h.bounds) + 1:
            raise ValueError(
                f"histogram counts/bounds mismatch: {len(h.bounds)} bounds "
                f"need {len(h.bounds) + 1} buckets, got {len(counts)}"
            )
        h.counts = counts
        h.sum = float(data.get("sum", 0.0))  # type: ignore[arg-type]
        return h


class MetricsRegistry:
    """Accumulates named metrics; :meth:`snapshot` freezes them."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._hists: Dict[str, Histogram] = {}

    # ---- writers ---------------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + int(value)

    def gauge(self, name: str, value: float) -> None:
        self._gauges[name] = float(value)

    def hist(self, name: str, bounds: Sequence[float]) -> Histogram:
        h = self._hists.get(name)
        if h is None:
            h = self._hists[name] = Histogram(bounds)
        return h

    # ---- freeze ----------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """A deterministic (sorted-key) plain-dict copy of everything."""
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
            "histograms": {
                k: self._hists[k].as_dict() for k in sorted(self._hists)
            },
            "series": {},
        }


def _empty_snapshot() -> Snapshot:
    return {"counters": {}, "gauges": {}, "histograms": {}, "series": {}}


def _merge_series(
    name: str, into: Dict[str, object], new: Dict[str, object]
) -> Dict[str, object]:
    """Element-wise sum of two windowed series; zero-pads the shorter."""
    if int(into["window"]) != int(new["window"]):
        raise ValueError(
            f"series {name!r}: window mismatch "
            f"({into['window']} vs {new['window']}); re-profile with the "
            f"same REPRO_PROFILE_WINDOW before merging"
        )
    a, b = list(into["values"]), list(new["values"])
    if len(a) < len(b):
        a, b = b, a
    merged = list(a)
    for i, v in enumerate(b):
        merged[i] += v
    return {"window": int(into["window"]), "values": merged}


def merge_snapshots(a: Optional[Snapshot], b: Optional[Snapshot]) -> Snapshot:
    """Merge two snapshots: counters add, gauges average, buckets add,
    series add element-wise.

    ``None`` inputs are treated as empty, so results without metrics can
    participate in an aggregate without special-casing.  Histograms (or
    series) recorded under the same name with different bucket bounds
    (or window sizes) raise :class:`ValueError` naming the metric —
    mismatched shapes are a caller bug, never silently mis-merged.
    """
    out = _empty_snapshot()
    for snap in (a, b):
        if snap is None:
            continue
        for k, v in snap.get("counters", {}).items():
            out["counters"][k] = out["counters"].get(k, 0) + v
        for k, v in snap.get("histograms", {}).items():
            if k in out["histograms"]:
                h = Histogram.from_dict(out["histograms"][k])
                try:
                    h.merge(Histogram.from_dict(v))
                except ValueError as exc:
                    raise ValueError(f"histogram {k!r}: {exc}") from exc
                out["histograms"][k] = h.as_dict()
            else:
                out["histograms"][k] = Histogram.from_dict(v).as_dict()
        for k, v in snap.get("series", {}).items():
            if k in out["series"]:
                out["series"][k] = _merge_series(k, out["series"][k], v)
            else:
                out["series"][k] = {
                    "window": int(v["window"]),
                    "values": list(v["values"]),
                }
    # gauges: unweighted mean over however many snapshots carried the key
    seen: Dict[str, Tuple[float, int]] = {}
    for snap in (a, b):
        if snap is None:
            continue
        for k, v in snap.get("gauges", {}).items():
            total, n = seen.get(k, (0.0, 0))
            # a previously merged snapshot may itself be a mean; fold the
            # sample count through the companion "<k>#n" gauge when present
            weight = int(snap.get("gauges", {}).get(k + "#n", 1))
            seen[k] = (total + v * weight, n + weight)
    for k, (total, n) in seen.items():
        if k.endswith("#n"):
            continue
        out["gauges"][k] = total / n if n else 0.0
        out["gauges"][k + "#n"] = float(n)
    out["counters"] = {k: out["counters"][k] for k in sorted(out["counters"])}
    out["gauges"] = {k: out["gauges"][k] for k in sorted(out["gauges"])}
    out["histograms"] = {k: out["histograms"][k] for k in sorted(out["histograms"])}
    out["series"] = {k: out["series"][k] for k in sorted(out["series"])}
    return out


def aggregate_metrics(snapshots: Iterable[Optional[Snapshot]]) -> Snapshot:
    """Fold many per-run snapshots into one sweep-level aggregate."""
    out: Snapshot = _empty_snapshot()
    for snap in snapshots:
        out = merge_snapshots(out, snap)
    return out


# ---------------------------------------------------------------------------
# the standard per-run snapshot
# ---------------------------------------------------------------------------

#: NC set-occupancy histogram buckets: 0, 1, 2, 3 lines, 4+ (overflow)
_NC_OCCUPANCY_BOUNDS = (0.0, 1.0, 2.0, 3.0)


def run_metrics(counters, machine, tracer=None) -> Snapshot:
    """The standard metrics snapshot for one finished simulation.

    Deterministic for a given (config, trace): gauges read quiescent
    machine state, counters copy the event tally, and the NC
    set-occupancy histogram walks the victim NC's sets.  ``tracer`` — if
    one was attached to the run — contributes per-kind event totals.
    """
    reg = MetricsRegistry()
    for name, value in counters.as_dict().items():
        reg.inc(f"events.{name}", value)

    # machine-state gauges (end-of-run residency)
    l1_lines = l1_frames = 0
    nc_lines = 0
    pc_frames = pc_capacity = 0
    nc_hist = reg.hist("hist.nc_set_occupancy", _NC_OCCUPANCY_BOUNDS)
    for node in machine.nodes:
        for l1 in node.l1s:
            l1_lines += len(l1)
            l1_frames += l1.n_sets * l1.assoc
        nc_lines += len(node.nc)
        for occ in node.nc.set_occupancies():
            nc_hist.record(occ)
        if node.pc is not None:
            pc_frames += len(node.pc)
            pc_capacity += node.pc.capacity
    reg.gauge("state.l1_occupancy", l1_lines / l1_frames if l1_frames else 0.0)
    reg.gauge("state.nc_resident_blocks", float(nc_lines))
    reg.gauge("state.pc_frames_used", float(pc_frames))
    reg.gauge(
        "state.pc_occupancy", pc_frames / pc_capacity if pc_capacity else 0.0
    )
    reg.gauge("state.directory_entries", float(machine.directory.n_entries()))
    reg.gauge(
        "state.directory_owned_blocks", float(len(machine.directory.owned_blocks()))
    )

    if tracer is not None:
        for kind in sorted(tracer.kind_counts):
            reg.inc(f"trace.{kind}", tracer.kind_counts[kind])
    return reg.snapshot()
