"""Wall-clock metrics registry with Prometheus text exposition.

This module is the *operational* twin of :mod:`repro.obs.metrics`.  That
registry counts simulated-time protocol events and must stay bit-exact so
parallel merges reproduce serial runs; this one counts wall-clock service
behaviour — HTTP requests, queue depths, cache hits, per-cell runtimes —
and is scraped at ``GET /metrics`` in Prometheus text format 0.0.4.

Design points:

- **Deterministic iteration.**  Families are exposed in sorted name order,
  series in sorted label-value order, and label names are sorted at the
  series key, so two processes that record the same facts expose
  byte-identical text regardless of call order or kwarg order.
- **Fixed-bucket histograms.**  Bucket bounds are pinned on first use;
  each series is an :class:`repro.obs.metrics.Histogram`, so both
  registries bucket by one rule (upper-inclusive, ``value <= bound``).
  They render cumulatively with the standard ``le`` label, ``_sum`` and
  ``_count`` series.
- **Snapshot persistence.**  ``save()`` writes an atomic JSON snapshot
  (:func:`repro.durable.write_atomic`, like every other artifact);
  ``load()`` / ``merge()`` *add* counter and histogram state, so a
  restarted service resumes its tallies instead of forgetting them.
- **No dependencies, thread-safe.**  One lock guards all mutation; the
  registry is safe to share between the asyncio loop, job threads, and
  the sweep supervisor.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..durable import read_json, write_atomic
from .metrics import Histogram

__all__ = [
    "WallClockRegistry",
    "METRICS_CONTENT_TYPE",
    "METRICS_SNAPSHOT_NAME",
    "DEFAULT_TIME_BUCKETS",
]

# Content type mandated by the Prometheus text exposition format 0.0.4.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

# Default file name for the persisted snapshot inside a service data dir.
METRICS_SNAPSHOT_NAME = "metrics.json"

# Latency-style buckets (seconds): sub-millisecond HTTP handling up to
# multi-minute sweep jobs.  Shared by request, queue-wait, run-duration
# and per-cell histograms so operators learn one scale.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
    120.0,
    300.0,
)

_SNAPSHOT_VERSION = 1

LabelDict = Optional[Mapping[str, Any]]
_SeriesKey = Tuple[str, ...]


def _format_value(value: float) -> str:
    """Canonical sample rendering: integral floats as ints, else repr."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class _Family:
    """One metric family: shared help text, pinned label names, series map."""

    __slots__ = ("help", "label_names", "series")

    def __init__(self, help_text: str = "") -> None:
        self.help = help_text
        self.label_names: Optional[Tuple[str, ...]] = None
        self.series: Dict[_SeriesKey, Any] = {}

    def key_for(self, name: str, labels: LabelDict) -> _SeriesKey:
        labels = labels or {}
        names = tuple(sorted(str(k) for k in labels))
        if self.label_names is None:
            self.label_names = names
        elif self.label_names != names:
            raise ValueError(
                f"metric {name!r} used with labels {names} but declared with "
                f"{self.label_names}"
            )
        return tuple(str(labels[k]) for k in self.label_names)


class WallClockRegistry:
    """Thread-safe labelled counters/gauges/histograms with deterministic
    Prometheus text exposition and an atomic JSON snapshot."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, _Family] = {}
        self._gauges: Dict[str, _Family] = {}
        self._histograms: Dict[str, _Family] = {}
        self._hist_bounds: Dict[str, Tuple[float, ...]] = {}
        self._help: Dict[str, str] = {}

    # -- recording ---------------------------------------------------------

    def describe(self, name: str, help_text: str) -> None:
        """Attach HELP text to a family (idempotent; first text wins)."""
        with self._lock:
            self._help.setdefault(name, help_text)

    def inc(self, name: str, amount: float = 1.0, labels: LabelDict = None) -> None:
        if amount < 0:
            raise ValueError(f"counter {name!r} cannot decrease (amount={amount})")
        with self._lock:
            fam = self._counters.setdefault(name, _Family())
            key = fam.key_for(name, labels)
            fam.series[key] = fam.series.get(key, 0.0) + float(amount)

    def set_gauge(self, name: str, value: float, labels: LabelDict = None) -> None:
        with self._lock:
            fam = self._gauges.setdefault(name, _Family())
            key = fam.key_for(name, labels)
            fam.series[key] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        labels: LabelDict = None,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        with self._lock:
            fam = self._histograms.setdefault(name, _Family())
            bounds = self._hist_bounds.get(name)
            if bounds is None:
                bounds = tuple(sorted(float(b) for b in (buckets or DEFAULT_TIME_BUCKETS)))
                if not bounds:
                    raise ValueError(f"histogram {name!r} needs at least one bucket")
                self._hist_bounds[name] = bounds
            key = fam.key_for(name, labels)
            hist = fam.series.get(key)
            if hist is None:
                hist = fam.series[key] = Histogram(bounds)
            hist.record(float(value))

    # -- reading -----------------------------------------------------------

    def counter_total(self, name: str) -> float:
        """Sum of a counter family across all label sets."""
        with self._lock:
            fam = self._counters.get(name)
            if fam is None:
                return 0.0
            return float(sum(fam.series.values()))

    def gauge_value(self, name: str, labels: LabelDict = None) -> Optional[float]:
        with self._lock:
            fam = self._gauges.get(name)
            if fam is None:
                return None
            try:
                key = fam.key_for(name, labels)
            except ValueError:
                return None
            value = fam.series.get(key)
            return None if value is None else float(value)

    def histogram_totals(self, name: str) -> Tuple[int, float]:
        """(count, sum) of a histogram family aggregated over label sets."""
        with self._lock:
            fam = self._histograms.get(name)
            if fam is None:
                return 0, 0.0
            count = sum(h.total for h in fam.series.values())
            total = sum(h.sum for h in fam.series.values())
            return int(count), float(total)

    # -- exposition --------------------------------------------------------

    def expose(self) -> str:
        """Render the registry as Prometheus text format 0.0.4.

        Byte-deterministic: families sorted by name, series sorted by label
        values, label names sorted within each series.
        """
        with self._lock:
            lines: List[str] = []
            kinds = (
                ("counter", self._counters),
                ("gauge", self._gauges),
                ("histogram", self._histograms),
            )
            flat = []
            for kind, table in kinds:
                for name, fam in table.items():
                    flat.append((name, kind, fam))
            for name, kind, fam in sorted(flat, key=lambda item: item[0]):
                help_text = self._help.get(name, fam.help)
                if help_text:
                    lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {kind}")
                label_names = fam.label_names or ()
                for key in sorted(fam.series):
                    pairs = [
                        f'{ln}="{_escape_label(lv)}"'
                        for ln, lv in zip(label_names, key)
                    ]
                    if kind in ("counter", "gauge"):
                        label_blob = "{" + ",".join(pairs) + "}" if pairs else ""
                        value = fam.series[key]
                        lines.append(f"{name}{label_blob} {_format_value(value)}")
                        continue
                    hist = fam.series[key]
                    cumulative = 0
                    for bound, count in zip(hist.bounds, hist.counts):
                        cumulative += count
                        bucket_pairs = pairs + [f'le="{_format_value(bound)}"']
                        lines.append(
                            f"{name}_bucket{{{','.join(bucket_pairs)}}} {cumulative}"
                        )
                    cumulative += hist.counts[-1]
                    inf_pairs = pairs + ['le="+Inf"']
                    lines.append(f"{name}_bucket{{{','.join(inf_pairs)}}} {cumulative}")
                    label_blob = "{" + ",".join(pairs) + "}" if pairs else ""
                    lines.append(f"{name}_sum{label_blob} {_format_value(hist.sum)}")
                    lines.append(f"{name}_count{label_blob} {cumulative}")
            return "\n".join(lines) + ("\n" if lines else "")

    # -- snapshot / persistence -------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe, deterministic dump of the whole registry."""

        def dump(table: Dict[str, _Family], form=lambda value: value) -> Dict[str, Any]:
            out: Dict[str, Any] = {}
            for name in sorted(table):
                fam = table[name]
                out[name] = {
                    "labels": list(fam.label_names or ()),
                    "series": [
                        [list(key), form(fam.series[key])] for key in sorted(fam.series)
                    ],
                }
            return out

        with self._lock:
            snap: Dict[str, Any] = {
                "version": _SNAPSHOT_VERSION,
                "counters": dump(self._counters),
                "gauges": dump(self._gauges),
                "histograms": dump(
                    self._histograms, lambda h: {"counts": h.counts, "sum": h.sum}
                ),
                "bounds": {
                    name: list(bounds)
                    for name, bounds in sorted(self._hist_bounds.items())
                },
                "help": dict(sorted(self._help.items())),
            }
            # histogram counts are mutable lists; deep-copy via JSON round
            # trip so callers can stash snapshots without aliasing.
            return json.loads(json.dumps(snap, sort_keys=True))

    def merge(self, snap: Mapping[str, Any]) -> None:
        """Fold a snapshot into this registry.

        Counters and histogram buckets/sums *add*; gauges are only taken
        when the series is absent locally (a live gauge beats a stale one).
        Histograms whose bucket bounds disagree with the local family are
        skipped rather than corrupted.
        """
        if not isinstance(snap, Mapping):
            return
        counters = snap.get("counters", {})
        gauges = snap.get("gauges", {})
        histograms = snap.get("histograms", {})
        bounds_map = snap.get("bounds", {})
        help_map = snap.get("help", {})
        with self._lock:
            for name, text in help_map.items():
                self._help.setdefault(str(name), str(text))
            for name, payload in counters.items():
                fam = self._counters.setdefault(name, _Family())
                if fam.label_names is None:
                    fam.label_names = tuple(payload.get("labels", ()))
                for raw_key, value in payload.get("series", []):
                    key = tuple(str(v) for v in raw_key)
                    fam.series[key] = fam.series.get(key, 0.0) + float(value)
            for name, payload in gauges.items():
                fam = self._gauges.setdefault(name, _Family())
                if fam.label_names is None:
                    fam.label_names = tuple(payload.get("labels", ()))
                for raw_key, value in payload.get("series", []):
                    key = tuple(str(v) for v in raw_key)
                    fam.series.setdefault(key, float(value))
            for name, payload in histograms.items():
                incoming_bounds = tuple(float(b) for b in bounds_map.get(name, ()))
                if not incoming_bounds:
                    continue
                local_bounds = self._hist_bounds.get(name)
                if local_bounds is None:
                    self._hist_bounds[name] = incoming_bounds
                elif local_bounds != incoming_bounds:
                    continue
                fam = self._histograms.setdefault(name, _Family())
                if fam.label_names is None:
                    fam.label_names = tuple(payload.get("labels", ()))
                for raw_key, series in payload.get("series", []):
                    try:
                        hist = Histogram.from_dict(dict(series, bounds=incoming_bounds))
                    except (KeyError, ValueError):
                        continue
                    key = tuple(str(v) for v in raw_key)
                    local = fam.series.get(key)
                    if local is None:
                        fam.series[key] = hist
                    else:
                        local.merge(hist)

    def save(self, path: "os.PathLike[str]") -> bool:
        """Atomically persist the snapshot; returns False on I/O trouble."""
        try:
            write_atomic(path, json.dumps(self.snapshot(), sort_keys=True, indent=0))
            return True
        except (OSError, ValueError):
            return False

    def load(self, path: "os.PathLike[str]") -> bool:
        """Merge a persisted snapshot if one exists; returns True on merge."""
        snap = read_json(path)
        if not isinstance(snap, dict) or snap.get("version") != _SNAPSHOT_VERSION:
            return False
        self.merge(snap)
        return True


def merge_snapshots(snapshots: Iterable[Mapping[str, Any]]) -> WallClockRegistry:
    """Fold worker-process snapshots into one registry (helper for tests
    and offline aggregation)."""
    registry = WallClockRegistry()
    for snap in snapshots:
        registry.merge(snap)
    return registry
