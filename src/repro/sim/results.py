"""Result container combining counters, configuration, and derived metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from ..obs.manifest import config_digest, counters_digest
from ..params import SystemConfig
from ..stats import Counters
from . import latency as _lat


class StaleRecord(ValueError):
    """A persisted cell whose config or counters digest does not match."""


@dataclass
class SimulationResult:
    """Everything one simulation run produced."""

    system: str
    benchmark: str
    config: SystemConfig
    counters: Counters
    refs: int
    seed: int = 0
    elapsed_s: float = 0.0
    #: observability snapshot (repro.obs.metrics.run_metrics): plain nested
    #: dicts of counters/gauges/histograms, deterministic per (config, trace)
    #: and picklable, so parallel sweep workers return it unchanged
    metrics: Optional[Dict[str, Dict[str, object]]] = field(default=None, repr=False)

    # ---- persistence ------------------------------------------------------

    def record(self, scale: float) -> Dict[str, object]:
        """The fields a sweep-journal row and a result-store entry share.

        ``scale`` is the trace scale the cell ran at, which a result does
        not carry.  The config and counters digests let :meth:`restore`
        refuse a record that no longer matches.
        """
        return {
            "system": self.system,
            "benchmark": self.benchmark,
            "refs": self.refs,
            "seed": self.seed,
            "scale": scale,
            "config_sha": config_digest(self.config),
            "counters": self.counters.as_dict(),
            "counters_sha": counters_digest(self.counters),
            "metrics": self.metrics,
        }

    @classmethod
    def restore(
        cls, rec: Mapping[str, object], config: SystemConfig
    ) -> "SimulationResult":
        """Rebuild a result from :meth:`record`'s fields under ``config``.

        Raises :class:`StaleRecord` when the record's config digest is not
        ``config``'s or its counters fail their digest.  A malformed record
        (``counters`` not an object, say) raises ``KeyError``,
        ``TypeError`` or ``ValueError``.  The restored result has
        ``elapsed_s`` 0.
        """
        if rec["config_sha"] != config_digest(config):
            raise StaleRecord("config digest mismatch")
        raw = rec["counters"]
        if not isinstance(raw, dict):
            raise TypeError("counters is not an object")
        counters = Counters(**{k: int(v) for k, v in raw.items()})
        if counters_digest(counters) != rec["counters_sha"]:
            raise StaleRecord("counters digest mismatch")
        return cls(
            system=rec["system"],
            benchmark=rec["benchmark"],
            config=config,
            counters=counters,
            refs=int(rec["refs"]),
            seed=int(rec["seed"]),
            metrics=rec["metrics"],
        )

    # ---- engine throughput ------------------------------------------------

    @property
    def refs_per_sec(self) -> float:
        """Engine throughput for this run (0.0 when timing was not taken)."""
        if self.elapsed_s <= 0.0:
            return 0.0
        return self.refs / self.elapsed_s

    # ---- headline metrics -------------------------------------------------

    @property
    def remote_read_stall(self) -> float:
        """Eq. 1, in bus cycles."""
        return _lat.remote_read_stall(self.counters, self.config)

    @property
    def stall_components(self) -> Dict[str, int]:
        """Eq. 1 decomposed per component (sums exactly to the stall)."""
        return _lat.stall_components(self.counters, self.config)

    @property
    def relocation_overhead_cycles(self) -> int:
        return _lat.relocation_overhead_cycles(self.counters, self.config)

    @property
    def stall_without_relocation(self) -> float:
        return self.remote_read_stall - self.relocation_overhead_cycles

    @property
    def traffic_blocks(self) -> int:
        return _lat.traffic_blocks(self.counters)

    @property
    def read_miss_ratio(self) -> float:
        """% of shared references that are read misses leaving the cluster."""
        return _lat.miss_ratio_read(self.counters)

    @property
    def write_miss_ratio(self) -> float:
        return _lat.miss_ratio_write(self.counters)

    @property
    def miss_ratio(self) -> float:
        return self.read_miss_ratio + self.write_miss_ratio

    @property
    def relocation_overhead_ratio(self) -> float:
        """Relocations scaled to equivalent remote misses, % of references."""
        return _lat.relocation_overhead_ratio(self.counters, self.config)

    @property
    def stall_per_reference(self) -> float:
        if self.counters.refs == 0:
            return 0.0
        return self.remote_read_stall / self.counters.refs

    # ---- ratios used in the figures -----------------------------------------

    def normalized_stall(self, reference: "SimulationResult") -> float:
        """Remote read stall normalised to a reference system (Figs. 9/11)."""
        ref = reference.remote_read_stall
        return self.remote_read_stall / ref if ref else float("inf")

    def normalized_traffic(self, reference: "SimulationResult") -> float:
        """Remote data traffic normalised to a reference system (Fig. 10)."""
        ref = reference.traffic_blocks
        return self.traffic_blocks / ref if ref else float("inf")

    # ---- reporting -------------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Compact numeric summary (used by examples and reports)."""
        c = self.counters
        return {
            "refs": float(c.refs),
            "read_miss_ratio_pct": self.read_miss_ratio,
            "write_miss_ratio_pct": self.write_miss_ratio,
            "relocation_overhead_pct": self.relocation_overhead_ratio,
            "remote_read_stall_cycles": self.remote_read_stall,
            "stall_per_ref_cycles": self.stall_per_reference,
            "traffic_blocks": float(self.traffic_blocks),
            "nc_read_hits": float(c.read_nc_hits),
            "pc_read_hits": float(c.read_pc_hits),
            "relocations": float(c.pc_relocations),
            "capacity_misses": float(c.remote_capacity),
            "necessary_misses": float(c.remote_necessary),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulationResult({self.system!r}, {self.benchmark!r}, "
            f"miss={self.miss_ratio:.2f}%, stall/ref="
            f"{self.stall_per_reference:.2f}cy)"
        )
