"""Hardware parameters, latency model, and system configuration.

This module encodes the machine geometry and the constant-latency
performance model of the paper:

* machine geometry (Sec. 5.1): 8 nodes x 4 processors, 16 KB two-way
  write-back processor caches with 64-byte blocks, 4 KB pages;
* event latencies (Table 2): DRAM access 10, tag checking 3,
  cache-to-cache transfer 1, remote access 30, page relocation 225 — all in
  10 ns bus cycles;
* the named remote-data-cache configurations of Sec. 5.1 are assembled in
  :mod:`repro.system.builder` from the dataclasses defined here.

It also holds :data:`SETTINGS`, the table of every ``REPRO_*``
environment variable the package reads, and :func:`setting`, their one
reader.

All sizes are in bytes unless a suffix says otherwise.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field, replace
from typing import Any, Dict, NamedTuple, Optional

from .errors import ConfigurationError


class Setting(NamedTuple):
    """One ``REPRO_*`` environment variable: a row of :data:`SETTINGS`."""

    kind: type  #: int, float, bool or str
    default: Any  #: the value when unset or blank (None: not set)
    floor: Optional[float]  #: lowest accepted value, inclusive (None: unbounded)
    consumer: str
    meaning: str
    exclusive: bool = False  #: the floor itself is rejected too


#: Every environment variable the package reads; docs/CLI.md's table is
#: rendered from it and ``tests/test_settings.py`` keeps it complete.
SETTINGS: Dict[str, Setting] = {
    "REPRO_BENCH_REFS": Setting(
        int, 400_000, None, "`repro experiment`, `repro report`, `benchmarks/`",
        "references per trace of every figure run and perf-gate benchmark (below 32 means 32)"),
    "REPRO_JOBS": Setting(
        int, None, None, "`repro sweep`, `explore`, `experiment`, `report`",
        "worker processes for sweeps (<= 0 means 1; unset: the CPU count for `sweep` and "
        "`explore`, serial for figure runs)"),
    "REPRO_RUN_DIR": Setting(
        str, None, None, "`repro experiment`, `repro report`",
        "figure runs journal each matrix under `<dir>/matrix-<id>` and resume from it"),
    "REPRO_MAX_RETRIES": Setting(
        int, 2, 0, "`repro.sim.parallel`", "per-cell retry budget for fault-tolerant sweeps"),
    "REPRO_CELL_TIMEOUT": Setting(
        float, None, 0, "`repro.sim.parallel`",
        "per-cell wall-clock budget in seconds (unset: unlimited)", exclusive=True),
    "REPRO_RETRY_BACKOFF": Setting(
        float, 0.05, 0, "`repro.sim.parallel`", "base backoff in seconds between cell retries"),
    "REPRO_FAULTS": Setting(
        str, None, None, "`repro.faults`",
        "fault-injection schedule for chaos testing (see docs/ROBUSTNESS.md)"),
    "REPRO_PROFILE": Setting(
        bool, False, None, "`repro.obs.profile`",
        "attach the stall profiler to every run (`0`, `false`, `no` and `off` do not)"),
    "REPRO_PROFILE_WINDOW": Setting(
        int, 10_000, 1, "`repro.obs.profile`", "references per profiler time-series window"),
    "REPRO_MANIFEST_DIR": Setting(
        str, None, None, "`repro.obs.manifest`",
        "directory where `repro perf` (`timed_sweep`), the experiment drivers, "
        "`repro report` and `repro check` drop their run manifests "
        "(`repro sweep` writes none)"),
    "REPRO_GIT_SHA": Setting(
        str, None, None, "`repro.obs.manifest`",
        "git SHA recorded in manifests (unset: `git rev-parse HEAD`)"),
    "REPRO_SERVICE_DIR": Setting(
        str, None, None, "`repro serve`",
        "service state directory: result store + job journals (unset: "
        "`$XDG_CACHE_HOME/repro/service`, else `~/.cache/repro/service`)"),
    "REPRO_STORE_MAX_BYTES": Setting(
        int, 0, 0, "`repro serve`",
        "result-store size budget; LRU-evicts above it (0 = unbounded)"),
    "REPRO_MAX_QUEUED_JOBS": Setting(
        int, 64, 0, "`repro serve`", "admission control: queued-job bound before 503s (0 = off)"),
    "REPRO_MAX_INFLIGHT_CELLS": Setting(
        int, 4096, 0, "`repro serve`", "admission control: queued+running cell bound (0 = off)"),
    "REPRO_JOB_TTL": Setting(
        float, None, 0, "`repro serve`",
        "seconds before terminal jobs are garbage-collected (unset or 0: kept forever)"),
    "REPRO_GC_INTERVAL": Setting(
        float, 30.0, 0, "`repro serve`", "seconds between terminal-job GC sweeps (0: the default)"),
    "REPRO_DRAIN_TIMEOUT": Setting(
        float, 30.0, 0, "`repro serve`",
        "graceful-drain budget in seconds on SIGTERM/SIGINT (0: the default; "
        "`--drain-timeout 0` waits not at all)"),
    "REPRO_REQUEST_TIMEOUT": Setting(
        float, 10.0, None, "`repro serve`",
        "per-request read/write timeout in seconds (<= 0: none)"),
}


def setting(name: str, given: Any = None) -> Any:
    """The value of the ``REPRO_*`` variable ``name``: ``given`` (an
    explicit argument or CLI flag) when set, else the parsed variable,
    else the row's default.  An empty value counts as unset.

    A value that does not parse, or lies below the row's floor, raises
    :class:`ConfigurationError` naming the variable (a CLI ``error:``
    line, exit 2), wherever it came from.
    """
    row = SETTINGS[name]
    value = given
    if value is None or value == "":
        raw = os.environ.get(name, "")
        raw = raw if row.kind is str else raw.strip()
        if not raw:
            return row.default
        if row.kind is bool:
            return raw.lower() not in ("0", "false", "no", "off")
        try:
            value = row.kind(raw)
        except ValueError:
            noun = "an integer" if row.kind is int else "a number"
            raise ConfigurationError(f"{name} must be {noun}, got {raw!r}") from None
    if row.floor is not None and (value < row.floor or row.exclusive and value == row.floor):
        op = ">" if row.exclusive else ">="
        raise ConfigurationError(f"{name} must be {op} {row.floor:g}, got {value!r}")
    return value


# --------------------------------------------------------------------------
# Machine geometry defaults (Sec. 5.1)
# --------------------------------------------------------------------------

DEFAULT_NODES = 8
DEFAULT_PROCS_PER_NODE = 4
DEFAULT_CACHE_SIZE = 16 * 1024
DEFAULT_CACHE_ASSOC = 2
DEFAULT_BLOCK_SIZE = 64
DEFAULT_PAGE_SIZE = 4096
DEFAULT_NC_SIZE = 16 * 1024
DEFAULT_NC_ASSOC = 4
DEFAULT_DRAM_NC_SIZE = 512 * 1024
WORD_SIZE = 4


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class NCKind(enum.Enum):
    """The network-cache organisations evaluated in the paper."""

    NONE = "none"  #: no network cache (the `base` system)
    DIRTY_INCLUSION = "dirty_inclusion"  #: SRAM NC, inclusion for dirty only (`nc`)
    VICTIM = "victim"  #: network victim cache (`vb` / `vp`)
    DRAM_FULL_INCLUSION = "dram"  #: large DRAM NC with full inclusion (`NCD`)
    INFINITE_SRAM = "inf_sram"  #: infinite fast NC (`NCS`)
    INFINITE_DRAM = "inf_dram"  #: infinite slow NC (normalisation reference)


class NCIndexing(enum.Enum):
    """How a set-associative NC computes its set index (Sec. 3.3/6.1.3)."""

    BLOCK = "block"  #: least-significant bits of the block address (`vb`)
    PAGE = "page"  #: least-significant bits of the page address (`vp`)


class RelocationCounters(enum.Enum):
    """Where the page-relocation counters live (Sec. 3.4)."""

    DIRECTORY = "directory"  #: R-NUMA: per (page, cluster) at the home directory
    NC_SET = "nc_set"  #: the paper's proposal: per set of the victim NC (`vxp`)


#: The paper initialises relocation thresholds to 32 (Sec. 6.2) for traces
#: of full benchmark executions (>= 10^8 references).  Our bounded traces
#: (default 400k) see proportionally fewer capacity misses per page, so the
#: library's default threshold and increment are the paper's values scaled
#: by THRESHOLD_SCALE; experiments that compare thresholds (Figs. 6/11)
#: keep the paper's 2x ratio (scaled 32 vs 64 -> 8 vs 16).
PAPER_INITIAL_THRESHOLD = 32
PAPER_THRESHOLD_INCREMENT = 8
THRESHOLD_SCALE = 4
DEFAULT_INITIAL_THRESHOLD = PAPER_INITIAL_THRESHOLD // THRESHOLD_SCALE
DEFAULT_THRESHOLD_INCREMENT = PAPER_THRESHOLD_INCREMENT // THRESHOLD_SCALE


class ThresholdPolicy(enum.Enum):
    """Relocation threshold policy (Sec. 6.2)."""

    FIXED = "fixed"
    ADAPTIVE = "adaptive"


class BusProtocol(enum.Enum):
    """Intra-cluster bus protocol variant (Sec. 3.2).

    The paper's base protocol is MESIR (MESI + the R remote-clean-master
    state).  MOESIR adds the dirty-shared O state the authors evaluated
    and rejected ("very little benefit"): with O, a peer read of an M
    remote block keeps the dirty data in the supplier instead of pushing a
    write-back into the victim NC.
    """

    MESIR = "mesir"
    MOESIR = "moesir"


@dataclass(frozen=True)
class LatencyModel:
    """Constant event latencies in bus cycles (Table 2).

    The model deliberately ignores contention and hop-count variation, as
    the paper's does.  The composite latencies of Table 1 are exposed as
    properties: e.g. a DRAM NC hit costs a DRAM access plus tag checking.
    """

    dram_access: int = 10
    tag_check: int = 3
    cache_to_cache: int = 1
    remote_access: int = 30
    page_relocation: int = 225

    def __post_init__(self) -> None:
        for name in (
            "dram_access",
            "tag_check",
            "cache_to_cache",
            "remote_access",
            "page_relocation",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"latency {name} must be >= 0")

    # ---- Table 1 composites --------------------------------------------

    @property
    def sram_nc_hit(self) -> int:
        """SRAM NC hit: a cache-to-cache transfer on the bus."""
        return self.cache_to_cache

    @property
    def sram_nc_miss(self) -> int:
        """SRAM NC miss: plain remote access (NC snoops at bus speed)."""
        return self.remote_access

    @property
    def dram_nc_hit(self) -> int:
        """DRAM NC hit: DRAM access plus tag checking."""
        return self.dram_access + self.tag_check

    @property
    def dram_nc_miss(self) -> int:
        """DRAM NC miss: remote access plus the wasted tag check."""
        return self.remote_access + self.tag_check

    @property
    def pc_hit(self) -> int:
        """Page-cache hit: one local DRAM access (block state snooped in SRAM)."""
        return self.dram_access

    @property
    def relocation_equivalent_misses(self) -> float:
        """One page relocation expressed in remote-miss equivalents (225/30)."""
        return self.page_relocation / self.remote_access


@dataclass(frozen=True)
class CacheGeometry:
    """Size/associativity/block-size triple for any set-associative cache."""

    size: int
    assoc: int
    block_size: int = DEFAULT_BLOCK_SIZE

    def __post_init__(self) -> None:
        if self.size <= 0 or self.assoc <= 0 or self.block_size <= 0:
            raise ConfigurationError("cache geometry fields must be positive")
        if not _is_pow2(self.block_size):
            raise ConfigurationError("block size must be a power of two")
        if self.size % (self.assoc * self.block_size) != 0:
            raise ConfigurationError(
                f"cache size {self.size} not divisible by assoc*block "
                f"({self.assoc}*{self.block_size})"
            )
        if not _is_pow2(self.n_sets):
            raise ConfigurationError(
                f"number of sets ({self.n_sets}) must be a power of two"
            )

    @property
    def n_blocks(self) -> int:
        return self.size // self.block_size

    @property
    def n_sets(self) -> int:
        return self.n_blocks // self.assoc


@dataclass(frozen=True)
class NCConfig:
    """Network-cache configuration."""

    kind: NCKind = NCKind.NONE
    size: int = DEFAULT_NC_SIZE
    assoc: int = DEFAULT_NC_ASSOC
    indexing: NCIndexing = NCIndexing.BLOCK

    def __post_init__(self) -> None:
        if self.kind in (NCKind.NONE, NCKind.INFINITE_SRAM, NCKind.INFINITE_DRAM):
            return
        # finite caches must have a valid geometry
        CacheGeometry(self.size, self.assoc)

    @property
    def is_infinite(self) -> bool:
        return self.kind in (NCKind.INFINITE_SRAM, NCKind.INFINITE_DRAM)

    @property
    def is_dram(self) -> bool:
        return self.kind in (NCKind.DRAM_FULL_INCLUSION, NCKind.INFINITE_DRAM)

    def geometry(self, block_size: int) -> CacheGeometry:
        """Geometry of the finite NC; raises for NONE/infinite kinds."""
        if self.kind is NCKind.NONE or self.is_infinite:
            raise ConfigurationError(f"NC kind {self.kind} has no finite geometry")
        return CacheGeometry(self.size, self.assoc, block_size)


@dataclass(frozen=True)
class PCConfig:
    """Page-cache configuration.

    The page-cache size is given either as a byte count (``size_bytes``,
    used for the 512 KB comparisons of Figs. 9/10) or as a fraction of the
    application's dataset size (``fraction`` — e.g. 1/5 for the `*5`
    systems).  Exactly one of the two must be set when ``enabled``.
    """

    enabled: bool = False
    size_bytes: Optional[int] = None
    fraction: Optional[float] = None
    counters: RelocationCounters = RelocationCounters.DIRECTORY
    threshold_policy: ThresholdPolicy = ThresholdPolicy.ADAPTIVE
    initial_threshold: int = DEFAULT_INITIAL_THRESHOLD
    threshold_increment: int = DEFAULT_THRESHOLD_INCREMENT
    break_even: int = 12
    window_factor: int = 2
    hit_counter_max: int = 63
    #: Sec. 3.4 refinement (off in the paper's base system): a late
    #: invalidation decrements the relocation counter it inflated
    decrement_on_invalidation: bool = False
    #: NC-set counter sharing for `vxp` (1 = the paper's one-per-set)
    nc_counter_sharing: int = 1

    def __post_init__(self) -> None:
        if not self.enabled:
            return
        if (self.size_bytes is None) == (self.fraction is None):
            raise ConfigurationError(
                "exactly one of size_bytes / fraction must be set for an "
                "enabled page cache"
            )
        if self.size_bytes is not None and self.size_bytes <= 0:
            raise ConfigurationError("page cache size_bytes must be positive")
        if self.fraction is not None and not (0.0 < self.fraction <= 1.0):
            raise ConfigurationError("page cache fraction must be in (0, 1]")
        if self.initial_threshold < 1:
            raise ConfigurationError("initial_threshold must be >= 1")
        if self.nc_counter_sharing < 1:
            raise ConfigurationError("nc_counter_sharing must be >= 1")

    def frames_for_dataset(self, dataset_bytes: int, page_size: int) -> int:
        """Number of page frames the PC gets for a given dataset size."""
        if not self.enabled:
            return 0
        if self.size_bytes is not None:
            nbytes = self.size_bytes
        else:
            assert self.fraction is not None
            nbytes = int(dataset_bytes * self.fraction)
        return max(1, nbytes // page_size)


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of one simulated machine configuration."""

    name: str = "custom"
    n_nodes: int = DEFAULT_NODES
    procs_per_node: int = DEFAULT_PROCS_PER_NODE
    cache: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(DEFAULT_CACHE_SIZE, DEFAULT_CACHE_ASSOC)
    )
    page_size: int = DEFAULT_PAGE_SIZE
    nc: NCConfig = field(default_factory=NCConfig)
    pc: PCConfig = field(default_factory=PCConfig)
    latency: LatencyModel = field(default_factory=LatencyModel)
    protocol: BusProtocol = BusProtocol.MESIR

    def __post_init__(self) -> None:
        if self.n_nodes <= 0 or self.procs_per_node <= 0:
            raise ConfigurationError("node/processor counts must be positive")
        if not _is_pow2(self.page_size):
            raise ConfigurationError("page size must be a power of two")
        if self.page_size < self.cache.block_size:
            raise ConfigurationError("page size must be >= block size")
        if self.pc.enabled and self.nc.kind is NCKind.NONE:
            # Allowed: Fig. 7's "no NC" page-cache system.  Counters must
            # then live at the directory.
            if self.pc.counters is RelocationCounters.NC_SET:
                raise ConfigurationError(
                    "NC-set relocation counters require a victim NC"
                )
        if (
            self.pc.enabled
            and self.pc.counters is RelocationCounters.NC_SET
            and self.nc.kind is not NCKind.VICTIM
        ):
            raise ConfigurationError(
                "NC-set relocation counters require a victim NC"
            )

    @property
    def n_procs(self) -> int:
        return self.n_nodes * self.procs_per_node

    @property
    def block_size(self) -> int:
        return self.cache.block_size

    @property
    def block_bits(self) -> int:
        return self.block_size.bit_length() - 1

    @property
    def page_bits(self) -> int:
        return self.page_size.bit_length() - 1

    @property
    def blocks_per_page(self) -> int:
        return self.page_size // self.block_size

    def node_of(self, pid: int) -> int:
        """Cluster (node) id of processor ``pid``."""
        if not 0 <= pid < self.n_procs:
            raise ConfigurationError(
                f"processor id {pid} out of range [0, {self.n_procs})"
            )
        return pid // self.procs_per_node

    def with_(self, **changes: object) -> "SystemConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]
