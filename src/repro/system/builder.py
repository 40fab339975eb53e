"""Named system configurations and machine construction.

The paper's system names (Sec. 5.1) are reproduced verbatim:

=========  ==================================================================
name       meaning
=========  ==================================================================
``base``   no NC, no page cache
``nc``     16 KB 4-way SRAM NC, inclusion relaxed for clean blocks
``vb``     16 KB 4-way network victim cache, block-address indexed
``vp``     idem, page-address indexed
``ncs``    infinite SRAM NC (ideal)
``ncd``    512 KB 4-way DRAM NC with full inclusion
``dinf``   infinite DRAM NC — the normalisation reference of Figs. 9-11
``p``      page cache only, no NC (Fig. 7's left bars)
``ncp``    `nc` + page cache, R-NUMA directory relocation counters
``vbp``    `vb` + page cache, directory counters
``vpp``    `vp` + page cache, directory counters
``vxp``    `vp` + page cache, per-NC-set victimisation counters (proposal)
=========  ==================================================================

A digit suffix selects a page-cache size as a fraction of the dataset:
``ncp5`` = 1/5, ``vbp9`` = 1/9 (the paper's memory-pressure points).  With
no suffix, page-cache systems get the fixed 512 KB used for the
equal-DRAM comparison against ``ncd``.
"""

from __future__ import annotations

import re
from typing import Dict, Optional, Tuple

from ..errors import ConfigurationError, UnknownSystemError
from ..params import (
    DEFAULT_DRAM_NC_SIZE,
    DEFAULT_INITIAL_THRESHOLD,
    BusProtocol,
    CacheGeometry,
    LatencyModel,
    NCConfig,
    NCIndexing,
    NCKind,
    PCConfig,
    RelocationCounters,
    SystemConfig,
    ThresholdPolicy,
)
from ..rdc.adaptive import AdaptiveThreshold, FixedThreshold
from ..rdc.nc import NetworkCache
from ..rdc.pagecache import PageCache
from ..rdc.relocation import DirectoryRelocationCounters, NCSetRelocationCounters
from .machine import Machine
from .node import make_node
from .placement import FirstTouchPlacement

# NC flavour per name prefix: (kind, indexing)
_NC_FLAVOURS: Dict[str, Tuple[NCKind, NCIndexing]] = {
    "base": (NCKind.NONE, NCIndexing.BLOCK),
    "p": (NCKind.NONE, NCIndexing.BLOCK),
    "nc": (NCKind.DIRTY_INCLUSION, NCIndexing.BLOCK),
    "ncp": (NCKind.DIRTY_INCLUSION, NCIndexing.BLOCK),
    "vb": (NCKind.VICTIM, NCIndexing.BLOCK),
    "vbp": (NCKind.VICTIM, NCIndexing.BLOCK),
    "vp": (NCKind.VICTIM, NCIndexing.PAGE),
    "vpp": (NCKind.VICTIM, NCIndexing.PAGE),
    "vxp": (NCKind.VICTIM, NCIndexing.PAGE),
    "ncs": (NCKind.INFINITE_SRAM, NCIndexing.BLOCK),
    "ncd": (NCKind.DRAM_FULL_INCLUSION, NCIndexing.BLOCK),
    "dinf": (NCKind.INFINITE_DRAM, NCIndexing.BLOCK),
}

_PC_SYSTEMS = {"p", "ncp", "vbp", "vpp", "vxp"}

#: Every system name understood by :func:`system_config` (without suffixes).
SYSTEM_NAMES = tuple(sorted(_NC_FLAVOURS))

_NAME_RE = re.compile(r"^(?P<prefix>[a-z]+)(?P<frac>\d+)?$")


def parse_system_name(name: str) -> Tuple[str, Optional[int]]:
    """Split e.g. ``'ncp5'`` into ``('ncp', 5)``; plain names get None."""
    m = _NAME_RE.match(name.strip().lower())
    if not m:
        raise UnknownSystemError(name, list(SYSTEM_NAMES))
    prefix = m.group("prefix")
    frac = m.group("frac")
    if prefix not in _NC_FLAVOURS:
        raise UnknownSystemError(name, list(SYSTEM_NAMES))
    if frac is not None:
        if prefix not in _PC_SYSTEMS:
            raise ConfigurationError(
                f"system {prefix!r} has no page cache; size suffix {frac!r} "
                "is meaningless"
            )
        denom = int(frac)
        if denom < 1:
            raise ConfigurationError("page-cache fraction suffix must be >= 1")
        return prefix, denom
    return prefix, None


def system_config(
    name: str,
    *,
    cache_size: Optional[int] = None,
    cache_assoc: Optional[int] = None,
    nc_size: Optional[int] = None,
    threshold_policy: Optional[ThresholdPolicy] = None,
    initial_threshold: Optional[int] = None,
    latency: Optional[LatencyModel] = None,
    n_nodes: Optional[int] = None,
    procs_per_node: Optional[int] = None,
    protocol: Optional[BusProtocol] = None,
    decrement_on_invalidation: bool = False,
    nc_counter_sharing: int = 1,
) -> SystemConfig:
    """Build the :class:`SystemConfig` for a paper system name.

    Keyword overrides support the parameter sweeps of the figures: Fig. 3
    varies ``cache_assoc`` and ``nc_size``; Figs. 6/11 vary the threshold
    policy and its initial value.
    """
    prefix, denom = parse_system_name(name)
    kind, indexing = _NC_FLAVOURS[prefix]

    base = SystemConfig()
    cache = CacheGeometry(
        cache_size if cache_size is not None else base.cache.size,
        cache_assoc if cache_assoc is not None else base.cache.assoc,
        base.cache.block_size,
    )

    if kind is NCKind.DRAM_FULL_INCLUSION:
        default_nc_size = DEFAULT_DRAM_NC_SIZE
    else:
        default_nc_size = base.nc.size
    nc = NCConfig(
        kind=kind,
        size=nc_size if nc_size is not None else default_nc_size,
        assoc=base.nc.assoc,
        indexing=indexing,
    )

    if prefix in _PC_SYSTEMS:
        counters = (
            RelocationCounters.NC_SET
            if prefix == "vxp"
            else RelocationCounters.DIRECTORY
        )
        pc = PCConfig(
            enabled=True,
            size_bytes=DEFAULT_DRAM_NC_SIZE if denom is None else None,
            fraction=(1.0 / denom) if denom is not None else None,
            counters=counters,
            threshold_policy=threshold_policy or ThresholdPolicy.ADAPTIVE,
            initial_threshold=(
                initial_threshold
                if initial_threshold is not None
                else DEFAULT_INITIAL_THRESHOLD
            ),
            decrement_on_invalidation=decrement_on_invalidation,
            nc_counter_sharing=nc_counter_sharing,
        )
    else:
        pc = PCConfig()

    return SystemConfig(
        name=name.strip().lower(),
        n_nodes=n_nodes if n_nodes is not None else base.n_nodes,
        procs_per_node=(
            procs_per_node if procs_per_node is not None else base.procs_per_node
        ),
        cache=cache,
        nc=nc,
        pc=pc,
        latency=latency if latency is not None else LatencyModel(),
        protocol=protocol if protocol is not None else BusProtocol.MESIR,
    )


def build_machine(
    config: SystemConfig,
    dataset_bytes: int = 0,
    placement: Optional[FirstTouchPlacement] = None,
) -> Machine:
    """Instantiate a fresh :class:`Machine` for one simulation run.

    ``dataset_bytes`` (the benchmark's shared-data size) sizes
    fraction-based page caches; it may be 0 when the config has no PC or a
    byte-sized PC.
    """
    pc_cfg = config.pc
    if pc_cfg.enabled and pc_cfg.fraction is not None and dataset_bytes <= 0:
        raise ConfigurationError(
            "a fraction-sized page cache needs the benchmark dataset size"
        )

    nodes = []
    for node_id in range(config.n_nodes):
        nc = NetworkCache(config)
        pc = None
        threshold = None
        nc_counters = None
        if pc_cfg.enabled:
            frames = pc_cfg.frames_for_dataset(dataset_bytes, config.page_size)
            pc = PageCache(frames, config.blocks_per_page, pc_cfg.hit_counter_max)
            if pc_cfg.threshold_policy is ThresholdPolicy.ADAPTIVE:
                threshold = AdaptiveThreshold(
                    initial=pc_cfg.initial_threshold,
                    increment=pc_cfg.threshold_increment,
                    break_even=pc_cfg.break_even,
                    window=pc_cfg.window_factor * frames,
                )
            else:
                threshold = FixedThreshold(pc_cfg.initial_threshold)
            if pc_cfg.counters is RelocationCounters.NC_SET:
                assert nc.cache is not None
                nc_counters = NCSetRelocationCounters(
                    nc.cache.n_sets,
                    config.blocks_per_page.bit_length() - 1,
                    sharing=pc_cfg.nc_counter_sharing,
                )
        nodes.append(make_node(config, node_id, nc, pc, threshold, nc_counters))

    dir_counters = None
    if pc_cfg.enabled and pc_cfg.counters is RelocationCounters.DIRECTORY:
        dir_counters = DirectoryRelocationCounters()

    return Machine(config, nodes, placement, dir_counters)
