"""The differential oracle: an independent flat-memory reference simulator.

:class:`OracleSimulator` re-implements the paper's protocol from the
specification, *not* from :mod:`repro.sim.simulator`'s code: naive
per-block scans instead of tag maps, plain lists/dicts/sets instead of
hot-path aliases, an explicit per-block ownership table instead of the
packed presence bitmaps, and none of the optimised simulator's inlining.
Where the optimised simulator tracks only coherence *states*, the oracle
additionally carries a **sequential-consistency value model**: every
write bumps a global per-block version, every cached copy remembers the
version of the data it holds, and every supply point (L1 hit, bus
cache-to-cache transfer, NC/PC/memory service) asserts the supplying
copy holds the *latest* version.  A protocol bug that leaves stale data
reachable — the kind a pure state model cannot see — fails here.

:func:`diff_cell` runs the optimised simulator and the oracle over the
same generated trace and diffs every event counter and the complete
final machine state (caches, NC, PC, directory, placement, relocation
counters).  On a mismatch the cell is re-run in lockstep to localise the
*first* diverging reference, and an
:class:`~repro.errors.OracleDivergenceError` reports it.
:func:`diff_parallel_sweep` additionally asserts that a serial sweep and
a ``jobs=N`` parallel sweep of the same matrix are bit-identical.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..coherence.states import MESIR, NCState, PCBlockState
from ..errors import (
    ConfigurationError,
    OracleDivergenceError,
    ProtocolError,
    VerificationError,
)
from ..params import (
    BusProtocol,
    NCIndexing,
    NCKind,
    RelocationCounters,
    SystemConfig,
    ThresholdPolicy,
)
from ..stats import Counters
from ..trace.record import Trace

_S = int(MESIR.S)
_E = int(MESIR.E)
_M = int(MESIR.M)
_R = int(MESIR.R)
_NC_CLEAN = int(NCState.CLEAN)
_NC_DIRTY = int(NCState.DIRTY)
_PC_INVALID = int(PCBlockState.INVALID)
_PC_CLEAN = int(PCBlockState.CLEAN)
_PC_DIRTY = int(PCBlockState.DIRTY)


class _Line:
    """One cached copy: block, coherence state, and data version."""

    __slots__ = ("block", "state", "version")

    def __init__(self, block: int, state: int, version: int) -> None:
        self.block = block
        self.state = state
        self.version = version


class _Frame:
    """One page-cache frame with per-block states and data versions."""

    __slots__ = ("page", "states", "versions", "last_miss", "hits")

    def __init__(self, page: int, blocks_per_page: int, now: int) -> None:
        self.page = page
        self.states = [_PC_INVALID] * blocks_per_page
        self.versions = [0] * blocks_per_page
        self.last_miss = now
        self.hits = 0


class _Threshold:
    """Per-node relocation threshold (fixed or adaptive), re-implemented."""

    def __init__(
        self, adaptive: bool, initial: int, increment: int, break_even: int, window: int
    ) -> None:
        self.adaptive = adaptive
        self.value = initial
        self.increment = increment
        self.break_even = break_even
        self.window = max(1, window)
        self.indicator = 0
        self.reuses = 0

    def on_frame_reuse(self, frame_hits: int) -> bool:
        if not self.adaptive:
            return False
        self.indicator += frame_hits - self.break_even
        self.reuses += 1
        if self.reuses < self.window:
            return False
        thrashing = self.indicator < 0
        self.reuses = 0
        self.indicator = 0
        if thrashing:
            self.value += self.increment
            return True
        return False


class OracleSimulator:
    """Reference MESIR/NC/PC simulator with a value (version) model.

    Deliberately unoptimised; see the module docstring.  ``step`` raises
    :class:`VerificationError` the moment any copy supplies data that is
    not the block's latest written version, or any protocol-illegal
    situation arises (dirty copy hit by an invalidation, flush of a
    non-existent owner, write-back by a non-owner, ...).
    """

    def __init__(self, config: SystemConfig, dataset_bytes: int = 0) -> None:
        if config.protocol is not BusProtocol.MESIR:
            raise ConfigurationError(
                "the differential oracle models plain MESIR only; "
                f"got {config.protocol}"
            )
        self.config = config
        self.counters = Counters()
        self.now = 0

        self.block_bits = config.block_bits
        self.bpp_bits = config.page_bits - config.block_bits
        self.bpp_mask = (1 << self.bpp_bits) - 1
        self.blocks_per_page = config.blocks_per_page
        self.n_nodes = config.n_nodes
        self.ppn = config.procs_per_node
        self.n_procs = config.n_procs

        # L1s: per pid, a list of sets; each set a list of _Line, LRU order
        self.l1_assoc = config.cache.assoc
        self.l1_sets = config.cache.n_sets
        self.l1: List[List[List[_Line]]] = [
            [[] for _ in range(self.l1_sets)] for _ in range(self.n_procs)
        ]

        # network cache, one per node
        kind = config.nc.kind
        self.nc_kind = kind
        self.nc_exclusive = kind is NCKind.VICTIM
        self.nc_inclusion: Optional[str] = {
            NCKind.DIRTY_INCLUSION: "dirty",
            NCKind.DRAM_FULL_INCLUSION: "full",
        }.get(kind)
        self.nc_infinite = kind in (NCKind.INFINITE_SRAM, NCKind.INFINITE_DRAM)
        if kind is NCKind.NONE:
            self.nc_sets: Optional[List[List[List[_Line]]]] = None
            self.nc_inf: Optional[List[Dict[int, _Line]]] = None
            self.nc_shift = 0
            self.nc_n_sets = 0
            self.nc_assoc = 0
        elif self.nc_infinite:
            self.nc_sets = None
            self.nc_inf = [{} for _ in range(self.n_nodes)]
            self.nc_shift = 0
            self.nc_n_sets = 0
            self.nc_assoc = 0
        else:
            geometry = config.nc.geometry(config.block_size)
            self.nc_n_sets = geometry.n_sets
            self.nc_assoc = geometry.assoc
            self.nc_shift = (
                self.bpp_bits if config.nc.indexing is NCIndexing.PAGE else 0
            )
            self.nc_sets = [
                [[] for _ in range(self.nc_n_sets)] for _ in range(self.n_nodes)
            ]
            self.nc_inf = None

        # page cache, relocation counters, thresholds
        pc_cfg = config.pc
        self.decrement_on_inval = pc_cfg.decrement_on_invalidation
        if pc_cfg.enabled:
            frames = pc_cfg.frames_for_dataset(dataset_bytes, config.page_size)
            self.pc_capacity = frames
            self.pc_hit_max = pc_cfg.hit_counter_max
            self.pc: Optional[List[Dict[int, _Frame]]] = [
                {} for _ in range(self.n_nodes)
            ]
            adaptive = pc_cfg.threshold_policy is ThresholdPolicy.ADAPTIVE
            self.thresholds: Optional[List[_Threshold]] = [
                _Threshold(
                    adaptive,
                    pc_cfg.initial_threshold,
                    pc_cfg.threshold_increment,
                    pc_cfg.break_even,
                    pc_cfg.window_factor * frames,
                )
                for _ in range(self.n_nodes)
            ]
            if pc_cfg.counters is RelocationCounters.DIRECTORY:
                self.dir_counts: Optional[Dict[Tuple[int, int], int]] = {}
                self.nc_counts: Optional[List[List[int]]] = None
                self.nc_count_sharing = 1
            else:  # NC_SET (vxp)
                self.dir_counts = None
                self.nc_count_sharing = pc_cfg.nc_counter_sharing
                n_counters = (
                    self.nc_n_sets + self.nc_count_sharing - 1
                ) // self.nc_count_sharing
                self.nc_counts = [[0] * n_counters for _ in range(self.n_nodes)]
        else:
            self.pc = None
            self.thresholds = None
            self.dir_counts = None
            self.nc_counts = None
            self.pc_capacity = 0
            self.pc_hit_max = 0
            self.nc_count_sharing = 1

        # directory: block -> [sharer set, owner or None]
        self.directory: Dict[int, List[Any]] = {}
        # first-touch placement: page -> home node
        self.homes: Dict[int, int] = {}
        # value model: latest written version per block, memory's version
        self.latest: Dict[int, int] = {}
        self.memory: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # value model
    # ------------------------------------------------------------------

    def _latest(self, block: int) -> int:
        return self.latest.get(block, 0)

    def _bump(self, block: int) -> int:
        version = self.latest.get(block, 0) + 1
        self.latest[block] = version
        return version

    def _assert_fresh(self, block: int, version: int, where: str) -> None:
        latest = self._latest(block)
        if version != latest:
            raise VerificationError(
                f"stale data supplied for block {block:#x} {where}: "
                f"got version {version}, latest write is {latest}"
            )

    # ------------------------------------------------------------------
    # naive structure helpers
    # ------------------------------------------------------------------

    def _node_of(self, pid: int) -> int:
        return pid // self.ppn

    def _node_pids(self, node: int) -> range:
        return range(node * self.ppn, (node + 1) * self.ppn)

    def _l1_set(self, pid: int, block: int) -> List[_Line]:
        return self.l1[pid][block & (self.l1_sets - 1)]

    def _l1_find(self, pid: int, block: int) -> Optional[_Line]:
        for line in self._l1_set(pid, block):
            if line.block == block:
                return line
        return None

    def _l1_promote(self, pid: int, block: int, line: _Line) -> None:
        bucket = self._l1_set(pid, block)
        if bucket[-1] is not line:
            bucket.remove(line)
            bucket.append(line)

    def _l1_remove(self, pid: int, block: int) -> Optional[_Line]:
        bucket = self._l1_set(pid, block)
        for line in bucket:
            if line.block == block:
                bucket.remove(line)
                return line
        return None

    # ---- NC helpers (all flavours) ----------------------------------------

    def _nc_set_index(self, block: int) -> int:
        return (block >> self.nc_shift) & (self.nc_n_sets - 1)

    def _nc_find(self, node: int, block: int) -> Optional[_Line]:
        if self.nc_inf is not None:
            return self.nc_inf[node].get(block)
        if self.nc_sets is None:
            return None
        for line in self.nc_sets[node][self._nc_set_index(block)]:
            if line.block == block:
                return line
        return None

    def _nc_promote(self, node: int, block: int, line: _Line) -> None:
        if self.nc_sets is None:
            return
        bucket = self.nc_sets[node][self._nc_set_index(block)]
        if bucket[-1] is not line:
            bucket.remove(line)
            bucket.append(line)

    def _nc_remove(self, node: int, block: int) -> Optional[_Line]:
        if self.nc_inf is not None:
            return self.nc_inf[node].pop(block, None)
        if self.nc_sets is None:
            return None
        bucket = self.nc_sets[node][self._nc_set_index(block)]
        for line in bucket:
            if line.block == block:
                bucket.remove(line)
                return line
        return None

    def _nc_insert(
        self, node: int, block: int, state: int, version: int
    ) -> Optional[_Line]:
        """Insert as MRU; return the evicted LRU line, if any."""
        if self.nc_inf is not None:
            self.nc_inf[node][block] = _Line(block, state, version)
            return None
        assert self.nc_sets is not None
        bucket = self.nc_sets[node][self._nc_set_index(block)]
        evicted = None
        if len(bucket) >= self.nc_assoc:
            evicted = bucket.pop(0)
        bucket.append(_Line(block, state, version))
        return evicted

    # ---- PC helpers ---------------------------------------------------------

    def _pc_frame(self, node: int, page: int) -> Optional[_Frame]:
        if self.pc is None:
            return None
        return self.pc[node].get(page)

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------

    def run(self, trace: Trace) -> Counters:
        if trace.placement:
            for page, home in trace.placement.items():
                self.homes.setdefault(page, home)
        block_bits = self.block_bits
        for pid, addr, is_write in zip(
            trace.pids.tolist(), trace.addrs.tolist(), trace.writes.tolist()
        ):
            self.step(pid, addr >> block_bits, bool(is_write))
        return self.counters

    def step(self, pid: int, block: int, is_write: bool) -> None:
        """Process one shared reference (note: takes a *block*, not an
        address — the oracle has no reason to re-derive it)."""
        c = self.counters
        self.now += 1
        if is_write:
            c.writes += 1
        else:
            c.reads += 1

        line = self._l1_find(pid, block)
        if line is not None:
            self._l1_promote(pid, block, line)
            if not is_write:
                c.l1_read_hits += 1
                self._assert_fresh(block, line.version, f"on L1 read hit (pid {pid})")
                return
            c.l1_write_hits += 1
            if line.state == _M:
                line.version = self._bump(block)
                return
            if line.state == _E:
                line.state = _M
                line.version = self._bump(block)
                return
            # S or R: upgrade transaction
            self._upgrade(pid, block, line)
            return

        self._miss(pid, block, is_write)

    # ------------------------------------------------------------------
    # write upgrades
    # ------------------------------------------------------------------

    def _upgrade(self, pid: int, block: int, line: _Line) -> None:
        c = self.counters
        node = self._node_of(pid)
        page = block >> self.bpp_bits
        home = self.homes.get(page)
        if home is None:
            raise VerificationError(
                f"upgrade of block {block:#x} whose page was never placed"
            )

        # every other copy inside the cluster dies
        for other in self._node_pids(node):
            if other != pid:
                self._l1_remove(other, block)

        if home != node:
            if self.nc_exclusive:
                self._nc_remove(node, block)  # a polluting clean copy dies
            elif self.nc_inclusion is not None:
                nc_line = self._nc_find(node, block)
                if nc_line is not None and nc_line.state == _NC_DIRTY:
                    nc_line.state = _NC_CLEAN  # stale-clean; ownership moves up
                if nc_line is None:
                    evicted = self._nc_insert(
                        node, block, _NC_CLEAN, self._latest(block)
                    )
                    if evicted is not None:
                        self._handle_nc_eviction(node, evicted)
            elif self.nc_infinite:
                self._nc_remove(node, block)

        frame = self._pc_frame(node, page)
        if frame is not None and home != node:
            frame.states[block & self.bpp_mask] = _PC_INVALID

        self._directory_upgrade(node, block, page)
        if home == node:
            c.local_upgrades += 1
        else:
            c.remote_upgrades += 1

        self._assert_fresh(block, line.version, f"on write upgrade (pid {pid})")
        line.state = _M
        line.version = self._bump(block)

    def _directory_upgrade(self, node: int, block: int, page: int) -> None:
        """Mirror of ``Directory.upgrade`` + the simulator's delivery loop."""
        c = self.counters
        entry = self.directory.get(block)
        if entry is None:
            entry = [ {node}, None ]
            self.directory[block] = entry
        sharers: Set[int] = entry[0]
        owner: Optional[int] = entry[1]
        if owner is not None and owner != node:
            raise VerificationError(
                f"upgrade of block {block:#x} by cluster {node} while "
                f"cluster {owner} owns it dirty"
            )
        others = sorted(sharers - {node})
        for cl in others:
            self._invalidate_cluster(cl, block, page)
        c.remote_invalidations += len(others)
        entry[0] = {node}
        entry[1] = node

    # ------------------------------------------------------------------
    # miss handling
    # ------------------------------------------------------------------

    def _miss(self, pid: int, block: int, is_write: bool) -> None:
        node = self._node_of(pid)
        page = block >> self.bpp_bits
        home = self.homes.get(page)
        if home is None:
            self.homes[page] = home = node  # first touch
        local = home == node

        # 1. cluster bus snoop: peer caches
        holders = [
            (other, line)
            for other in self._node_pids(node)
            if other != pid
            for line in [self._l1_find(other, block)]
            if line is not None
        ]
        if holders:
            self._supply_from_peers(pid, node, block, page, home, is_write, holders)
            return

        if not local:
            # 2. the network cache
            if self._try_nc(pid, node, block, page, is_write):
                return
            # 3. a relocated page's frame
            if self._try_pc(pid, node, block, page, is_write):
                return

        # 4. home memory
        if local:
            self._local_memory_access(pid, node, block, page, is_write)
        else:
            self._remote_access(pid, node, block, page, home, is_write)

    # ---- 1: peer caches ---------------------------------------------------

    def _supply_from_peers(
        self,
        pid: int,
        node: int,
        block: int,
        page: int,
        home: int,
        is_write: bool,
        holders: List[Tuple[int, _Line]],
    ) -> None:
        c = self.counters
        local = home == node
        for _, line in holders:
            self._assert_fresh(
                block, line.version, f"on bus c2c supply in cluster {node}"
            )

        if is_write:
            for other, _ in holders:
                self._l1_remove(other, block)
            if not local:
                if self.nc_exclusive:
                    self._nc_remove(node, block)
                elif self.nc_inclusion is not None:
                    nc_line = self._nc_find(node, block)
                    if nc_line is not None:
                        # service_write: LRU-promote, stale-clean the copy
                        self._nc_promote(node, block, nc_line)
                        nc_line.state = _NC_CLEAN
                    else:
                        evicted = self._nc_insert(
                            node, block, _NC_CLEAN, self._latest(block)
                        )
                        if evicted is not None:
                            self._handle_nc_eviction(node, evicted)
                elif self.nc_infinite:
                    nc_line = self._nc_find(node, block)
                    if nc_line is not None:
                        nc_line.state = _NC_CLEAN
            frame = self._pc_frame(node, page)
            if frame is not None and not local:
                frame.states[block & self.bpp_mask] = _PC_INVALID
            self._directory_upgrade(node, block, page)
            version = self._bump(block)
            self._fill(pid, node, block, page, _M, version)
            if local:
                c.local_write_misses += 1
            else:
                c.write_cluster_hits += 1
            return

        # read: cache-to-cache supply; a dirty supplier downgrades to S and
        # its write-back is disposed of within the cluster (plain MESIR)
        for other, line in holders:
            if line.state == _M:
                line.state = _S
                self._dispose_dirty_victim(node, block, page, line.version)
            elif line.state == _E:
                line.state = _S
        self._fill(pid, node, block, page, _S, self._latest(block))
        if local:
            c.local_read_misses += 1
        else:
            c.read_cluster_hits += 1

    def _dispose_dirty_victim(
        self, node: int, block: int, page: int, version: int
    ) -> None:
        """A dirty copy left an L1 (victimised or bus-downgraded): place
        its write-back.  Shared by the victim path and the downgrade path —
        the disposal rules are identical."""
        c = self.counters
        home = self.homes.get(page)
        if home == node:
            # the local memory write happens physically even when the
            # directory never recorded an owner (silent E->M at home)
            self.memory[block] = version
            entry = self.directory.get(block)
            if entry is not None and entry[1] == node:
                entry[1] = None
            return
        frame = self._pc_frame(node, page)
        if frame is not None:
            offset = block & self.bpp_mask
            frame.states[offset] = _PC_DIRTY
            frame.versions[offset] = version
            c.writebacks_absorbed += 1
            # the write-back rode the cluster bus: a (stale-clean) NC copy
            # of the block snoops the data and refreshes
            nc_line = self._nc_find(node, block)
            if nc_line is not None:
                nc_line.version = version
            return
        absorbed = False
        evicted: Optional[_Line] = None
        if self.nc_exclusive:
            nc_line = self._nc_find(node, block)
            if nc_line is not None:
                nc_line.state = _NC_DIRTY
                nc_line.version = version
            else:
                evicted = self._nc_insert(node, block, _NC_DIRTY, version)
            absorbed = True
        elif self.nc_inclusion is not None:
            nc_line = self._nc_find(node, block)
            if nc_line is not None:
                nc_line.state = _NC_DIRTY
                nc_line.version = version
                absorbed = True
        elif self.nc_infinite:
            nc_line = self._nc_find(node, block)
            if nc_line is None:
                self._nc_insert(node, block, _NC_DIRTY, version)
            else:
                nc_line.state = _NC_DIRTY
                nc_line.version = version
            absorbed = True
        if absorbed:
            c.writebacks_absorbed += 1
            self._record_nc_victimization(node, block)
            if evicted is not None:
                self._handle_nc_eviction(node, evicted)
            return
        c.writebacks_remote += 1
        self._directory_writeback(node, block, version)

    def _directory_writeback(self, node: int, block: int, version: int) -> None:
        entry = self.directory.get(block)
        if entry is None or entry[1] != node:
            raise VerificationError(
                f"write-back of block {block:#x} by cluster {node}, but the "
                f"oracle directory owner is {None if entry is None else entry[1]}"
            )
        entry[1] = None
        self.memory[block] = version

    # ---- 2: network cache ---------------------------------------------------

    def _try_nc(self, pid: int, node: int, block: int, page: int, is_write: bool) -> bool:
        c = self.counters
        if self.nc_kind is NCKind.NONE:
            return False

        if self.nc_exclusive:
            line = self._nc_remove(node, block)
            if line is None:
                return False
            self._assert_fresh(block, line.version, f"on victim-NC hit (node {node})")
            if is_write:
                if line.state == _NC_CLEAN:
                    self._directory_upgrade(node, block, page)
                frame = self._pc_frame(node, page)
                if frame is not None:
                    frame.states[block & self.bpp_mask] = _PC_INVALID
                version = self._bump(block)
                self._fill(pid, node, block, page, _M, version)
                c.write_nc_hits += 1
            else:
                fill = _M if line.state == _NC_DIRTY else _R
                self._fill(pid, node, block, page, fill, line.version)
                c.read_nc_hits += 1
            return True

        line = self._nc_find(node, block)
        if line is None:
            return False
        self._nc_promote(node, block, line)  # service_* use an LRU lookup
        self._assert_fresh(block, line.version, f"on NC hit (node {node})")
        if is_write:
            state = line.state
            line.state = _NC_CLEAN  # ownership moves up; the copy is stale
            if state == _NC_CLEAN:
                self._directory_upgrade(node, block, page)
            frame = self._pc_frame(node, page)
            if frame is not None:
                frame.states[block & self.bpp_mask] = _PC_INVALID
            version = self._bump(block)
            self._fill(pid, node, block, page, _M, version)
            c.write_nc_hits += 1
        else:
            self._fill(pid, node, block, page, _S, line.version)
            c.read_nc_hits += 1
        return True

    # ---- 3: page cache ---------------------------------------------------------

    def _try_pc(self, pid: int, node: int, block: int, page: int, is_write: bool) -> bool:
        frame = self._pc_frame(node, page)
        if frame is None:
            return False
        offset = block & self.bpp_mask
        state = frame.states[offset]
        if state == _PC_INVALID:
            return False
        c = self.counters
        frame.last_miss = self.now
        if frame.hits < self.pc_hit_max:
            frame.hits += 1
        self._assert_fresh(
            block, frame.versions[offset], f"on PC hit (node {node})"
        )
        if is_write:
            if state == _PC_CLEAN:
                self._directory_upgrade(node, block, page)
            frame.states[offset] = _PC_INVALID  # ownership moves to the L1
            version = self._bump(block)
            self._fill(pid, node, block, page, _M, version)
            c.write_pc_hits += 1
        else:
            self._fill(pid, node, block, page, _S, frame.versions[offset])
            c.read_pc_hits += 1
        return True

    # ---- 4a: local home memory ---------------------------------------------------

    def _local_memory_access(
        self, pid: int, node: int, block: int, page: int, is_write: bool
    ) -> None:
        c = self.counters
        entry = self.directory.get(block)
        if entry is None:
            entry = [set(), None]
            self.directory[block] = entry
        sharers: Set[int] = entry[0]
        owner: Optional[int] = entry[1]
        if owner == node:
            raise VerificationError(
                f"cluster {node} re-requested local block {block:#x} it owns dirty"
            )
        if is_write:
            others = sorted(sharers - {node})
            entry[0] = {node}
            entry[1] = node
        else:
            others = []
            sharers.add(node)
            entry[1] = None

        data_version = self.memory.get(block, 0)
        if owner is not None:
            data_version = self._flush_owner(owner, block, page, is_write)
        if others:
            for cl in others:
                if cl != owner:
                    self._invalidate_cluster(cl, block, page)
            c.remote_invalidations += len(others) - (owner in others)

        self._assert_fresh(block, data_version, f"from local memory (node {node})")
        if is_write:
            version = self._bump(block)
            self._fill(pid, node, block, page, _M, version)
            c.local_write_misses += 1
        else:
            only_us = entry[0] == {node}
            self._fill(pid, node, block, page, _E if only_us else _S, data_version)
            c.local_read_misses += 1

    # ---- 4b: remote access ----------------------------------------------------------

    def _remote_access(
        self, pid: int, node: int, block: int, page: int, home: int, is_write: bool
    ) -> None:
        c = self.counters
        entry = self.directory.get(block)
        if entry is None:
            entry = [set(), None]
            self.directory[block] = entry
        sharers: Set[int] = entry[0]
        owner: Optional[int] = entry[1]
        if owner == node:
            raise VerificationError(
                f"cluster {node} re-requested block {block:#x} it owns dirty"
            )
        is_capacity = node in sharers
        if is_write:
            others = sorted(sharers - {node})
            entry[0] = {node}
            entry[1] = node
        else:
            others = []
            sharers.add(node)
            entry[1] = None

        data_version = self.memory.get(block, 0)
        if owner is not None:
            data_version = self._flush_owner(owner, block, page, is_write)
        else:
            # the home cluster may hold the block E (sole-sharer grant) or M
            # (silent E->M); the remote request rides the home bus and
            # snoops them — the M data is written to home memory (read) or
            # forwarded (write)
            for hpid in self._node_pids(home):
                hline = self._l1_find(hpid, block)
                if hline is not None and hline.state in (_M, _E):
                    data_version = hline.version
                    if is_write:
                        self._l1_remove(hpid, block)
                    else:
                        hline.state = _S
                        self.memory[block] = hline.version
                    break  # E/M are exclusive

        if others:
            for cl in others:
                if cl != owner:
                    self._invalidate_cluster(cl, block, page)
            c.remote_invalidations += len(others) - (
                1 if (owner is not None and owner in others) else 0
            )

        if is_capacity:
            c.remote_capacity += 1
        else:
            c.remote_necessary += 1
        if is_write:
            c.write_remote += 1
        else:
            c.read_remote += 1

        frames = self.pc[node] if self.pc is not None else None
        page_resident = frames is not None and page in frames

        # R-NUMA directory relocation counters
        if (
            is_capacity
            and self.dir_counts is not None
            and frames is not None
            and not page_resident
        ):
            assert self.thresholds is not None
            key = (page, node)
            count = self.dir_counts.get(key, 0) + 1
            self.dir_counts[key] = count
            if count > self.thresholds[node].value:
                self._relocate_page(node, page)
                self.dir_counts.pop(key, None)
                page_resident = True

        self._assert_fresh(block, data_version, f"on remote fetch (node {node})")
        if page_resident:
            assert frames is not None
            frame = frames[page]
            offset = block & self.bpp_mask
            if is_write:
                frame.last_miss = self.now
                version = self._bump(block)
                self._fill(pid, node, block, page, _M, version)
            else:
                frame.states[offset] = _PC_CLEAN
                frame.versions[offset] = data_version
                frame.last_miss = self.now
                c.pc_fills += 1
                self._fill(pid, node, block, page, _S, data_version)
        else:
            if self.nc_inclusion is not None or self.nc_infinite:
                # allocate-on-miss NCs take a frame for the fetched block
                if self._nc_find(node, block) is None:
                    evicted = self._nc_insert(node, block, _NC_CLEAN, data_version)
                    if evicted is not None:
                        self._handle_nc_eviction(node, evicted)
            if is_write:
                version = self._bump(block)
                self._fill(pid, node, block, page, _M, version)
            else:
                self._fill(pid, node, block, page, _R, data_version)

    # ------------------------------------------------------------------
    # fills and victim disposal
    # ------------------------------------------------------------------

    def _fill(
        self, pid: int, node: int, block: int, page: int, state: int, version: int
    ) -> None:
        bucket = self._l1_set(pid, block)
        evicted = None
        if len(bucket) >= self.l1_assoc:
            evicted = bucket.pop(0)
        bucket.append(_Line(block, state, version))
        if evicted is not None:
            self._handle_l1_victim(node, evicted)

    def _handle_l1_victim(self, node: int, line: _Line) -> None:
        state = line.state
        if state == _S or state == _E:
            return
        block = line.block
        page = block >> self.bpp_bits

        if state == _M:
            self._dispose_dirty_victim(node, block, page, line.version)
            return

        if state == _R:
            # replacement transaction for the last clean copy in the node
            for pid in self._node_pids(node):
                peer = self._l1_find(pid, block)
                if peer is not None and peer.state == _S:
                    peer.state = _R  # a peer inherits mastership
                    return
            frame = self._pc_frame(node, page)
            if frame is not None:
                offset = block & self.bpp_mask
                if frame.states[offset] == _PC_INVALID:
                    frame.states[offset] = _PC_CLEAN
                    frame.versions[offset] = line.version
                return
            accepted = False
            evicted: Optional[_Line] = None
            if self.nc_exclusive:
                nc_line = self._nc_find(node, block)
                if nc_line is not None:
                    nc_line.version = line.version  # same data; refresh
                else:
                    evicted = self._nc_insert(node, block, _NC_CLEAN, line.version)
                accepted = True
            elif self.nc_inclusion is not None:
                nc_line = self._nc_find(node, block)
                if nc_line is not None:
                    nc_line.version = line.version
                    accepted = True
            elif self.nc_infinite:
                if self._nc_find(node, block) is None:
                    self._nc_insert(node, block, _NC_CLEAN, line.version)
                accepted = True
            if accepted:
                self._record_nc_victimization(node, block)
            if evicted is not None:
                self._handle_nc_eviction(node, evicted)
            return

        raise VerificationError(f"victimised line in impossible state {state}")

    def _handle_nc_eviction(self, node: int, evicted: _Line) -> None:
        c = self.counters
        c.nc_evictions += 1
        block = evicted.block
        dirty = evicted.state == _NC_DIRTY
        version = evicted.version
        if self.nc_inclusion == "dirty":
            for pid in self._node_pids(node):
                line = self._l1_find(pid, block)
                if line is not None and line.state == _M:
                    self._l1_remove(pid, block)
                    c.nc_inclusion_evictions += 1
                    dirty = True
                    version = line.version
                    break  # at most one dirty copy within the cluster
        elif self.nc_inclusion == "full":
            for pid in self._node_pids(node):
                line = self._l1_remove(pid, block)
                if line is not None:
                    c.nc_inclusion_evictions += 1
                    if line.state == _M:
                        dirty = True
                        version = line.version

        page = block >> self.bpp_bits
        frame = self._pc_frame(node, page)
        if dirty:
            if frame is not None:
                offset = block & self.bpp_mask
                frame.states[offset] = _PC_DIRTY
                frame.versions[offset] = version
                c.writebacks_absorbed += 1
            else:
                c.writebacks_remote += 1
                self._directory_writeback(node, block, version)
        else:
            if frame is not None:
                offset = block & self.bpp_mask
                if frame.states[offset] == _PC_INVALID:
                    frame.states[offset] = _PC_CLEAN
                    frame.versions[offset] = version

    # ------------------------------------------------------------------
    # inter-cluster actions
    # ------------------------------------------------------------------

    def _invalidate_cluster(self, cl: int, block: int, page: int) -> None:
        found = False
        for pid in self._node_pids(cl):
            line = self._l1_remove(pid, block)
            if line is not None:
                found = True
                if line.state == _M:
                    raise VerificationError(
                        f"invalidation found a dirty copy of {block:#x} in "
                        f"cluster {cl}"
                    )
        nc_line = self._nc_remove(cl, block)
        if nc_line is not None:
            found = True
            if nc_line.state == _NC_DIRTY:
                raise VerificationError(
                    f"invalidation found a dirty NC copy of {block:#x} in "
                    f"cluster {cl}"
                )
        frame = self._pc_frame(cl, page)
        if frame is not None:
            offset = block & self.bpp_mask
            if frame.states[offset] != _PC_INVALID:
                found = True
                if frame.states[offset] == _PC_DIRTY:
                    raise VerificationError(
                        f"invalidation found a dirty PC copy of {block:#x} in "
                        f"cluster {cl}"
                    )
            frame.states[offset] = _PC_INVALID
        if not found and self.decrement_on_inval:
            if self.dir_counts is not None:
                key = (page, cl)
                count = self.dir_counts.get(key, 0)
                if count > 1:
                    self.dir_counts[key] = count - 1
                elif count == 1:
                    del self.dir_counts[key]
            elif self.nc_counts is not None and self.nc_exclusive:
                i = self._nc_set_index(block) // self.nc_count_sharing
                if self.nc_counts[cl][i] > 0:
                    self.nc_counts[cl][i] -= 1

    def _flush_owner(self, cl: int, block: int, page: int, for_write: bool) -> int:
        """The recorded owner surrenders its dirty copy; returns the data
        version it supplied (always the latest write, or the oracle fails)."""
        c = self.counters
        offset = block & self.bpp_mask
        found = False
        version = 0
        for pid in self._node_pids(cl):
            line = self._l1_find(pid, block)
            if line is not None and line.state == _M:
                version = line.version
                if for_write:
                    self._l1_remove(pid, block)
                else:
                    line.state = _S
                    # the sharing write-back rides the cluster bus: a stale
                    # NC copy below the L1 snoops it and cleans/refreshes
                    nc_line = self._nc_find(cl, block)
                    if nc_line is not None:
                        if nc_line.state == _NC_DIRTY:
                            nc_line.state = _NC_CLEAN
                        nc_line.version = version
                found = True
                break
        if not found:
            nc_line = self._nc_find(cl, block)
            if nc_line is not None and nc_line.state == _NC_DIRTY:
                version = nc_line.version
                if for_write:
                    self._nc_remove(cl, block)
                else:
                    nc_line.state = _NC_CLEAN
                found = True
        if not found:
            frame = self._pc_frame(cl, page)
            if frame is not None and frame.states[offset] == _PC_DIRTY:
                version = frame.versions[offset]
                if for_write:
                    frame.states[offset] = _PC_INVALID
                else:
                    frame.states[offset] = _PC_CLEAN
                found = True
        if not found:
            raise VerificationError(
                f"directory says cluster {cl} owns block {block:#x} dirty, "
                "but the oracle finds no dirty copy there"
            )
        self._assert_fresh(block, version, f"on owner flush (cluster {cl})")
        if for_write:
            # every remaining (clean) copy in the owner cluster dies too
            for pid in self._node_pids(cl):
                self._l1_remove(pid, block)
            self._nc_remove(cl, block)
            frame = self._pc_frame(cl, page)
            if frame is not None:
                frame.states[offset] = _PC_INVALID
        else:
            c.writebacks_remote += 1
            self.memory[block] = version
        return version

    # ------------------------------------------------------------------
    # page relocation
    # ------------------------------------------------------------------

    def _record_nc_victimization(self, node: int, block: int) -> None:
        self.counters.nc_insertions += 1
        if self.nc_counts is None:
            return
        assert self.nc_sets is not None and self.thresholds is not None
        set_idx = self._nc_set_index(block)
        i = set_idx // self.nc_count_sharing
        counts = self.nc_counts[node]
        counts[i] += 1
        if counts[i] <= self.thresholds[node].value:
            return
        set_blocks = [line.block for line in self.nc_sets[node][set_idx]]
        frames = self.pc[node] if self.pc is not None else {}
        exclude = {
            b >> self.bpp_bits for b in set_blocks if (b >> self.bpp_bits) in frames
        }
        # predominant page: max count, ties broken toward first occurrence
        tally: Dict[int, int] = {}
        for b in set_blocks:
            p = b >> self.bpp_bits
            if p not in exclude:
                tally[p] = tally.get(p, 0) + 1
        counts[i] = 0
        if tally:
            page = max(tally.items(), key=lambda kv: kv[1])[0]
            self._relocate_page(node, page)

    def _relocate_page(self, node: int, page: int) -> None:
        c = self.counters
        assert self.pc is not None and self.thresholds is not None
        frames = self.pc[node]
        if page in frames:
            raise VerificationError(f"page {page:#x} relocated twice (node {node})")
        c.pc_relocations += 1
        evicted: Optional[_Frame] = None
        if len(frames) >= self.pc_capacity:
            evicted = min(frames.values(), key=lambda f: f.last_miss)
            del frames[evicted.page]
        frames[page] = _Frame(page, self.blocks_per_page, self.now)
        if evicted is not None:
            c.pc_evictions += 1
            self._flush_page_from_cluster(node, evicted)
            if self.thresholds[node].on_frame_reuse(evicted.hits):
                for frame in frames.values():
                    frame.hits = 0

    def _flush_page_from_cluster(self, node: int, frame: _Frame) -> None:
        c = self.counters
        base = frame.page << self.bpp_bits
        for offset in range(self.blocks_per_page):
            block = base + offset
            dirty = frame.states[offset] == _PC_DIRTY
            version = frame.versions[offset]
            for pid in self._node_pids(node):
                line = self._l1_remove(pid, block)
                if line is not None and line.state == _M:
                    dirty = True
                    version = line.version
            nc_line = self._nc_remove(node, block)
            if nc_line is not None and nc_line.state == _NC_DIRTY:
                dirty = True
                version = nc_line.version
            if dirty:
                c.pc_flush_writebacks += 1
                self._directory_writeback(node, block, version)

    # ------------------------------------------------------------------
    # final-state snapshot (for diffing against the real machine)
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Canonical final state, shape-compatible with
        :func:`machine_snapshot` on the optimised simulator's machine."""
        l1s = tuple(
            tuple(
                tuple((line.block, int(line.state)) for line in bucket)
                for bucket in self.l1[pid]
            )
            for pid in range(self.n_procs)
        )
        if self.nc_inf is not None:
            ncs: Tuple[Any, ...] = tuple(
                tuple(sorted((b, int(ln.state)) for b, ln in self.nc_inf[n].items()))
                for n in range(self.n_nodes)
            )
        elif self.nc_sets is not None:
            ncs = tuple(
                tuple(
                    tuple((line.block, int(line.state)) for line in bucket)
                    for bucket in self.nc_sets[n]
                )
                for n in range(self.n_nodes)
            )
        else:
            ncs = tuple(() for _ in range(self.n_nodes))
        if self.pc is not None:
            pcs: Optional[Tuple[Any, ...]] = tuple(
                tuple(
                    sorted(
                        (f.page, tuple(f.states), f.last_miss, f.hits)
                        for f in self.pc[n].values()
                    )
                )
                for n in range(self.n_nodes)
            )
        else:
            pcs = None
        directory = {
            block: (sum(1 << cl for cl in entry[0]), -1 if entry[1] is None else entry[1])
            for block, entry in self.directory.items()
        }
        dir_counts = (
            {(page << 6) | cl: n for (page, cl), n in self.dir_counts.items()}
            if self.dir_counts is not None
            else None
        )
        return {
            "l1s": l1s,
            "ncs": ncs,
            "pcs": pcs,
            "directory": directory,
            "placement": dict(self.homes),
            "dir_counts": dir_counts,
            "nc_counts": (
                tuple(tuple(c) for c in self.nc_counts)
                if self.nc_counts is not None
                else None
            ),
            "thresholds": (
                tuple(t.value for t in self.thresholds)
                if self.thresholds is not None
                else None
            ),
        }


def machine_snapshot(machine) -> Dict[str, Any]:
    """The optimised simulator's final state in the oracle's snapshot shape."""
    l1s = tuple(l1.set_contents() for node in machine.nodes for l1 in node.l1s)
    ncs = tuple(node.nc.snapshot() for node in machine.nodes)
    if machine.nodes and machine.nodes[0].pc is not None:
        pcs: Optional[Tuple[Any, ...]] = tuple(
            tuple(
                sorted(
                    (f.page, tuple(f.states), f.last_miss, f.hits)
                    for f in node.pc._frames.values()
                )
            )
            for node in machine.nodes
        )
    else:
        pcs = None
    directory = {
        block: (entry[0], entry[1]) for block, entry in machine.directory._entries.items()
    }
    nc_counts = None
    if machine.nodes and machine.nodes[0].nc_counters is not None:
        nc_counts = tuple(tuple(node.nc_counters._counts) for node in machine.nodes)
    thresholds = None
    if machine.nodes and machine.nodes[0].threshold is not None:
        thresholds = tuple(node.threshold.value for node in machine.nodes)
    return {
        "l1s": l1s,
        "ncs": ncs,
        "pcs": pcs,
        "directory": directory,
        "placement": dict(machine.placement._home),
        "dir_counts": (
            dict(machine.dir_counters._counts)
            if machine.dir_counters is not None
            else None
        ),
        "nc_counts": nc_counts,
        "thresholds": thresholds,
    }


# ---------------------------------------------------------------------------
# diff engines
# ---------------------------------------------------------------------------


def _counter_diff(a: Dict[str, int], b: Dict[str, int]) -> List[str]:
    return [
        f"{key}: simulator={a[key]} oracle={b[key]}" for key in a if a[key] != b[key]
    ]


def _localise_divergence(
    config: SystemConfig, trace: Trace
) -> Tuple[int, List[str]]:
    """Re-run simulator and oracle in lockstep; find the first diverging
    reference (by counter comparison after every step)."""
    from ..sim.simulator import Simulator
    from ..system.builder import build_machine

    sim = Simulator(build_machine(config, dataset_bytes=trace.dataset_bytes))
    oracle = OracleSimulator(config, dataset_bytes=trace.dataset_bytes)
    if trace.placement:
        for page, home in trace.placement.items():
            sim.machine.placement.touch(page, home)
            oracle.homes.setdefault(page, home)
    block_bits = config.block_bits
    for i, (pid, addr, is_write) in enumerate(
        zip(trace.pids.tolist(), trace.addrs.tolist(), trace.writes.tolist())
    ):
        sim.step(pid, addr, bool(is_write))
        oracle.step(pid, addr >> block_bits, bool(is_write))
        diffs = _counter_diff(sim.counters.as_dict(), oracle.counters.as_dict())
        if diffs:
            return i, diffs
    return len(trace), _counter_diff(
        sim.counters.as_dict(), oracle.counters.as_dict()
    )


def diff_cell(
    system: str,
    benchmark: str,
    refs: int = 10_000,
    seed: int = 1,
    scale: float = 0.03125,
    config: Optional[SystemConfig] = None,
) -> Dict[str, int]:
    """Diff the simulator against the oracle on one cell.

    Runs both over the identical generated trace, compares all event
    counters and the complete final machine state; raises
    :class:`OracleDivergenceError` (localised to the first diverging
    reference) on any mismatch.  Returns the agreed counters on success.
    """
    from ..sim.runner import get_trace
    from ..system.builder import system_config

    if config is None:
        config = system_config(system)
    trace = get_trace(benchmark, refs=refs, seed=seed, scale=scale)

    from ..sim.simulator import Simulator
    from ..system.builder import build_machine

    machine = build_machine(config, dataset_bytes=trace.dataset_bytes)
    sim = Simulator(machine)
    try:
        sim.run(trace)
        sim.counters.check()
    except (ProtocolError, AssertionError) as exc:
        raise OracleDivergenceError(
            system, benchmark, f"optimised simulator failed: {exc}"
        ) from exc

    oracle = OracleSimulator(config, dataset_bytes=trace.dataset_bytes)
    try:
        oracle.run(trace)
    except VerificationError as exc:
        raise OracleDivergenceError(
            system, benchmark, f"oracle value-model failure: {exc}"
        ) from exc
    oracle.counters.check()

    diffs = _counter_diff(sim.counters.as_dict(), oracle.counters.as_dict())
    if diffs:
        first, local_diffs = _localise_divergence(config, trace)
        raise OracleDivergenceError(
            system,
            benchmark,
            "counter mismatch: " + "; ".join(local_diffs or diffs),
            first_divergence=first,
        )

    sim_state = machine_snapshot(machine)
    oracle_state = oracle.snapshot()
    for key in sim_state:
        if sim_state[key] != oracle_state[key]:
            raise OracleDivergenceError(
                system,
                benchmark,
                f"final machine state differs in {key!r}: "
                f"simulator={sim_state[key]!r} oracle={oracle_state[key]!r}",
            )
    return sim.counters.as_dict()


def diff_parallel_sweep(
    systems: Iterable[str],
    benchmarks: Iterable[str],
    refs: int = 10_000,
    seed: int = 1,
    scale: float = 0.03125,
    jobs: int = 2,
) -> int:
    """Assert a serial sweep and a ``jobs=N`` parallel sweep are
    bit-identical; returns the number of compared cells.

    Both sweeps run with the stall profiler enabled (``profile=True``, as
    a ``--profile`` sweep does), so the comparison covers counters
    **and** the full metrics snapshot — profile counters, stall
    histograms, and windowed series included.
    Each cell's attributed stall is additionally checked for the Eq. 1
    conservation invariant: the per-component sum must equal
    ``remote_read_stall(counters, config)`` exactly.
    """
    from ..obs.profile import attributed_stall
    from ..sim.latency import remote_read_stall
    from ..sim.runner import sweep

    systems = list(systems)
    benchmarks = list(benchmarks)
    serial = sweep(
        systems, benchmarks, refs=refs, seed=seed, scale=scale, jobs=1, profile=True
    )
    parallel = sweep(
        systems, benchmarks, refs=refs, seed=seed, scale=scale, jobs=jobs, profile=True
    )
    if set(serial) != set(parallel):
        raise OracleDivergenceError(
            ",".join(systems),
            ",".join(benchmarks),
            f"parallel sweep returned different cells: "
            f"{sorted(set(serial) ^ set(parallel))}",
        )
    for key in serial:
        a = serial[key].counters.as_dict()
        b = parallel[key].counters.as_dict()
        diffs = [f"{k}: serial={a[k]} parallel={b[k]}" for k in a if a[k] != b[k]]
        if diffs:
            raise OracleDivergenceError(
                key[0], key[1], "serial vs parallel mismatch: " + "; ".join(diffs)
            )
        if serial[key].metrics != parallel[key].metrics:
            raise OracleDivergenceError(
                key[0],
                key[1],
                "serial vs parallel metrics snapshots differ "
                "(profile counters/histograms/series included)",
            )
        result = serial[key]
        if result.metrics is not None:
            attributed = attributed_stall(result.metrics, key[0], key[1])
            expected = int(remote_read_stall(result.counters, result.config))
            if attributed != expected:
                raise OracleDivergenceError(
                    key[0],
                    key[1],
                    f"stall attribution broke Eq. 1 conservation: "
                    f"attributed {attributed} != remote_read_stall {expected}",
                )
    return len(serial)
