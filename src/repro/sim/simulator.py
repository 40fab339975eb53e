"""The trace-driven protocol engine.

One :class:`Simulator` drives one :class:`~repro.system.machine.Machine`
through an interleaved shared-reference trace, playing the roles of every
cluster bus and pseudo-processor:

* intra-cluster MESIR snooping (cache-to-cache supply, mastership transfer
  on R-state replacement, M->S downgrades);
* the network cache's bus-side behaviour for each organisation (victim
  capture, allocate-on-miss, inclusion enforcement on NC evictions);
* the page cache's local-memory behaviour (block fills, dirty absorption,
  LRM eviction with cluster-wide page flush);
* the inter-cluster directory protocol (presence bits, owner flush,
  invalidations, capacity/necessary classification);
* both page-relocation mechanisms (R-NUMA directory counters and the
  `vxp` NC-set victimisation counters) with fixed or adaptive thresholds.

The simulator is *functional with event counting*: it mutates coherence
state exactly, counts every monitored event in a :class:`repro.stats.Counters`,
and leaves latency arithmetic to :mod:`repro.sim.latency` (the paper's
model is contention-free, so counts x constants is exact).

The miss path works on the machine's structures directly: the
constructor prebinds every node's L1 tag maps and sets, NC storage, page
frames and relocation counters, and the NC organisation
(``config.nc.kind``, the same on every node) selects one fused chain per
step.  This module is the only place the organisations' policies run:
:class:`~repro.rdc.nc.NetworkCache` only holds the storage, and no path
here calls a method of it.

Invariant checked throughout (and by the hypothesis tests): at most one
dirty copy of any block machine-wide; the directory's owner always has the
dirty data in an L1, its NC, or its PC frame.
"""

from __future__ import annotations


from ..coherence.cache import CacheLine
from ..coherence.states import MESIR, NCState, PCBlockState
from ..errors import ProtocolError
from ..params import BusProtocol, NCKind, SystemConfig
from ..rdc.pagecache import PageFrame
from ..stats import Counters
from ..system.machine import Machine
from ..system.node import Node
from ..trace.record import Trace

_I = int(MESIR.I)
_S = int(MESIR.S)
_E = int(MESIR.E)
_M = int(MESIR.M)
_R = int(MESIR.R)
_O = int(MESIR.O)
_NC_CLEAN = int(NCState.CLEAN)  # PCBlockState uses the same values
_NC_DIRTY = int(NCState.DIRTY)
_PC_INVALID = int(PCBlockState.INVALID)

# NC organisations: each selects one fused chain on the miss path (the two
# infinite kinds share one, selected by NCConfig.is_infinite)
_NO_NC = NCKind.NONE
_VICTIM_NC = NCKind.VICTIM
_DIRTY_INCL_NC = NCKind.DIRTY_INCLUSION
_FULL_INCL_NC = NCKind.DRAM_FULL_INCLUSION


class Simulator:
    """Drives one machine through one trace, tallying monitored events.

    ``tracer`` — an optional :class:`repro.obs.events.EventTracer` — turns
    on structured event emission.  ``profiler`` — an optional
    :class:`repro.obs.profile.StallProfiler` — turns on per-reference
    stall attribution.  Every emission/attribution site sits on the miss
    path behind an ``is None`` guard; the inlined L1 read-hit loop in
    :meth:`run` carries no instrumentation code at all, so simulation
    throughput with both off is unchanged (pinned by
    ``benchmarks/bench_core.py``).
    """

    def __init__(self, machine: Machine, tracer=None, profiler=None) -> None:
        self.machine = machine
        self.config: SystemConfig = machine.config
        self.counters = Counters()
        self.now = 0  # reference index; the LRM clock
        self._tracer = tracer
        self._profiler = profiler
        if tracer is not None:
            machine.directory._tracer = tracer
        if profiler is not None:
            profiler.bind_machine(machine)

        cfg = self.config
        self._block_bits = cfg.block_bits
        self._bpp_bits = cfg.page_bits - cfg.block_bits
        self._bpp_mask = (1 << self._bpp_bits) - 1
        self._ppn = cfg.procs_per_node
        self._l1s = [machine.l1_of(pid) for pid in range(cfg.n_procs)]
        self._nodes = nodes = machine.nodes
        self._directory = machine.directory
        self._dir_entries = machine.directory._entries  # hot-path alias
        self._n_nodes = machine.directory.n_nodes
        self._placement = machine.placement
        self._homes = machine.placement._home  # first-touch map, hot-path alias
        self._dir_counters = machine.dir_counters
        self._use_o_state = cfg.protocol is BusProtocol.MOESIR
        self._decrement_on_inval = cfg.pc.decrement_on_invalidation
        # Hot-path prebinds.  Every structure below is mutated in place and
        # never replaced (the model checker restores states the same way).
        # L1s: one geometry machine-wide, block-address indexed.
        self._l1_tags = [l1._tag for l1 in self._l1s]
        self._l1_sets = [l1._sets for l1 in self._l1s]
        self._l1_mask = self._l1s[0]._set_mask if self._l1s else 0
        self._l1_assoc = self._l1s[0].assoc if self._l1s else 0
        self._node_l1s = [[(l1._tag, l1._sets) for l1 in node.l1s] for node in nodes]
        self._node_tags = [[l1._tag for l1 in node.l1s] for node in nodes]
        self._node_of = [pid // self._ppn for pid in range(cfg.n_procs)]
        self._peer_l1s = [
            [p for p in self._node_l1s[self._node_of[pid]] if p[0] is not tags]
            for pid, tags in enumerate(self._l1_tags)
        ]
        self._peer_tags = [[tag for tag, _ in peers] for peers in self._peer_l1s]
        # NCs: a tag map per node (block -> CacheLine for the set-associative
        # organisations, block -> state for the infinite ones, an empty map
        # that is never filled without an NC)
        self._org = cfg.nc.kind
        self._nc_infinite = cfg.nc.is_infinite
        caches = [node.nc.cache for node in nodes if node.nc.cache is not None]
        self._nc_tags = [
            node.nc.lines if node.nc.cache is None else node.nc.cache._tag
            for node in nodes
        ]
        self._nc_sets = [cache._sets for cache in caches]
        self._nc_shift = caches[0]._shift if caches else 0
        self._nc_mask = caches[0]._set_mask if caches else 0
        self._nc_assoc = caches[0].assoc if caches else 0
        # relocation: `vxp` NC-set counters, R-NUMA directory counters,
        # per-node thresholds and page frames (None without a page cache)
        self._nc_counts = [
            n.nc_counters._counts if n.nc_counters is not None else None for n in nodes
        ]
        self._nc_sharing = [
            n.nc_counters.sharing if n.nc_counters is not None else 1 for n in nodes
        ]
        self._dir_counts = (
            machine.dir_counters._counts if machine.dir_counters is not None else None
        )
        self._thresholds = [node.threshold for node in nodes]
        self._pc_frames = [
            node.pc._frames if node.pc is not None else None for node in nodes
        ]
        self._pc_hit_max = [
            node.pc.hit_counter_max if node.pc is not None else 0 for node in nodes
        ]

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------

    #: references converted to plain Python ints per batch; bounds peak
    #: list memory instead of materialising three full-trace lists at once
    _RUN_CHUNK = 1 << 15

    def run(self, trace: Trace) -> Counters:
        """Simulate the whole trace; returns the accumulated counters.

        Semantically identical to calling :meth:`step` per reference (the
        equivalence is pinned by tests), but the ~90% case — a read hit in
        the issuing processor's L1 — is inlined here over the caches' tag
        maps: no ``step``/``lookup`` calls, block numbers shifted once as a
        numpy vector, attribute loads hoisted out of the loop, and the
        reference/hit tallies accumulated in locals.
        """
        if trace.placement:
            for page, home in trace.placement.items():
                self._placement.touch(page, home)
        c = self.counters
        upgrade = self._upgrade
        miss = self._miss
        # every L1 shares one geometry and uses block-address indexing
        l1_tags = [l1._tag for l1 in self._l1s]
        l1_sets = [l1._sets for l1 in self._l1s]
        set_mask = self._l1s[0]._set_mask if self._l1s else 0
        M, E = _M, _E
        pids_arr = trace.pids
        blocks_arr = trace.addrs >> self._block_bits
        writes_arr = trace.writes
        n = len(pids_arr)
        chunk = self._RUN_CHUNK
        now = self.now
        # reference totals are trace properties; tally them vectorised
        writes_total = int(writes_arr.sum())
        read_hits = write_hits = 0
        for start in range(0, n, chunk):
            stop = start + chunk
            for pid, block, w in zip(
                pids_arr[start:stop].tolist(),
                blocks_arr[start:stop].tolist(),
                writes_arr[start:stop].tolist(),
            ):
                now += 1
                line = l1_tags[pid].get(block)
                if line is not None:
                    # any hit refreshes LRU, exactly as lookup() would
                    lines = l1_sets[pid][block & set_mask]
                    if lines[-1] is not line:
                        lines.remove(line)
                        lines.append(line)
                    if not w:
                        read_hits += 1
                        continue
                    write_hits += 1
                    st = line.state
                    if st == M:
                        continue
                    if st == E:
                        line.state = M
                        continue
                    self.now = now
                    upgrade(pid, block, line)
                    continue
                self.now = now
                miss(pid, block, bool(w))
        self.now = now
        c.reads += n - writes_total
        c.writes += writes_total
        c.l1_read_hits += read_hits
        c.l1_write_hits += write_hits
        return c

    def step(self, pid: int, addr: int, is_write: bool) -> None:
        """Process one shared reference."""
        c = self.counters
        self.now += 1
        block = addr >> self._block_bits
        l1 = self._l1s[pid]
        line = l1.lookup(block)

        if is_write:
            c.writes += 1
        else:
            c.reads += 1

        if line is not None:
            st = line.state
            if not is_write:
                c.l1_read_hits += 1
                return
            if st == _M:
                c.l1_write_hits += 1
                return
            if st == _E:
                line.state = _M
                c.l1_write_hits += 1
                return
            # S, R, or O: write hit needing an upgrade transaction
            c.l1_write_hits += 1
            self._upgrade(pid, block, line)
            return

        self._miss(pid, block, is_write)

    # ------------------------------------------------------------------
    # write upgrades
    # ------------------------------------------------------------------

    def _upgrade(self, pid: int, block: int, line) -> None:
        """Write hit on an S/R/O copy: gain exclusivity, then mark M."""
        c = self.counters
        node_idx = self._node_of[pid]
        page = block >> self._bpp_bits
        home = self._homes.get(page)
        assert home is not None  # the block is cached, so the page was touched
        tr = self._tracer
        if tr is not None:
            self._directory.now = self.now
            tr.emit("upgrade", self.now, node=node_idx, block=block)

        # drop every other copy inside the cluster
        mask = self._l1_mask
        for tag, sets in self._peer_l1s[pid]:
            ln = tag.pop(block, None)
            if ln is not None:
                sets[block & mask].remove(ln)
        if home != node_idx:  # the NC and the PC hold remote blocks only
            org = self._org
            if org is _VICTIM_NC:
                # a polluting clean copy, if any
                if self._nc_remove(node_idx, block) is not None and tr is not None:
                    tr.emit("nc_pollution", self.now, node=node_idx, block=block)
            elif org is _DIRTY_INCL_NC or org is _FULL_INCL_NC:
                # inclusion NCs must regain a frame for the soon-dirty
                # block; an existing dirty frame becomes stale-clean
                # (ownership moves up to the writing L1)
                self._nc_downgrade(node_idx, block)
                self._nc_fetch(node_idx, block)
            else:
                self._nc_remove(node_idx, block)
            pc = self._nodes[node_idx].pc
            if pc is not None:
                pc.invalidate_block(page, block & self._bpp_mask)

        self._gain_ownership(node_idx, block, page)
        if home == node_idx:
            c.local_upgrades += 1
        else:
            c.remote_upgrades += 1
        line.state = _M

    def _gain_ownership(self, node_idx: int, block: int, page: int) -> None:
        """Directory upgrade: every other cluster's copy is invalidated."""
        invalidate = self._directory.upgrade(block, node_idx)
        for cl in invalidate:
            self._invalidate_cluster(cl, block, page)
        self.counters.remote_invalidations += len(invalidate)

    # ------------------------------------------------------------------
    # miss handling
    # ------------------------------------------------------------------

    def _miss(self, pid: int, block: int, is_write: bool) -> None:
        node_idx = self._node_of[pid]
        page = block >> self._bpp_bits
        if self._tracer is not None:
            self._directory.now = self.now
        # inlined FirstTouchPlacement.touch (one dict probe on the miss path)
        homes = self._homes
        home = homes.get(page)
        if home is None:
            homes[page] = home = node_idx

        # 1. snoop the cluster bus: most misses find no peer holder, so the
        # common case is one membership test per peer cache
        for tag in self._peer_tags[pid]:
            if block in tag:
                self._supply_from_peers(pid, node_idx, block, page, home, is_write)
                return
        if home != node_idx:
            # 2. the network cache answers the same bus transaction
            if block in self._nc_tags[node_idx]:
                self._nc_hit(pid, node_idx, block, page, is_write)
                return
            # 3. a relocated page's frame in local memory
            frames = self._pc_frames[node_idx]
            if (
                frames is not None
                and page in frames
                and self._try_pc(pid, node_idx, block, page, is_write, frames[page])
            ):
                return
            # 4b. a remote (monitored) access to the home node
            self._remote_access(pid, node_idx, block, page, home, is_write)
            return

        # 4a. local home memory.  The directory transaction runs inline, as
        # in _remote_access; its dir_access event precedes the owner flush
        # and the invalidations.
        c = self.counters
        bit = 1 << node_idx
        entry = self._dir_entries.get(block)
        if entry is None:
            entry = self._dir_entries[block] = [0, -1]
        presence = entry[0]
        owner = entry[1]
        if owner == node_idx:
            raise ProtocolError(
                f"cluster {node_idx} re-requested block {block:#x} it owns dirty"
            )
        if is_write:
            entry[0] = bit
            entry[1] = node_idx
        else:
            entry[0] = presence | bit
            entry[1] = -1  # a read of a dirty block forces a sharing write-back
        tr = self._tracer
        if tr is not None:
            tr.emit(
                "dir_access", self.now,
                node=node_idx, block=block,
                detail="capacity" if presence & bit else "necessary",
            )
        if owner >= 0:
            self._flush_owner(owner, block, page, is_write)
        if is_write:
            if presence & ~bit:
                self._invalidate_others(presence & ~bit, owner, block, page)
            fill = _M
            c.local_write_misses += 1
        else:
            fill = _E if entry[0] == bit else _S
            c.local_read_misses += 1
        # _fill inlined: the other common ending of a miss
        lines = self._l1_sets[pid][block & self._l1_mask]
        if len(lines) < self._l1_assoc:
            line = CacheLine(block, fill)
            lines.append(line)
            self._l1_tags[pid][block] = line
            return
        tags = self._l1_tags[pid]
        line = lines.pop(0)
        victim = line.block
        victim_state = line.state
        del tags[victim]
        line.block = block
        line.state = fill
        lines.append(line)
        tags[block] = line
        if victim_state != _S and victim_state != _E:
            self._handle_l1_victim(node_idx, victim, victim_state)

    # ---- 1: peer caches ---------------------------------------------------

    def _supply_from_peers(
        self, pid: int, node_idx: int, block: int, page: int, home: int, is_write: bool
    ) -> None:
        c = self.counters
        tr = self._tracer
        if tr is not None:
            tr.emit(
                "bus_c2c", self.now,
                node=node_idx, block=block,
                detail="write" if is_write else "read",
            )

        local = home == node_idx
        if is_write:
            mask = self._l1_mask
            for tag, sets in self._peer_l1s[pid]:
                ln = tag.pop(block, None)
                if ln is not None:
                    sets[block & mask].remove(ln)
            if not local:  # the NC and the PC hold remote blocks only
                org = self._org
                if org is _VICTIM_NC:
                    if self._nc_remove(node_idx, block) is not None and tr is not None:
                        tr.emit("nc_pollution", self.now, node=node_idx, block=block)
                elif self._nc_infinite:
                    tags = self._nc_tags[node_idx]
                    if block in tags:
                        tags[block] = _NC_CLEAN  # ownership moves to the L1
                elif org is not _NO_NC:
                    # stale-clean the frame (promoted to MRU), keep inclusion
                    ln = self._nc_tags[node_idx].get(block)
                    if ln is not None:
                        self._nc_promote(node_idx, ln)
                        ln.state = _NC_CLEAN
                    self._nc_fetch(node_idx, block)
                pc = self._nodes[node_idx].pc
                if pc is not None:
                    pc.invalidate_block(page, block & self._bpp_mask)
            self._gain_ownership(node_idx, block, page)
            self._fill(pid, node_idx, block, _M)
            if local:
                c.local_write_misses += 1
            else:
                c.write_cluster_hits += 1
                if self._profiler is not None:
                    self._profiler.on_cluster_hit(self.now, True)
            return

        # read: supply via cache-to-cache; a dirty supplier downgrades —
        # to dirty-shared O under MOESIR (no write-back leaves the L1s),
        # to S with a write-back to dispose of under plain MESIR
        holders = [tag[block] for tag in self._peer_tags[pid] if block in tag]
        frames = self._pc_frames[node_idx]
        page_resident = frames is not None and not local and page in frames
        for ln in holders:
            if ln.state == _M:
                if self._use_o_state and not local and not page_resident:
                    ln.state = _O
                else:
                    ln.state = _S
                    self._handle_l1_victim(node_idx, block, _M, "bus")
            elif ln.state == _E:
                ln.state = _S
        self._fill(pid, node_idx, block, _S)
        if local:
            c.local_read_misses += 1
        else:
            c.read_cluster_hits += 1
            if self._profiler is not None:
                self._profiler.on_cluster_hit(self.now, False)

    # ---- 2: network cache ---------------------------------------------------

    def _nc_hit(
        self, pid: int, node_idx: int, block: int, page: int, is_write: bool
    ) -> None:
        """The NC holds the block: one fused service per organisation."""
        tags = self._nc_tags[node_idx]
        if self._org is _VICTIM_NC:
            # exclusive: the frame swaps straight back into the L1
            line = tags.pop(block)
            self._nc_sets[node_idx][(block >> self._nc_shift) & self._nc_mask].remove(line)
            st = line.state
            fill = _M if is_write or st == _NC_DIRTY else _R
        else:
            # inclusive and infinite NCs keep the frame (and the dirtiness,
            # if any); a write hands ownership up, the copy goes stale-clean
            if self._nc_infinite:
                st = tags[block]
                if is_write:
                    tags[block] = _NC_CLEAN
            else:
                line = tags[block]
                self._nc_promote(node_idx, line)
                st = line.state
                if is_write:
                    line.state = _NC_CLEAN
            fill = _M if is_write else _S
        c = self.counters
        if is_write:
            if st == _NC_CLEAN:
                self._gain_ownership(node_idx, block, page)
            pc = self._nodes[node_idx].pc
            if pc is not None:
                pc.invalidate_block(page, block & self._bpp_mask)
            self._fill(pid, node_idx, block, _M)
            c.write_nc_hits += 1
        else:
            self._fill(pid, node_idx, block, fill)
            c.read_nc_hits += 1
        if self._tracer is not None:
            self._tracer.emit(
                "nc_hit", self.now,
                node=node_idx, block=block, detail="write" if is_write else "read",
            )
        if self._profiler is not None:
            self._profiler.on_nc_hit(self.now, is_write)

    # ---- 3: page cache ---------------------------------------------------------

    def _try_pc(
        self,
        pid: int,
        node_idx: int,
        block: int,
        page: int,
        is_write: bool,
        frame: PageFrame,
    ) -> bool:
        offset = block & self._bpp_mask
        st = frame.states[offset]
        if st == _PC_INVALID:
            return False
        c = self.counters
        # inlined PageCache.record_hit (LRM clock + saturating hit counter)
        frame.last_miss = self.now
        if frame.hits < self._pc_hit_max[node_idx]:
            frame.hits += 1
        if is_write:
            if st == _NC_CLEAN:  # PCBlockState.CLEAN has the same value
                self._gain_ownership(node_idx, block, page)
            frame.states[offset] = _PC_INVALID  # ownership moves to the L1
            self._fill(pid, node_idx, block, _M)
            c.write_pc_hits += 1
        else:
            self._fill(pid, node_idx, block, _S)
            c.read_pc_hits += 1
        if self._tracer is not None:
            self._tracer.emit(
                "pc_hit", self.now,
                node=node_idx, block=block,
                detail="write" if is_write else "read",
            )
        if self._profiler is not None:
            self._profiler.on_pc_hit(self.now, is_write)
        return True

    # ---- 4b: remote access ----------------------------------------------------------

    def _remote_access(
        self, pid: int, node_idx: int, block: int, page: int, home: int, is_write: bool
    ) -> None:
        c = self.counters
        # The directory transaction of every monitored remote access runs
        # inline: classify the miss, update presence and ownership.  The
        # presence mask is walked directly in the rare case invalidations
        # are needed.
        bit = 1 << node_idx
        entry = self._dir_entries.get(block)
        if entry is None:
            entry = self._dir_entries[block] = [0, -1]
        presence = entry[0]
        owner = entry[1]
        if owner == node_idx:
            raise ProtocolError(
                f"cluster {node_idx} re-requested block {block:#x} it owns dirty"
            )
        is_capacity = presence & bit
        if is_write:
            entry[0] = bit
            entry[1] = node_idx
        else:
            entry[0] = presence | bit
            # a read of a dirty block forces a sharing write-back (no O
            # state at the directory): memory updates, ownership drops
            entry[1] = -1

        if owner >= 0:
            self._flush_owner(owner, block, page, is_write)
        elif (presence >> home) & 1:
            # The home cluster may hold the block E (granted when it was the
            # sole sharer) or M (after a silent E->M write hit) that the
            # directory cannot see.  A remote request rides the home node's
            # bus, so those copies are downgraded (read) or invalidated
            # (write) exactly as a real snooping bus would — without this, a
            # stale E copy could silently become M while remote copies exist.
            # An L1 copy in the home cluster implies the home's presence bit
            # (checked by sim.validate), so a clear bit skips the snoop.
            for tags, sets in self._node_l1s[home]:
                if block not in tags:
                    continue
                ln = tags[block]
                if ln.state == _M or ln.state == _E:
                    if is_write:
                        del tags[block]
                        sets[block & self._l1_mask].remove(ln)
                    else:
                        ln.state = _S
                    break  # E/M are exclusive; no other copy can exist

        if is_write and presence & ~bit:
            self._invalidate_others(presence & ~bit, owner, block, page)
        if is_capacity:
            c.remote_capacity += 1
        else:
            c.remote_necessary += 1
        if is_write:
            c.write_remote += 1
        else:
            c.read_remote += 1
        if self._profiler is not None:
            self._profiler.on_remote(self.now, is_write)
        tr = self._tracer
        if tr is not None:
            # the directory transaction ran inline above, so the event is
            # emitted here (the directory object never sees it)
            tr.emit(
                "dir_access", self.now,
                node=node_idx, block=block,
                detail="capacity" if is_capacity else "necessary",
            )

        frames = self._pc_frames[node_idx]
        page_resident = frames is not None and page in frames

        # R-NUMA relocation counters live at the directory and count
        # capacity misses to pages not yet relocated (inlined
        # DirectoryRelocationCounters.record_capacity_miss)
        counts = self._dir_counts
        if is_capacity and counts is not None and frames is not None and not page_resident:
            threshold = self._thresholds[node_idx]
            assert threshold is not None
            key = (page << 6) | node_idx
            count = counts[key] = counts.get(key, 0) + 1
            if count > threshold.value:
                self._relocate_page(self._nodes[node_idx], page)
                self._dir_counters.reset(page, node_idx)
                page_resident = True

        if page_resident:
            frame = frames[page]
            if is_write:
                frame.last_miss = self.now  # the page did miss
            else:
                # inlined PageCache.record_fill of a clean block
                frame.states[block & self._bpp_mask] = _NC_CLEAN
                frame.last_miss = self.now
                c.pc_fills += 1
            fill = _M if is_write else _S  # relocated pages behave locally
        else:
            # allocate-on-miss NCs take a frame for the fetched block
            org = self._org
            if self._nc_infinite:
                self._nc_tags[node_idx].setdefault(block, _NC_CLEAN)
            elif org is _DIRTY_INCL_NC or org is _FULL_INCL_NC:
                self._nc_fetch(node_idx, block)
            fill = _M if is_write else _R

        # _fill inlined: every remote access ends here
        lines = self._l1_sets[pid][block & self._l1_mask]
        if len(lines) < self._l1_assoc:
            line = CacheLine(block, fill)
            lines.append(line)
            self._l1_tags[pid][block] = line
            return
        tags = self._l1_tags[pid]
        line = lines.pop(0)
        victim = line.block
        victim_state = line.state
        del tags[victim]
        line.block = block
        line.state = fill
        lines.append(line)
        tags[block] = line
        if victim_state != _S and victim_state != _E:
            self._handle_l1_victim(node_idx, victim, victim_state)

    # ------------------------------------------------------------------
    # fills and victim disposal
    # ------------------------------------------------------------------

    def _fill(self, pid: int, node_idx: int, block: int, state: int) -> None:
        """Insert the fetched block into the requesting L1 as MRU, then
        dispose of the line it displaced.

        This is :meth:`SetAssocCache.insert` inlined; the two common ends
        of a miss, local and remote memory, inline this body in turn.  A
        full set recycles its LRU ``CacheLine`` for the new block, which is
        safe only because nothing keeps a reference to an evicted L1 line:
        the victim is disposed of by ``(block, state)``.
        """
        lines = self._l1_sets[pid][block & self._l1_mask]
        tags = self._l1_tags[pid]
        if len(lines) < self._l1_assoc:
            line = CacheLine(block, state)
            lines.append(line)
            tags[block] = line
            return
        line = lines.pop(0)
        victim = line.block
        victim_state = line.state
        del tags[victim]
        line.block = block
        line.state = state
        lines.append(line)
        tags[block] = line
        # clean non-masters drop silently (and E is local-only)
        if victim_state != _S and victim_state != _E:
            self._handle_l1_victim(node_idx, victim, victim_state)

    def _handle_l1_victim(
        self, node_idx: int, block: int, st: int, detail: str = "l1"
    ) -> None:
        """Dispose of a displaced M, O or R line, or (``detail="bus"``)
        place the data of an M copy downgraded to S on the bus.

        Dirty data of a local block updates local memory for free.  Of a
        remote block, it is absorbed by a relocated page's local frame or
        by the NC (for a downgrade, the pollution the paper accepts), or it
        crosses the network to the home node.
        """
        page = block >> self._bpp_bits
        frames = self._pc_frames[node_idx]
        if st == _R:
            # replacement transaction for the last clean copy in the node
            for tags in self._node_tags[node_idx]:
                if block in tags:
                    ln = tags[block]
                    if ln.state == _S:
                        ln.state = _R  # a peer inherits mastership
                        return
            if frames is not None:
                frame = frames.get(page)
                if frame is not None:
                    offset = block & self._bpp_mask
                    if frame.states[offset] == _PC_INVALID:
                        frame.states[offset] = _NC_CLEAN  # deposit, LRM untouched
                    return
            if self._org is not _NO_NC:
                self._nc_accept(node_idx, block, False)
            return
        if st != _M and st != _O:
            raise ProtocolError(f"victimised line in impossible state {st}")
        if self._homes.get(page) == node_idx:
            # Directory.writeback inlined: the home wrote the block last
            entry = self._dir_entries.get(block)
            if entry is not None and entry[1] == node_idx:
                entry[1] = -1
                if self._tracer is not None:
                    self._tracer.emit("dir_writeback", self.now, node=node_idx, block=block)
            return
        c = self.counters
        tr = self._tracer
        if frames is not None:
            frame = frames.get(page)
            if frame is not None:
                frame.states[block & self._bpp_mask] = _NC_DIRTY
                c.writebacks_absorbed += 1
                if tr is not None:
                    tr.emit(
                        "writeback_absorbed", self.now,
                        node=node_idx, block=block, detail="pc",
                    )
                return
        if self._org is not _NO_NC and self._nc_accept(node_idx, block, True):
            return
        c.writebacks_remote += 1
        if tr is not None:
            tr.emit(
                "writeback_remote", self.now,
                node=node_idx, block=block, detail=detail,
            )
        self._directory.writeback(block, node_idx)

    # ------------------------------------------------------------------
    # network-cache storage (fused per organisation)
    # ------------------------------------------------------------------

    def _nc_accept(self, node_idx: int, block: int, dirty: bool) -> bool:
        """Offer a victim to the NC: a dirty write-back or the last clean
        copy (an R-state replacement transaction).

        Returns whether the NC took it; a declined dirty victim continues
        across the network.  The victim NC inserts it; inclusive NCs take
        it only into the frame allocated at fetch time; the infinite NC
        always takes it.  Each capture counts as an NC insertion and feeds
        the `vxp` set counters.
        """
        tags = self._nc_tags[node_idx]
        org = self._org
        evicted = None
        if org is _VICTIM_NC:
            set_idx = (block >> self._nc_shift) & self._nc_mask
            line = tags.get(block)
            if line is not None:
                # a block captured earlier keeps its LRU place; a dirty
                # victim (a downgrade write-back landing on its clean copy)
                # dirties it
                if dirty:
                    line.state = _NC_DIRTY
            else:
                # a capture recycles the line it evicts (nothing keeps a
                # reference to an evicted NC line)
                state = _NC_DIRTY if dirty else _NC_CLEAN
                lines = self._nc_sets[node_idx][set_idx]
                if len(lines) < self._nc_assoc:
                    line = CacheLine(block, state)
                else:
                    line = lines.pop(0)
                    evicted = line.block
                    evicted_dirty = line.state == _NC_DIRTY
                    del tags[evicted]
                    line.block = block
                    line.state = state
                lines.append(line)
                tags[block] = line
        elif self._nc_infinite:
            if dirty:
                tags[block] = _NC_DIRTY
            else:
                tags.setdefault(block, _NC_CLEAN)
        else:
            line = tags.get(block)
            if line is None:
                # dirty inclusion should make this impossible for a dirty
                # victim; decline conservatively (the write-back continues)
                return False
            if dirty:
                line.state = _NC_DIRTY
        c = self.counters
        tr = self._tracer
        if dirty:
            c.writebacks_absorbed += 1
        if tr is not None:
            tr.emit(
                "nc_insert", self.now,
                node=node_idx, block=block, detail="dirty" if dirty else "clean",
            )
            if dirty:
                tr.emit(
                    "writeback_absorbed", self.now,
                    node=node_idx, block=block, detail="nc",
                )
        c.nc_insertions += 1
        counts = self._nc_counts[node_idx]
        if counts is not None:
            # `vxp`: count the victimisation in its NC set (inlined
            # NCSetRelocationCounters.record_victimization)
            threshold = self._thresholds[node_idx]
            assert threshold is not None
            i = set_idx // self._nc_sharing[node_idx]
            counts[i] += 1
            if counts[i] > threshold.value:
                self._relocate_predominant(self._nodes[node_idx], set_idx)
        if evicted is not None:
            self._nc_evicted(node_idx, evicted, evicted_dirty)
        return True

    def _nc_fetch(self, node_idx: int, block: int) -> None:
        """An inclusive NC takes a frame for a block fetched into the node."""
        tags = self._nc_tags[node_idx]
        if block in tags:
            return
        lines = self._nc_sets[node_idx][(block >> self._nc_shift) & self._nc_mask]
        if len(lines) < self._nc_assoc:
            line = CacheLine(block, _NC_CLEAN)
            lines.append(line)
            tags[block] = line
            return
        line = lines.pop(0)
        evicted = line.block
        evicted_dirty = line.state == _NC_DIRTY
        del tags[evicted]
        line.block = block
        line.state = _NC_CLEAN
        lines.append(line)
        tags[block] = line
        self._nc_evicted(node_idx, evicted, evicted_dirty)

    def _nc_promote(self, node_idx: int, line: CacheLine) -> None:
        """Make a resident NC line its set's MRU (a looked-up frame)."""
        lines = self._nc_sets[node_idx][(line.block >> self._nc_shift) & self._nc_mask]
        if lines[-1] is not line:
            lines.remove(line)
            lines.append(line)

    def _nc_state(self, node_idx: int, block: int):
        """The NC state of a block (None when absent), without side effects."""
        entry = self._nc_tags[node_idx].get(block)
        if entry is None or self._nc_infinite:
            return entry
        return entry.state

    def _nc_remove(self, node_idx: int, block: int):
        """Drop a block from the NC; returns the state it had (None if absent)."""
        entry = self._nc_tags[node_idx].pop(block, None)
        if entry is None or self._nc_infinite:
            return entry
        self._nc_sets[node_idx][(block >> self._nc_shift) & self._nc_mask].remove(entry)
        return entry.state

    def _nc_downgrade(self, node_idx: int, block: int) -> None:
        """Mark a dirty NC copy clean (its data went home or up to an L1)."""
        tags = self._nc_tags[node_idx]
        entry = tags.get(block)
        if self._nc_infinite:
            if entry == _NC_DIRTY:
                tags[block] = _NC_CLEAN
        elif entry is not None and entry.state == _NC_DIRTY:
            entry.state = _NC_CLEAN

    def _nc_evicted(self, node_idx: int, block: int, dirty: bool) -> None:
        """Dispose of a block replaced out of the NC, enforcing inclusion."""
        c = self.counters
        c.nc_evictions += 1
        org = self._org
        if org is _DIRTY_INCL_NC:
            for tags, sets in self._node_l1s[node_idx]:
                if block not in tags:
                    continue
                ln = tags[block]
                if ln.state == _M or ln.state == _O:
                    del tags[block]
                    sets[block & self._l1_mask].remove(ln)
                    c.nc_inclusion_evictions += 1
                    dirty = True
                    break  # at most one dirty copy within the cluster
        elif org is _FULL_INCL_NC:
            for tags, sets in self._node_l1s[node_idx]:
                ln = tags.pop(block, None)
                if ln is not None:
                    sets[block & self._l1_mask].remove(ln)
                    c.nc_inclusion_evictions += 1
                    if ln.state == _M or ln.state == _O:
                        dirty = True

        page = block >> self._bpp_bits
        tr = self._tracer
        if tr is not None:
            tr.emit(
                "nc_evict", self.now,
                node=node_idx, block=block,
                detail="dirty" if dirty else "clean",
            )
        frames = self._pc_frames[node_idx]
        frame = frames.get(page) if frames is not None else None
        if dirty:
            if frame is not None:
                frame.states[block & self._bpp_mask] = _NC_DIRTY
                c.writebacks_absorbed += 1
                if tr is not None:
                    tr.emit(
                        "writeback_absorbed", self.now,
                        node=node_idx, block=block, detail="pc",
                    )
            else:
                c.writebacks_remote += 1
                if tr is not None:
                    tr.emit(
                        "writeback_remote", self.now,
                        node=node_idx, block=block, detail="nc",
                    )
                self._directory.writeback(block, node_idx)
        else:
            if frame is not None:
                offset = block & self._bpp_mask
                if frame.states[offset] == _PC_INVALID:
                    frame.states[offset] = _NC_CLEAN

    # ------------------------------------------------------------------
    # inter-cluster actions
    # ------------------------------------------------------------------

    def _invalidate_others(self, others: int, owner: int, block: int, page: int) -> None:
        """Invalidate each cluster in the ``others`` mask (the flushed
        ``owner``, or -1, lost its copies already and is not counted)."""
        n_inval = 0
        for cl in range(self._n_nodes):
            if (others >> cl) & 1:
                n_inval += 1
                if cl != owner:
                    self._invalidate_cluster(cl, block, page)
        self.counters.remote_invalidations += n_inval - (
            owner >= 0 and (others >> owner) & 1
        )

    def _invalidate_cluster(self, cl: int, block: int, page: int) -> None:
        """Deliver an invalidation for a (clean-copy) block to one cluster."""
        if self._tracer is not None:
            self._tracer.emit("invalidate", self.now, node=cl, block=block)
        found = False
        for tags, sets in self._node_l1s[cl]:
            ln = tags.pop(block, None)
            if ln is not None:
                sets[block & self._l1_mask].remove(ln)
                found = True
                if ln.state == _M or ln.state == _O:
                    raise ProtocolError(
                        f"invalidation found a dirty copy of {block:#x} in "
                        f"cluster {cl}; owner flush should have handled it"
                    )
        st = self._nc_remove(cl, block)
        if st is not None:
            found = True
        if st == _NC_DIRTY:
            raise ProtocolError(
                f"invalidation found a dirty NC copy of {block:#x} in cluster {cl}"
            )
        frames = self._pc_frames[cl]
        frame = frames.get(page) if frames is not None else None
        if frame is not None:
            offset = block & self._bpp_mask
            pc_state = frame.states[offset]
            frame.states[offset] = _PC_INVALID
            if pc_state != _PC_INVALID:
                found = True
            if pc_state == _NC_DIRTY:
                raise ProtocolError(
                    f"invalidation found a dirty PC copy of {block:#x} in "
                    f"cluster {cl}"
                )
        if not found and self._decrement_on_inval:
            # Sec. 3.4: the copy was already victimised — the count that
            # victimisation added predicts a coherence miss now, so undo it
            if self._dir_counters is not None:
                self._dir_counters.decrement(page, cl)
            elif self._nc_counts[cl] is not None:
                self._nodes[cl].nc_counters.decrement(
                    (block >> self._nc_shift) & self._nc_mask
                )

    def _flush_owner(self, cl: int, block: int, page: int, for_write: bool) -> None:
        """The directory's owner must surrender its dirty copy.

        For a read the copy is downgraded and the data written back home
        (one network write-back); for a write the copy is invalidated and
        the data forwarded with the reply (no extra transfer counted).
        """
        c = self.counters
        tr = self._tracer
        if tr is not None:
            tr.emit(
                "owner_flush", self.now,
                node=cl, block=block,
                detail="write" if for_write else "read",
            )
        pc = self._nodes[cl].pc
        offset = block & self._bpp_mask
        found = False
        for tags, sets in self._node_l1s[cl]:
            ln = tags.get(block)
            if ln is not None and (ln.state == _M or ln.state == _O):
                if for_write:
                    del tags[block]
                    sets[block & self._l1_mask].remove(ln)
                else:
                    ln.state = _S
                    # a stale-dirty frame below the L1 copy cleans too
                    self._nc_downgrade(cl, block)
                found = True
                break
        if not found:
            if self._nc_state(cl, block) == _NC_DIRTY:
                if for_write:
                    self._nc_remove(cl, block)
                else:
                    self._nc_downgrade(cl, block)
                found = True
        if not found and pc is not None:
            if pc.block_state(page, offset) == _NC_DIRTY:
                if for_write:
                    pc.invalidate_block(page, offset)
                else:
                    pc.mark_clean(page, offset)
                found = True
        if not found:
            raise ProtocolError(
                f"directory says cluster {cl} owns block {block:#x} dirty, "
                "but no dirty copy exists there"
            )
        if for_write:
            # every remaining (clean) copy in the owner cluster dies too
            for tags, sets in self._node_l1s[cl]:
                ln = tags.pop(block, None)
                if ln is not None:
                    sets[block & self._l1_mask].remove(ln)
            self._nc_remove(cl, block)
            if pc is not None:
                pc.invalidate_block(page, offset)
        else:
            c.writebacks_remote += 1  # the sharing write-back crosses the network
            if tr is not None:
                tr.emit(
                    "writeback_remote", self.now,
                    node=cl, block=block, detail="sharing",
                )

    # ------------------------------------------------------------------
    # page relocation
    # ------------------------------------------------------------------

    def _relocate_predominant(self, node: Node, set_idx: int) -> None:
        """A `vxp` set counter passed the threshold: relocate the page
        with the most tags in the set."""
        counters = node.nc_counters
        pc = node.pc
        assert pc is not None
        blocks = [line.block for line in self._nc_sets[node.node_id][set_idx]]
        exclude = {b >> self._bpp_bits for b in blocks if (b >> self._bpp_bits) in pc}
        page = counters.predominant_page(blocks, exclude)
        counters.reset(set_idx)
        if page is not None:
            self._relocate_page(node, page)

    def _relocate_page(self, node: Node, page: int) -> None:
        """Relocate a remote page into the node's page cache (225 cycles)."""
        c = self.counters
        tr = self._tracer
        pc = node.pc
        assert pc is not None
        c.pc_relocations += 1
        if tr is not None:
            tr.emit("pc_relocate", self.now, node=node.node_id, detail=str(page))
        if self._profiler is not None:
            self._profiler.on_relocation(self.now)
        evicted = pc.allocate(page, self.now)
        if evicted is not None:
            c.pc_evictions += 1
            if tr is not None:
                tr.emit(
                    "pc_evict", self.now,
                    node=node.node_id, detail=str(evicted.page),
                )
            self._flush_page_from_cluster(node, evicted)
            assert node.threshold is not None
            if node.threshold.on_frame_reuse(evicted.hits):
                pc.reset_hit_counters()

    def _flush_page_from_cluster(self, node: Node, frame: PageFrame) -> None:
        """A page leaves the PC: purge it from the whole cluster.

        Dirty blocks (in the frame, the L1s, or the NC) are written home;
        clean copies are dropped.  The re-mapping makes every future access
        to the page miss again — the cost the paper attributes to
        relocation churn.
        """
        c = self.counters
        page = frame.page
        node_idx = node.node_id
        base = page << self._bpp_bits
        for offset in range(self.config.blocks_per_page):
            block = base + offset
            dirty = frame.states[offset] == _NC_DIRTY
            for tags, sets in self._node_l1s[node_idx]:
                ln = tags.pop(block, None)
                if ln is not None:
                    sets[block & self._l1_mask].remove(ln)
                    if ln.state == _M or ln.state == _O:
                        dirty = True
            if self._nc_remove(node_idx, block) == _NC_DIRTY:
                dirty = True
            if dirty:
                c.pc_flush_writebacks += 1
                self._directory.writeback(block, node_idx)
