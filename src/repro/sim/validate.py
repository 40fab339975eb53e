"""Machine-wide coherence validation.

:func:`check_machine` sweeps a machine's entire state and verifies every
structural invariant of the protocol.  It is deliberately exhaustive and
slow — it exists for tests, debugging sessions, and the hypothesis
property suite, not for the simulation hot path (the simulator's own
inline :class:`~repro.errors.ProtocolError` checks guard that).

Invariants checked
------------------
1. **Single writer**: at most one dirty copy (L1 M/O, NC DIRTY, or PC
   DIRTY block) of any block machine-wide.
2. **Owner substance**: if the directory records a dirty owner, that
   cluster really holds a dirty copy; conversely a dirty copy of a
   *remote* block implies directory ownership (home-cluster M via silent
   E->M is the allowed exception).
3. **Presence over-approximation**: any node holding a valid copy of a
   block has its presence bit set (non-notifying protocols may
   over-report, never under-report).  This includes L1 copies in the
   block's home cluster: the simulator skips the home-bus snoop of a
   remote access when the home's bit is clear.
4. **Exclusivity of E/M**: an E or M copy is the only valid copy
   machine-wide (O is shared-dirty and exempt).
5. **NC discipline**: NCs hold only remote blocks; a victim NC never
   holds a block an L1 in the same node holds *clean* is allowed (the
   pollution case) but duplicate dirty is not (covered by 1).
6. **Inclusion**: with a full-inclusion NC (``DRAM_FULL_INCLUSION``)
   every remote block in an L1 has an NC frame; with a dirty-inclusion NC
   (``DIRTY_INCLUSION``) every dirty remote block in an L1 has one.
7. **PC discipline**: page caches hold only remote pages; capacity is
   respected.
"""

from __future__ import annotations

from typing import List

from ..coherence.states import MESIR, NCState, PCBlockState
from ..params import NCKind
from ..system.machine import Machine

_DIRTY_L1 = (int(MESIR.M), int(MESIR.O))


class InvariantViolation(AssertionError):
    """A machine-state invariant does not hold."""


def _fail(msg: str) -> None:
    raise InvariantViolation(msg)


def check_machine(machine: Machine) -> None:
    """Verify every structural invariant; raises InvariantViolation."""
    cfg = machine.config
    bpp = cfg.blocks_per_page

    # gather every block any structure holds
    blocks = set()
    for node in machine.nodes:
        for l1 in node.l1s:
            blocks.update(l1.blocks())
        blocks.update(node.nc.resident_blocks())
        if node.pc is not None:
            if len(node.pc) > node.pc.capacity:
                _fail(f"node {node.node_id} PC over capacity")
            for frame in node.pc.frames():
                for off, st in enumerate(frame.states):
                    if st != int(PCBlockState.INVALID):
                        blocks.add(frame.page * bpp + off)

    blocks.update(machine.directory.owned_blocks())

    for block in blocks:
        _check_block(machine, block)

    _check_structures(machine)


def _check_block(machine: Machine, block: int) -> None:
    cfg = machine.config
    bpp = cfg.blocks_per_page
    page, offset = divmod(block, bpp)
    home = machine.placement.home_of(page)

    dirty_nodes: List[int] = []  # node id per dirty copy found
    exclusive_nodes: List[int] = []  # node id per E/M copy found
    valid_nodes = set()

    for node in machine.nodes:
        nid = node.node_id
        for l1 in node.l1s:
            ln = l1.peek(block)
            if ln is None:
                continue
            valid_nodes.add(nid)
            if ln.state in _DIRTY_L1:
                dirty_nodes.append(nid)
            if ln.state in (int(MESIR.M), int(MESIR.E)):
                exclusive_nodes.append(nid)
            if ln.state == int(MESIR.E) and home != nid:
                _fail(f"E state on remote block {block:#x} in node {nid}")
        ncst = node.nc.probe(block)
        if ncst is not None:
            valid_nodes.add(nid)
            if home == nid:
                _fail(f"node {nid} NC holds its own local block {block:#x}")
            if ncst == int(NCState.DIRTY):
                dirty_nodes.append(nid)
        if node.pc is not None:
            st = node.pc.block_state(page, offset)
            if st != int(PCBlockState.INVALID):
                valid_nodes.add(nid)
                if home == nid:
                    _fail(f"node {nid} PC holds its own local page {page:#x}")
                if st == int(PCBlockState.DIRTY):
                    dirty_nodes.append(nid)

    # 1. single writer
    if len(dirty_nodes) > 1:
        _fail(f"block {block:#x} dirty in nodes {dirty_nodes}")

    # 4. E/M exclusivity: only the holder's own node may have other
    # (stale NC frame) copies; cross-node duplication is a violation
    if exclusive_nodes and valid_nodes - set(exclusive_nodes):
        _fail(
            f"block {block:#x} is E/M in node {exclusive_nodes} but also "
            f"valid in nodes {sorted(valid_nodes - set(exclusive_nodes))}"
        )

    # 2. owner substance
    owner = machine.directory.owner(block)
    if owner is not None:
        if owner not in dirty_nodes:
            _fail(
                f"directory says cluster {owner} owns {block:#x} dirty, "
                f"but dirty copies are in nodes {dirty_nodes}"
            )
    else:
        for nid in dirty_nodes:
            if home != nid:
                _fail(
                    f"block {block:#x} dirty in remote node {nid} without "
                    "directory ownership"
                )

    # 3. presence over-approximation, the home cluster included
    mask = machine.directory.presence_mask(block)
    for nid in valid_nodes:
        if not (mask >> nid) & 1:
            _fail(
                f"node {nid} holds block {block:#x} without a presence bit"
            )


def _check_structures(machine: Machine) -> None:
    cfg = machine.config
    kind = cfg.nc.kind
    for node in machine.nodes:
        nc = node.nc
        if kind is NCKind.DRAM_FULL_INCLUSION:
            for l1 in node.l1s:
                for ln in l1.lines():
                    page = ln.block // cfg.blocks_per_page
                    if machine.placement.home_of(page) == node.node_id:
                        continue
                    if nc.probe(ln.block) is None:
                        _fail(
                            f"full inclusion violated: node {node.node_id} "
                            f"caches {ln.block:#x} without an NC frame"
                        )
        elif kind is NCKind.DIRTY_INCLUSION:
            for l1 in node.l1s:
                for ln in l1.lines():
                    if ln.state not in _DIRTY_L1:
                        continue
                    page = ln.block // cfg.blocks_per_page
                    if machine.placement.home_of(page) == node.node_id:
                        continue
                    if node.pc is not None and page in node.pc:
                        continue  # PC-resident pages absorb locally instead
                    if nc.probe(ln.block) is None:
                        _fail(
                            f"dirty inclusion violated: node {node.node_id} "
                            f"holds {ln.block:#x} dirty without an NC frame"
                        )
