"""Exhaustive model checking of the protocol engine on tiny machines.

For a tiny configuration — 2 clusters x 2 processors, a 2-line L1 per
processor, a 4-frame NC, a 1-frame page cache, and 2-4 memory blocks —
the reachable state space of the whole machine is small enough to
enumerate *completely*.  :func:`explore_variant` does exactly that: a
breadth-first search over canonicalised machine states where the event
alphabet is every possible shared reference ``(pid, block, is_write)``.

After every transition the explorer asserts

* the machine-wide coherence invariants of :func:`repro.sim.validate.check_machine`
  (single writer, E/M exclusivity, owner substance, directory
  over-approximation, NC inclusion), and
* the counter-accounting invariants of :meth:`repro.stats.Counters.check`,
* plus transition legality itself: any :class:`~repro.errors.ProtocolError`
  raised mid-step is a violation.

Because the search is breadth-first and every state remembers the event
that first reached it, a violation is reported with the **minimal** event
path from the initial (empty) machine — a complete, replayable
counterexample (:class:`~repro.errors.ModelCheckViolation`).

States are canonicalised structurally: cache/NC contents in LRU order,
directory entries sorted, and the page cache's LRM clock abstracted to
dense ranks (two machines whose frames have the same *relative*
least-recently-missed order behave identically, so the absolute clock is
dropped — this is what makes the state space finite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import ModelCheckViolation, ReproError, VerificationError
from ..params import NCConfig, SystemConfig, ThresholdPolicy
from ..rdc.adaptive import AdaptiveThreshold
from ..rdc.pagecache import PageFrame
from ..sim.simulator import Simulator
from ..sim.validate import check_machine
from ..stats import Counters
from ..system.builder import build_machine, system_config
from ..system.machine import Machine

#: one event: (pid, block, is_write)
Event = Tuple[int, int, bool]

#: canonical machine state (opaque, hashable)
State = Tuple[Any, ...]

#: the NC organisations (and page-cache pairings) explored by default.
#: ``p2``/``vbp2``/``vxp2`` size the page cache at half the dataset, which
#: with the tiny geometry yields exactly one frame — the smallest machine
#: that still exercises relocation, LRM eviction, and cluster page flushes.
DEFAULT_VARIANTS: Tuple[str, ...] = (
    "base",
    "nc",
    "ncd",
    "ncs",
    "vb",
    "vp",
    "p2",
    "vbp2",
    "vxp2",
)

_TINY_PAGE_SIZE = 128  # 2 blocks per page: relocation stays interesting


def tiny_check_config(
    system: str,
    *,
    n_blocks: int = 2,
    initial_threshold: int = 1,
) -> Tuple[SystemConfig, int]:
    """The model checker's machine: returns ``(config, dataset_bytes)``.

    2 clusters x 2 processors; a **single-line** L1 per processor (so
    victimisation, R-state replacement transactions, and capacity misses
    are all reachable in a handful of events); a 2-line NC (so NC
    conflict evictions and inclusion enforcement are reachable too);
    pages of 2 blocks.  ``dataset_bytes`` covers exactly the pages
    spanned by ``n_blocks`` so fraction-sized page caches come out at
    one frame, and ``initial_threshold=1`` makes page relocation
    reachable within short event paths.
    """
    config = system_config(
        system,
        n_nodes=2,
        procs_per_node=2,
        cache_size=64,  # one 64 B line per L1
        cache_assoc=1,
        threshold_policy=ThresholdPolicy.FIXED,
        initial_threshold=initial_threshold,
    )
    nc = config.nc
    config = config.with_(
        page_size=_TINY_PAGE_SIZE,
        # shrink the NC to a single 2-line set (the builder's default
        # 4-way geometry can never conflict over 2-4 blocks)
        nc=NCConfig(kind=nc.kind, size=128, assoc=2, indexing=nc.indexing),
    )
    blocks_per_page = config.blocks_per_page
    n_pages = -(-n_blocks // blocks_per_page)
    dataset_bytes = n_pages * config.page_size
    return config, dataset_bytes


# ----------------------------------------------------------------------
# canonicalisation
# ----------------------------------------------------------------------


def _pc_snapshot(pc, keep_hits: bool) -> Optional[Tuple[Any, ...]]:
    """Frames in least-recently-missed order, clocks abstracted to ranks.

    LRM eviction picks ``min(frames, key=last_miss)`` with ties broken by
    dict (insertion) order, so the behaviourally relevant information is
    the frames' *total order* under ``(last_miss, insertion position)`` —
    exactly the order this snapshot lists them in.

    The saturating per-frame hit counter only ever feeds
    ``ThresholdState.on_frame_reuse``; under a :class:`FixedThreshold`
    that ignores its argument, so ``keep_hits=False`` abstracts the
    counter away (it would otherwise multiply the state space by the
    saturation limit for nothing).
    """
    if pc is None:
        return None
    frames = list(pc._frames.values())
    order = sorted(range(len(frames)), key=lambda i: (frames[i].last_miss, i))
    return tuple(
        (
            frames[i].page,
            tuple(frames[i].states),
            frames[i].hits if keep_hits else 0,
        )
        for i in order
    )


def _threshold_snapshot(threshold) -> Optional[Tuple[Any, ...]]:
    if threshold is None:
        return None
    if isinstance(threshold, AdaptiveThreshold):
        return ("adaptive", threshold.value, threshold._indicator, threshold._reuses)
    return ("fixed", threshold.value)


def canonical_state(machine: Machine) -> State:
    """A hashable, behaviour-complete snapshot of the whole machine."""
    nodes = tuple(
        (
            tuple(l1.set_contents() for l1 in node.l1s),
            node.nc.snapshot(),
            _pc_snapshot(node.pc, isinstance(node.threshold, AdaptiveThreshold)),
            _threshold_snapshot(node.threshold),
            tuple(node.nc_counters._counts) if node.nc_counters is not None else None,
        )
        for node in machine.nodes
    )
    return (
        tuple(sorted(machine.placement._home.items())),
        tuple(machine.directory.entries()),
        (
            tuple(sorted(machine.dir_counters._counts.items()))
            if machine.dir_counters is not None
            else None
        ),
        nodes,
    )


def load_state(sim: Simulator, state: State) -> None:
    """Rebuild the simulator's machine in-place from a canonical state.

    Mutates the existing structures (the simulator holds hot-path aliases
    into them, so they must not be replaced) and resets the counters.  The
    LRM clock restarts at the frame ranks; ``sim.now`` is set past every
    rank so new ``last_miss`` values sort after all restored ones.
    """
    machine = sim.machine
    placement_items, dir_entries, dir_counts, nodes_state = state

    homes = machine.placement._home
    homes.clear()
    for page, home in placement_items:
        homes[page] = home

    entries = machine.directory._entries
    entries.clear()
    for block, presence, owner in dir_entries:
        entries[block] = [presence, owner]

    if machine.dir_counters is not None:
        counts = machine.dir_counters._counts
        counts.clear()
        counts.update(dict(dir_counts))

    max_frames = 0
    for node, (l1s_snap, nc_snap, pc_snap, thr_snap, ncc_snap) in zip(
        machine.nodes, nodes_state
    ):
        for l1, snap in zip(node.l1s, l1s_snap):
            l1.load_contents(snap)
        node.nc.load(nc_snap)
        if pc_snap is not None:
            frames = node.pc._frames
            frames.clear()
            for rank, (page, states, hits) in enumerate(pc_snap):
                frame = PageFrame(page, node.pc.blocks_per_page, rank)
                frame.states = list(states)
                frame.hits = hits
                frames[page] = frame
            max_frames = max(max_frames, len(pc_snap))
        if thr_snap is not None:
            threshold = node.threshold
            threshold.value = thr_snap[1]
            if isinstance(threshold, AdaptiveThreshold):
                threshold._indicator = thr_snap[2]
                threshold._reuses = thr_snap[3]
        if ncc_snap is not None:
            node.nc_counters._counts[:] = ncc_snap

    sim.counters = Counters()
    sim.now = max_frames


# ----------------------------------------------------------------------
# the search
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExplorationReport:
    """Result of one exhaustive exploration (one system variant)."""

    system: str
    n_states: int  #: distinct reachable machine states (incl. initial)
    n_transitions: int  #: (state, event) pairs executed and checked
    max_depth: int  #: longest minimal event path to any reachable state
    n_blocks: int
    n_events: int  #: alphabet size = pids x blocks x {read, write}


def _event_path(
    parents: Dict[State, Optional[Tuple[State, Event]]], state: State
) -> List[Event]:
    path: List[Event] = []
    cursor = parents[state]
    while cursor is not None:
        parent, event = cursor
        path.append(event)
        cursor = parents[parent]
    path.reverse()
    return path


def explore_variant(
    system: str,
    *,
    n_blocks: int = 2,
    max_states: int = 2_000_000,
    self_check: bool = False,
    progress: Optional[Callable[[int, int], None]] = None,
) -> ExplorationReport:
    """Exhaustively explore one system variant's tiny machine.

    Raises :class:`ModelCheckViolation` (with the minimal event path) if
    any transition is illegal or leaves the machine in a state violating
    the coherence invariants; :class:`VerificationError` if the reachable
    state space exceeds ``max_states`` (the tiny configs stay far below).

    ``self_check=True`` additionally verifies, for every newly discovered
    state, that ``canonical -> load -> canonical`` is the identity — a
    guard against canonicalisation bugs silently collapsing the search.
    ``progress``, if given, is called as ``progress(depth, n_states)``
    after each BFS level.
    """
    config, dataset_bytes = tiny_check_config(system, n_blocks=n_blocks)
    block_bits = config.block_bits
    events: List[Event] = [
        (pid, block, bool(w))
        for pid in range(config.n_procs)
        for block in range(n_blocks)
        for w in (False, True)
    ]

    sim = Simulator(build_machine(config, dataset_bytes=dataset_bytes))
    check_machine(sim.machine)
    initial = canonical_state(sim.machine)

    parents: Dict[State, Optional[Tuple[State, Event]]] = {initial: None}
    frontier: List[State] = [initial]
    n_transitions = 0
    depth = 0

    while frontier:
        next_frontier: List[State] = []
        for state in frontier:
            for event in events:
                load_state(sim, state)
                pid, block, is_write = event
                n_transitions += 1
                try:
                    sim.step(pid, block << block_bits, is_write)
                    sim.counters.check()
                    check_machine(sim.machine)
                except (ReproError, AssertionError) as exc:
                    path = _event_path(parents, state)
                    path.append(event)
                    raise ModelCheckViolation(
                        system, f"{type(exc).__name__}: {exc}", path
                    ) from exc
                child = canonical_state(sim.machine)
                if child not in parents:
                    if self_check:
                        load_state(sim, child)
                        recanon = canonical_state(sim.machine)
                        if recanon != child:
                            path = _event_path(parents, state)
                            path.append(event)
                            raise ModelCheckViolation(
                                system,
                                "canonicalisation is not stable under "
                                "load_state (state-space collapse hazard)",
                                path,
                            )
                    parents[child] = (state, event)
                    next_frontier.append(child)
            if len(parents) > max_states:
                raise VerificationError(
                    f"exploration of {system!r} exceeded {max_states} states "
                    f"at depth {depth} — not a tiny configuration"
                )
        if next_frontier:
            depth += 1
        frontier = next_frontier
        if progress is not None:
            progress(depth, len(parents))

    return ExplorationReport(
        system=system,
        n_states=len(parents),
        n_transitions=n_transitions,
        max_depth=depth,
        n_blocks=n_blocks,
        n_events=len(events),
    )
