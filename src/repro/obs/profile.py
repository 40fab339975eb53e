"""Per-reference stall attribution and windowed interval time-series.

The paper's headline metric (Eq. 1) is a *sum* of latency components::

    RS = N_hit^NC L_hit^NC + N_hit^PC L_hit^PC + N_miss L_miss + N_rel T_rel

A :class:`StallProfiler` attached to a :class:`~repro.sim.simulator.Simulator`
decomposes that sum back into its per-reference parts while the run executes:
every monitored remote reference is attributed to exactly one protocol path
(peer cache-to-cache supply, NC hit, PC hit, or a full remote access), page
relocations are charged their 225-cycle span, and the attribution is exact —
the per-component cycle totals sum *integer-equal* to
``remote_read_stall(counters, config)`` for every run (pinned by
``tests/sim/test_profile.py`` and checked by ``repro check --diff``).

Cost model note: the paper's latency model is contention-free, so every
reference that resolves on a given path stalls the same constant number of
cycles.  The profiler exploits that — hooks only bump per-window integer
tallies on the miss path (the inlined L1 read-hit loop carries **no**
profiler code, exactly like event tracing), and the per-component cycle
totals and stall histograms are reconstructed exactly from the event counts
when :meth:`StallProfiler.finish` runs.  Profiling is therefore cheap, but
it is still **off by default**: ``benchmarks/bench_core.py`` pins both the
profiler-off and the profiler-on throughput floors.

Alongside the totals, the profiler keeps **windowed interval time-series**:
one sample per ``window`` references (default ``$REPRO_PROFILE_WINDOW``,
else 10,000) of remote misses, NC/PC/peer hits, relocations, attributed
read-stall cycles, and end-of-window NC occupancy — how the caches
*evolve* over a trace, not just where they end.

Everything lands in the run's standard metrics snapshot under
per-(system, benchmark) keys (``profile.stall/<system>/<bench>/<component>``,
``hist.stall/...``, ``series.profile/...``), so parallel sweep workers ship
it home unchanged and sweeps aggregate it bit-identically to a serial run.

Enable per call (``simulate(..., profile=True)``, ``sweep(...,
profile=True)``, which ``repro sweep --profile`` uses), per process
(``$REPRO_PROFILE=1``, inherited by sweep workers), or by constructing a
:class:`StallProfiler` and passing it to ``run_trace``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Dict, List, Optional

from ..params import setting
from .metrics import Histogram, Snapshot, merge_snapshots

#: Eq. 1 components, in the paper's presentation order
STALL_COMPONENTS = (
    "cluster_hit",  #: peer L1 supplied the block on the cluster bus
    "nc_hit",       #: the network cache serviced the miss
    "pc_hit",       #: a relocated page's local frame serviced the miss
    "remote_miss",  #: the access crossed the network to the home node
    "relocation",   #: page-relocation overhead (T_rel per relocation)
)

#: per-reference stall buckets, in bus cycles: sized so every Table 1/2
#: latency (1, 10, 13, 30, 33) lands in its own bucket and the 225-cycle
#: relocation span lands in the overflow bucket
STALL_HIST_BOUNDS = (0.0, 1.0, 2.0, 5.0, 10.0, 15.0, 30.0, 35.0, 100.0)

#: timeline metrics recorded per window (series.profile/<sys>/<bench>/<name>)
TIMELINE_METRICS = (
    "cluster_hits",
    "nc_hits",
    "pc_hits",
    "remote_misses",
    "relocations",
    "stall_cycles",
    "nc_occupancy",
)


class StallProfiler:
    """Attributes every monitored remote reference to its Eq. 1 component.

    The simulator calls one ``on_*`` hook per remote-miss outcome — all on
    the miss path, all O(1) integer bumps — and :meth:`finish` freezes the
    run into totals, histograms, and the windowed timeline.  A profiler is
    single-use: one run, one ``finish``, then :meth:`snapshot`.
    """

    __slots__ = (
        "window", "refs", "reads", "latencies",
        "_timeline", "_win_end",
        "_w_cluster", "_w_nc", "_w_pc", "_w_remote", "_w_reloc", "_w_stall",
        "_lat_cluster", "_lat_nc", "_lat_pc", "_lat_remote", "_lat_reloc",
        "_occupancy_of", "_finished",
    )

    def __init__(self, config, window: Optional[int] = None) -> None:
        from ..sim.latency import nc_hit_latency, remote_miss_latency

        lat = config.latency
        #: references per timeline window (must agree across merged runs)
        self.window = int(setting("REPRO_PROFILE_WINDOW", window))
        self.latencies: Dict[str, int] = {
            "cluster_hit": lat.cache_to_cache,
            "nc_hit": nc_hit_latency(config),
            "pc_hit": lat.pc_hit,
            "remote_miss": remote_miss_latency(config),
            "relocation": lat.page_relocation,
        }
        self._lat_cluster = self.latencies["cluster_hit"]
        self._lat_nc = self.latencies["nc_hit"]
        self._lat_pc = self.latencies["pc_hit"]
        self._lat_remote = self.latencies["remote_miss"]
        self._lat_reloc = self.latencies["relocation"]
        #: read-side (Eq. 1) event counts per component; relocations count
        #: here too — the paper charges them to the read stall
        self.reads: Dict[str, int] = {c: 0 for c in STALL_COMPONENTS}
        self.refs = 0
        self._timeline: Dict[str, List[int]] = {m: [] for m in TIMELINE_METRICS}
        self._win_end = self.window
        self._w_cluster = self._w_nc = self._w_pc = 0
        self._w_remote = self._w_reloc = self._w_stall = 0
        self._occupancy_of: Optional[Callable[[], int]] = None
        self._finished = False

    # ---- binding ---------------------------------------------------------

    def bind_machine(self, machine) -> None:
        """Give the profiler a machine to sample NC occupancy from.

        Called by the :class:`~repro.sim.simulator.Simulator` constructor;
        unbound profilers record 0 occupancy (useful in unit tests).
        """
        nodes = machine.nodes

        def occupancy() -> int:
            return sum(len(node.nc) for node in nodes)

        self._occupancy_of = occupancy

    # ---- hooks (simulator miss path; one branch + integer bumps) ---------

    def _close_windows(self, now: int) -> None:
        """Append every full window strictly before ``now``."""
        tl = self._timeline
        occ = self._occupancy_of() if self._occupancy_of is not None else 0
        while now > self._win_end:
            tl["cluster_hits"].append(self._w_cluster)
            tl["nc_hits"].append(self._w_nc)
            tl["pc_hits"].append(self._w_pc)
            tl["remote_misses"].append(self._w_remote)
            tl["relocations"].append(self._w_reloc)
            tl["stall_cycles"].append(self._w_stall)
            tl["nc_occupancy"].append(occ)
            self._w_cluster = self._w_nc = self._w_pc = 0
            self._w_remote = self._w_reloc = self._w_stall = 0
            self._win_end += self.window

    def on_cluster_hit(self, now: int, is_write: bool) -> None:
        if now > self._win_end:
            self._close_windows(now)
        self._w_cluster += 1
        if not is_write:
            self.reads["cluster_hit"] += 1
            self._w_stall += self._lat_cluster

    def on_nc_hit(self, now: int, is_write: bool) -> None:
        if now > self._win_end:
            self._close_windows(now)
        self._w_nc += 1
        if not is_write:
            self.reads["nc_hit"] += 1
            self._w_stall += self._lat_nc

    def on_pc_hit(self, now: int, is_write: bool) -> None:
        if now > self._win_end:
            self._close_windows(now)
        self._w_pc += 1
        if not is_write:
            self.reads["pc_hit"] += 1
            self._w_stall += self._lat_pc

    def on_remote(self, now: int, is_write: bool) -> None:
        if now > self._win_end:
            self._close_windows(now)
        self._w_remote += 1
        if not is_write:
            self.reads["remote_miss"] += 1
            self._w_stall += self._lat_remote

    def on_relocation(self, now: int) -> None:
        if now > self._win_end:
            self._close_windows(now)
        self._w_reloc += 1
        self.reads["relocation"] += 1
        self._w_stall += self._lat_reloc

    # ---- freezing --------------------------------------------------------

    def finish(self, now: int) -> None:
        """Close the timeline through reference ``now`` (the final clock).

        Idempotent; the trailing partial window is appended so the series
        always covers the whole run (``ceil(refs / window)`` samples).
        """
        if self._finished:
            return
        self._finished = True
        self.refs = int(now)
        if now > 0:
            self._close_windows(now)
            tl = self._timeline
            occ = self._occupancy_of() if self._occupancy_of is not None else 0
            tl["cluster_hits"].append(self._w_cluster)
            tl["nc_hits"].append(self._w_nc)
            tl["pc_hits"].append(self._w_pc)
            tl["remote_misses"].append(self._w_remote)
            tl["relocations"].append(self._w_reloc)
            tl["stall_cycles"].append(self._w_stall)
            tl["nc_occupancy"].append(occ)

    # ---- results ---------------------------------------------------------

    @property
    def stall_cycles(self) -> Dict[str, int]:
        """Attributed read-stall cycles per component (exact, integers)."""
        return {c: self.reads[c] * self.latencies[c] for c in STALL_COMPONENTS}

    @property
    def total_stall(self) -> int:
        """The attributed total — integer-equal to Eq. 1 for the run."""
        return sum(self.stall_cycles.values())

    def timeline(self) -> Dict[str, List[int]]:
        """The per-window series (call after :meth:`finish`)."""
        return {m: list(v) for m, v in self._timeline.items()}

    def snapshot(self, system: str, benchmark: str) -> Snapshot:
        """The profile as an ``obs.metrics``-style snapshot.

        Keys are namespaced per (system, benchmark) so a sweep-level
        aggregate keeps every cell's attribution separate — the
        "per-(benchmark, system, component) histograms" of the profiling
        layer's contract — and merging is collision-free and
        bit-deterministic.
        """
        if not self._finished:
            raise RuntimeError("snapshot() before finish(); profile incomplete")
        prefix = f"{system}/{benchmark}"
        counters: Dict[str, object] = {}
        hists: Dict[str, object] = {}
        cycles = self.stall_cycles
        for comp in STALL_COMPONENTS:
            counters[f"profile.stall/{prefix}/{comp}"] = cycles[comp]
            counters[f"profile.reads/{prefix}/{comp}"] = self.reads[comp]
            hist = Histogram(STALL_HIST_BOUNDS)
            # constant latency per component => the whole distribution
            # sits in one bucket; reconstructed exactly from the count
            hist.counts[bisect_right(hist.bounds, self.latencies[comp])] = (
                self.reads[comp]
            )
            hists[f"hist.stall/{prefix}/{comp}"] = hist.as_dict()
        counters[f"profile.refs/{prefix}"] = self.refs
        series = {
            f"series.profile/{prefix}/{metric}": {
                "window": self.window,
                "values": list(values),
            }
            for metric, values in self._timeline.items()
        }
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": {},
            "histograms": dict(sorted(hists.items())),
            "series": dict(sorted(series.items())),
        }


# ---------------------------------------------------------------------------
# snapshot readers (conservation checks, reports, the CLI)
# ---------------------------------------------------------------------------


def profiled_cells(snapshot: Optional[Snapshot]) -> List[str]:
    """The ``system/benchmark`` prefixes carrying profile data."""
    if not snapshot:
        return []
    out = []
    for key in snapshot.get("counters", {}):
        if key.startswith("profile.refs/"):
            out.append(key[len("profile.refs/"):])
    return sorted(out)


def attributed_stall(snapshot: Snapshot, system: str, benchmark: str) -> int:
    """Total attributed stall cycles for one profiled (system, benchmark).

    The conservation invariant — checked in tests and by ``repro check
    --diff`` — is that this equals ``remote_read_stall(counters, config)``
    exactly (integer equality, no tolerance).
    """
    prefix = f"profile.stall/{system}/{benchmark}/"
    counters = snapshot.get("counters", {})
    return sum(int(v) for k, v in counters.items() if k.startswith(prefix))


def stall_breakdown(
    snapshot: Snapshot, system: str, benchmark: str
) -> Dict[str, int]:
    """Per-component attributed stall cycles for one profiled cell."""
    counters = snapshot.get("counters", {})
    prefix = f"profile.stall/{system}/{benchmark}/"
    return {
        comp: int(counters.get(prefix + comp, 0)) for comp in STALL_COMPONENTS
    }


def merge_profile_into(base: Optional[Snapshot], profile: Snapshot) -> Snapshot:
    """Fold a profiler snapshot into a run's standard metrics snapshot."""
    return merge_snapshots(base, profile)
