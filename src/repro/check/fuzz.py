"""The protocol fuzzer: adversarial interleavings, shrunk on failure.

Exhaustive exploration (:mod:`repro.check.explore`) proves tiny
configurations correct but cannot reach the state depths that real sweeps
do; trace diffing (:mod:`repro.check.oracle`) covers realistic workloads
but only the interleavings the synthetic benchmarks happen to produce.
The fuzzer fills the gap: it *generates* reference streams built to
stress the protocol's corners —

* ``upgrade_race`` — processors in different clusters take turns writing
  the same one or two blocks, maximising upgrade/invalidation traffic and
  ownership hand-offs;
* ``victim_storm`` — each processor cycles through more blocks than its
  L1 holds, so every reference victimises (R-replacement and dirty
  write-back capture, NC eviction and inclusion enforcement);
* ``relocation_edge`` — remote pages are hammered just past the
  relocation threshold, then abandoned, exercising relocation, LRM
  eviction, page flush, and the decrement-on-invalidation refinement;
* ``random_walk`` — unbiased noise over the whole tiny address space.

Every generated case runs the optimised simulator and the differential
oracle in lockstep (counters compared after every reference, machine
invariants checked periodically, final states diffed structurally).  A
failing case is shrunk with a ddmin-style pass — chunk removal, then
single-event removal, preserving the failure signature (the exception
class) — and saved as a replayable JSON artifact.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..sim.simulator import Simulator
from ..sim.validate import check_machine
from ..system.builder import build_machine
from .explore import tiny_check_config
from .oracle import OracleSimulator, machine_snapshot

Event = Tuple[int, int, int]  # (pid, block, is_write)

#: systems fuzzed by default: one per NC organisation plus each
#: page-cache/relocation mechanism
DEFAULT_FUZZ_SYSTEMS = ("base", "nc", "ncd", "ncs", "vb", "vp", "p2", "vbp2", "vxp2")

STRATEGIES = ("random_walk", "upgrade_race", "victim_storm", "relocation_edge")

#: how often the full machine validator runs during a case (references)
_VALIDATE_EVERY = 16


@dataclass
class FuzzCase:
    """One generated (or replayed) adversarial reference stream."""

    system: str
    seed: int
    strategy: str
    n_blocks: int
    events: List[Event]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "system": self.system,
            "seed": self.seed,
            "strategy": self.strategy,
            "n_blocks": self.n_blocks,
            "events": [list(e) for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FuzzCase":
        return cls(
            system=data["system"],
            seed=int(data["seed"]),
            strategy=data["strategy"],
            n_blocks=int(data["n_blocks"]),
            events=[(int(p), int(b), int(w)) for p, b, w in data["events"]],
        )


@dataclass
class FuzzFailure:
    """A failing case, after shrinking."""

    case: FuzzCase
    error: str  #: exception class name (the shrink signature)
    message: str
    original_length: int
    artifact_path: Optional[str] = None


@dataclass
class FuzzReport:
    """What one :func:`run_fuzz` invocation did."""

    cases_run: int
    elapsed: float
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# case generation
# ---------------------------------------------------------------------------


def _gen_random_walk(rng: Random, n_procs: int, n_blocks: int, n: int) -> List[Event]:
    return [
        (rng.randrange(n_procs), rng.randrange(n_blocks), int(rng.random() < 0.4))
        for _ in range(n)
    ]


def _gen_upgrade_race(rng: Random, n_procs: int, n_blocks: int, n: int) -> List[Event]:
    hot = rng.sample(range(n_blocks), min(2, n_blocks))
    events: List[Event] = []
    for _ in range(n):
        block = rng.choice(hot)
        pid = rng.randrange(n_procs)
        # mostly writes, with reads mixed in so S/R copies exist to upgrade
        events.append((pid, block, int(rng.random() < 0.7)))
    return events


def _gen_victim_storm(rng: Random, n_procs: int, n_blocks: int, n: int) -> List[Event]:
    # walk blocks cyclically per pid with random strides, so the 1-line L1s
    # victimise on almost every reference; occasional writes make the
    # victims dirty
    cursors = [rng.randrange(n_blocks) for _ in range(n_procs)]
    events: List[Event] = []
    for _ in range(n):
        pid = rng.randrange(n_procs)
        cursors[pid] = (cursors[pid] + 1 + rng.randrange(2)) % n_blocks
        events.append((pid, cursors[pid], int(rng.random() < 0.25)))
    return events


def _gen_relocation_edge(
    rng: Random, n_procs: int, n_blocks: int, n: int
) -> List[Event]:
    # bursts against one block: repeated re-fetches of the same remote
    # block count capacity misses toward the relocation threshold; burst
    # lengths straddle the threshold (tiny configs use threshold 1-2)
    events: List[Event] = []
    while len(events) < n:
        block = rng.randrange(n_blocks)
        pid = rng.randrange(n_procs)
        other = rng.randrange(n_procs)
        for _ in range(rng.randrange(1, 5)):
            events.append((pid, block, 0))
            # a second processor steals the line so the first misses again
            events.append((other, block, int(rng.random() < 0.5)))
        if rng.random() < 0.3:
            # a remote write forces invalidations (decrement refinement)
            events.append(((pid + n_procs // 2) % n_procs, block, 1))
    return events[:n]


_GENERATORS: Dict[str, Callable[[Random, int, int, int], List[Event]]] = {
    "random_walk": _gen_random_walk,
    "upgrade_race": _gen_upgrade_race,
    "victim_storm": _gen_victim_storm,
    "relocation_edge": _gen_relocation_edge,
}


def generate_case(
    system: str, seed: int, strategy: str, n_blocks: int = 4, length: int = 256
) -> FuzzCase:
    """Deterministically generate one fuzz case."""
    config, _ = tiny_check_config(system, n_blocks=n_blocks)
    # deterministic across processes (str.__hash__ is salted per process)
    salt = zlib.crc32(f"{system}/{strategy}".encode("ascii"))
    rng = Random((seed << 8) ^ salt)
    events = _GENERATORS[strategy](rng, config.n_procs, n_blocks, length)
    return FuzzCase(system, seed, strategy, n_blocks, events)


# ---------------------------------------------------------------------------
# case execution
# ---------------------------------------------------------------------------


def run_case(case: FuzzCase) -> Optional[Tuple[str, str]]:
    """Run one case through simulator + oracle in lockstep.

    Returns ``None`` on success, else ``(error_class_name, message)`` —
    the shrink signature.
    """
    config, dataset = tiny_check_config(case.system, n_blocks=case.n_blocks)
    try:
        sim = Simulator(build_machine(config, dataset_bytes=dataset))
        oracle = OracleSimulator(config, dataset_bytes=dataset)
        block_bits = config.block_bits
        for i, (pid, block, is_write) in enumerate(case.events):
            sim.step(pid, block << block_bits, bool(is_write))
            oracle.step(pid, block, bool(is_write))
            a = sim.counters.as_dict()
            b = oracle.counters.as_dict()
            if a != b:
                diffs = [f"{k}: sim={a[k]} oracle={b[k]}" for k in a if a[k] != b[k]]
                raise _Divergence(f"counters diverged at event {i}: {'; '.join(diffs)}")
            if i % _VALIDATE_EVERY == _VALIDATE_EVERY - 1:
                check_machine(sim.machine)
        check_machine(sim.machine)
        sim.counters.check()
        oracle.counters.check()
        sim_state = machine_snapshot(sim.machine)
        oracle_state = oracle.snapshot()
        for key in sim_state:
            if sim_state[key] != oracle_state[key]:
                raise _Divergence(
                    f"final state differs in {key!r}: "
                    f"sim={sim_state[key]!r} oracle={oracle_state[key]!r}"
                )
    except (ReproError, AssertionError, _Divergence) as exc:
        return type(exc).__name__, str(exc)
    return None


class _Divergence(Exception):
    """Simulator and oracle disagree (fuzzer-internal signature)."""


def case_trace(case: FuzzCase):
    """The case's event stream as a :class:`~repro.trace.record.Trace`.

    For replaying a case through ``Simulator.run`` instead of step
    calls; block ids become byte addresses exactly as :func:`run_case`
    feeds them to ``sim.step`` (``block << block_bits``).
    """
    import numpy as np

    from ..trace.record import Trace

    config, dataset = tiny_check_config(case.system, n_blocks=case.n_blocks)
    pids = np.array([e[0] for e in case.events], dtype=np.int32)
    blocks = np.array([e[1] for e in case.events], dtype=np.int64)
    writes = np.array([e[2] for e in case.events], dtype=np.uint8)
    return Trace(
        f"fuzz-{case.strategy}",
        pids,
        blocks << config.block_bits,
        writes,
        dataset,
    )


# ---------------------------------------------------------------------------
# shrinking
# ---------------------------------------------------------------------------


def shrink_case(case: FuzzCase, signature: str) -> FuzzCase:
    """ddmin-style minimisation preserving the failure signature.

    First pass removes progressively smaller chunks; the final pass
    removes single events.  Deterministic: depends only on the case and
    the signature, never on timing or randomness.
    """

    def still_fails(events: Sequence[Event]) -> bool:
        if not events:
            return False
        trial = FuzzCase(
            case.system, case.seed, case.strategy, case.n_blocks, list(events)
        )
        result = run_case(trial)
        return result is not None and result[0] == signature

    events = list(case.events)
    chunk = max(1, len(events) // 2)
    while chunk >= 1:
        i = 0
        while i < len(events):
            trial = events[:i] + events[i + chunk:]
            if still_fails(trial):
                events = trial
            else:
                i += chunk
        if chunk == 1:
            break
        chunk = max(1, chunk // 2)
    return FuzzCase(case.system, case.seed, case.strategy, case.n_blocks, events)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


def save_artifact(
    failure: FuzzFailure, out_dir: str, case_index: int
) -> str:
    """Write a shrunk failing case as a replayable JSON artifact."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        out_dir, f"fuzz-{failure.case.seed}-{case_index}.json"
    )
    payload = dict(failure.case.as_dict())
    payload["error"] = failure.error
    payload["message"] = failure.message
    payload["original_length"] = failure.original_length
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    failure.artifact_path = path
    return path


def replay_artifact(path: str) -> Dict[str, Any]:
    """Re-execute a saved artifact; report whether it still fails.

    Returns ``{"reproduced": bool, "error": ..., "expected_error": ...}``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    case = FuzzCase.from_dict(data)
    result = run_case(case)
    return {
        "path": path,
        "reproduced": result is not None,
        "error": result[0] if result is not None else None,
        "message": result[1] if result is not None else None,
        "expected_error": data.get("error"),
        "events": len(case.events),
    }


# ---------------------------------------------------------------------------
# the fuzz loop
# ---------------------------------------------------------------------------


def run_fuzz(
    seed: int = 1,
    budget_s: float = 60.0,
    max_cases: Optional[int] = None,
    systems: Sequence[str] = DEFAULT_FUZZ_SYSTEMS,
    out_dir: str = "fuzz-artifacts",
    n_blocks: int = 4,
    case_length: int = 256,
    tracer=None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> FuzzReport:
    """Fuzz until the time budget or the case limit is exhausted.

    Cases are generated deterministically from ``seed`` — case ``i`` uses
    sub-seed ``seed * 10_000 + i`` — so a fixed ``(seed, max_cases)`` pair
    always fuzzes the identical stream regardless of wall clock.  Each
    failure is shrunk and saved under ``out_dir``.
    """
    start = time.monotonic()
    report = FuzzReport(cases_run=0, elapsed=0.0)
    i = 0
    while True:
        if max_cases is not None and i >= max_cases:
            break
        if max_cases is None and time.monotonic() - start >= budget_s:
            break
        system = systems[i % len(systems)]
        strategy = STRATEGIES[(i // len(systems)) % len(STRATEGIES)]
        case = generate_case(
            system, seed * 10_000 + i, strategy, n_blocks=n_blocks, length=case_length
        )
        result = run_case(case)
        report.cases_run += 1
        if tracer is not None:
            tracer.emit("fuzz_case", i, detail=f"{system}/{strategy}")
        if result is not None:
            error, message = result
            if tracer is not None:
                tracer.emit("fuzz_failure", i, detail=error)
            shrunk = shrink_case(case, error)
            failure = FuzzFailure(
                case=shrunk,
                error=error,
                message=message,
                original_length=len(case.events),
            )
            path = save_artifact(failure, out_dir, i)
            if tracer is not None:
                tracer.emit("fuzz_shrunk", i, detail=path)
            report.failures.append(failure)
        if progress is not None:
            progress(i, report.cases_run)
        i += 1
    report.elapsed = time.monotonic() - start
    return report
