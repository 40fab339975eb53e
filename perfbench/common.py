"""Pieces every workload shares: checkout layout, seeds, goldens, host-speed
calibration, statistics, and the result line."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space for server data dirs and exported traces (git-ignored)
OUT = ROOT / ".perfbench_out"
GOLDEN_DIR = HERE / "goldens"

#: goldens are committed for trace seeds 1..GOLDEN_SEEDS; the workload seed
#: picks one of them, so every run is checked against committed digests
GOLDEN_SEEDS = 8
DEFAULT_SEED = 1
#: the seed later performance changes keep for the final check
HELDOUT_SEED = 8


def trace_seed(workload_seed: int) -> int:
    """The committed trace seed a workload seed selects (1 -> 1, 8 -> 8, 9 -> 1)."""
    return (workload_seed - 1) % GOLDEN_SEEDS + 1


def require_checkout() -> None:
    """Exit non-zero, printing no result, when the program is not beside us."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full "
              f"checkout", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(**extra: str) -> Dict[str, str]:
    """Environment for spawned program processes: the checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env.update(extra)
    return env


def load_goldens(workload: str) -> dict:
    with open(GOLDEN_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _calibration_kernel(n: int = 60_000) -> None:
    """A fixed interpreter-bound loop shaped like the simulator's hot code:
    dict lookups, LRU list reordering, slot attribute updates, allocation."""

    class Line:
        __slots__ = ("tag", "state")

        def __init__(self, tag: int) -> None:
            self.tag = tag
            self.state = 0

    tags: Dict[int, Line] = {}
    sets: List[List[Line]] = [[] for _ in range(64)]
    for i in range(n):
        block = (i * 2654435761) & 4095
        line = tags.get(block)
        lines = sets[block & 63]
        if line is not None:
            if lines[-1] is not line:
                lines.remove(line)
                lines.append(line)
            line.state = (line.state + 1) & 3
            continue
        if len(lines) >= 4:
            del tags[lines.pop(0).tag]
        line = Line(block)
        lines.append(line)
        tags[block] = line


class HostSpeed:
    """Interleaved calibration of this host's interpreter speed.

    On a shared 2-vCPU VM each vCPU's speed was measured swinging by up to
    2x within seconds, independently of the other, which moved a
    single-core wall-clock figure by 20-30% from run to run.  The benchmark
    alternates its work between the vCPUs and times a fixed calibration
    loop right before each unit of work; :attr:`factor` is the host's
    slowness against a reference host that runs the loop
    :data:`REFERENCE_PER_S` times a second.
    """

    #: calibration loops per second on the reference host
    REFERENCE_PER_S = 30.0

    def __init__(self) -> None:
        self.loops = 0
        self.seconds = 0.0
        self._cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self._turn = 0

    def sample(self) -> None:
        """Move to the next vCPU (children inherit it), then time one loop."""
        if len(self._cpus) > 1:
            os.sched_setaffinity(0, {self._cpus[self._turn % len(self._cpus)]})
            self._turn += 1
        t0 = time.perf_counter()
        _calibration_kernel()
        self.seconds += time.perf_counter() - t0
        self.loops += 1

    def release(self) -> None:
        """Let the scheduler use every vCPU again."""
        if self._cpus:
            os.sched_setaffinity(0, set(self._cpus))

    @property
    def factor(self) -> float:
        """Reference speed / measured speed (above 1 on a slower host)."""
        return self.REFERENCE_PER_S * self.seconds / self.loops

    def line(self) -> str:
        return (f"host speed: {self.loops / self.seconds:.2f} calibration loops/s over "
                f"{self.loops} samples; times scaled by 1/{self.factor:.4f} to the "
                f"reference host ({self.REFERENCE_PER_S:g}/s)")


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_line(name: str, values: Sequence[float], pct: float) -> str:
    beyond = len(values) * (1 - pct / 100.0)
    note = "" if beyond >= 10 else "  (fewer than 10 samples beyond: noisy)"
    return (f"{name}: p{pct:g} over {len(values)} samples, "
            f"{beyond:.1f} beyond it{note}")


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def time_import_repro() -> float:
    """Process start until ``import repro`` returns, in a fresh interpreter."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import repro"], env=child_env(),
                   check=True, cwd=str(ROOT))
    return time.perf_counter() - t0


def validate_trace(path: Path) -> str:
    """Run the repository's trace validator; returns its report line."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "validate_trace.py"), str(path)],
        capture_output=True, text=True, cwd=str(ROOT),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"validate_trace.py rejected {path}: "
                           f"{proc.stderr.strip()}")
    return proc.stdout.strip()


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def complete_layer_metrics(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric ``BENCHMARK.json`` lists, with its unit.

    A layer a workload never calls reads 0 (``catalog.json`` names the
    workloads each metric is measured on); a value the code produces that
    the list lacks is a bug.
    """
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise KeyError(f"per-layer values missing from BENCHMARK.json: {unknown}")
    return {name: metric(values.get(name, 0.0), unit) for name, unit in units.items()}


class Outcome:
    """Attempted/failed tally with the reason of every failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Dict[str, int] = {}

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def finish(outcome: Outcome, metrics: Dict[str, Dict[str, object]],
           lines: List[str], problems: Sequence[str] = ()) -> int:
    """Print the report lines and the result object; return the exit code.

    Golden mismatches, failed operations and broken checks make the run
    incorrect and the exit code non-zero.
    """
    for line in lines:
        print(line)
    print(f"failed_ratio: {outcome.ratio:.6f} fraction "
          f"({outcome.failed} of {outcome.attempted})")
    for reason, count in sorted(outcome.reasons.items()):
        print(f"  failure: {reason} x{count}")
    for problem in problems:
        print(f"  check failed: {problem}")
    correct = outcome.failed == 0 and not problems and outcome.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }, sort_keys=True))
    sys.stdout.flush()
    return 0 if correct else 1
