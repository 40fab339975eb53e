"""Tests for :class:`repro.sim.parallel.WorkerPool`: a kept pool's reuse
and rebuild rules, and workers that exit when their parent dies."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.sim.parallel import RecoveryLog, WorkerPool, run_parallel_sweep
from repro.sim.runner import clear_trace_cache, resolve_sweep_configs

SRC = str(Path(repro.__file__).resolve().parents[1])
REFS = 2_000
SCALE = 0.02

needs_proc = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="reads process state from /proc"
)


@pytest.fixture(autouse=True)
def _isolated(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
    clear_trace_cache()
    yield
    clear_trace_cache()


def _sweep(pool, seed=5, systems=("vb",), **kw):
    return run_parallel_sweep(
        resolve_sweep_configs(list(systems)), ["fft"], refs=REFS, seed=seed,
        scale=SCALE, pool=pool, **kw,
    )


def _pids(pool):
    return {h.process.pid for h in pool.workers.values()}


def _proc_state(pid):
    """The /proc state letter of ``pid``, or None once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


def _gone(pid):
    return _proc_state(pid) in (None, "Z")


def _children(pid):
    """Pids whose parent is ``pid``."""
    out = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            out.add(int(stat.parent.name))
    return out


def _wait_gone(pids, timeout):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and not all(_gone(p) for p in pids):
        time.sleep(0.05)
    return {p for p in pids if not _gone(p)}


class TestKeptPool:
    def test_lazy_then_reused_after_clean_sweeps(self):
        pool = WorkerPool(kept=True)
        try:
            assert pool.workers == {}  # nothing spawns before a cell runs
            _sweep(pool, seed=5)
            pids = _pids(pool)
            assert len(pids) == 1
            _sweep(pool, seed=6)
            assert _pids(pool) == pids
        finally:
            pool.close()
        assert pool.workers == {}
        assert _wait_gone(pids, 5) == set()

    def test_extra_workers_live_for_one_sweep(self):
        pool = WorkerPool(kept=True)
        try:
            _sweep(pool, systems=("vb", "base", "nc"), jobs=3)
            assert list(pool.workers) == [0]
        finally:
            pool.close()

    def test_results_match_serial(self):
        serial = _sweep(None, systems=("vb", "base"))
        clear_trace_cache()
        pool = WorkerPool(kept=True)
        try:
            kept = _sweep(pool, systems=("vb", "base"))
        finally:
            pool.close()
        assert list(kept) == list(serial)
        for key, result in serial.items():
            assert kept[key].counters == result.counters
            assert kept[key].metrics == result.metrics

    def test_lost_worker_rebuilds_pool(self, monkeypatch):
        pool = WorkerPool(kept=True)
        try:
            _sweep(pool, seed=5)
            before = _pids(pool)
            monkeypatch.setenv("REPRO_FAULTS", "seed=1;kill=1.0@1")
            recovery = RecoveryLog()
            _sweep(pool, seed=6, recovery=recovery)
            assert recovery.counts.get("worker_lost") == 1
            assert pool.workers == {}  # unclean: nothing kept
            monkeypatch.delenv("REPRO_FAULTS")
            _sweep(pool, seed=7)
            assert _pids(pool).isdisjoint(before)
        finally:
            pool.close()

    def test_changed_environment_respawns(self, monkeypatch):
        # a worker keeps the environment it was spawned with: one started
        # under REPRO_PROFILE would go on profiling cells planned unprofiled
        from repro.obs.profile import profiled_cells

        pool = WorkerPool(kept=True)
        try:
            monkeypatch.setenv("REPRO_PROFILE", "1")
            profiled = _sweep(pool, seed=5)
            before = _pids(pool)
            monkeypatch.delenv("REPRO_PROFILE")
            plain = _sweep(pool, seed=5)
            assert _pids(pool).isdisjoint(before)
        finally:
            pool.close()
        assert profiled_cells(profiled[("vb", "fft")].metrics) == ["vb/fft"]
        assert profiled_cells(plain[("vb", "fft")].metrics) == []

    def test_closed_pool_never_respawns(self):
        pool = WorkerPool(kept=True)
        pool.close()
        recovery = RecoveryLog()
        results = _sweep(pool, recovery=recovery)
        assert recovery.counts.get("pool_unavailable") == 1
        assert pool.workers == {} and len(results) == 1


# a parent that holds a kept pool with an idle worker, then waits
KEPT_HARNESS = """
import time
from repro.sim.parallel import WorkerPool, run_parallel_sweep
from repro.sim.runner import resolve_sweep_configs
pool = WorkerPool(kept=True)
run_parallel_sweep(resolve_sweep_configs(["vb"]), ["fft"], refs=2000,
                   scale=0.02, pool=pool)
print("ready", flush=True)
time.sleep(120)
"""


@needs_proc
class TestParentDeath:
    def _env(self, tmp_path, **extra):
        env = dict(os.environ, PYTHONPATH=SRC)
        env.update(extra)
        return env

    def _kill_and_check(self, parent, workers):
        parent.send_signal(signal.SIGKILL)
        parent.wait(timeout=10)
        assert _wait_gone(workers, 5) == set()

    def test_idle_kept_worker_exits(self, tmp_path):
        parent = subprocess.Popen(
            [sys.executable, "-c", KEPT_HARNESS], env=self._env(tmp_path),
            stdout=subprocess.PIPE, text=True,
        )
        try:
            assert parent.stdout.readline().strip() == "ready"
            # the kept worker and the spawn resource tracker
            workers = _children(parent.pid)
            assert workers
            self._kill_and_check(parent, workers)
        finally:
            parent.kill()
            parent.wait()

    def test_busy_sweep_worker_exits_after_its_cell(self, tmp_path):
        # every first attempt sleeps 2 s, so the parent dies mid-cell
        parent = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep", "vb,base", "fft,lu",
             "--refs", "2000", "--scale", "0.02", "--jobs", "2"],
            env=self._env(tmp_path, REPRO_FAULTS="seed=1;slow=1.0@1:2"),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 30
            workers = set()
            while len(workers) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
                workers = _children(parent.pid)
            assert len(workers) == 2
            time.sleep(0.5)
            self._kill_and_check(parent, workers)
        finally:
            parent.kill()
            parent.wait()
