"""The write contract every whole-file artifact shares.

Each artifact writer goes through :func:`repro.durable.write_atomic`: the
bytes are fsynced before the rename publishes them, and a failure part
way through leaves the previous file byte-identical with no temp file
behind.
"""

from __future__ import annotations

import errno
import os

import numpy as np
import pytest

from repro.obs.manifest import write_manifest
from repro.obs.registry import WallClockRegistry
from repro.service.jobs import Job, JobManager, JobSpec
from repro.service.store import ResultStore
from repro.sim.checkpoint import SweepJournal
from repro.sim.results import SimulationResult
from repro.stats import Counters
from repro.system.builder import system_config
from repro.trace.io import save_trace
from repro.trace.record import Trace


def _trace(root, n):
    save_trace(Trace("t", np.zeros(8), np.arange(8) + n, np.zeros(8), 4096),
               root / "t.npz")


def _store_entry(root, n):
    result = SimulationResult("base", "fft", system_config("base"),
                              Counters(reads=n), refs=1000, seed=1)
    ResultStore(root / "store").put(result, 0.125)


def _job_json(root, n):
    spec = JobSpec.from_dict({"systems": ["base"], "benchmarks": ["fft"]})
    JobManager(data_dir=root / "svc")._persist(
        Job(id="j1", spec=spec, created_unix=float(n)))


def _run_json(root, n):
    # run.json is written once per run directory, so each write is a new run
    SweepJournal.open(root / f"run{n}", refs=1000, seed=1, scale=0.125,
                      systems=["base"], benchmarks=["fft"])


def _manifest(root, n):
    write_manifest({"n": n}, root)


def _metrics_snapshot(root, n):
    registry = WallClockRegistry()
    registry.inc("repro_writes_total", n + 1)
    registry.save(root / "metrics.json")


WRITERS = {
    "trace": _trace,
    "store-entry": _store_entry,
    "job.json": _job_json,
    "run.json": _run_json,
    "manifest": _manifest,
    "metrics.json": _metrics_snapshot,
}


def _files(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("writer", list(WRITERS))
def test_write_contract(tmp_path, monkeypatch, writer):
    write = WRITERS[writer]
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append("fsync")
        real_fsync(fd)

    def replace(src, dst):
        calls.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    write(tmp_path, 0)
    assert calls == ["fsync", "replace"]

    def failing_fsync(fd):
        raise OSError(errno.EIO, "injected I/O error")

    before = _files(tmp_path)
    monkeypatch.setattr(os, "fsync", failing_fsync)
    try:
        write(tmp_path, 1)
    except OSError:
        pass  # the store and the registry report the failure instead
    assert _files(tmp_path) == before
    assert not list(tmp_path.rglob("*.tmp"))
