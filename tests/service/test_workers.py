"""Tests for the job threads' kept worker pools: lazy spawn, reuse after
clean jobs, fresh workers after lost or cancelled ones, shutdown, and the
worker spans a job's span file carries."""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.faults import FaultPlan, cell_context
from repro.obs.manifest import counters_digest
from repro.obs.spans import load_spans, spans_to_chrome
from repro.service.jobs import JobManager, JobSpec
from repro.sim.parallel import run_parallel_sweep
from repro.sim.runner import clear_trace_cache, sweep
from tests.sim.test_worker_pool import _children, _wait_gone, needs_proc

ROOT = Path(repro.__file__).resolve().parents[2]
REFS = 2_000
SPEC = {"systems": ["vb"], "benchmarks": ["fft"], "refs": REFS, "seed": 5,
        "scale": 0.02}


@pytest.fixture(autouse=True)
def _isolated(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
    clear_trace_cache()
    yield
    clear_trace_cache()


def _manager(tmp_path, job_workers=1):
    mgr = JobManager(data_dir=tmp_path / "svc", job_workers=job_workers)
    mgr.start()
    return mgr


def _wait(mgr, job_id, timeout=60.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        job = mgr.get(job_id)
        if job.state in ("done", "failed", "cancelled"):
            return job
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} did not finish")


def _run(mgr, spec):
    job = _wait(mgr, mgr.submit(spec).id)
    assert job.state == "done", job.error
    return job


def _worker_pids(mgr, job):
    """OS pids of the workers that simulated the job's cells."""
    return {s["args"]["os_pid"] for s in load_spans(mgr.run_dir(job.id))
            if s["name"] == "cell simulate" and s["proc"].startswith("worker-")}


def _live_children():
    return {p.pid for p in multiprocessing.active_children()}


def _assert_matches_serial(mgr, job, spec):
    """A job's result.json cells equal a serial sweep of the same spec."""
    parsed = JobSpec.from_dict(spec)
    serial = run_parallel_sweep(
        parsed.resolve_configs(), list(parsed.benchmarks), refs=parsed.refs,
        seed=parsed.seed, scale=parsed.scale,
    )
    cells = mgr.result_payload(job.id)["cells"]
    assert [(c["system"], c["benchmark"]) for c in cells] == list(serial)
    for cell in cells:
        result = serial[(cell["system"], cell["benchmark"])]
        assert cell["counters"] == result.counters.as_dict()
        assert cell["counters_sha"] == counters_digest(result.counters)


def _seeds(plan_text, kind):
    """A trace seed whose vb/fft cell ``kind`` hits, and one it spares."""
    plan = FaultPlan.parse(plan_text)
    hit = {s: plan.should(kind, cell_context("vb", "fft", s), 0) for s in range(200)}
    return (next(s for s, h in hit.items() if h),
            next(s for s, h in hit.items() if not h))


class TestLifecycle:
    def test_store_hits_spawn_no_worker(self, tmp_path):
        before = _live_children()
        mgr = _manager(tmp_path, job_workers=2)
        try:
            assert not _live_children() - before
            sweep(["vb"], ["fft"], refs=REFS, seed=5, scale=0.02,
                  result_store=mgr.store)
            job = _run(mgr, SPEC)
            assert job.cache["hits"] == 1
            assert not _live_children() - before
        finally:
            mgr.close()

    def test_clean_jobs_reuse_the_worker(self, tmp_path):
        mgr = _manager(tmp_path)
        try:
            first = _run(mgr, SPEC)
            second = _run(mgr, dict(SPEC, seed=6, systems=["vb", "base"]))
            pids = _worker_pids(mgr, first)
            assert len(pids) == 1
            assert _worker_pids(mgr, second) == pids
            _assert_matches_serial(mgr, second, dict(SPEC, seed=6, systems=["vb", "base"]))
        finally:
            mgr.close()
        assert _wait_gone(pids, 5) == set()

    def test_lost_worker_means_fresh_workers_next_job(self, tmp_path, monkeypatch):
        plan_text = "seed=3;kill=0.5@1"
        killed, spared = _seeds(plan_text, "kill")
        monkeypatch.setenv("REPRO_FAULTS", plan_text)
        mgr = _manager(tmp_path)
        try:
            lossy = _run(mgr, dict(SPEC, seed=killed))
            assert mgr.progress(lossy.id).recovery_counts.get("worker_lost") == 1
            after = _run(mgr, dict(SPEC, seed=spared))
            assert _worker_pids(mgr, after).isdisjoint(_worker_pids(mgr, lossy))
            _assert_matches_serial(mgr, after, dict(SPEC, seed=spared))
        finally:
            mgr.close()

    def test_cancel_drops_the_cell_and_its_worker(self, tmp_path, monkeypatch):
        plan_text = "seed=3;slow=0.5@1:30"
        slowed, spared = _seeds(plan_text, "slow")
        monkeypatch.setenv("REPRO_FAULTS", plan_text)
        before = _live_children()
        mgr = _manager(tmp_path)
        try:
            job = mgr.submit(dict(SPEC, seed=slowed))
            deadline = time.time() + 30
            while not _live_children() - before and time.time() < deadline:
                time.sleep(0.01)
            busy = _live_children() - before
            assert busy
            time.sleep(0.5)
            t0 = time.time()
            mgr.cancel(job.id)
            assert _wait(mgr, job.id).state == "cancelled"
            assert time.time() - t0 < 10  # not the 30 s the cell sleeps
            assert _wait_gone(busy, 5) == set()
            after = _run(mgr, dict(SPEC, seed=spared))
            assert _worker_pids(mgr, after).isdisjoint(busy)
            _assert_matches_serial(mgr, after, dict(SPEC, seed=spared))
        finally:
            mgr.close()

    def test_no_worker_after_close_or_drain(self, tmp_path):
        mgr = _manager(tmp_path / "a", job_workers=2)
        pids = _worker_pids(mgr, _run(mgr, SPEC))
        mgr.close()
        assert pids and _wait_gone(pids, 0) == set()

        mgr = _manager(tmp_path / "b", job_workers=2)
        pids = _worker_pids(mgr, _run(mgr, SPEC))
        mgr.drain(timeout=1.0)
        assert pids and _wait_gone(pids, 0) == set()


class TestWorkerSpans:
    def test_cell_span_splits_worker_time(self, tmp_path):
        mgr = _manager(tmp_path)
        try:
            job = _run(mgr, SPEC)
        finally:
            mgr.close()
        spans = load_spans(mgr.run_dir(job.id))
        cells = [s for s in spans if s["name"] == "cell simulate"]
        assert len(cells) == 1 and re.fullmatch(r"worker-\d+", cells[0]["proc"])
        cell = cells[0]
        children = [s for s in spans if s["parent_id"] == cell["span_id"]]
        assert sorted(s["name"] for s in children) == ["get-trace", "run-trace"]
        end = cell["t0_unix"] + cell["dur_s"]
        for child in children:
            assert child["proc"] == cell["proc"]
            assert cell["t0_unix"] <= child["t0_unix"]
            assert child["t0_unix"] + child["dur_s"] <= end + 1e-6
        chrome = tmp_path / "job-trace.json"
        chrome.write_text(json.dumps(spans_to_chrome(spans)), encoding="utf-8")
        check = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "validate_trace.py"), str(chrome)],
            capture_output=True, text=True,
        )
        assert check.returncode == 0, check.stderr


@needs_proc
class TestServeProcess:
    def test_sigterm_leaves_no_child(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--data-dir", str(tmp_path / "svc")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            line = server.stdout.readline()
            assert line.startswith("listening on http://"), line
            base = line.strip().split("listening on ", 1)[1]
            urlopen = urllib.request.build_opener(urllib.request.ProxyHandler({})).open
            with urlopen(f"{base}/healthz", timeout=10) as resp:
                assert resp.status == 200
            assert _children(server.pid) == set()  # no worker before a cell

            post = urllib.request.Request(
                f"{base}/jobs", data=json.dumps(SPEC).encode(), method="POST")
            with urlopen(post, timeout=10) as resp:
                job_id = json.loads(resp.read())["id"]
            deadline = time.time() + 60
            state = "queued"
            while state not in ("done", "failed") and time.time() < deadline:
                time.sleep(0.05)
                with urlopen(f"{base}/jobs/{job_id}", timeout=10) as resp:
                    state = json.loads(resp.read())["state"]
            assert state == "done"
            children = _children(server.pid)
            assert children  # the kept worker (and the spawn resource tracker)

            server.send_signal(signal.SIGTERM)
            server.wait(timeout=30)
            assert _wait_gone(children, 5) == set()
        finally:
            server.kill()
            server.wait()
