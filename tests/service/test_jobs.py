"""Tests for the job manager: spec validation, lifecycle, persistence,
restart recovery, and the shared result store."""

from __future__ import annotations

import json
import time

import pytest

from repro.errors import ConfigurationError, JobSpecError, ServiceUnavailableError
from repro.service import jobs as jobs_module
from repro.service.app import ServiceApp
from repro.service.jobs import Job, JobManager, JobSpec
from repro.sim.runner import clear_trace_cache

REFS = 2_000
SPEC = {"systems": ["vb"], "benchmarks": ["fft"], "refs": REFS, "seed": 5,
        "scale": 0.02}


@pytest.fixture(autouse=True)
def _isolated(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
    clear_trace_cache()
    yield
    clear_trace_cache()


@pytest.fixture()
def manager(tmp_path):
    mgr = JobManager(data_dir=tmp_path / "svc", job_workers=2)
    mgr.start()
    yield mgr
    mgr.close()


def _wait(mgr, job_id, timeout=60.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        job = mgr.get(job_id)
        if job.state in ("done", "failed"):
            return job
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish")


class TestJobSpec:
    def test_round_trip(self):
        spec = JobSpec.from_dict(SPEC)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_comma_separated_names(self):
        spec = JobSpec.from_dict(
            dict(SPEC, systems="vb, base", benchmarks="fft,lu"))
        assert spec.systems == ("vb", "base")
        assert spec.benchmarks == ("fft", "lu")

    @pytest.mark.parametrize("broken, needle", [
        ("not a dict", "JSON object"),
        ({}, "systems"),
        (dict(SPEC, systems=[]), "systems"),
        (dict(SPEC, benchmarks=["nope"]), "unknown benchmark"),
        (dict(SPEC, systems=["nosuch"]), "nosuch"),
        (dict(SPEC, refs="many"), "refs"),
        (dict(SPEC, refs=0), "refs"),
        (dict(SPEC, seed=-1), "seed"),
        (dict(SPEC, scale=0), "scale"),
        (dict(SPEC, engine="turbo"), "engine"),
        (dict(SPEC, jobs=0), "jobs"),
        (dict(SPEC, surprise=1), "unknown spec field"),
        (dict(SPEC, systems=["vb"] * 60, benchmarks=["fft"] * 10), "limit"),
        (dict(SPEC, engine="interp"), "unknown spec field"),
    ])
    def test_rejects_bad_specs(self, broken, needle):
        with pytest.raises(JobSpecError, match=needle):
            JobSpec.from_dict(broken)


class TestLifecycle:
    def test_submit_runs_to_done(self, manager):
        job = manager.submit(SPEC)
        assert job.state in ("queued", "running", "done")  # live object
        finished = _wait(manager, job.id)
        assert finished.state == "done"
        assert finished.error is None
        assert finished.cache["total_cells"] == 1
        payload = manager.result_payload(job.id)
        assert payload["job_id"] == job.id
        assert len(payload["cells"]) == 1
        cell = payload["cells"][0]
        assert cell["system"] == "vb" and cell["benchmark"] == "fft"
        assert cell["counters_sha"]

    def test_job_json_persisted_atomically(self, manager):
        job = manager.submit(SPEC)
        _wait(manager, job.id)
        on_disk = json.loads(
            (manager.job_dir(job.id) / "job.json").read_text())
        assert on_disk["state"] == "done"
        assert on_disk["spec"]["systems"] == ["vb"]

    def test_job_json_written_at_submit_and_terminal_state(
        self, manager, monkeypatch
    ):
        # a restart re-queues a running job like a queued one, so the
        # running transition is not written
        states = []
        write_json = jobs_module._write_json

        def spy(path, payload):
            if path.name == "job.json":
                states.append(payload["state"])
            write_json(path, payload)

        monkeypatch.setattr(jobs_module, "_write_json", spy)
        job = manager.submit(SPEC)
        assert _wait(manager, job.id).state == "done"
        assert states == ["queued", "done"]

    def test_manifest_written_with_cache_key(self, manager):
        job = manager.submit(SPEC)
        _wait(manager, job.id)
        manifest = json.loads(
            (manager.job_dir(job.id) / "job-manifest.json").read_text())
        assert manifest["kind"] == "service-job"
        assert manifest["cache"]["simulated"] == 1

    def test_second_job_all_cache_hits(self, manager):
        first = _wait(manager, manager.submit(SPEC).id)
        second = _wait(manager, manager.submit(SPEC).id)
        assert second.cache["hits"] == 1
        assert second.cache["hit_rate"] == 1.0
        p1 = manager.result_payload(first.id)
        p2 = manager.result_payload(second.id)
        assert p1["cells"][0]["counters_sha"] == p2["cells"][0]["counters_sha"]
        assert p1["cells"][0]["counters"] == p2["cells"][0]["counters"]

    def test_stats(self, manager):
        _wait(manager, manager.submit(SPEC).id)
        stats = manager.stats()
        assert stats["jobs"]["total"] == 1
        assert stats["jobs"]["by_state"]["done"] == 1
        assert stats["store"]["entries"] == 1

    def test_list_jobs_newest_first(self, manager):
        a = manager.submit(SPEC)
        b = manager.submit(dict(SPEC, seed=6))
        _wait(manager, a.id)
        _wait(manager, b.id)
        listed = manager.list_jobs()
        assert [j.id for j in listed] == [b.id, a.id]


class TestRestartRecovery:
    def test_unfinished_job_resumes(self, tmp_path):
        # first server dies before the job runs: persist a queued job by
        # hand, exactly what submit() leaves on disk pre-crash
        data_dir = tmp_path / "svc"
        mgr1 = JobManager(data_dir=data_dir)
        spec = JobSpec.from_dict(SPEC)
        job = Job(id="deadbeef0001", spec=spec, state="queued")
        mgr1._persist(job)

        mgr2 = JobManager(data_dir=data_dir, job_workers=1)
        resumed = mgr2.start()
        try:
            assert resumed == ["deadbeef0001"]
            finished = _wait(mgr2, "deadbeef0001")
            assert finished.state == "done"
            assert finished.resumed
        finally:
            mgr2.close()

    def test_job_json_with_engine_field_resumes(self, tmp_path):
        # job.json files from versions with a selectable execution engine
        # persist "engine": null in the spec; a restart must still run
        # them rather than abandon them as torn
        data_dir = tmp_path / "svc"
        mgr1 = JobManager(data_dir=data_dir)
        job = Job(id="deadbeef0002", spec=JobSpec.from_dict(SPEC), state="queued")
        mgr1._persist(job)
        job_file = data_dir / "jobs" / job.id / "job.json"
        raw = json.loads(job_file.read_text())
        raw["spec"]["engine"] = None
        job_file.write_text(json.dumps(raw))

        mgr2 = JobManager(data_dir=data_dir, job_workers=1)
        try:
            assert mgr2.start() == [job.id]
            finished = _wait(mgr2, job.id)
            assert finished.state == "done" and finished.resumed
            assert finished.spec == JobSpec.from_dict(SPEC)
            cells = mgr2.result_payload(job.id)["cells"]
        finally:
            mgr2.close()

        mgr3 = JobManager(data_dir=tmp_path / "fresh", job_workers=1)
        mgr3.start()
        try:
            fresh = _wait(mgr3, mgr3.submit(SPEC).id)
            assert fresh.state == "done"
            assert mgr3.result_payload(fresh.id)["cells"] == cells
        finally:
            mgr3.close()

    def test_running_job_resumes_from_journal(self, tmp_path):
        # a job that died mid-run keeps its journal: the restarted run
        # restores completed cells instead of re-simulating them
        data_dir = tmp_path / "svc"
        mgr1 = JobManager(data_dir=data_dir, job_workers=1)
        mgr1.start()
        try:
            big = dict(SPEC, systems=["vb", "base"], benchmarks=["fft", "lu"])
            done = _wait(mgr1, mgr1.submit(big).id)
        finally:
            mgr1.close()
        # forge the crash: flip the finished job back to "running" and
        # clear the store so only the journal can satisfy the cells
        job_file = data_dir / "jobs" / done.id / "job.json"
        raw = json.loads(job_file.read_text())
        raw["state"] = "running"
        job_file.write_text(json.dumps(raw))
        sha_before = {
            (c["system"], c["benchmark"]): c["counters_sha"]
            for c in json.loads(
                (data_dir / "jobs" / done.id / "result.json").read_text()
            )["cells"]
        }
        mgr2 = JobManager(data_dir=data_dir, job_workers=1)
        mgr2.store.clear()
        resumed = mgr2.start()
        try:
            assert resumed == [done.id]
            finished = _wait(mgr2, done.id)
            assert finished.state == "done"
            # every cell came back from the journal, none re-simulated
            assert finished.cache["resumed"] == 4
            assert finished.cache["simulated"] == 0
            sha_after = {
                (c["system"], c["benchmark"]): c["counters_sha"]
                for c in mgr2.result_payload(done.id)["cells"]
            }
            assert sha_after == sha_before
        finally:
            mgr2.close()

    def test_running_all_hit_job_resumes_from_the_store(self, tmp_path):
        # an all-hit job journals no cell, so its resume serves every
        # cell from the store again
        data_dir = tmp_path / "svc"
        big = dict(SPEC, systems=["vb", "base"], benchmarks=["fft", "lu"])
        mgr1 = JobManager(data_dir=data_dir, job_workers=1)
        mgr1.start()
        try:
            _wait(mgr1, mgr1.submit(big).id)
            done = _wait(mgr1, mgr1.submit(big).id)
        finally:
            mgr1.close()
        assert done.cache["hits"] == 4
        job_file = data_dir / "jobs" / done.id / "job.json"
        raw = json.loads(job_file.read_text())
        raw["state"] = "running"
        job_file.write_text(json.dumps(raw))
        sha_before = {
            (c["system"], c["benchmark"]): c["counters_sha"]
            for c in json.loads(
                (data_dir / "jobs" / done.id / "result.json").read_text()
            )["cells"]
        }
        mgr2 = JobManager(data_dir=data_dir, job_workers=1)
        try:
            assert mgr2.start() == [done.id]
            finished = _wait(mgr2, done.id)
            assert finished.state == "done"
            assert finished.cache["hits"] == 4
            assert finished.cache["simulated"] == 0
            sha_after = {
                (c["system"], c["benchmark"]): c["counters_sha"]
                for c in mgr2.result_payload(done.id)["cells"]
            }
            assert sha_after == sha_before
        finally:
            mgr2.close()

    def test_finished_jobs_not_rerun(self, tmp_path):
        data_dir = tmp_path / "svc"
        mgr1 = JobManager(data_dir=data_dir, job_workers=1)
        mgr1.start()
        try:
            done = _wait(mgr1, mgr1.submit(SPEC).id)
        finally:
            mgr1.close()
        mgr2 = JobManager(data_dir=data_dir, job_workers=1)
        try:
            assert mgr2.start() == []
            assert mgr2.get(done.id).state == "done"
        finally:
            mgr2.close()

    def test_torn_job_json_skipped(self, tmp_path):
        data_dir = tmp_path / "svc"
        bad = data_dir / "jobs" / "torn0000",
        bad[0].mkdir(parents=True)
        (bad[0] / "job.json").write_text('{"id": "torn')
        mgr = JobManager(data_dir=data_dir)
        try:
            assert mgr.start() == []
            assert mgr.list_jobs() == []
        finally:
            mgr.close()


class TestFailureIsolation:
    def test_submit_before_start_raises(self, tmp_path):
        from repro.errors import ReproError

        mgr = JobManager(data_dir=tmp_path / "svc")
        with pytest.raises(ReproError, match="not started"):
            mgr.submit(SPEC)

    def test_bad_spec_never_enqueued(self, manager):
        with pytest.raises(JobSpecError):
            manager.submit({"systems": ["vb"]})
        assert manager.list_jobs() == []


class _StalledExecutor:
    """Swallows submissions so jobs stay deterministically queued."""

    def submit(self, fn, *args):  # noqa: ARG002 - signature match
        return None

    def shutdown(self, wait=True, cancel_futures=False):  # noqa: ARG002
        return None


def _stalled_manager(tmp_path, **kwargs):
    mgr = JobManager(data_dir=tmp_path / "svc", **kwargs)
    mgr.start()
    mgr._executor.shutdown(wait=True)
    mgr._executor = _StalledExecutor()
    return mgr


class TestAdmissionControl:
    def test_queue_bound_rejects_with_503(self, tmp_path):
        mgr = _stalled_manager(tmp_path, max_queued_jobs=2,
                               max_inflight_cells=0)
        mgr.submit(SPEC)
        mgr.submit(dict(SPEC, seed=6))
        with pytest.raises(ServiceUnavailableError, match="queue full"):
            mgr.submit(dict(SPEC, seed=7))
        assert mgr.rejected == 1
        assert mgr.queued_jobs() == 2  # the rejected spec was never queued

    def test_cell_budget_counts_matrix_size(self, tmp_path):
        mgr = _stalled_manager(tmp_path, max_queued_jobs=0,
                               max_inflight_cells=3)
        big = dict(SPEC, systems=["vb", "base"], benchmarks=["fft", "lu"])
        with pytest.raises(ServiceUnavailableError, match="cell budget"):
            mgr.submit(big)  # 4 cells > 3 budget, even with nothing queued
        mgr.submit(SPEC)  # 1 cell fits
        with pytest.raises(ServiceUnavailableError):
            mgr.submit(dict(SPEC, systems=["vb", "base", "nc"]))  # 1+3 > 3

    def test_zero_disables_bounds(self, tmp_path):
        mgr = _stalled_manager(tmp_path, max_queued_jobs=0,
                               max_inflight_cells=0)
        for seed in range(5):
            mgr.submit(dict(SPEC, seed=seed))
        assert mgr.queued_jobs() == 5 and mgr.rejected == 0

    def test_rejection_carries_retry_hint(self, tmp_path):
        mgr = _stalled_manager(tmp_path, max_queued_jobs=1,
                               max_inflight_cells=0, retry_after_s=7.5)
        mgr.submit(SPEC)
        with pytest.raises(ServiceUnavailableError) as err:
            mgr.submit(dict(SPEC, seed=6))
        assert err.value.retry_after_s == 7.5

    def test_env_defaults(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_QUEUED_JOBS", "11")
        monkeypatch.setenv("REPRO_MAX_INFLIGHT_CELLS", "222")
        mgr = JobManager(data_dir=tmp_path / "svc")
        assert mgr.max_queued_jobs == 11
        assert mgr.max_inflight_cells == 222

    @pytest.mark.parametrize("var", [
        "REPRO_MAX_QUEUED_JOBS", "REPRO_MAX_INFLIGHT_CELLS", "REPRO_JOB_TTL",
        "REPRO_DRAIN_TIMEOUT", "REPRO_STORE_MAX_BYTES", "REPRO_REQUEST_TIMEOUT",
        "REPRO_GC_INTERVAL",
    ])
    def test_malformed_env_fails_construction(self, tmp_path, monkeypatch, var):
        monkeypatch.setenv(var, "abc")
        with pytest.raises(ConfigurationError, match=var):
            ServiceApp(JobManager(data_dir=tmp_path / "svc"))


class TestCancel:
    def test_cancel_queued_job(self, tmp_path):
        mgr = _stalled_manager(tmp_path)
        job = mgr.submit(SPEC)
        cancelled = mgr.cancel(job.id)
        assert cancelled.state == "cancelled"
        assert cancelled.finished_unix is not None
        on_disk = json.loads((mgr.job_dir(job.id) / "job.json").read_text())
        assert on_disk["state"] == "cancelled"

    def test_cancel_is_idempotent(self, tmp_path):
        mgr = _stalled_manager(tmp_path)
        job = mgr.submit(SPEC)
        mgr.cancel(job.id)
        again = mgr.cancel(job.id)
        assert again.state == "cancelled"

    def test_cancel_unknown_returns_none(self, tmp_path):
        mgr = _stalled_manager(tmp_path)
        assert mgr.cancel("nosuchjob0000") is None

    def test_cancel_terminal_job_untouched(self, manager):
        job = _wait(manager, manager.submit(SPEC).id)
        assert manager.cancel(job.id).state == "done"

    def test_cancel_running_job_stops_at_cell_boundary(self, tmp_path):
        # a real running sweep: many cells, tiny refs, 1 worker thread
        mgr = JobManager(data_dir=tmp_path / "svc", job_workers=1)
        mgr.start()
        try:
            big = dict(SPEC, systems=["vb", "base", "nc", "ncd"],
                       benchmarks=["fft", "lu", "radix"], refs=5000)
            job = mgr.submit(big)
            deadline = time.time() + 30
            while mgr.get(job.id).state == "queued" and time.time() < deadline:
                time.sleep(0.005)
            mgr.cancel(job.id)
            deadline = time.time() + 30
            while (mgr.get(job.id).state not in ("cancelled", "done")
                   and time.time() < deadline):
                time.sleep(0.01)
            # "done" is legal if the sweep beat the abort; either way the
            # job is terminal and persisted
            final = mgr.get(job.id)
            assert final.state in ("cancelled", "done")
            on_disk = json.loads(
                (mgr.job_dir(job.id) / "job.json").read_text())
            assert on_disk["state"] == final.state
        finally:
            mgr.close()


class TestDrain:
    def test_draining_rejects_submissions(self, tmp_path):
        mgr = _stalled_manager(tmp_path)
        mgr.begin_drain()
        with pytest.raises(ServiceUnavailableError, match="draining"):
            mgr.submit(SPEC)
        assert mgr.health() == "draining"

    def test_drain_preserves_queued_jobs(self, tmp_path):
        mgr = _stalled_manager(tmp_path)
        a = mgr.submit(SPEC)
        b = mgr.submit(dict(SPEC, seed=6))
        summary = mgr.drain(timeout=0.1)
        assert summary["queued"] == 2 and summary["aborted"] == 0
        # the persisted queue order survives: a restart resumes both,
        # oldest first
        mgr2 = JobManager(data_dir=tmp_path / "svc", job_workers=1)
        resumed = mgr2.start()
        try:
            assert resumed == [a.id, b.id]
            assert _wait(mgr2, a.id).state == "done"
            assert _wait(mgr2, b.id).state == "done"
        finally:
            mgr2.close()

    def test_drain_parks_running_job_for_resume(self, tmp_path):
        mgr = JobManager(data_dir=tmp_path / "svc", job_workers=1)
        mgr.start()
        big = dict(SPEC, systems=["vb", "base", "nc", "ncd"],
                   benchmarks=["fft", "lu", "radix"], refs=5000)
        job = mgr.submit(big)
        deadline = time.time() + 30
        while mgr.get(job.id).state == "queued" and time.time() < deadline:
            time.sleep(0.005)
        mgr.drain(timeout=0.0)  # no grace: abort at the next cell boundary
        parked = mgr.get(job.id)
        assert parked.state in ("queued", "done")  # done if it won the race
        mgr2 = JobManager(data_dir=tmp_path / "svc", job_workers=1)
        mgr2.start()
        try:
            finished = _wait(mgr2, job.id)
            assert finished.state == "done"
            assert finished.cache["total_cells"] == 12
        finally:
            mgr2.close()


class TestGarbageCollection:
    def test_ttl_reaps_terminal_jobs(self, manager):
        job = _wait(manager, manager.submit(SPEC).id)
        manager.job_ttl_s = 10.0
        assert manager.gc_terminal_jobs(now=time.time() + 5) == 0
        assert manager.gc_terminal_jobs(now=time.time() + 11) == 1
        assert manager.get(job.id) is None
        assert not manager.job_dir(job.id).exists()
        assert manager.expired == 1

    def test_no_ttl_keeps_everything(self, manager):
        job = _wait(manager, manager.submit(SPEC).id)
        assert manager.job_ttl_s is None
        assert manager.gc_terminal_jobs(now=time.time() + 1e9) == 0
        assert manager.get(job.id) is not None

    def test_gc_spares_active_jobs(self, tmp_path):
        mgr = _stalled_manager(tmp_path, job_ttl_s=0.001)
        job = mgr.submit(SPEC)  # stays queued forever
        assert mgr.gc_terminal_jobs(now=time.time() + 1e6) == 0
        assert mgr.get(job.id).state == "queued"


class TestHealth:
    def test_ok_by_default(self, tmp_path):
        mgr = _stalled_manager(tmp_path)
        assert mgr.health() == "ok"

    def test_degraded_follows_store(self, tmp_path):
        mgr = _stalled_manager(tmp_path)
        mgr.store.degraded = True
        assert mgr.health() == "degraded"
        mgr.store.degraded = False
        assert mgr.health() == "ok"

    def test_draining_wins_over_degraded(self, tmp_path):
        mgr = _stalled_manager(tmp_path)
        mgr.store.degraded = True
        mgr.begin_drain()
        assert mgr.health() == "draining"

    def test_stats_exposes_admission_and_lifecycle(self, tmp_path):
        mgr = _stalled_manager(tmp_path, max_queued_jobs=9,
                               max_inflight_cells=99)
        mgr.submit(SPEC)
        stats = mgr.stats()
        assert stats["health"] == "ok"
        assert stats["admission"]["queued"] == 1
        assert stats["admission"]["inflight_cells"] == 1
        assert stats["admission"]["max_queued_jobs"] == 9
        assert stats["admission"]["max_inflight_cells"] == 99
        assert stats["admission"]["rejected"] == 0
        assert stats["lifecycle"]["draining"] is False


class TestListLimit:
    def test_limit_zero_returns_empty(self, tmp_path):
        mgr = _stalled_manager(tmp_path)
        mgr.submit(SPEC)
        assert mgr.list_jobs(limit=0) == []
        assert len(mgr.list_jobs(limit=1)) == 1
        assert len(mgr.list_jobs()) == 1
