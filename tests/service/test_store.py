"""Tests for the content-addressed result store: digest round-trip,
quarantine-and-resimulate, concurrent writers."""

from __future__ import annotations

import errno
import json
import os
import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.service.store import ResultStore, result_key, service_data_dir
from repro.sim.runner import clear_trace_cache, simulate, sweep
from repro.system.builder import system_config

REFS = 2_000
SCALE = 0.02
SEED = 5


@pytest.fixture(autouse=True)
def _isolated(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
    clear_trace_cache()
    yield
    clear_trace_cache()


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "store")


def _simulate(system="vb", benchmark="fft", **kw):
    return simulate(system, benchmark, refs=REFS, seed=SEED, scale=SCALE, **kw)


class TestResultKey:
    def test_deterministic(self):
        cfg = system_config("vb")
        k1 = result_key(cfg, "fft", REFS, SEED, SCALE)
        k2 = result_key(cfg, "fft", REFS, SEED, SCALE)
        assert k1 == k2

    def test_covers_every_identity_field(self):
        cfg = system_config("vb")
        base = result_key(cfg, "fft", REFS, SEED, SCALE)
        assert result_key(system_config("base"), "fft", REFS, SEED, SCALE) != base
        assert result_key(cfg, "lu", REFS, SEED, SCALE) != base
        assert result_key(cfg, "fft", REFS + 1, SEED, SCALE) != base
        assert result_key(cfg, "fft", REFS, SEED + 1, SCALE) != base
        assert result_key(cfg, "fft", REFS, SEED, SCALE * 2) != base

    def test_config_override_changes_key(self):
        plain = result_key(system_config("vb"), "fft", REFS, SEED, SCALE)
        tuned = result_key(
            system_config("vb", cache_assoc=4), "fft", REFS, SEED, SCALE
        )
        assert plain != tuned

    def test_profile_joins_key_only_when_set(self):
        # unprofiled keys are pinned: a store version's entries stay
        # readable (this value changes only with STORE_VERSION)
        cfg = system_config("vb")
        plain = result_key(cfg, "fft", REFS, SEED, SCALE)
        assert plain == "b85638f27d9720214c93fa41c30b1d80236711bf"
        assert result_key(cfg, "fft", REFS, SEED, SCALE, profile=False) == plain
        assert result_key(cfg, "fft", REFS, SEED, SCALE, profile=True) != plain


class TestRoundTrip:
    def test_hit_is_bit_identical(self, store):
        fresh = _simulate()
        store.put(fresh, SCALE, refs=REFS, seed=SEED)
        hit = store.get(
            fresh.config, "fft", refs=REFS, seed=SEED, scale=SCALE, system="vb"
        )
        assert hit is not None
        assert hit.counters == fresh.counters
        assert hit.refs == fresh.refs
        assert hit.seed == fresh.seed
        assert hit.metrics == fresh.metrics
        assert hit.elapsed_s == 0.0  # a hit costs no engine time
        assert store.stats()["hits"] == 1

    def test_requested_vs_actual_refs(self, store):
        # the generator rounds refs up; the key must use the REQUEST
        fresh = _simulate()
        assert fresh.refs != REFS  # the premise of the whole test
        store.put(fresh, SCALE, refs=REFS, seed=SEED)
        hit = store.get(fresh.config, "fft", refs=REFS, seed=SEED, scale=SCALE)
        assert hit is not None and hit.refs == fresh.refs

    def test_miss_on_absent_entry(self, store):
        cfg = system_config("vb")
        assert store.get(cfg, "fft", refs=REFS, seed=SEED, scale=SCALE) is None
        assert store.stats()["misses"] == 1


class TestQuarantine:
    def _entry_path(self, store, fresh):
        return store.path_for(result_key(fresh.config, "fft", REFS, SEED, SCALE))

    def test_torn_entry_quarantined(self, store):
        fresh = _simulate()
        store.put(fresh, SCALE, refs=REFS, seed=SEED)
        path = self._entry_path(store, fresh)
        path.write_text(path.read_text()[: 40], encoding="utf-8")  # truncate
        assert store.get(fresh.config, "fft", refs=REFS, seed=SEED,
                         scale=SCALE) is None
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()
        assert store.stats()["quarantined"] == 1

    def test_tampered_counters_quarantined(self, store):
        fresh = _simulate()
        store.put(fresh, SCALE, refs=REFS, seed=SEED)
        path = self._entry_path(store, fresh)
        body = json.loads(path.read_text(encoding="utf-8"))
        body["counters"]["reads"] += 1  # flip one counter
        path.write_text(json.dumps(body), encoding="utf-8")
        assert store.get(fresh.config, "fft", refs=REFS, seed=SEED,
                         scale=SCALE) is None
        assert path.with_name(path.name + ".corrupt").exists()

    def test_version_skew_quarantined(self, store):
        fresh = _simulate()
        store.put(fresh, SCALE, refs=REFS, seed=SEED)
        path = self._entry_path(store, fresh)
        body = json.loads(path.read_text(encoding="utf-8"))
        body["store_version"] = 999
        path.write_text(json.dumps(body), encoding="utf-8")
        assert store.get(fresh.config, "fft", refs=REFS, seed=SEED,
                         scale=SCALE) is None

    def test_resimulation_after_quarantine_is_identical(self, store, tmp_path):
        # a sweep whose store entry rots re-simulates transparently and
        # produces the same counters it would have served
        results = sweep(["vb"], ["fft"], refs=REFS, seed=SEED, scale=SCALE,
                        result_store=store)
        entry = next(store.root.glob("*/*.json"))
        entry.write_text("{not json", encoding="utf-8")
        again = sweep(["vb"], ["fft"], refs=REFS, seed=SEED, scale=SCALE,
                      result_store=store)
        assert again[("vb", "fft")].counters == results[("vb", "fft")].counters
        assert store.stats()["quarantined"] == 1
        # the re-simulation re-populated the store
        assert store.entry_count() == 1

    def test_non_object_counters_quarantined_by_a_sweep(self, store):
        # an entry whose payload digest holds but whose counters are not
        # an object is corrupt too: quarantined and re-simulated
        from repro.service.store import _payload_sha

        results = sweep(["vb"], ["fft"], refs=REFS, seed=SEED, scale=SCALE,
                        result_store=store)
        entry = next(store.root.glob("*/*.json"))
        body = json.loads(entry.read_text(encoding="utf-8"))
        body["counters"] = [1]
        body["payload_sha"] = _payload_sha(body)
        entry.write_text(json.dumps(body), encoding="utf-8")
        again = sweep(["vb"], ["fft"], refs=REFS, seed=SEED, scale=SCALE,
                      result_store=store)
        assert again[("vb", "fft")].counters == results[("vb", "fft")].counters
        assert store.stats()["quarantined"] == 1


class TestConcurrency:
    def test_concurrent_writers_single_entry(self, store):
        # many threads racing the same key: atomic rename means readers
        # never see a torn entry and exactly one file remains
        fresh = _simulate()
        errors = []

        def writer():
            try:
                for _ in range(20):
                    assert store.put(fresh, SCALE, refs=REFS, seed=SEED)
                    got = store.get(fresh.config, "fft", refs=REFS,
                                    seed=SEED, scale=SCALE)
                    assert got is not None
                    assert got.counters == fresh.counters
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert store.entry_count() == 1
        assert store.stats()["quarantined"] == 0


class TestHousekeeping:
    def test_clear(self, store):
        store.put(_simulate(), SCALE, refs=REFS, seed=SEED)
        assert store.entry_count() == 1
        assert store.clear() == 1
        assert store.entry_count() == 0

    def test_service_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SERVICE_DIR", str(tmp_path / "svc"))
        assert service_data_dir() == tmp_path / "svc"

    def test_put_failure_returns_none(self, store, monkeypatch):
        import repro.durable as durable

        def boom(*a, **k):
            raise OSError("disk full")

        monkeypatch.setattr(durable.tempfile, "mkstemp", boom)
        assert store.put(_simulate(), SCALE, refs=REFS, seed=SEED) is None


class TestEviction:
    def _fill(self, store, seeds):
        for seed in seeds:
            r = simulate("vb", "fft", refs=REFS, seed=seed, scale=SCALE)
            assert store.put(r, SCALE, refs=REFS, seed=seed) is not None
            time.sleep(0.01)  # distinct mtimes for a deterministic LRU order

    def test_unbounded_by_default(self, store):
        self._fill(store, [1, 2, 3])
        assert store.max_bytes is None
        assert store.entry_count() == 3
        assert store.stats()["evicted"] == 0

    def test_evicts_down_to_budget(self, tmp_path):
        probe = ResultStore(tmp_path / "probe")
        self._fill(probe, [1])
        entry_size = probe.size_bytes()
        store = ResultStore(tmp_path / "store",
                            max_bytes=int(entry_size * 2.5))
        self._fill(store, [1, 2, 3, 4])
        assert store.size_bytes() <= store.max_bytes
        assert store.entry_count() == 2
        assert store.stats()["evicted"] == 2

    def test_eviction_is_lru_and_spares_fresh_write(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        self._fill(store, [1, 2])
        # touch seed=1 so seed=2 becomes the least recently used
        cfg = system_config("vb")
        assert store.get(cfg, "fft", refs=REFS, seed=1, scale=SCALE) is not None
        time.sleep(0.01)
        store.max_bytes = int(store.size_bytes() * 1.2)  # room for ~1 entry
        self._fill(store, [3])
        assert store.get(cfg, "fft", refs=REFS, seed=3, scale=SCALE) is not None
        hit1 = store.get(cfg, "fft", refs=REFS, seed=1, scale=SCALE)
        hit2 = store.get(cfg, "fft", refs=REFS, seed=2, scale=SCALE)
        assert hit2 is None  # the LRU entry went first
        assert hit1 is not None or store.entry_count() == 1

    def test_env_budget(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE_MAX_BYTES", "12345")
        assert ResultStore(tmp_path / "s").max_bytes == 12345
        monkeypatch.setenv("REPRO_STORE_MAX_BYTES", "0")
        assert ResultStore(tmp_path / "s").max_bytes is None
        for bad in ("junk", "1e9"):
            monkeypatch.setenv("REPRO_STORE_MAX_BYTES", bad)
            with pytest.raises(ConfigurationError, match="REPRO_STORE_MAX_BYTES"):
                ResultStore(tmp_path / "s")


class TestDegradation:
    """Full-disk / read-only roots degrade to re-simulation, never crash."""

    def _broken_writes(self, monkeypatch, errno_code):
        import repro.durable as durable

        state = {"broken": True}
        real = durable.tempfile.mkstemp

        def flaky(*a, **k):
            if state["broken"]:
                raise OSError(errno_code, os.strerror(errno_code))
            return real(*a, **k)

        monkeypatch.setattr(durable.tempfile, "mkstemp", flaky)
        return state

    def test_enospc_enters_degraded_then_recovers(self, store, monkeypatch):
        state = self._broken_writes(monkeypatch, errno.ENOSPC)
        fresh = _simulate()
        assert store.put(fresh, SCALE, refs=REFS, seed=SEED) is None
        assert store.degraded
        assert store.stats()["degraded"] is True
        assert store.stats()["put_failures"] == 1
        state["broken"] = False  # the disk got space back
        assert store.put(fresh, SCALE, refs=REFS, seed=SEED) is not None
        assert not store.degraded
        assert store.stats()["degraded"] is False

    def test_read_only_root_get_put_never_crash(self, tmp_path, monkeypatch):
        # the container runs as root, so a chmodded directory would not
        # actually refuse writes; EROFS via monkeypatch is the honest way
        store = ResultStore(tmp_path / "ro-store")
        state = self._broken_writes(monkeypatch, errno.EROFS)
        assert state["broken"]
        fresh = _simulate()
        assert store.put(fresh, SCALE, refs=REFS, seed=SEED) is None
        assert store.get(fresh.config, "fft", refs=REFS, seed=SEED,
                         scale=SCALE) is None  # miss, not a crash
        assert store.stats()["misses"] == 1

    def test_sweep_degrades_to_uncached(self, tmp_path, monkeypatch):
        # a sweep over a store that cannot write still completes, and the
        # skip is visible in the recovery log
        from repro.sim.parallel import RecoveryLog

        store = ResultStore(tmp_path / "store")
        self._broken_writes(monkeypatch, errno.ENOSPC)
        recovery = RecoveryLog()
        results = sweep(["vb"], ["fft"], refs=REFS, seed=SEED, scale=SCALE,
                        result_store=store, recovery=recovery)
        assert results[("vb", "fft")].counters.reads > 0
        assert recovery.counts.get("result_store_skipped") == 1
        assert recovery.counts.get("store_degraded") == 1
        assert store.entry_count() == 0

    def test_prefilled_quarantine_name_falls_back_to_unlink(self, store):
        # a DIRECTORY squatting on the .corrupt name makes os.replace
        # fail; quarantine falls back to deleting the bad entry
        fresh = _simulate()
        store.put(fresh, SCALE, refs=REFS, seed=SEED)
        path = store.path_for(
            result_key(fresh.config, "fft", REFS, SEED, SCALE))
        path.write_text("{rotten", encoding="utf-8")
        (path.parent / (path.name + ".corrupt")).mkdir()
        assert store.get(fresh.config, "fft", refs=REFS, seed=SEED,
                         scale=SCALE) is None
        assert not path.exists()  # deleted despite the blocked rename
        assert store.stats()["quarantined"] == 1
        # and the cell can be re-stored afterwards
        assert store.put(fresh, SCALE, refs=REFS, seed=SEED) is not None

    def test_unremovable_corrupt_entry_counts_skip(self, store, monkeypatch):
        # replace AND unlink both fail: the entry stays, every read is a
        # miss, and the failure is tallied — but nothing raises
        fresh = _simulate()
        store.put(fresh, SCALE, refs=REFS, seed=SEED)
        path = store.path_for(
            result_key(fresh.config, "fft", REFS, SEED, SCALE))
        path.write_text("{rotten", encoding="utf-8")
        import repro.service.store as store_mod

        def refuse(*a, **k):
            raise OSError(errno.EROFS, "read-only file system")

        monkeypatch.setattr(store_mod.os, "replace", refuse)
        monkeypatch.setattr(store_mod.Path, "unlink", refuse)
        for _ in range(2):
            assert store.get(fresh.config, "fft", refs=REFS, seed=SEED,
                             scale=SCALE) is None
        assert store.stats()["quarantine_failed"] == 2
        assert store.stats()["quarantined"] == 0


class TestSweepIntegration:
    def test_second_sweep_all_hits(self, store, tmp_path):
        first = sweep(["vb", "base"], ["fft", "lu"], refs=REFS, seed=SEED,
                      scale=SCALE, result_store=store)
        assert store.stats()["puts"] == 4
        from repro.sim.parallel import RecoveryLog

        recovery = RecoveryLog()
        second = sweep(["vb", "base"], ["fft", "lu"], refs=REFS, seed=SEED,
                       scale=SCALE, result_store=store, recovery=recovery)
        assert recovery.counts.get("cell_cache_hit") == 4
        for key, r in first.items():
            assert second[key].counters == r.counters
            assert second[key].metrics == r.metrics

    def test_profiled_request_not_served_unprofiled_entry(self, store):
        from repro.obs.profile import profiled_cells

        sweep(["vb"], ["fft"], refs=REFS, seed=SEED, scale=SCALE,
              result_store=store)
        profiled = sweep(["vb"], ["fft"], refs=REFS, seed=SEED, scale=SCALE,
                         result_store=store, profile=True)
        assert profiled_cells(profiled[("vb", "fft")].metrics) == ["vb/fft"]
        assert store.stats()["hits"] == 0

    @pytest.mark.parametrize("how", ["argument", "environment"])
    def test_unprofiled_request_not_served_profiled_entry(self, store,
                                                          monkeypatch, how):
        from repro.obs.manifest import build_manifest, manifest_core

        plain = sweep(["vb"], ["fft"], refs=REFS, seed=SEED, scale=SCALE)
        # REPRO_PROFILE profiles a cell as surely as profile=True does
        if how == "environment":
            monkeypatch.setenv("REPRO_PROFILE", "1")
        sweep(["vb"], ["fft"], refs=REFS, seed=SEED, scale=SCALE,
              result_store=store, profile=how == "argument")
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        served = sweep(["vb"], ["fft"], refs=REFS, seed=SEED, scale=SCALE,
                       result_store=store)
        assert store.stats()["hits"] == 0
        assert served[("vb", "fft")].metrics == plain[("vb", "fft")].metrics
        core = [manifest_core(build_manifest(r, refs=REFS, seed=SEED,
                                             scale=SCALE))
                for r in (plain, served)]
        assert core[0] == core[1]

    def test_journal_marks_cached_cells(self, store, tmp_path):
        sweep(["vb"], ["fft"], refs=REFS, seed=SEED, scale=SCALE,
              result_store=store)
        run_dir = tmp_path / "run"
        sweep(["vb"], ["fft"], refs=REFS, seed=SEED, scale=SCALE,
              result_store=store, run_dir=str(run_dir))
        from repro.obs.monitor import SweepProgress

        progress = SweepProgress(run_dir)
        assert progress.done_cells == 1
        assert progress.cached_cells == 1
        assert "+" in "\n".join(progress.grid())
        snap = progress.snapshot()
        assert snap["cached_cells"] == 1 and snap["simulated_cells"] == 0

    def test_store_hit_is_recorded_once(self, store, tmp_path):
        # a hit's one record is its cell_cache_hit action in recovery.jsonl
        from repro.durable import read_jsonl
        from repro.obs.monitor import SweepProgress

        sweep(["vb"], ["fft"], refs=REFS, seed=SEED, scale=SCALE,
              result_store=store)
        run_dir = tmp_path / "run"
        sweep(["vb"], ["fft"], refs=REFS, seed=SEED, scale=SCALE,
              result_store=store, run_dir=str(run_dir))
        assert list(read_jsonl(run_dir / "journal.jsonl")) == []
        progress = SweepProgress(run_dir)
        assert progress.done_cells == progress.cached_cells == 1
        assert progress.simulated_refs == 0
        assert "+" in "\n".join(progress.grid())

    def test_resumed_hit_whose_entry_was_evicted_is_simulated(self, store,
                                                             tmp_path):
        from repro.obs.monitor import SweepProgress
        from repro.sim.parallel import RecoveryLog, cache_summary

        first = sweep(["vb"], ["fft"], refs=REFS, seed=SEED, scale=SCALE,
                      result_store=store)
        run_dir = tmp_path / "run"
        sweep(["vb"], ["fft"], refs=REFS, seed=SEED, scale=SCALE,
              result_store=store, run_dir=str(run_dir))
        store.clear()
        recovery = RecoveryLog()
        again = sweep(["vb"], ["fft"], refs=REFS, seed=SEED, scale=SCALE,
                      result_store=store, run_dir=str(run_dir),
                      recovery=recovery)
        assert again[("vb", "fft")].counters == first[("vb", "fft")].counters
        assert cache_summary(again, recovery)["simulated"] == 1
        # the journal row wins over the earlier hit action
        progress = SweepProgress(run_dir)
        assert progress.done_cells == 1 and progress.cached_cells == 0
        assert "#" in "\n".join(progress.grid())

    def test_sweep_logs_its_own_store_quarantine(self, store):
        # the store lookups run before any cell: their quarantine must
        # still land in the sweep's own recovery log
        from repro.sim.parallel import RecoveryLog

        sweep(["vb"], ["fft"], refs=REFS, seed=SEED, scale=SCALE,
              result_store=store)
        next(store.root.glob("*/*.json")).write_text("{torn", encoding="utf-8")
        recovery = RecoveryLog()
        sweep(["vb"], ["fft"], refs=REFS, seed=SEED, scale=SCALE,
              result_store=store, recovery=recovery)
        assert store.quarantined == 1
        assert recovery.counts.get("result_quarantined") == 1

    def test_journalled_sweep_streams_store_failures(self, store, monkeypatch,
                                                      tmp_path):
        # the store-put phase's notes reach recovery.jsonl, which is what
        # /jobs/<id> progress, /top and `repro top` read
        from repro.obs.monitor import SweepProgress

        monkeypatch.setenv("REPRO_FAULTS", "seed=1;disk-full=1.0")
        run_dir = tmp_path / "run"
        sweep(["vb"], ["fft"], refs=REFS, seed=SEED, scale=SCALE,
              result_store=store, run_dir=str(run_dir))
        counts = SweepProgress(run_dir).recovery_counts
        assert counts.get("store_degraded") == 1
        assert counts.get("result_store_skipped") == 1

    def test_manifest_core_unchanged_by_cache(self, store, monkeypatch,
                                              tmp_path):
        # all-miss and all-hit runs must agree on the core manifest
        from repro.obs.manifest import manifest_core
        from repro.sim.parallel import timed_sweep
        from repro.sim.runner import resolve_sweep_configs

        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path / "m1"))
        configs = resolve_sweep_configs(["vb"])
        timed_sweep(configs, ["fft"], refs=REFS, seed=SEED, scale=SCALE,
                    result_store=store)
        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path / "m2"))
        timed_sweep(configs, ["fft"], refs=REFS, seed=SEED, scale=SCALE,
                    result_store=store)
        m1 = json.loads((tmp_path / "m1" / "sweep-manifest.json").read_text())
        m2 = json.loads((tmp_path / "m2" / "sweep-manifest.json").read_text())
        assert m1["cache"]["hits"] == 0 and m2["cache"]["hits"] == 1
        assert json.dumps(manifest_core(m1), sort_keys=True) == \
            json.dumps(manifest_core(m2), sort_keys=True)
