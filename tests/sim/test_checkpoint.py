"""Tests for the sweep journal: crash-safe checkpoint/resume that merges
bit-identically with a from-scratch run."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.errors import CheckpointError
from repro.sim.checkpoint import SweepJournal
from repro.sim.parallel import RecoveryLog
from repro.sim.results import SimulationResult, StaleRecord
from repro.sim.runner import (
    clear_trace_cache,
    resolve_sweep_configs,
    simulate,
    sweep,
)
from repro.system.builder import system_config

SYSTEMS = ["base", "vb"]
BENCHES = ["fft", "lu"]
REFS = 3_000
SCALE = 0.02


@pytest.fixture(autouse=True)
def _isolated(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
    clear_trace_cache()
    yield
    clear_trace_cache()


def _sweep(run_dir=None, recovery=None, jobs=1):
    return sweep(
        SYSTEMS,
        BENCHES,
        refs=REFS,
        scale=SCALE,
        jobs=jobs,
        run_dir=str(run_dir) if run_dir is not None else None,
        recovery=recovery,
    )


def _assert_identical(expected, actual):
    assert list(expected) == list(actual)
    for key in expected:
        assert expected[key].counters == actual[key].counters, key
        assert expected[key].metrics == actual[key].metrics, key


class TestJournalRoundTrip:
    def test_append_then_load_restores_cells(self, tmp_path):
        results = _sweep()
        configs = resolve_sweep_configs(SYSTEMS)
        journal = SweepJournal.open(
            tmp_path / "run",
            refs=REFS,
            seed=1,
            scale=SCALE,
            systems=SYSTEMS,
            benchmarks=BENCHES,
        )
        with journal:
            for result in results.values():
                journal.append(result, SCALE)
        restored = journal.load(configs)
        assert set(restored) == set(results)
        for key in results:
            assert restored[key].counters == results[key].counters
            assert restored[key].metrics == results[key].metrics
        assert journal.torn_lines == 0 and journal.stale_records == 0

    def test_header_written_once_and_validated(self, tmp_path):
        run = tmp_path / "run"
        SweepJournal.open(
            run, refs=REFS, seed=1, scale=SCALE,
            systems=SYSTEMS, benchmarks=BENCHES,
        ).close()
        header = json.loads((run / "run.json").read_text())
        assert header["refs"] == REFS and header["systems"] == SYSTEMS
        # reopening with identical parameters is fine
        SweepJournal.open(
            run, refs=REFS, seed=1, scale=SCALE,
            systems=SYSTEMS, benchmarks=BENCHES,
        ).close()

    def test_parameter_mismatch_raises(self, tmp_path):
        run = tmp_path / "run"
        SweepJournal.open(
            run, refs=REFS, seed=1, scale=SCALE,
            systems=SYSTEMS, benchmarks=BENCHES,
        ).close()
        with pytest.raises(CheckpointError) as excinfo:
            SweepJournal.open(
                run, refs=REFS * 2, seed=1, scale=SCALE,
                systems=SYSTEMS, benchmarks=BENCHES,
            )
        assert "refs" in str(excinfo.value)

    def test_version_one_run_dir_refuses_to_resume(self, tmp_path):
        run = tmp_path / "run"
        SweepJournal.open(
            run, refs=REFS, seed=1, scale=SCALE,
            systems=SYSTEMS, benchmarks=BENCHES,
        ).close()
        header = json.loads((run / "run.json").read_text())
        header["journal_version"] = 1
        (run / "run.json").write_text(json.dumps(header))
        with pytest.raises(CheckpointError, match="journal_version"):
            SweepJournal.open(
                run, refs=REFS, seed=1, scale=SCALE,
                systems=SYSTEMS, benchmarks=BENCHES,
            )

    def test_version_refusal_names_no_flag(self, tmp_path):
        run = tmp_path / "run"
        SweepJournal.open(
            run, refs=REFS, seed=1, scale=SCALE,
            systems=SYSTEMS, benchmarks=BENCHES,
        ).close()
        header = json.loads((run / "run.json").read_text())
        header["journal_version"] = 1
        (run / "run.json").write_text(json.dumps(header))
        with pytest.raises(CheckpointError) as excinfo:
            SweepJournal.open(
                run, refs=REFS, seed=1, scale=SCALE,
                systems=SYSTEMS, benchmarks=BENCHES,
            )
        message = str(excinfo.value).replace(str(run), "<run>")
        assert "journal_version 1" in message and "fresh directory" in message
        assert "--" not in message

    def test_unreadable_header_raises(self, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        (run / "run.json").write_text("{not json")
        with pytest.raises(CheckpointError):
            SweepJournal.open(
                run, refs=REFS, seed=1, scale=SCALE,
                systems=SYSTEMS, benchmarks=BENCHES,
            )


class TestJournalTolerance:
    def _journalled_run(self, tmp_path):
        run = tmp_path / "run"
        results = _sweep(run_dir=run)
        return run, results

    def test_torn_trailing_line_skipped(self, tmp_path):
        run, results = self._journalled_run(tmp_path)
        journal_path = run / "journal.jsonl"
        with open(journal_path, "a", encoding="utf-8") as fh:
            fh.write('{"journal_version": 1, "system": "base", "bench')  # torn
        journal = SweepJournal(run)
        restored = journal.load(resolve_sweep_configs(SYSTEMS))
        assert journal.torn_lines == 1
        assert set(restored) == set(results)

    def test_non_object_line_counts_as_torn(self, tmp_path):
        run, results = self._journalled_run(tmp_path)
        with open(run / "journal.jsonl", "a", encoding="utf-8") as fh:
            fh.write("[1]\n")
        journal = SweepJournal(run)
        restored = journal.load(resolve_sweep_configs(SYSTEMS))
        assert journal.torn_lines == 1
        assert set(restored) == set(results)

    def test_tampered_counters_discarded(self, tmp_path):
        run, results = self._journalled_run(tmp_path)
        journal_path = run / "journal.jsonl"
        lines = journal_path.read_text().strip().splitlines()
        rec = json.loads(lines[0])
        rec["counters"]["reads"] = rec["counters"]["reads"] + 1
        lines[0] = json.dumps(rec, sort_keys=True)
        journal_path.write_text("\n".join(lines) + "\n")
        journal = SweepJournal(run)
        restored = journal.load(resolve_sweep_configs(SYSTEMS))
        assert journal.stale_records == 1
        assert len(restored) == len(results) - 1

    def test_version_one_row_is_stale(self, tmp_path):
        run, results = self._journalled_run(tmp_path)
        journal_path = run / "journal.jsonl"
        lines = journal_path.read_text().strip().splitlines()
        rec = json.loads(lines[0])
        rec["journal_version"] = 1
        lines[0] = json.dumps(rec, sort_keys=True)
        journal_path.write_text("\n".join(lines) + "\n")
        journal = SweepJournal(run)
        restored = journal.load(resolve_sweep_configs(SYSTEMS))
        assert journal.stale_records == 1 and journal.torn_lines == 0
        assert len(restored) == len(results) - 1

    def test_config_change_invalidates_records(self, tmp_path):
        run, results = self._journalled_run(tmp_path)
        journal = SweepJournal(run)
        changed = resolve_sweep_configs(SYSTEMS, cache_assoc=4)
        restored = journal.load(changed)
        assert restored == {}
        assert journal.stale_records == len(results)


class TestResultRecord:
    """The record both the journal and the result store persist."""

    def _record(self):
        result = simulate("vb", "fft", refs=REFS, scale=SCALE)
        return result, json.loads(json.dumps(result.record(SCALE)))

    def test_record_restores_an_equal_result(self):
        result, rec = self._record()
        restored = SimulationResult.restore(rec, result.config)
        assert restored == dataclasses.replace(result, elapsed_s=0.0)

    def test_tampered_counters_and_other_config_refused(self):
        result, rec = self._record()
        with pytest.raises(StaleRecord, match="config digest"):
            SimulationResult.restore(rec, system_config("base"))
        rec["counters"]["reads"] += 1
        with pytest.raises(StaleRecord, match="counters digest"):
            SimulationResult.restore(rec, result.config)


class TestResume:
    def test_resume_bit_identical_to_scratch(self, tmp_path):
        scratch = _sweep()
        clear_trace_cache()

        run = tmp_path / "run"
        first = _sweep(run_dir=run)
        _assert_identical(scratch, first)

        # drop the last journalled cell to simulate an interrupted run
        journal_path = run / "journal.jsonl"
        lines = journal_path.read_text().strip().splitlines()
        journal_path.write_text("\n".join(lines[:-1]) + "\n")

        clear_trace_cache()
        recovery = RecoveryLog()
        resumed = _sweep(run_dir=run, recovery=recovery)
        _assert_identical(scratch, resumed)
        assert recovery.counts.get("cells_resumed", 0) == 1

    def test_fully_journalled_run_resumes_without_simulating(self, tmp_path):
        run = tmp_path / "run"
        first = _sweep(run_dir=run)
        recovery = RecoveryLog()
        resumed = _sweep(run_dir=run, recovery=recovery)
        _assert_identical(first, resumed)
        assert recovery.counts.get("cells_resumed", 0) == 1
        # nothing was re-simulated, so nothing was re-journalled
        lines = (run / "journal.jsonl").read_text().strip().splitlines()
        assert len(lines) == len(first)

    @pytest.mark.parametrize("engine", ["interp", "batch"])
    def test_header_with_engine_field_resumes(self, tmp_path, engine):
        # run.json files from versions with a selectable execution engine
        # carry an "engine" key; only the keys written today are compared
        run = tmp_path / "run"
        first = _sweep(run_dir=run)
        header_path = run / "run.json"
        header = json.loads(header_path.read_text())
        assert "engine" not in header
        header["engine"] = engine
        header_path.write_text(json.dumps(header))

        clear_trace_cache()
        recovery = RecoveryLog()
        resumed = _sweep(run_dir=run, recovery=recovery)
        _assert_identical(first, resumed)
        assert recovery.counts.get("cells_resumed", 0) == 1
        lines = (run / "journal.jsonl").read_text().strip().splitlines()
        assert len(lines) == len(first)
        with pytest.raises(CheckpointError) as excinfo:
            sweep(SYSTEMS, BENCHES, refs=REFS * 2, scale=SCALE, run_dir=str(run))
        message = str(excinfo.value)
        assert "parameters (refs)" in message
        assert message.endswith("matching --refs/--seed/--scale/systems/benchmarks")

    def test_resume_parallel_matches_scratch(self, tmp_path):
        scratch = _sweep()
        clear_trace_cache()

        run = tmp_path / "run"
        partial = dict(scratch)
        journal = SweepJournal.open(
            run, refs=REFS, seed=1, scale=SCALE,
            systems=SYSTEMS, benchmarks=BENCHES,
        )
        with journal:
            # journal only half the matrix; the rest runs in workers
            for key in list(partial)[:2]:
                journal.append(partial[key], SCALE)

        recovery = RecoveryLog()
        resumed = _sweep(run_dir=run, recovery=recovery, jobs=2)
        _assert_identical(scratch, resumed)
        assert recovery.counts.get("cells_resumed", 0) == 1

    def test_torn_journal_surfaces_repair_note(self, tmp_path):
        run = tmp_path / "run"
        _sweep(run_dir=run)
        with open(run / "journal.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"torn')
        clear_trace_cache()
        recovery = RecoveryLog()
        _sweep(run_dir=run, recovery=recovery)
        assert recovery.counts.get("journal_repaired", 0) == 1
