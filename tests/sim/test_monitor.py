"""Tests for the live sweep monitor (``repro top``).

The monitor is a read-only tail over a sweep run directory's three
files — ``run.json``, ``journal.jsonl``, ``recovery.jsonl`` — so these
tests pin both the happy path (a real checkpointed sweep renders a
correct board) and the degraded ones the monitor promises to survive:
missing directories, missing headers, torn journal lines.
"""

from __future__ import annotations

import io
import json

from repro.durable import read_jsonl as iter_journal_lines
from repro.obs.monitor import SweepProgress, watch
from repro.sim.checkpoint import (
    JOURNAL_NAME,
    RECOVERY_NAME,
    HEADER_NAME,
    read_run_header,
)
from repro.sim.runner import sweep

REFS = 8_000


def run_sweep(run_dir, systems=("base", "vb"), benches=("lu",)):
    return sweep(list(systems), list(benches), refs=REFS, run_dir=str(run_dir))


class TestSweepProgress:
    def test_complete_sweep_renders_a_full_board(self, tmp_path):
        run_dir = tmp_path / "run"
        run_sweep(run_dir)
        p = SweepProgress(run_dir)
        assert p.header_present
        assert p.systems == ["base", "vb"] and p.benchmarks == ["lu"]
        assert p.total_cells == 2 and p.done_cells == 2 and p.complete
        assert p.simulated_refs > 0 and p.refs_per_sec > 0
        assert p.eta_seconds() is None  # nothing remaining
        board = p.render(jobs=2)
        assert "2/2 done (100%)" in board and "complete" in board
        grid = p.grid()
        assert len(grid) == 2  # header + one benchmark row
        assert grid[1].count("#") == 2 and "." not in grid[1]

    def test_partial_sweep_has_eta_and_dots(self, tmp_path):
        run_dir = tmp_path / "run"
        run_sweep(run_dir)
        # drop one journal record to simulate an in-flight sweep
        journal = run_dir / JOURNAL_NAME
        lines = journal.read_text().strip().splitlines()
        journal.write_text(lines[0] + "\n")
        p = SweepProgress(run_dir)
        assert p.done_cells == 1 and not p.complete
        assert p.eta_seconds(jobs=1) is not None
        assert p.eta_seconds(jobs=2) <= p.eta_seconds(jobs=1)
        assert "." in p.grid()[1] and "#" in p.grid()[1]
        assert "running" in p.render()

    def test_missing_directory_is_not_an_error(self, tmp_path):
        p = SweepProgress(tmp_path / "never-created")
        assert not p.header_present and p.total_cells == 0
        assert not p.complete
        assert "no run.json" in p.render()

    def test_torn_journal_lines_are_skipped(self, tmp_path):
        run_dir = tmp_path / "run"
        run_sweep(run_dir)
        journal = run_dir / JOURNAL_NAME
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write('{"system": "vb", "benchmark"')  # torn mid-write
            fh.write("\nnot json either\n")
        p = SweepProgress(run_dir)
        assert p.done_cells == 2 and p.complete

    def test_stray_journal_cells_not_counted_against_plan(self, tmp_path):
        run_dir = tmp_path / "run"
        run_sweep(run_dir)
        journal = run_dir / JOURNAL_NAME
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(
                {"system": "zzz", "benchmark": "lu", "refs": 1}
            ) + "\n")
        p = SweepProgress(run_dir)
        assert p.done_cells == 2  # the stray (zzz, lu) is off-plan

    def test_recovery_log_is_surfaced(self, tmp_path):
        run_dir = tmp_path / "run"
        run_sweep(run_dir)
        with open(run_dir / RECOVERY_NAME, "a", encoding="utf-8") as fh:
            for kind in ("cell_retry", "cell_retry", "worker_lost"):
                fh.write(json.dumps(
                    {"kind": kind, "detail": f"{kind} detail"}
                ) + "\n")
        p = SweepProgress(run_dir)
        assert p.recovery_counts == {"cell_retry": 2, "worker_lost": 1}
        board = p.render()
        assert "cell_retry=2" in board and "worker_lost=1" in board
        assert "worker_lost detail" in board

    def test_recovery_sink_written_by_real_faulted_sweep(
        self, tmp_path, monkeypatch
    ):
        # a kill-free fault plan (cell faults only) exercises retry in a
        # serial sweep; its recovery actions must stream to recovery.jsonl
        monkeypatch.setenv("REPRO_FAULTS", "seed=3;cell=1.0@1")
        run_dir = tmp_path / "run"
        sweep(["base"], ["lu"], refs=REFS, run_dir=str(run_dir))
        p = SweepProgress(run_dir)
        assert p.complete
        assert sum(p.recovery_counts.values()) >= 1
        kinds = set(p.recovery_counts)
        assert kinds & {"cell_retry", "fault_injected", "cell_recovered"}


class TestWatch:
    def test_single_shot_prints_one_board(self, tmp_path):
        run_dir = tmp_path / "run"
        run_sweep(run_dir)
        out = io.StringIO()
        p = watch(run_dir, out=out)
        assert p.complete
        assert out.getvalue().count("sweep ") == 1

    def test_follow_stops_on_complete(self, tmp_path):
        run_dir = tmp_path / "run"
        run_sweep(run_dir)
        out = io.StringIO()
        p = watch(run_dir, follow=True, interval=0.01, out=out)
        assert p.complete  # returned after the first board: already done

    def test_follow_respects_max_updates(self, tmp_path):
        out = io.StringIO()
        p = watch(
            tmp_path / "empty", follow=True, interval=0.01,
            max_updates=3, out=out,
        )
        assert not p.complete
        assert out.getvalue().count("sweep /") == 3  # three board headers


class TestCheckpointReaders:
    def test_read_run_header_absent_and_corrupt(self, tmp_path):
        assert read_run_header(tmp_path) is None
        (tmp_path / HEADER_NAME).write_text("{corrupt")
        assert read_run_header(tmp_path) is None

    def test_iter_journal_lines_tolerates_everything(self, tmp_path):
        path = tmp_path / "j.jsonl"
        assert list(iter_journal_lines(path)) == []  # missing file
        path.write_text(
            '{"a": 1}\n'
            "\n"              # blank
            "[1, 2, 3]\n"     # not a dict
            "{torn"           # torn tail
        )
        assert list(iter_journal_lines(path)) == [{"a": 1}]
