"""Tests for :data:`repro.params.SETTINGS`, the one table of ``REPRO_*``
environment variables, and :func:`repro.params.setting`, their reader.

The table guards itself: every ``REPRO_*`` name a source module spells
out must be a row (no knob bypasses the reader), every row must be read
somewhere (no dead rows), and a value below a row's floor fails with a
:class:`ConfigurationError` naming the variable, whether it came from
the environment or from an explicit argument.
"""

from __future__ import annotations

import ast
import asyncio
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.obs.profile import StallProfiler
from repro.params import SETTINGS, setting
from repro.service.app import ServiceApp, serve
from repro.service.jobs import JobManager
from repro.service.store import ResultStore
from repro.sim.parallel import resolve_policy
from repro.system.builder import system_config

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
NAME = re.compile(r"REPRO_[A-Z_]+")


def _names_in_literals(path: Path) -> set:
    """Every ``REPRO_*`` name inside a string literal of one module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(NAME.findall(node.value))
    return names


class TestTableIsComplete:
    def test_every_named_variable_is_a_row(self):
        for path in sorted(SRC.rglob("*.py")):
            unknown = _names_in_literals(path) - set(SETTINGS)
            assert not unknown, f"{path.relative_to(SRC)} names {sorted(unknown)}"

    def test_every_row_is_read_outside_the_table(self):
        named = set()
        for path in SRC.rglob("*.py"):
            if path.name != "params.py" or path.parent != SRC:
                named |= _names_in_literals(path)
        assert set(SETTINGS) - named == set()


class TestReader:
    def test_argument_wins_then_variable_then_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_RETRIES", raising=False)
        assert setting("REPRO_MAX_RETRIES") == SETTINGS["REPRO_MAX_RETRIES"].default
        monkeypatch.setenv("REPRO_MAX_RETRIES", " 5 ")
        assert setting("REPRO_MAX_RETRIES") == 5
        assert setting("REPRO_MAX_RETRIES", 0) == 0
        monkeypatch.setenv("REPRO_MAX_RETRIES", "")
        assert setting("REPRO_MAX_RETRIES") == SETTINGS["REPRO_MAX_RETRIES"].default

    @pytest.mark.parametrize("raw, on", [
        ("1", True), ("yes", True), ("0", False), ("off", False), (" False ", False),
        ("", False),
    ])
    def test_bool_rows(self, monkeypatch, raw, on):
        monkeypatch.setenv("REPRO_PROFILE", raw)
        assert setting("REPRO_PROFILE") is on

    def test_str_rows_are_taken_verbatim(self, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "abc123")
        assert setting("REPRO_GIT_SHA") == "abc123"
        assert setting("REPRO_GIT_SHA", "given") == "given"
        monkeypatch.setenv("REPRO_GIT_SHA", "")
        assert setting("REPRO_GIT_SHA") is None

    @pytest.mark.parametrize("name", [
        n for n, row in SETTINGS.items() if row.kind in (int, float)
    ])
    def test_unparseable_value_names_the_variable(self, monkeypatch, name):
        monkeypatch.setenv(name, "abc")
        with pytest.raises(ConfigurationError, match=name):
            setting(name)

    @pytest.mark.parametrize("name", [
        n for n, row in SETTINGS.items() if row.floor is not None and not row.exclusive
    ])
    def test_the_floor_itself_is_accepted(self, name):
        assert setting(name, SETTINGS[name].floor) == SETTINGS[name].floor


# ---------------------------------------------------------------------------
# floors, as the variable and as an explicit argument
# ---------------------------------------------------------------------------

FLOORED = [name for name, row in SETTINGS.items() if row.floor is not None]


def _below(name: str) -> float:
    row = SETTINGS[name]
    return row.floor if row.exclusive else row.floor - 1


#: the consumer that reads each floored row from the environment
FROM_ENV = {
    "REPRO_MAX_RETRIES": resolve_policy,
    "REPRO_CELL_TIMEOUT": resolve_policy,
    "REPRO_RETRY_BACKOFF": resolve_policy,
    "REPRO_PROFILE_WINDOW": lambda: StallProfiler(system_config("base")),
    "REPRO_STORE_MAX_BYTES": ResultStore,
    "REPRO_MAX_QUEUED_JOBS": JobManager,
    "REPRO_MAX_INFLIGHT_CELLS": JobManager,
    "REPRO_JOB_TTL": JobManager,
    "REPRO_DRAIN_TIMEOUT": JobManager,
    "REPRO_GC_INTERVAL": lambda: ServiceApp(JobManager()),
}


def _serve_briefly(drain_timeout: float) -> None:
    # a valid value would start serving: the wait_for bounds the test
    coro = serve(JobManager(), port=0, drain_timeout=drain_timeout)
    asyncio.run(asyncio.wait_for(coro, timeout=5.0))


#: the same consumer given an explicit value (REPRO_GC_INTERVAL has none)
FROM_ARGUMENT = {
    "REPRO_MAX_RETRIES": lambda v: resolve_policy(max_retries=v),
    "REPRO_CELL_TIMEOUT": lambda v: resolve_policy(cell_timeout=v),
    "REPRO_RETRY_BACKOFF": lambda v: resolve_policy(backoff_s=v),
    "REPRO_PROFILE_WINDOW": lambda v: StallProfiler(system_config("base"), window=v),
    "REPRO_STORE_MAX_BYTES": lambda v: ResultStore(max_bytes=v),
    "REPRO_MAX_QUEUED_JOBS": lambda v: JobManager(max_queued_jobs=v),
    "REPRO_MAX_INFLIGHT_CELLS": lambda v: JobManager(max_inflight_cells=v),
    "REPRO_JOB_TTL": lambda v: JobManager(job_ttl_s=v),
    "REPRO_DRAIN_TIMEOUT": _serve_briefly,
}


@pytest.fixture(autouse=True)
def _private_service_dir(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SERVICE_DIR", str(tmp_path / "svc"))
    for name in FLOORED:
        monkeypatch.delenv(name, raising=False)


def test_every_floored_row_has_a_consumer():
    assert sorted(FROM_ENV) == sorted(FLOORED)
    assert set(FROM_ARGUMENT) == set(FLOORED) - {"REPRO_GC_INTERVAL"}


@pytest.mark.parametrize("name", FLOORED)
def test_below_floor_variable_fails(monkeypatch, name):
    monkeypatch.setenv(name, str(_below(name)))
    with pytest.raises(ConfigurationError, match=name):
        setting(name)
    with pytest.raises(ConfigurationError, match=name):
        FROM_ENV[name]()


@pytest.mark.parametrize("name", sorted(FROM_ARGUMENT))
def test_below_floor_argument_fails(name):
    with pytest.raises(ConfigurationError, match=name):
        setting(name, _below(name))
    with pytest.raises(ConfigurationError, match=name):
        FROM_ARGUMENT[name](_below(name))


@pytest.mark.parametrize("name, value, argv", [
    ("REPRO_PROFILE_WINDOW", "0",
     ["simulate", "base", "fft", "--refs", "2000", "--profile"]),
    ("REPRO_MAX_RETRIES", None,
     ["sweep", "base", "fft", "--refs", "2000", "--max-retries", "-1"]),
    ("REPRO_CELL_TIMEOUT", "0", ["sweep", "base", "fft", "--refs", "2000"]),
])
def test_cli_exits_2_naming_the_variable(capsys, monkeypatch, name, value, argv):
    if value is not None:
        monkeypatch.setenv(name, value)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and name in err
