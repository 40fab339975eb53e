"""Shared fixtures for the figure-regeneration benchmarks.

``bench_experiments.py`` runs each experiment driver exactly once under
pytest-benchmark (``pedantic`` with one round — the driver itself sweeps a
systems x benchmarks matrix) and prints the paper-shaped table; select one
with ``-k <name>`` (``fig09``, ``table1``, ``abl_ostate``, ...).

Fidelity is controlled by ``REPRO_BENCH_REFS`` (trace length per
benchmark; default 200k here to keep a full `pytest benchmarks/` run in
the minutes range — use 400k+ to match EXPERIMENTS.md exactly).
"""

import os

import pytest

DEFAULT_BENCH_REFS = 200_000


@pytest.fixture(scope="session", autouse=True)
def _bench_refs_env():
    os.environ.setdefault("REPRO_BENCH_REFS", str(DEFAULT_BENCH_REFS))
    yield


@pytest.fixture
def show(capsys):
    """Print an ExperimentResult table to the real terminal."""

    def _show(result):
        with capsys.disabled():
            print()
            print(result)

    return _show
