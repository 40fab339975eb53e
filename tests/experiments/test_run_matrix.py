"""Every figure and ablation simulates through one ``run_matrix`` call, so
each honours ``REPRO_MANIFEST_DIR``, ``REPRO_RUN_DIR`` and ``REPRO_JOBS``."""

from __future__ import annotations

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.sim import parallel

TINY = 2_000

MATRIX_DRIVERS = [name for name in ALL_EXPERIMENTS if not name.startswith("table")]
#: a figure whose columns are system overrides, and an ablation whose
#: reference column is dropped from its results
SAMPLED = ["fig03", "abl_nc_size"]


@pytest.fixture(autouse=True)
def _plain_env(monkeypatch):
    for name in ("REPRO_MANIFEST_DIR", "REPRO_RUN_DIR", "REPRO_JOBS"):
        monkeypatch.delenv(name, raising=False)


@pytest.fixture
def simulated_here(monkeypatch):
    """The cells simulated in this process, as ``(system, benchmark)``."""
    cells = []
    real = parallel.run_trace

    def counting(config, trace, system_name="", **kwargs):
        cells.append((system_name, trace.name))
        return real(config, trace, system_name=system_name, **kwargs)

    monkeypatch.setattr(parallel, "run_trace", counting)
    return cells


@pytest.mark.parametrize("name", MATRIX_DRIVERS)
def test_each_driver_writes_one_manifest(name, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path))
    result = ALL_EXPERIMENTS[name](refs=TINY)
    manifests = list(tmp_path.glob("matrix-*-manifest.json"))
    assert len(manifests) == 1
    assert result.results


@pytest.mark.parametrize("name", SAMPLED)
def test_rerun_restores_every_cell(name, tmp_path, monkeypatch, simulated_here):
    driver = ALL_EXPERIMENTS[name]
    monkeypatch.setenv("REPRO_RUN_DIR", str(tmp_path))
    first = driver(refs=TINY)
    assert len(simulated_here) >= len(first.results)
    assert len(list(tmp_path.glob("matrix-*"))) == 1

    simulated_here.clear()
    second = driver(refs=TINY)
    assert simulated_here == []
    assert second.data == first.data


@pytest.mark.parametrize("name", SAMPLED)
def test_two_jobs_match_serial(name, monkeypatch, simulated_here):
    driver = ALL_EXPERIMENTS[name]
    serial = driver(refs=TINY)
    assert simulated_here

    simulated_here.clear()
    monkeypatch.setenv("REPRO_JOBS", "2")
    pooled = driver(refs=TINY)
    assert simulated_here == []  # every cell ran in a worker process
    assert pooled.data == serial.data
    assert pooled.table == serial.table
