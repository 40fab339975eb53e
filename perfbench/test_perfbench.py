"""Checks of the benchmark itself: its golden gate, ledger arithmetic, seed
rule, cost-model solver and metric catalogue.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    DEFAULT_SEED, GOLDEN_SEEDS, HELDOUT_SEED, OUT, ROOT, Outcome, load_goldens,
    require_checkout, trace_seed,
)

require_checkout()

import costmodel  # noqa: E402
import matrix  # noqa: E402
import service  # noqa: E402
from tracing import ledger, self_times  # noqa: E402


def flipped(digest: str) -> str:
    return ("0" if digest[0] != "0" else "1") + digest[1:]


def test_matrix_gate_catches_one_flipped_golden():
    import repro

    golden = dict(load_goldens("paper_matrix")["seeds"]["1"])
    results = repro.sweep(["vxp5"], ["radix"], refs=matrix.REFS, seed=1, jobs=1)
    ok = Outcome()
    matrix.check_cells(results, golden, ok)
    assert (ok.attempted, ok.failed) == (1, 0)

    golden["vxp5/radix"] = flipped(golden["vxp5/radix"])
    bad = Outcome()
    matrix.check_cells(results, golden, bad)
    assert (bad.attempted, bad.failed) == (1, 1)
    assert "vxp5/radix" in next(iter(bad.reasons))


def test_service_gate_catches_one_flipped_golden():
    work = service.ColdWorkload(1)
    spec, golden = work.next_spec()
    (cell, digest), = golden.items()
    data_dir = OUT / "test-gate-data"
    shutil.rmtree(data_dir, ignore_errors=True)
    server = service.Server(data_dir)
    try:
        tally = service.Tally()
        asyncio.run(service.run_job(0, server.port, spec, golden, tally))
        assert len(tally.jobs) == 1
        with pytest.raises(service.JobFailed, match="golden"):
            asyncio.run(service.run_job(0, server.port, spec,
                                        {cell: flipped(digest)}, tally))
    finally:
        server.stop()
        shutil.rmtree(data_dir, ignore_errors=True)


def test_ledger_closes_over_nested_spans():
    spans = [
        {"span_id": "r", "parent_id": None, "name": "root", "t0_unix": 0.0, "dur_s": 10.0},
        {"span_id": "a", "parent_id": "r", "name": "a", "t0_unix": 0.5, "dur_s": 6.0},
        {"span_id": "b", "parent_id": "a", "name": "b", "t0_unix": 1.0, "dur_s": 2.0},
        {"span_id": "c", "parent_id": "a", "name": "b", "t0_unix": 4.0, "dur_s": 1.5},
        {"span_id": "x", "parent_id": None, "name": "other", "t0_unix": 20.0, "dur_s": 1.0},
    ]
    assert self_times(spans)["a"] == pytest.approx(2.5)
    wall, layers = ledger(spans, "root")
    assert wall == 10.0
    assert layers == pytest.approx({"residual": 4.0, "a": 2.5, "b": 3.5})
    assert sum(layers.values()) == pytest.approx(wall)


def test_service_job_ledger_tiles_the_job():
    spans = [
        {"span_id": "s", "parent_id": None, "name": "service.jobs.submit",
         "t0_unix": 1.0, "dur_s": 0.5, "args": {"job_id": "j"}},
        {"span_id": "p", "parent_id": "s", "name": "service.jobs.persist",
         "t0_unix": 1.1, "dur_s": 0.2},
        {"span_id": "r", "parent_id": None, "name": "service.jobs.run",
         "t0_unix": 1.4, "dur_s": 3.0, "args": {"job_id": "j"}},
        {"span_id": "g", "parent_id": "r", "name": "service.store.get",
         "t0_unix": 2.0, "dur_s": 1.0},
    ]
    (job_id, wall, layers), = service.job_ledgers(spans, {"j": 0.5})
    assert wall == pytest.approx(3.9)
    assert layers["service.app.handle"] == pytest.approx(0.5)
    assert layers["service.jobs.submit"] == pytest.approx(0.2)  # tail overlapping the run
    assert layers["service.jobs.queue_wait"] == 0.0
    assert layers["service.jobs.run_self"] == pytest.approx(2.0)
    assert layers["residual"] == pytest.approx(0.0, abs=1e-12)


def test_seed_rule_cycles_over_committed_seeds():
    assert [trace_seed(s) for s in (1, 8, 9, 0, 16)] == [1, 8, 1, 8, 8]
    assert sorted(load_goldens("paper_matrix")["seeds"]) == [str(s) for s in range(1, GOLDEN_SEEDS + 1)]


def test_goldens_describe_the_workload_specs():
    hot = load_goldens("service_hot")["seeds"]
    for seed in range(1, GOLDEN_SEEDS + 1):
        assert [g["spec"] for g in hot[str(seed)]] == [
            service.hot_spec(j, seed) for j in range(service.HOT_POOL)]
    cold = load_goldens("service_cold")
    assert cold["spec0"] == service.cold_spec(0)
    assert len(cold["digests"]) == service.COLD_SPECS
    pm = load_goldens("paper_matrix")
    assert pm["systems"] == list(matrix.SYSTEMS) and pm["refs"] == matrix.REFS
    assert all(len(cells) == len(matrix.SYSTEMS) * 8 for cells in pm["seeds"].values())


def test_nnls_recovers_nonnegative_costs():
    rng = np.random.default_rng(3)
    a = rng.uniform(0, 1000, size=(60, 4))
    truth = np.array([3.0, 0.0, 120.0, 7.5])
    x = costmodel.nnls(a, a @ truth)
    assert (x >= 0).all()
    np.testing.assert_allclose(x, truth, rtol=1e-6, atol=1e-6)
    # a target only a negative coefficient could fit exactly clamps to 0
    y = a @ np.array([1.0, -5.0, 0.0, 0.0])
    assert costmodel.nnls(a, y)[1] == 0.0


def test_catalog_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    catalog = json.loads((Path(__file__).parent / "catalog.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(catalog["workloads"])
    assert {m["name"] for m in spec["end_to_end"]} == set(catalog["end_to_end"])
    assert [m["name"] for m in spec["per_layer"]] == list(catalog["per_layer"])
    assert catalog["seeds"]["default"] == DEFAULT_SEED
    assert catalog["seeds"]["heldout"] == HELDOUT_SEED
    workloads = set(catalog["workloads"])
    for entry in catalog["per_layer"].values():
        assert set(entry["measured_on"]) <= workloads
        for move in entry["moves"]:
            assert move["metric"] in catalog["end_to_end"] and move["workload"] in workloads
