"""Protocol fuzzer: determinism, bug detection, shrinking, replay."""

from __future__ import annotations

import json

from repro.check.fuzz import (
    DEFAULT_FUZZ_SYSTEMS,
    STRATEGIES,
    FuzzCase,
    generate_case,
    replay_artifact,
    run_case,
    run_fuzz,
    shrink_case,
)
from tests.check.conftest import drop_victim_dirty_bits


def test_generation_is_deterministic():
    for strategy in STRATEGIES:
        a = generate_case("vxp2", 42, strategy)
        b = generate_case("vxp2", 42, strategy)
        assert a.events == b.events
    # different seeds give different streams
    assert (
        generate_case("vb", 1, "random_walk").events
        != generate_case("vb", 2, "random_walk").events
    )


def test_clean_protocol_survives_fuzzing(tmp_path):
    report = run_fuzz(
        seed=1, max_cases=2 * len(DEFAULT_FUZZ_SYSTEMS),
        out_dir=str(tmp_path), case_length=160,
    )
    assert report.ok
    assert report.cases_run == 2 * len(DEFAULT_FUZZ_SYSTEMS)


def test_case_json_round_trip():
    case = generate_case("ncs", 7, "upgrade_race")
    clone = FuzzCase.from_dict(json.loads(json.dumps(case.as_dict())))
    assert clone == case


def test_fuzzer_finds_injected_bug_and_shrinks(dropped_dirty_bit, tmp_path):
    report = run_fuzz(
        seed=2, max_cases=4 * len(DEFAULT_FUZZ_SYSTEMS),
        out_dir=str(tmp_path), case_length=192,
    )
    assert not report.ok
    failure = report.failures[0]
    assert len(failure.case.events) < failure.original_length
    assert failure.artifact_path is not None
    # the artifact replays to the same failure while the bug is in place
    verdict = replay_artifact(failure.artifact_path)
    assert verdict["reproduced"] and verdict["error"] == failure.error


def test_shrinking_is_deterministic(dropped_dirty_bit):
    # find one failing case, then shrink it twice: identical minimal traces
    case = None
    signature = None
    for i in range(64):
        system = DEFAULT_FUZZ_SYSTEMS[i % len(DEFAULT_FUZZ_SYSTEMS)]
        strategy = STRATEGIES[(i // len(DEFAULT_FUZZ_SYSTEMS)) % len(STRATEGIES)]
        candidate = generate_case(system, 20_000 + i, strategy)
        result = run_case(candidate)
        if result is not None:
            case, signature = candidate, result[0]
            break
    assert case is not None, "injected bug never triggered in 64 cases"
    first = shrink_case(case, signature)
    second = shrink_case(case, signature)
    assert first.events == second.events
    assert run_case(first) is not None  # still fails after shrinking


def test_healed_artifact_replays_clean(tmp_path, monkeypatch):
    # write an artifact while broken, replay after the monkeypatch is undone
    with monkeypatch.context() as m:
        drop_victim_dirty_bits(m)
        report = run_fuzz(
            seed=3, max_cases=4 * len(DEFAULT_FUZZ_SYSTEMS),
            out_dir=str(tmp_path), case_length=192,
        )
        assert not report.ok
        path = report.failures[0].artifact_path
    verdict = replay_artifact(path)
    assert not verdict["reproduced"]
