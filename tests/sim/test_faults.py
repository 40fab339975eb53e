"""Tests for the deterministic fault-injection harness and the recovery
paths it exercises: the fault-plan grammar and the service fault kinds,
saved-trace integrity (a digest catches bit flips and truncation; saves
are atomic), per-cell retries, worker-loss redispatch, wall-clock
timeouts, and the recovery log's counters."""

from __future__ import annotations

import errno

import pytest

from repro import faults
from repro.errors import (
    ConfigurationError,
    CorruptTraceError,
    InjectedFaultError,
    RetryExhaustedError,
)
from repro.faults import FaultPlan, cell_context
from repro.sim.parallel import RecoveryLog
from repro.sim.runner import clear_trace_cache, sweep
from repro.trace import io as trace_io
from repro.trace.record import TraceSpec
from repro.trace.synthetic import generate_trace

SYSTEMS = ["base", "vb"]
BENCHES = ["fft", "lu"]
REFS = 3_000
SCALE = 0.02


@pytest.fixture(autouse=True)
def _isolated(monkeypatch, tmp_path):
    """Each test gets a clean fault state."""
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
    for var in ("REPRO_FAULTS", "REPRO_MAX_RETRIES", "REPRO_CELL_TIMEOUT"):
        monkeypatch.delenv(var, raising=False)
    clear_trace_cache()
    faults._cached_env = None
    faults._cached_plan = None
    yield
    clear_trace_cache()
    faults._cached_env = None
    faults._cached_plan = None


# ---------------------------------------------------------------------------
# FaultPlan grammar and decisions
# ---------------------------------------------------------------------------


class TestFaultPlanGrammar:
    def test_parse_full_grammar(self):
        plan = FaultPlan.parse("seed=7;cell=0.5@2;slow=0.25:1.5;disk-full=1")
        assert plan.seed == 7
        assert plan.rates == {"cell": 0.5, "slow": 0.25, "disk-full": 1.0}
        assert plan.attempts == {"cell": 2}
        assert plan.slow_s == 1.5

    def test_comma_separator_equivalent(self):
        a = FaultPlan.parse("seed=3;kill=0.5@1")
        b = FaultPlan.parse("seed=3,kill=0.5@1")
        assert a.spec() == b.spec()

    def test_spec_round_trips(self):
        plan = FaultPlan.parse("seed=9;cell=0.4@3;store-corrupt=1;slow=0.2:0.7")
        assert FaultPlan.parse(plan.spec()).spec() == plan.spec()

    @pytest.mark.parametrize(
        "bad",
        [
            "bogus=1",  # unknown kind
            "cell=1.5",  # rate out of range
            "cell=0.5:2.0",  # :seconds on a non-slow kind
            "cell=0.5@0",  # attempts below 1
            "justtext",  # no key=value shape
            "cell=notafloat",
            "slow=0.5:-1",  # non-positive duration
        ],
    )
    def test_bad_grammar_raises(self, bad):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse(bad)

    def test_decisions_deterministic_across_instances(self):
        contexts = [cell_context(s, b, 1) for s in SYSTEMS for b in BENCHES]
        a = FaultPlan.parse("seed=11;cell=0.5")
        b = FaultPlan.parse("seed=11;cell=0.5")
        assert [a.should("cell", c, 0) for c in contexts] == [
            b.should("cell", c, 0) for c in contexts
        ]

    def test_rate_one_always_fires_rate_zero_never(self):
        plan = FaultPlan(seed=1, rates={"cell": 1.0})
        assert plan.should("cell", "x", 0)
        assert not plan.should("kill", "x", 0)  # no rate configured

    def test_attempt_gating(self):
        plan = FaultPlan(seed=1, rates={"cell": 1.0}, attempts={"cell": 2})
        assert plan.should("cell", "ctx", 0)
        assert plan.should("cell", "ctx", 1)
        assert not plan.should("cell", "ctx", 2)

    def test_maybe_fail_cell_raises_injected_fault(self):
        plan = FaultPlan(seed=1, rates={"cell": 1.0})
        with pytest.raises(InjectedFaultError):
            plan.maybe_fail_cell("ctx", 0)

    def test_active_plan_tracks_env(self, monkeypatch):
        assert faults.active_plan() is None
        monkeypatch.setenv("REPRO_FAULTS", "seed=5;cell=1.0")
        plan = faults.active_plan()
        assert plan is not None and plan.seed == 5
        monkeypatch.delenv("REPRO_FAULTS")
        assert faults.active_plan() is None


class TestServiceFaultKinds:
    """The four service-layer kinds: reject, hang, disk-full, store-corrupt."""

    def test_parse_service_kinds(self):
        plan = FaultPlan.parse(
            "seed=4;reject=0.5;hang=0.25:2.5;disk-full=1;store-corrupt=0.1")
        assert plan.rates == {"reject": 0.5, "hang": 0.25,
                              "disk-full": 1.0, "store-corrupt": 0.1}
        assert plan.hang_s == 2.5

    def test_spec_round_trips_hang_seconds(self):
        plan = FaultPlan.parse("seed=4;hang=0.5:0.75;reject=1")
        assert FaultPlan.parse(plan.spec()).spec() == plan.spec()

    def test_seconds_suffix_only_for_timed_kinds(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("reject=0.5:2.0")

    def test_reject_fires_per_tally_bound(self):
        plan = FaultPlan(seed=1, rates={"reject": 1.0},
                         attempts={"reject": 2})
        ctx = "POST /jobs|{}"
        assert plan.should_reject(ctx)
        assert plan.should_reject(ctx)
        assert not plan.should_reject(ctx)  # tally exhausted

    def test_hang_delay_returns_seconds_then_none(self):
        plan = FaultPlan(seed=1, rates={"hang": 1.0}, hang_s=0.25)
        assert plan.hang_delay("GET /healthz|") == 0.25
        assert plan.hang_delay("GET /healthz|") is None  # once per context
        assert plan.hang_delay("GET /stats|") == 0.25

    def test_hang_delay_none_when_unconfigured(self):
        plan = FaultPlan(seed=1, rates={"reject": 1.0})
        assert plan.hang_delay("GET /healthz|") is None

    def test_disk_full_raises_enospc_once(self):
        plan = FaultPlan(seed=1, rates={"disk-full": 1.0})
        with pytest.raises(OSError) as excinfo:
            plan.maybe_disk_full("store-put/abc")
        assert excinfo.value.errno == errno.ENOSPC
        plan.maybe_disk_full("store-put/abc")  # tally exhausted: no raise

    def test_store_corrupt_mangles_entry_once(self, tmp_path):
        payload = b"x" * 4096
        path = tmp_path / "entry.json"
        path.write_bytes(payload)
        plan = FaultPlan(seed=1, rates={"store-corrupt": 1.0})
        assert plan.maybe_corrupt_store(path, "store-entry/abc")
        mangled = path.read_bytes()
        assert mangled != payload
        assert not plan.maybe_corrupt_store(path, "store-entry/abc")
        assert path.read_bytes() == mangled


# ---------------------------------------------------------------------------
# trace-cache integrity: digests, quarantine, regenerate
# ---------------------------------------------------------------------------


def _small_spec():
    return TraceSpec(benchmark="fft", refs=2_000, seed=1, scale=SCALE)


class TestTraceIntegrity:
    def test_bit_flip_detected_by_digest(self, tmp_path):
        trace = generate_trace(_small_spec())
        path = tmp_path / "t.npz"
        trace_io.save_trace(trace, path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptTraceError):
            trace_io.load_trace(path)

    def test_truncation_detected(self, tmp_path):
        trace = generate_trace(_small_spec())
        path = tmp_path / "t.npz"
        trace_io.save_trace(trace, path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CorruptTraceError):
            trace_io.load_trace(path)

    def test_atomic_save_leaves_no_temp_files(self, tmp_path):
        trace = generate_trace(_small_spec())
        trace_io.save_trace(trace, tmp_path / "t.npz")
        assert [p.name for p in tmp_path.iterdir()] == ["t.npz"]


# ---------------------------------------------------------------------------
# sweep-level recovery (the integration paths ISSUE.md pins)
# ---------------------------------------------------------------------------


def _baseline():
    return sweep(SYSTEMS, BENCHES, refs=REFS, scale=SCALE, jobs=1)


def _assert_identical(expected, actual):
    assert list(expected) == list(actual)
    for key in expected:
        assert expected[key].counters == actual[key].counters, key


class TestSweepFaultRecovery:
    def test_transient_cell_fault_retried_parallel(self, monkeypatch):
        expected = _baseline()
        clear_trace_cache()
        monkeypatch.setenv("REPRO_FAULTS", "seed=7;cell=1.0@1")
        recovery = RecoveryLog()
        actual = sweep(
            SYSTEMS, BENCHES, refs=REFS, scale=SCALE, jobs=2, recovery=recovery
        )
        _assert_identical(expected, actual)
        assert recovery.counts.get("cell_retry", 0) >= len(expected)
        assert recovery.counts.get("cell_recovered", 0) >= len(expected)

    def test_transient_cell_fault_retried_serial(self, monkeypatch):
        expected = _baseline()
        clear_trace_cache()
        monkeypatch.setenv("REPRO_FAULTS", "seed=7;cell=1.0@1")
        recovery = RecoveryLog()
        actual = sweep(
            SYSTEMS, BENCHES, refs=REFS, scale=SCALE, jobs=1, recovery=recovery
        )
        _assert_identical(expected, actual)
        assert recovery.counts.get("cell_retry", 0) >= len(expected)

    def test_worker_kill_redispatched(self, monkeypatch):
        expected = _baseline()
        clear_trace_cache()
        monkeypatch.setenv("REPRO_FAULTS", "seed=3;kill=1.0@1")
        recovery = RecoveryLog()
        actual = sweep(
            SYSTEMS, BENCHES, refs=REFS, scale=SCALE, jobs=2, recovery=recovery
        )
        _assert_identical(expected, actual)
        assert recovery.counts.get("worker_lost", 0) >= 1
        assert recovery.counts.get("cell_redispatch", 0) >= 1

    def test_retry_exhaustion_raises_with_context(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=7;cell=1.0@5")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "1")
        with pytest.raises(RetryExhaustedError) as excinfo:
            sweep(["base"], ["fft"], refs=REFS, scale=SCALE, jobs=1)
        message = str(excinfo.value)
        assert "base/fft" in message and "2 attempt(s)" in message

    def test_timeout_then_recover(self, monkeypatch):
        expected = _baseline()
        clear_trace_cache()
        # every cell sleeps 5s on its first attempt only; the 0.6s budget
        # kills it, the retry runs clean
        monkeypatch.setenv("REPRO_FAULTS", "seed=2;slow=1.0@1:5.0")
        recovery = RecoveryLog()
        actual = sweep(
            SYSTEMS,
            ["fft"],
            refs=REFS,
            scale=SCALE,
            jobs=2,
            cell_timeout=0.6,
            recovery=recovery,
        )
        for key in actual:
            assert expected[key].counters == actual[key].counters, key
        assert recovery.counts.get("cell_timeout", 0) >= 1
        assert recovery.counts.get("cell_recovered", 0) >= 1

    def test_timeout_exhaustion_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=2;slow=1.0@9:5.0")
        with pytest.raises(RetryExhaustedError):
            sweep(
                SYSTEMS,
                ["fft"],
                refs=REFS,
                scale=SCALE,
                jobs=2,
                cell_timeout=0.4,
                max_retries=1,
            )

    def test_kill_fault_never_fires_outside_workers(self, monkeypatch):
        # a serial sweep runs cells in this very process; kill=1.0 must
        # not take down the test runner
        monkeypatch.setenv("REPRO_FAULTS", "seed=3;kill=1.0@9")
        results = sweep(["base"], ["fft"], refs=REFS, scale=SCALE, jobs=1)
        assert ("base", "fft") in results

    def test_recovery_metrics_snapshot(self):
        recovery = RecoveryLog()
        recovery.note("cell_retry", "base", "fft", detail="x")
        recovery.note("cell_retry", "base", "lu", detail="y")
        snap = recovery.snapshot()
        assert snap["counters"]["sweep.cell_retry"] == 2
        assert len(recovery.summary()["actions"]) == 2
