"""Exception hierarchy for the repro package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch a single base class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An invalid or inconsistent system/benchmark configuration."""


class ProtocolError(ReproError):
    """An illegal coherence-protocol state or transition was observed.

    This indicates a bug in the simulator (a violated invariant), never a
    user mistake, and is therefore raised eagerly rather than logged.
    """


class TraceError(ReproError):
    """A malformed trace record, file, or generator specification."""


class CorruptTraceError(TraceError):
    """A trace file failed its integrity check (digest mismatch, torn write).

    Raised by :func:`repro.trace.io.load_trace` when a file written by
    :func:`~repro.trace.io.save_trace` does not read back intact.
    """

    def __init__(self, path: object, reason: str) -> None:
        super().__init__(f"corrupt trace file {path}: {reason}")
        self.path = str(path)
        self.reason = reason


class InjectedFaultError(ReproError):
    """A transient fault raised on purpose by :mod:`repro.faults`.

    Only ever seen when fault injection is enabled (``REPRO_FAULTS`` /
    ``--inject-faults``); the sweep executor treats it exactly like any
    other transient per-cell failure, which is the point.
    """


class CellTimeoutError(ReproError):
    """A sweep cell exceeded its wall-clock budget and its worker was killed."""

    def __init__(self, system: str, benchmark: str, timeout_s: float, attempt: int) -> None:
        super().__init__(
            f"cell {system}/{benchmark} exceeded its {timeout_s:g}s wall-clock "
            f"budget (attempt {attempt + 1})"
        )
        self.system = system
        self.benchmark = benchmark
        self.timeout_s = timeout_s
        self.attempt = attempt


class RetryExhaustedError(ReproError):
    """A sweep cell kept failing after every configured retry.

    Carries the full cell context — system, benchmark, seed, chunk — plus
    how many attempts were made and a description of the last failure, so
    a multi-hour sweep that dies names the exact cell to investigate.
    """

    def __init__(
        self,
        system: str,
        benchmark: str,
        seed: int,
        attempts: int,
        last_error: object,
        chunk: "int | None" = None,
    ) -> None:
        where = f"cell {system}/{benchmark} (seed {seed}"
        if chunk is not None:
            where += f", chunk {chunk}"
        where += ")"
        super().__init__(
            f"{where} failed after {attempts} attempt(s); last error: {last_error}"
        )
        self.system = system
        self.benchmark = benchmark
        self.seed = seed
        self.attempts = attempts
        self.last_error = last_error
        self.chunk = chunk


class CheckpointError(ReproError):
    """A sweep journal cannot be resumed (parameter mismatch, bad header)."""


class VerificationError(ReproError):
    """Base class for failures reported by the ``repro check`` suite."""


class ModelCheckViolation(VerificationError):
    """The exhaustive explorer reached a state that breaks an invariant.

    Carries the minimal event path (BFS order guarantees minimality) from
    the initial machine state to the violating transition, so the failure
    is replayable by hand: each entry is ``(pid, block, is_write)``.
    """

    def __init__(self, system: str, reason: str, path: "list[tuple[int, int, bool]]") -> None:
        steps = " -> ".join(
            f"{'W' if w else 'R'}(pid={pid}, block={block})" for pid, block, w in path
        )
        super().__init__(
            f"model check of {system!r} failed after {len(path)} event(s): "
            f"{reason}\n  minimal path: {steps or '<initial state>'}"
        )
        self.system = system
        self.reason = reason
        self.path = list(path)


class OracleDivergenceError(VerificationError):
    """The optimised simulator and the reference oracle disagree.

    Names the cell, the first divergent reference index (when localised),
    and the counters that differ, so the disagreement is immediately
    actionable.
    """

    def __init__(
        self,
        system: str,
        benchmark: str,
        detail: str,
        first_divergence: "int | None" = None,
    ) -> None:
        where = f"cell {system}/{benchmark}"
        if first_divergence is not None:
            where += f" at reference {first_divergence}"
        super().__init__(f"oracle divergence in {where}: {detail}")
        self.system = system
        self.benchmark = benchmark
        self.detail = detail
        self.first_divergence = first_divergence


class UnknownSystemError(ConfigurationError):
    """A system name was requested that is not in the registry."""

    def __init__(self, name: str, known: "list[str]") -> None:
        super().__init__(
            f"unknown system {name!r}; known systems: {', '.join(sorted(known))}"
        )
        self.name = name
        self.known = list(known)


class UnknownBenchmarkError(ConfigurationError):
    """A benchmark name was requested that is not in the registry."""

    def __init__(self, name: str, known: "list[str]") -> None:
        super().__init__(
            f"unknown benchmark {name!r}; known benchmarks: "
            f"{', '.join(sorted(known))}"
        )
        self.name = name
        self.known = list(known)


class JobSpecError(ReproError):
    """A sweep-job specification submitted to the service is invalid.

    Raised by :meth:`repro.service.jobs.JobSpec.from_dict` with a message
    naming the offending field; the HTTP layer maps it to a 400 response.
    """


class ServiceUnavailableError(ReproError):
    """The job server refused new work (saturated queue or draining).

    Raised by :meth:`repro.service.jobs.JobManager.submit` when admission
    control rejects a spec; carries the backoff hint the HTTP layer turns
    into a ``503`` with a ``Retry-After`` header.  The rejection is load
    shedding, not failure — the client's request was never enqueued and
    can safely be retried.
    """

    def __init__(self, reason: str, retry_after_s: float = 2.0) -> None:
        super().__init__(reason)
        self.reason = reason
        self.retry_after_s = float(retry_after_s)


class JobCancelledError(ReproError):
    """A running sweep was aborted between cells (cancel or drain).

    Raised out of :func:`repro.sim.parallel.run_parallel_sweep` when its
    ``should_abort`` callback turns true.  Every cell completed before
    the abort is already journalled, so a cancelled-then-resubmitted (or
    drained-then-restarted) job restores them bit-identically instead of
    re-simulating.
    """
