"""Deterministic fault injection for the sweep resilience layer.

Every recovery path in the sweep stack — per-cell retries, worker-loss
redispatch, cell timeouts, result-store quarantine-and-re-simulate — is
exercised by *injected* faults rather than trusted on faith.  A
:class:`FaultPlan` is a seeded schedule parsed from the ``REPRO_FAULTS``
environment variable (or the ``repro sweep --inject-faults`` flag, which
sets it so worker processes inherit the same schedule).

Schedule grammar
----------------
Entries separated by ``;`` (or ``,``)::

    seed=<int>            PRNG seed for the schedule (default 0)
    <kind>=<rate>[@<attempts>][:<seconds>]

where ``kind`` is one of

* ``cell``    — raise a transient :class:`~repro.errors.InjectedFaultError`
  at the start of a cell attempt (exercises retry/backoff);
* ``kill``    — ``os._exit`` the worker process mid-cell (exercises
  lost-worker detection and redispatch; never fires in the parent);
* ``slow``    — sleep ``seconds`` (default 0.2) before running the cell
  (exercises per-cell wall-clock timeouts).

Service-layer kinds (injected by :mod:`repro.service`, same hash-based
process-independent decisions):

* ``reject``  — the job server 503s a submission as if admission control
  were saturated (exercises client retry/backoff on ``Retry-After``);
* ``hang``    — the server sleeps ``seconds`` (default 1.0) before
  answering a request (exercises client-side request timeouts);
* ``disk-full``     — raise ``ENOSPC`` when writing a result-store entry
  (exercises degrade-to-uncached operation);
* ``store-corrupt`` — bit-flip and truncate a just-written result-store
  entry (exercises digest verification + quarantine + re-simulation).

``rate`` in [0, 1] selects which contexts fault: the decision for a
context is ``sha256(seed|kind|context) < rate`` — deterministic, order-
and process-independent, so the same cells fault in serial and parallel
runs.  ``@attempts`` (default 1) makes the fault *transient*: a selected
cell fails its first N attempts and then succeeds, so a retry budget of
N recovers it while a budget below N exercises
:class:`~repro.errors.RetryExhaustedError`.

Example::

    REPRO_FAULTS="seed=7;cell=0.4;kill=0.2;slow=0.25@1:0.1;disk-full=0.3"

See ``docs/ROBUSTNESS.md`` for the failure-mode table mapping each kind
to the recovery path it exercises.
"""

from __future__ import annotations

import hashlib
import os
import time
from typing import Dict, Optional, Tuple

from .errors import ConfigurationError, InjectedFaultError
from .params import setting

#: exit code used by injected worker kills (distinctive in ps/CI logs)
KILL_EXIT_CODE = 86

KINDS = (
    "cell", "kill", "slow",
    # service-layer kinds (repro.service)
    "reject", "hang", "disk-full", "store-corrupt",
)

#: kinds that take a ``:seconds`` duration suffix, with the FaultPlan
#: attribute holding it
_TIMED = {"slow": "slow_s", "hang": "hang_s"}

#: kinds decided per (context, attempt) — the attempt number travels with
#: the dispatched cell, so a respawned worker sees the same decision
_ATTEMPT_GATED = ("cell", "kill", "slow")

# process-local flag: kill faults only ever fire inside a sweep worker,
# never in the parent (or a serial run), which they would take down whole
_in_worker = False


def mark_worker_process() -> None:
    """Called once by each sweep worker; enables ``kill`` faults here."""
    global _in_worker
    _in_worker = True


class FaultPlan:
    """A parsed, seeded fault schedule (see module docstring for grammar)."""

    __slots__ = ("seed", "rates", "attempts", "slow_s", "hang_s", "_fired")

    def __init__(
        self,
        seed: int = 0,
        rates: Optional[Dict[str, float]] = None,
        attempts: Optional[Dict[str, int]] = None,
        slow_s: float = 0.2,
        hang_s: float = 1.0,
    ) -> None:
        self.seed = int(seed)
        self.rates = {k: float(v) for k, v in (rates or {}).items()}
        self.attempts = {k: int(v) for k, v in (attempts or {}).items()}
        self.slow_s = float(slow_s)
        self.hang_s = float(hang_s)
        for kind, rate in self.rates.items():
            if kind not in KINDS:
                raise ConfigurationError(
                    f"unknown fault kind {kind!r}; known kinds: {', '.join(KINDS)}"
                )
            if not (0.0 <= rate <= 1.0):
                raise ConfigurationError(f"fault rate for {kind!r} must be in [0, 1]")
        for kind, n in self.attempts.items():
            if n < 1:
                raise ConfigurationError(f"fault attempts for {kind!r} must be >= 1")
        if self.slow_s <= 0:
            raise ConfigurationError("slow fault duration must be positive")
        if self.hang_s <= 0:
            raise ConfigurationError("hang fault duration must be positive")
        # per-process fire tally for the service-layer kinds, which have
        # no attempt number travelling with them
        self._fired: Dict[Tuple[str, str], int] = {}

    # ---- parsing ---------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        seed = 0
        rates: Dict[str, float] = {}
        attempts: Dict[str, int] = {}
        timed = {"slow_s": 0.2, "hang_s": 1.0}
        for raw in text.replace(",", ";").split(";"):
            entry = raw.strip()
            if not entry:
                continue
            if "=" not in entry:
                raise ConfigurationError(
                    f"bad fault entry {entry!r}: expected key=value"
                )
            key, value = (part.strip() for part in entry.split("=", 1))
            try:
                if key == "seed":
                    seed = int(value)
                    continue
                if ":" in value:
                    value, secs = value.split(":", 1)
                    if key not in _TIMED:
                        raise ConfigurationError(
                            f"only {'/'.join(sorted(_TIMED))} take a "
                            f":seconds suffix, not {key!r}"
                        )
                    timed[_TIMED[key]] = float(secs)
                if "@" in value:
                    value, n = value.split("@", 1)
                    attempts[key] = int(n)
                rates[key] = float(value)
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad fault entry {entry!r}: {exc}"
                ) from exc
        return cls(seed=seed, rates=rates, attempts=attempts, **timed)

    def spec(self) -> str:
        """A canonical spec string that re-parses to this plan."""
        parts = [f"seed={self.seed}"]
        for kind in KINDS:
            if kind in self.rates:
                entry = f"{kind}={self.rates[kind]:g}@{self.attempts.get(kind, 1)}"
                if kind in _TIMED:
                    entry += f":{getattr(self, _TIMED[kind]):g}"
                parts.append(entry)
        return ";".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.spec()!r})"

    # ---- decisions -------------------------------------------------------

    def _selected(self, kind: str, context: str) -> bool:
        rate = self.rates.get(kind, 0.0)
        if rate <= 0.0:
            return False
        digest = hashlib.sha256(
            f"{self.seed}|{kind}|{context}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64 < rate

    def should(self, kind: str, context: str, attempt: int = 0) -> bool:
        """Does ``kind`` fire for ``context`` on this attempt?

        Attempt-gated kinds (cell/kill/slow) fire while ``attempt`` is
        below the kind's ``@attempts`` bound; the service-layer kinds
        instead fire at most ``@attempts`` times per process for a given
        context.
        """
        if not self._selected(kind, context):
            return False
        bound = self.attempts.get(kind, 1)
        if kind in _ATTEMPT_GATED:
            return attempt < bound
        tally_key = (kind, context)
        if self._fired.get(tally_key, 0) >= bound:
            return False
        self._fired[tally_key] = self._fired.get(tally_key, 0) + 1
        return True

    # ---- injection sites -------------------------------------------------

    def maybe_kill(self, context: str, attempt: int) -> None:
        if _in_worker and self.should("kill", context, attempt):
            os._exit(KILL_EXIT_CODE)

    def maybe_slow(self, context: str, attempt: int) -> None:
        if self.should("slow", context, attempt):
            time.sleep(self.slow_s)

    def maybe_fail_cell(self, context: str, attempt: int) -> None:
        if self.should("cell", context, attempt):
            raise InjectedFaultError(
                f"injected transient cell fault ({context}, attempt {attempt + 1})"
            )

    # ---- service-layer injection sites -----------------------------------

    def should_reject(self, context: str) -> bool:
        """Admission-control rejection: 503 this submission on purpose."""
        return self.should("reject", context)

    def hang_delay(self, context: str) -> Optional[float]:
        """Seconds the server should stall this request, or ``None``.

        The sleep itself happens in the (async) caller — this module
        stays event-loop-free.
        """
        return self.hang_s if self.should("hang", context) else None

    def maybe_disk_full(self, context: str) -> None:
        """Raise ``ENOSPC`` as if the result store's disk just filled."""
        if self.should("disk-full", context):
            import errno

            raise OSError(
                errno.ENOSPC, f"injected disk-full fault ({context})"
            )

    def maybe_corrupt_store(self, path: object, context: str) -> bool:
        """Bit-flip and truncate a just-written result-store entry in
        place; True when it fired."""
        if not self.should("store-corrupt", context):
            return False
        try:
            with open(path, "r+b") as fh:
                data = fh.read()
                keep = max(16, len(data) * 2 // 3)
                flip = min(len(data) - 1, keep // 2)
                mangled = bytearray(data[:keep])
                if mangled:
                    mangled[flip] ^= 0xFF
                fh.seek(0)
                fh.write(bytes(mangled))
                fh.truncate()
        except OSError:
            return False
        return True


# ---------------------------------------------------------------------------
# the process-wide active plan (parsed from the environment)
# ---------------------------------------------------------------------------

_cached_env: Optional[str] = None
_cached_plan: Optional[FaultPlan] = None


def active_plan() -> Optional[FaultPlan]:
    """The plan from ``$REPRO_FAULTS``, or None when injection is off.

    Parsed once per distinct env value; worker processes inherit the
    variable, so parent and workers run the same schedule.
    """
    global _cached_env, _cached_plan
    raw = setting("REPRO_FAULTS")
    if raw != _cached_env:
        _cached_env = raw
        _cached_plan = FaultPlan.parse(raw) if raw else None
    return _cached_plan


def cell_context(system: str, benchmark: str, seed: int) -> str:
    """The canonical fault context for one sweep cell."""
    return f"{system}/{benchmark}/seed{seed}"
