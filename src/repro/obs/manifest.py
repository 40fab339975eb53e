"""Run manifests: every sweep's inputs and outputs as one JSON artifact.

A manifest records everything needed to reproduce (and to trust) a
results artifact:

* the exact **inputs** — refs/seed/scale/jobs, a content digest of every
  :class:`~repro.params.SystemConfig` swept, and the content-addressed
  trace-cache key of every trace simulated (the same key
  :mod:`repro.trace.io` files traces under);
* the **environment** — package version and git SHA (best effort);
* the **outputs** — per-cell counter digests, metrics snapshots, and the
  sweep-level metric aggregate;
* the **timing** — wall clock and per-cell engine seconds, kept in
  volatile fields so that :func:`manifest_core` can strip them: two runs
  of the same sweep produce bit-identical core manifests, serial or
  parallel (pinned by ``tests/sim/test_obs.py``).

Set ``REPRO_MANIFEST_DIR`` to have ``repro perf`` (``timed_sweep``), the
experiment drivers and ``repro check`` drop their manifests there
(``repro sweep`` writes none); ``repro report`` always writes one next
to its report, or to ``--manifest-dir``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np

from ..durable import write_atomic
from ..params import setting
from ..trace.io import trace_cache_key
from ..trace.record import TraceSpec
from .metrics import aggregate_metrics

MANIFEST_VERSION = 1

#: manifest fields that legitimately differ between identical runs
#: ("recovery" records faults survived, which vary run to run by design;
#: "cache" records the result-store hit/simulated split, which flips from
#: all-miss to all-hit between two identical runs while the results stay
#: bit-identical — exactly the property the core must not see; the HTTP
#: correlation "request_id" is provenance stamped per submission;
#: "environment" names the Python and numpy releases that ran the sweep)
VOLATILE_KEYS = (
    "created_unix", "timing", "git_sha", "version", "recovery", "cache",
    "request_id", "environment",
)
VOLATILE_CELL_KEYS = ("elapsed_s", "refs_per_sec")


#: the releases a trace depends on: numpy's ``Generator`` methods promise
#: no stream stability across releases, so traces may differ between them
ENVIRONMENT = {"python": platform.python_version(), "numpy": np.__version__}


def git_sha() -> str:
    """The repository HEAD, best effort (``unknown`` outside a checkout).

    ``REPRO_GIT_SHA`` wins on every call; otherwise ``git rev-parse`` runs
    once per process.
    """
    return setting("REPRO_GIT_SHA") or _head_sha()


@functools.lru_cache(maxsize=None)
def _head_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def config_digest(config) -> str:
    """Stable content hash of one system configuration.

    ``SystemConfig`` is a frozen tree of dataclasses and enums whose
    ``repr`` is deterministic, which makes it a faithful canonical form.
    """
    return hashlib.sha256(repr(config).encode("utf-8")).hexdigest()[:16]


def counters_digest(counters) -> str:
    canon = json.dumps(counters.as_dict(), sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def build_manifest(
    results: Mapping[Tuple[str, str], object],
    *,
    kind: str = "sweep",
    command: str = "",
    refs: Optional[int] = None,
    seed: Optional[int] = None,
    scale: Optional[float] = None,
    jobs: Optional[int] = None,
    wall_s: Optional[float] = None,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble the manifest for one finished sweep.

    ``results`` is the usual ``(system, benchmark) -> SimulationResult``
    map; cells are recorded in iteration order (the deterministic plan
    order of both the serial and the parallel path).
    """
    from .. import __version__

    cells = []
    for (system, bench), r in results.items():
        spec = TraceSpec(
            benchmark=bench,
            refs=r.refs if refs is None else refs,
            seed=r.seed if seed is None else seed,
            scale=scale if scale is not None else 0.125,
        )
        cells.append(
            {
                "system": system,
                "benchmark": bench,
                "refs": r.refs,
                "seed": r.seed,
                "config_sha": config_digest(r.config),
                "trace_key": trace_cache_key(spec),
                "counters_sha": counters_digest(r.counters),
                "metrics": getattr(r, "metrics", None),
                "elapsed_s": r.elapsed_s,
            }
        )

    manifest: Dict[str, object] = {
        "manifest_version": MANIFEST_VERSION,
        "kind": kind,
        "command": command,
        "version": __version__,
        "git_sha": git_sha(),
        "environment": dict(ENVIRONMENT),
        "created_unix": time.time(),
        "parameters": {
            "refs": refs,
            "seed": seed,
            "scale": scale,
            "jobs": jobs,
        },
        "cells": cells,
        "aggregate_metrics": aggregate_metrics(
            getattr(r, "metrics", None) for r in results.values()
        ),
        "timing": {
            "wall_s": wall_s,
            "engine_s": sum(r.elapsed_s for r in results.values()),
        },
    }
    if extra:
        manifest.update(extra)
    return manifest


def manifest_core(manifest: Mapping[str, object]) -> Dict[str, object]:
    """The manifest minus every volatile field.

    Two runs of the same sweep — serial or parallel, today or next week —
    agree on the core exactly; tests compare the JSON serialisation.
    """
    core = {k: v for k, v in manifest.items() if k not in VOLATILE_KEYS}
    core["cells"] = [
        {k: v for k, v in cell.items() if k not in VOLATILE_CELL_KEYS}
        for cell in manifest.get("cells", ())
    ]
    params = dict(core.get("parameters", {}))
    params.pop("jobs", None)  # worker count must not change the artifact
    # older manifests record an execution engine; dropping it keeps their
    # core equal to a current one
    params.pop("engine", None)
    core["parameters"] = params
    return core


def write_manifest(
    manifest: Mapping[str, object],
    directory: Union[str, Path],
    name: str = "sweep",
) -> Path:
    """Atomically write ``<name>-manifest.json`` under ``directory``."""
    path = Path(directory) / f"{name}-manifest.json"
    write_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def maybe_write_sweep_manifest(
    results: Mapping[Tuple[str, str], object],
    *,
    command: str,
    refs: int,
    seed: int,
    scale: float,
    jobs: int,
    wall_s: float,
    directory: Optional[Union[str, Path]] = None,
    name: str = "sweep",
    recovery=None,
    cache: Optional[Dict[str, object]] = None,
) -> Optional[Path]:
    """Write a sweep manifest when a destination is configured.

    ``directory`` wins; otherwise ``$REPRO_MANIFEST_DIR``; otherwise the
    sweep leaves no artifact (the common interactive case).  ``recovery``
    — a :class:`repro.sim.parallel.RecoveryLog` — surfaces every retry,
    redispatch, timeout, and quarantine the sweep survived under the
    manifest's (volatile) ``recovery`` key.  ``cache`` — a
    :func:`repro.sim.parallel.cache_summary` dict — records how many
    cells were served from the content-addressed result store versus
    simulated, under the (equally volatile) ``cache`` key.
    """
    dest = setting("REPRO_MANIFEST_DIR", directory)
    if dest is None:
        return None
    extra: Optional[Dict[str, object]] = None
    if recovery is not None and len(recovery):
        extra = {"recovery": recovery.summary()}
    if cache is not None:
        extra = dict(extra or {})
        extra["cache"] = cache
    manifest = build_manifest(
        results,
        kind="sweep",
        command=command,
        refs=refs,
        seed=seed,
        scale=scale,
        jobs=jobs,
        wall_s=wall_s,
        extra=extra,
    )
    return write_manifest(manifest, dest, name=name)
