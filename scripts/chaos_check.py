#!/usr/bin/env python
"""Chaos check: prove the sweep's recovery paths under injected faults.

Runs the same small systems x benchmarks sweep four times:

1. **fault-free** — the reference counters;
2. **under a seeded fault schedule** covering every kind the sweep
   engine and its result store inject (transient cell errors, worker
   kills, slow cells under a tight timeout, result-store write failures
   and corrupted entries), with a ``--resume`` run directory so every
   survived cell is journalled, and a scratch result store;
3. **over that store again**, fault-free and with no run directory —
   every entry the faults corrupted must be quarantined and its cell
   re-simulated;
4. **resumed** against the chaos run's directory — every cell must be
   restored from the journal, none re-simulated.

The check fails (non-zero exit) unless

* every run's counters are bit-identical to the fault-free run's for
  every cell (recovery never changes results),
* the expected recovery actions actually fired (a chaos job that
  injects nothing proves nothing),
* the store run quarantines exactly the entries the faults corrupted,
  and
* the resumed run restores all cells from the journal.

Used by the CI ``chaos`` job; run locally with::

    python scripts/chaos_check.py [--refs 6000] [--jobs 2] [--out-dir DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

#: every sweep and store fault kind at a rate that guarantees several
#: firings on a 2x2 matrix, transient enough that the default retry
#: budget recovers.  cell/slow are gated @2 so a cell also selected by
#: kill (which fires first and eats attempt 0) still exercises them on
#: its retry.  The store kinds decide on the result key, which moves with
#: --refs, so store-corrupt takes every entry disk-full lets through.
FAULT_SPEC = (
    "seed=7;cell=0.5@2;kill=0.4@1;slow=0.4@2:5.0;disk-full=0.5;store-corrupt=1"
)
SYSTEMS = ["base", "vb"]
BENCHES = ["fft", "lu"]

#: at least one of each family must have fired, or the chaos run was a no-op
REQUIRED_EVENT_FAMILIES = {
    "retry": ("cell_retry", "cell_timeout"),
    "worker-loss": ("worker_lost", "cell_redispatch"),
    "result-store": ("store_degraded", "result_store_skipped", "fault_injected"),
    "recovered": ("cell_recovered",),
}


def run_sweep(refs, scale, jobs, run_dir=None, recovery=None, result_store=None):
    from repro.sim.runner import clear_trace_cache, sweep

    clear_trace_cache()
    return sweep(
        SYSTEMS,
        BENCHES,
        refs=refs,
        scale=scale,
        jobs=jobs,
        run_dir=run_dir,
        cell_timeout=2.0,
        recovery=recovery,
        result_store=result_store,
    )


def counters_map(results):
    return {
        f"{s}/{b}": r.counters.as_dict() for (s, b), r in results.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--refs", type=int, default=6_000)
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--out-dir", default="chaos-artifacts",
                        help="journal + manifest artifacts land here")
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    run_dir = out_dir / "run"
    # a journal left by an earlier check would be resumed, and its cells
    # would never meet the faults
    shutil.rmtree(run_dir, ignore_errors=True)

    os.environ["REPRO_RETRY_BACKOFF"] = "0"
    os.environ["REPRO_MANIFEST_DIR"] = str(out_dir)
    os.environ.pop("REPRO_FAULTS", None)

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.faults import FaultPlan
    from repro.sim.parallel import RecoveryLog
    from repro.obs.manifest import maybe_write_sweep_manifest
    from repro.service.store import ResultStore

    failures = []

    def check_counters(results, phase):
        for key in reference:
            if key in results and results[key].counters != reference[key].counters:
                failures.append(f"counters diverged {phase}: {key}")

    # ---- phase 1: fault-free reference ---------------------------------
    print(f"[1/4] fault-free sweep ({args.refs} refs, jobs={args.jobs})")
    reference = run_sweep(args.refs, args.scale, args.jobs)

    # ---- phase 2: the same sweep under injected faults -----------------
    # the store must be private to the check and start empty: the
    # disk-full/store-corrupt faults fire on its writes, and phase 3
    # reads the entries back on purpose
    with tempfile.TemporaryDirectory(prefix="chaos-store-") as store_dir:
        store = ResultStore(store_dir)
        plan = FaultPlan.parse(FAULT_SPEC)
        os.environ["REPRO_FAULTS"] = plan.spec()
        print(f"[2/4] chaos sweep under {plan.spec()!r}")
        recovery = RecoveryLog()
        chaotic = run_sweep(
            args.refs, args.scale, args.jobs, run_dir=str(run_dir),
            recovery=recovery, result_store=store,
        )
        os.environ.pop("REPRO_FAULTS", None)
        print(f"      recovery: {recovery.counts or '(none)'}")
        maybe_write_sweep_manifest(
            chaotic,
            command=f"chaos_check --refs {args.refs} --jobs {args.jobs}",
            refs=args.refs,
            seed=1,
            scale=args.scale,
            jobs=args.jobs,
            wall_s=0.0,
            directory=out_dir,
            name="chaos-sweep",
            recovery=recovery,
        )

        if list(chaotic) != list(reference):
            failures.append("chaos sweep returned different cells than reference")
        check_counters(chaotic, "under faults")
        for family, kinds in REQUIRED_EVENT_FAMILIES.items():
            if not any(recovery.counts.get(kind, 0) for kind in kinds):
                failures.append(
                    f"no {family} recovery fired (expected one of {', '.join(kinds)})"
                )

        # ---- phase 3: read the faulted store back, fault-free ----------
        print("[3/4] sweep over the chaos run's result store")
        store_recovery = RecoveryLog()
        check_counters(
            run_sweep(args.refs, args.scale, args.jobs,
                      recovery=store_recovery, result_store=store),
            "over the faulted store",
        )
        corrupted = recovery.counts.get("fault_injected", 0)
        quarantined = store_recovery.counts.get("result_quarantined", 0)
        if quarantined != corrupted:
            failures.append(
                f"{corrupted} store entr(ies) corrupted but {quarantined} quarantined"
            )

    # ---- phase 4: resume from the journal ------------------------------
    print("[4/4] resume from the chaos run's journal")
    resumed_recovery = RecoveryLog()
    resumed = run_sweep(
        args.refs, args.scale, args.jobs, run_dir=str(run_dir),
        recovery=resumed_recovery,
    )
    check_counters(resumed, "on resume")
    if not resumed_recovery.counts.get("cells_resumed"):
        failures.append("resume re-simulated cells instead of restoring them")

    (out_dir / "chaos-summary.json").write_text(
        json.dumps(
            {
                "fault_spec": plan.spec(),
                "refs": args.refs,
                "jobs": args.jobs,
                "recovery": recovery.summary(),
                "store_recovery": store_recovery.summary(),
                "resume_recovery": resumed_recovery.summary(),
                "reference_counters": counters_map(reference),
                "failures": failures,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )

    if failures:
        for failure in failures:
            print(f"CHAOS FAILED: {failure}", file=sys.stderr)
        return 1
    print(
        f"chaos ok: {len(reference)} cells bit-identical across fault-free, "
        f"faulted, store-served and resumed runs; "
        f"{sum(recovery.counts.values())} recovery action(s) survived"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
