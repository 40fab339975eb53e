#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload paper_matrix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Workloads: ``paper_matrix`` (the fig09 systems plus vxp5 over the eight
Table 3 benchmarks through ``repro.sweep``), ``service_hot`` and
``service_cold`` (two closed-loop clients against a spawned ``repro
serve``; see ``service.py``); ``all`` runs the three in turn.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs an untraced pass, then a
traced one, and prints the per-layer ledger.  The last line of standard
output is the result object; the lines before it give the same numbers
for people.  Every simulated result is checked against committed goldens;
a mismatch or any failed operation exits 1.
"""

from __future__ import annotations

import argparse
import subprocess
import sys

from common import DEFAULT_SEED, require_checkout

WORKLOADS = ("paper_matrix", "service_hot", "service_cold")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="workload seed (default %(default)s)")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measured seconds per pass (default %(default)s)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report the per-layer ledger instead")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    require_checkout()
    if args.workload == "all":
        # one interpreter per workload, as the per-workload runs get
        return max(subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in WORKLOADS)
    traced = bool(args.trace)
    if args.workload == "paper_matrix":
        import matrix

        return matrix.run(args.seed, args.seconds, traced)
    import service

    return service.run(args.workload, args.seed, args.seconds, traced)


if __name__ == "__main__":
    sys.exit(main())
