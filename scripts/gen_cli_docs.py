#!/usr/bin/env python3
"""Generate ``docs/CLI.md`` from the argparse tree; ``--check`` gates drift.

The reference is derived, never hand-written: every subcommand of
:func:`repro.cli.build_parser` contributes its help text, usage line,
and full option table, plus the environment variables the package reads
(collected from the modules that define them).  CI runs ``--check`` so
the committed file can never drift from the actual parser — change a
flag, regenerate, or the docs job fails.

Usage::

    python scripts/gen_cli_docs.py            # rewrite docs/CLI.md
    python scripts/gen_cli_docs.py --check    # exit 1 if CLI.md is stale
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

# argparse wraps help to the terminal width; pin it so the generated
# file is byte-identical regardless of where it is generated
os.environ["COLUMNS"] = "80"

from repro.cli import build_parser  # noqa: E402

OUT_PATH = REPO / "docs" / "CLI.md"

#: (variable, consumed by, meaning) — the package's environment surface.
#: Names are imported where a module exports the constant, so a rename
#: breaks this script rather than silently documenting a dead variable.
def _env_rows():
    from repro.obs.manifest import MANIFEST_ENV
    from repro.service.store import SERVICE_DIR_ENV

    return [
        ("REPRO_JOBS", "`repro sweep`, `repro report`",
         "default worker-process count for sweeps"),
        ("REPRO_TRACE_CACHE", "`repro.trace.io`",
         "on-disk trace cache directory (shared across processes)"),
        (MANIFEST_ENV, "`repro.obs.manifest`",
         "directory where every sweep drops its run manifest"),
        (SERVICE_DIR_ENV, "`repro serve`",
         "service state directory: result store + job journals"),
        ("REPRO_STORE_MAX_BYTES", "`repro serve`",
         "result-store size budget; LRU-evicts above it (0 = unbounded)"),
        ("REPRO_MAX_QUEUED_JOBS", "`repro serve`",
         "admission control: queued-job bound before 503s (0 = off)"),
        ("REPRO_MAX_INFLIGHT_CELLS", "`repro serve`",
         "admission control: queued+running cell bound (0 = off)"),
        ("REPRO_JOB_TTL", "`repro serve`",
         "seconds before terminal jobs are garbage-collected"),
        ("REPRO_GC_INTERVAL", "`repro serve`",
         "seconds between terminal-job GC sweeps"),
        ("REPRO_DRAIN_TIMEOUT", "`repro serve`",
         "graceful-drain budget in seconds on SIGTERM/SIGINT"),
        ("REPRO_REQUEST_TIMEOUT", "`repro serve`",
         "per-request read/write timeout in seconds"),
        ("REPRO_MAX_RETRIES", "`repro.sim.parallel`",
         "per-cell retry budget for fault-tolerant sweeps"),
        ("REPRO_CELL_TIMEOUT", "`repro.sim.parallel`",
         "per-cell wall-clock budget in seconds"),
        ("REPRO_RETRY_BACKOFF", "`repro.sim.parallel`",
         "base backoff in seconds between cell retries"),
        ("REPRO_FAULTS", "`repro.sim.parallel`",
         "fault-injection spec for chaos testing (see docs/ROBUSTNESS.md)"),
        ("REPRO_PROFILE", "`repro.obs.profile`",
         "attach the stall profiler to every run"),
        ("REPRO_PROFILE_WINDOW", "`repro.obs.profile`",
         "references per profiler time-series window"),
        ("REPRO_BENCH_REFS", "`benchmarks/bench_core.py`",
         "reference count for the perf-gate benchmarks"),
        ("REPRO_GIT_SHA", "`repro.obs.manifest`",
         "overrides the git SHA recorded in manifests"),
    ]


def _options_block(parser: argparse.ArgumentParser) -> str:
    formatter = parser._get_formatter()
    for group in parser._action_groups:
        formatter.start_section(group.title)
        formatter.add_arguments(group._group_actions)
        formatter.end_section()
    return formatter.format_help().rstrip()


def generate() -> str:
    parser = build_parser()
    sub_actions = [
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    assert len(sub_actions) == 1, "expected exactly one subparser group"
    subcommands = sub_actions[0].choices

    lines = [
        "# CLI reference",
        "",
        "<!-- GENERATED FILE - DO NOT EDIT.",
        "     Regenerate with: python scripts/gen_cli_docs.py",
        "     CI fails if this file drifts from the argparse tree. -->",
        "",
        f"`{parser.prog}` — {parser.description}",
        "",
        "Every invocation is `repro <subcommand> [options]`.  Exit status "
        "is `0` on success,",
        "`2` on any expected error (bad arguments, unknown system, "
        "invalid spec), and",
        "`1` when a verification or gate command finds a failure.",
        "",
        "## Subcommands",
        "",
    ]
    for name, sub in subcommands.items():
        lines.append(f"- [`repro {name}`](#repro-{name})")
    lines.append("")

    for name, sub in subcommands.items():
        lines.append(f"## `repro {name}`")
        lines.append("")
        help_text = next(
            (a.help for a in sub_actions[0]._choices_actions
             if a.dest == name), "",
        )
        if help_text:
            lines.append(help_text[0].upper() + help_text[1:] + ".")
            lines.append("")
        lines.append("```")
        lines.append(_options_block(sub))
        lines.append("```")
        lines.append("")

    lines.extend([
        "## Environment variables",
        "",
        "| Variable | Consumed by | Meaning |",
        "|---|---|---|",
    ])
    for var, consumer, meaning in _env_rows():
        lines.append(f"| `{var}` | {consumer} | {meaning} |")
    lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="compare against the committed docs/CLI.md; "
                         "exit 1 on drift instead of writing")
    args = ap.parse_args(argv)
    text = generate()
    if args.check:
        try:
            committed = OUT_PATH.read_text(encoding="utf-8")
        except OSError:
            print(f"MISSING: {OUT_PATH} — run scripts/gen_cli_docs.py",
                  file=sys.stderr)
            return 1
        if committed != text:
            print(f"STALE: {OUT_PATH} does not match the argparse tree — "
                  f"run scripts/gen_cli_docs.py and commit the result",
                  file=sys.stderr)
            return 1
        print(f"OK: {OUT_PATH} matches the argparse tree")
        return 0
    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(text, encoding="utf-8")
    print(f"wrote {OUT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
