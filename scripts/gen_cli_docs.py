#!/usr/bin/env python3
"""Generate ``docs/CLI.md`` from the argparse tree; ``--check`` gates drift.

The reference is derived, never hand-written: every subcommand of
:func:`repro.cli.build_parser` contributes its help text, usage line,
and full option table, plus the environment variables the package reads
(rendered from :data:`repro.params.SETTINGS`).  CI runs ``--check`` so
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


def _env_rows():
    """One docs/CLI.md table row per :data:`repro.params.SETTINGS` entry."""
    from repro.params import SETTINGS

    for name, row in SETTINGS.items():
        kind = row.kind.__name__
        if row.floor is not None:
            kind += f" {'>' if row.exclusive else '>='} {row.floor:g}"
        default = "unset" if row.default is None else f"`{row.default:g}`"
        yield f"| `{name}` | {kind} | {default} | {row.consumer} | {row.meaning} |"


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
        "Every `REPRO_*` variable, rendered from `repro.params.SETTINGS`.  A flag",
        "wins over its variable; a value that does not parse or lies below its",
        "bound fails with exit status `2`, naming the variable.",
        "",
        "| Variable | Type | Default | Consumed by | Meaning |",
        "|---|---|---|---|---|",
        *_env_rows(),
        "",
    ])
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
