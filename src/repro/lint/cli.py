"""Command-line front end: ``python -m repro lint``.

One pass of the per-file rules over every ``.py`` file under the given
paths (default ``src``).

Exit codes: 0 — clean; 1 — findings (including RP999 parse errors and
unreadable files); 2 — usage error (unknown rule code, missing path).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.engine import format_findings, format_json, lint_paths
from repro.lint.rules import ALL_RULES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="domain-aware static analysis for the GetReal reproduction",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=["human", "json"],
        default="human",
        dest="output_format",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--no-hints",
        action="store_true",
        help="omit fix-it hints from human output",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _split_codes(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    return [code.strip().upper() for code in raw.split(",") if code.strip()]


def list_rules() -> str:
    """The rule catalogue as an aligned text block."""
    lines = []
    for rule in ALL_RULES:
        lines.append(f"{rule.code}  {rule.name}")
        lines.append(f"       why : {rule.rationale}")
        lines.append(f"       fix : {rule.hint}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Run one lint invocation; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(list_rules())
        return 0
    paths = [Path(p) for p in args.paths]
    for path in paths:
        if not path.exists():
            print(f"reprolint: no such file or directory: {path}", file=sys.stderr)
            return 2
    try:
        findings = lint_paths(
            paths, select=_split_codes(args.select), ignore=_split_codes(args.ignore)
        )
    except ValueError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2
    if args.output_format == "json":
        print(format_json(findings))
    else:
        print(format_findings(findings, show_hints=not args.no_hints))
    return 1 if findings else 0
