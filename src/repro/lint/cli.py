"""Command-line front end: ``python -m repro lint``.

One pass over the given paths (default ``src``): the per-file rules run on
every ``.py`` file, and the whole-program rules run on every directory
argument as one package (``src`` descends into ``src/repro``).  Each file
is read and parsed once: a package's per-file rules run in the project
pass's extraction workers, on the trees the facts come from.

Exit codes: 0 — clean; 1 — findings (including RP999 parse errors and
unreadable files); 2 — usage error (unknown rule code, missing path).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.base import Finding
from repro.lint.engine import (
    format_findings,
    format_json,
    iter_python_files,
    lint_paths,
    select_rules,
)
from repro.lint.project import PROJECT_RULES, analyze_project
from repro.lint.rules import ALL_RULES

_FILE_CODES = frozenset(rule.code for rule in ALL_RULES)
_PROJECT_CODES = frozenset(rule.code for rule in PROJECT_RULES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="domain-aware static analysis for the GetReal reproduction",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or package directories to lint (default: src)",
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
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the whole-program fact extraction "
        "(default: min(cpus, 8))",
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


def _within(codes: list[str] | None, catalogue: frozenset[str]) -> list[str] | None:
    """The *codes* that name rules of one catalogue (``None`` stays ``None``)."""
    if codes is None:
        return None
    return [code for code in codes if code in catalogue]


def _package_root(path: Path) -> Path:
    """``src`` descends into ``src/repro``, the package the imports are rooted at."""
    if not (path / "__init__.py").exists() and (path / "repro").is_dir():
        return path / "repro"
    return path


def list_rules() -> str:
    """The rule catalogue (per-file and project) as an aligned text block."""
    lines = []
    for rule in (*ALL_RULES, *PROJECT_RULES):
        scope = "project" if rule in PROJECT_RULES else "file"
        lines.append(f"{rule.code}  {rule.name}  [{scope}]")
        lines.append(f"       why : {rule.rationale}")
        lines.append(f"       fix : {rule.hint}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Run one lint invocation; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(list_rules())
        return 0
    select = _split_codes(args.select)
    ignore = _split_codes(args.ignore)
    unknown = {*(select or ()), *(ignore or ())} - _FILE_CODES - _PROJECT_CODES
    if unknown:
        print(f"reprolint: unknown rule code(s): {sorted(unknown)}", file=sys.stderr)
        return 2
    paths = [Path(p) for p in args.paths]
    for path in paths:
        if not path.exists():
            print(f"reprolint: no such file or directory: {path}", file=sys.stderr)
            return 2

    file_select = _within(select, _FILE_CODES)
    file_ignore = _within(ignore, _FILE_CODES)
    file_rules = select_rules(file_select, file_ignore)
    findings: list[Finding] = []
    # Per-file findings (every parse error and unreadable file as RP999)
    # are kept once per file, whichever pass linted it first; the project
    # report's own parse errors would repeat them.
    linted: set[Path] = set()
    for path in paths:
        if path.is_dir():
            report = analyze_project(
                _package_root(path),
                select=_within(select, _PROJECT_CODES),
                ignore=_within(ignore, _PROJECT_CODES),
                jobs=args.jobs,
                file_rules=file_rules,
            )
            findings.extend(report.findings)
            for name, file_findings in report.file_findings.items():
                resolved = Path(name).resolve()
                if resolved not in linted:
                    linted.add(resolved)
                    findings.extend(file_findings)
    # Files outside every package pass: file arguments and files beside
    # a package root (``src/*.py``).
    rest = [f for f in iter_python_files(paths) if f.resolve() not in linted]
    findings.extend(lint_paths(rest, select=file_select, ignore=file_ignore))
    findings.sort()
    if args.output_format == "json":
        print(format_json(findings))
    else:
        print(format_findings(findings, show_hints=not args.no_hints))
    return 1 if findings else 0
