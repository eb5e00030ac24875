"""Command-line front end: ``python -m repro lint`` and ``tools/reprolint``.

Two analysis modes share one argument surface:

* **per-file** (default) — the RP001–RP009 AST rules, one file at a time;
* **``--project``** — the whole-program engine: symbol table + call graph
  over the package, RP010–RP015 dataflow rules, baseline ratchet.

Exit codes: 0 — clean; 1 — findings (including parse errors and stale
baseline entries); 2 — usage error (unknown rule code, missing path,
malformed baseline).
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from collections.abc import Sequence

from repro.lint.base import Finding
from repro.lint.engine import (
    PARSE_ERROR_CODE,
    format_findings,
    format_json,
    iter_python_files,
    lint_paths,
)
from repro.lint.project import (
    DEFAULT_BASELINE,
    PROJECT_RULES,
    analyze_project,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.lint.rules import ALL_RULES
from repro.lint.sarif import format_sarif

#: Every rule class, per-file and project, for --list-rules and SARIF.
_ALL_RULE_CLASSES = (*ALL_RULES, *PROJECT_RULES)


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach reprolint's arguments to *parser* (shared with ``repro.cli``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src); with --project, "
        "one package root",
    )
    parser.add_argument(
        "--project",
        action="store_true",
        help="whole-program analysis (RP010-RP015): symbol table + call "
        "graph over the package, baseline ratchet",
    )
    parser.add_argument(
        "--format",
        choices=["human", "text", "json", "sarif"],
        default="human",
        dest="output_format",
        help="output format (default: human; 'text' is an alias)",
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
        "--baseline",
        default=None,
        metavar="PATH",
        help="baseline file for --project (default: use "
        f"{DEFAULT_BASELINE} when it exists)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="with --project: snapshot the current findings as the new "
        "baseline and exit",
    )
    parser.add_argument(
        "--show-baselined",
        action="store_true",
        help="with --project: also print findings accepted by the baseline",
    )
    parser.add_argument(
        "--changed-only",
        action="store_true",
        help="restrict the report to files changed vs git HEAD (plus "
        "untracked files); for pre-commit hooks",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for --project fact extraction "
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


def _split_codes(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    return [code.strip().upper() for code in raw.split(",") if code.strip()]


def list_rules() -> str:
    """The rule catalogue (per-file and project) as an aligned text block."""
    lines = []
    for rule in _ALL_RULE_CLASSES:
        scope = "project" if rule in PROJECT_RULES else "file"
        lines.append(f"{rule.code}  {rule.name}  [{scope}]")
        lines.append(f"       why : {rule.rationale}")
        lines.append(f"       fix : {rule.hint}")
    return "\n".join(lines)


def changed_files(cwd: Path | None = None) -> set[Path] | None:
    """Resolved paths of files changed vs HEAD plus untracked files.

    Returns ``None`` (meaning: no filtering, lint everything) when git is
    unavailable or the directory is not a repository — a pre-commit hook
    degrading to a full lint is safe; silently linting nothing is not.
    """
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True,
            text=True,
            check=True,
            cwd=cwd,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    root = Path(top) if top else Path.cwd()
    changed: set[Path] = set()
    for command in (
        ["git", "diff", "--name-only", "HEAD", "--diff-filter=ACMR"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            proc = subprocess.run(
                command, capture_output=True, text=True, check=True, cwd=cwd
            )
        except (OSError, subprocess.CalledProcessError):
            return None
        for line in proc.stdout.splitlines():
            if line.strip():
                changed.add((root / line.strip()).resolve())
    return changed


def _print_findings(
    findings: Sequence[Finding], args: argparse.Namespace
) -> None:
    if args.output_format == "sarif":
        print(format_sarif(findings, _ALL_RULE_CLASSES))
    elif args.output_format == "json":
        print(format_json(findings))
    else:
        print(format_findings(findings, show_hints=not args.no_hints))


def _run_per_file(args: argparse.Namespace) -> int:
    paths = [Path(p) for p in args.paths]
    for path in paths:
        if not path.exists():
            print(
                f"reprolint: no such file or directory: {path}", file=sys.stderr
            )
            return 2
    if args.changed_only:
        changed = changed_files()
        if changed is not None:
            paths = [
                f for f in iter_python_files(paths) if f.resolve() in changed
            ]
            if not paths:
                print("reprolint: no changed python files")
                return 0
    try:
        findings = lint_paths(
            paths,
            select=_split_codes(args.select),
            ignore=_split_codes(args.ignore),
        )
    except ValueError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2
    _print_findings(findings, args)
    return 1 if findings else 0


def _project_root(paths: list[Path]) -> Path | None:
    """The single package root for --project, or None on usage error.

    ``src`` (the default) descends into ``src/repro`` so the analyzed
    package is the one the import graph is rooted at.
    """
    if len(paths) != 1:
        return None
    root = paths[0]
    if not root.is_dir():
        return None
    if not (root / "__init__.py").exists() and (root / "repro").is_dir():
        root = root / "repro"
    return root


def _run_project(args: argparse.Namespace) -> int:
    select = _split_codes(args.select)
    ignore = _split_codes(args.ignore)
    known = {r.code for r in _ALL_RULE_CLASSES} | {PARSE_ERROR_CODE}
    for codes in (select, ignore):
        unknown = set(codes or ()) - known
        if unknown:
            print(
                f"reprolint: unknown rule code(s): {sorted(unknown)}",
                file=sys.stderr,
            )
            return 2
    root = _project_root([Path(p) for p in args.paths])
    if root is None:
        print(
            "reprolint: --project takes exactly one package root directory",
            file=sys.stderr,
        )
        return 2

    report = analyze_project(
        root, select=select, ignore=ignore, jobs=args.jobs
    )
    rule_findings = list(report.findings)
    parse_errors = list(report.parse_errors)

    if args.changed_only:
        changed = changed_files()
        if changed is not None:
            rule_findings = [
                f for f in rule_findings if Path(f.path).resolve() in changed
            ]
            parse_errors = [
                f for f in parse_errors if Path(f.path).resolve() in changed
            ]

    if args.update_baseline:
        # Parse errors are never baselined: a file that does not parse is
        # always a failure, not accepted debt.
        target = args.baseline or DEFAULT_BASELINE
        write_baseline(target, rule_findings)
        print(
            f"reprolint: baseline updated: {len(rule_findings)} finding(s) "
            f"-> {target}"
        )
        if parse_errors:
            _print_findings(parse_errors, args)
            return 1
        return 0

    baseline_path = args.baseline or (
        DEFAULT_BASELINE if Path(DEFAULT_BASELINE).exists() else None
    )
    new: list[Finding] = rule_findings
    accepted: list[Finding] = []
    stale: list[tuple[str, str, str]] = []
    if baseline_path is not None:
        try:
            baseline = load_baseline(baseline_path)
        except ValueError as exc:
            print(f"reprolint: {exc}", file=sys.stderr)
            return 2
        new, accepted, stale = apply_baseline(rule_findings, baseline)

    reported = [*new, *parse_errors]
    if args.show_baselined:
        reported.extend(accepted)
    _print_findings(sorted(reported), args)
    if accepted and args.output_format in ("human", "text"):
        print(f"reprolint: {len(accepted)} baselined finding(s) accepted")
    for key in stale:
        print(
            "reprolint: stale baseline entry (finding no longer present): "
            f"{key[0]}: {key[1]} {key[2]!r} — re-run --update-baseline",
            file=sys.stderr,
        )
    failed = bool(new or parse_errors or stale)
    return 1 if failed else 0


def run(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the process exit code."""
    if args.list_rules:
        print(list_rules())
        return 0
    if args.project:
        return _run_project(args)
    return _run_per_file(args)


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point (``tools/reprolint``)."""
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description="domain-aware static analysis for the GetReal reproduction",
    )
    add_lint_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
