"""Linter engine: discovery, suppressions, rendering.

The engine normalizes each file path to *module parts* relative to the
``repro`` package root (``src/repro/cascade/ic.py`` → ``("cascade",
"ic.py")``) so rules can scope themselves by package; paths outside the
package keep their path parts, which lets test fixtures opt into rules by
directory name.

Suppression: a line carrying ``# reprolint: disable=RP001`` silences those
codes on that line; ``# reprolint: disable=RP001,RP004`` silences several;
a bare ``# reprolint: disable`` silences every rule on the line.  A finding
is anchored at the statement that produced it.
"""

from __future__ import annotations

import ast
import json
import re
from collections import Counter as TallyCounter
from pathlib import Path
from collections.abc import Iterable, Iterator, Sequence

from repro.lint.base import Finding, Rule
from repro.lint.rules import ALL_RULES

#: Finding code used for files the parser rejects (mirrors flake8's E999).
PARSE_ERROR_CODE = "RP999"

#: JSON output schema version; bump on any key change.
JSON_SCHEMA_VERSION = 2

_SUPPRESSION = re.compile(r"#\s*reprolint:\s*disable(?:=(?P<codes>[A-Z0-9,\s]+))?")


def module_parts(path: Path) -> tuple[str, ...]:
    """Path parts relative to the ``repro`` package root (or as given).

    The last ``repro`` directory component wins, so both the installed
    layout and ``src/repro/...`` normalize identically.
    """
    parts = path.parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return tuple(parts[i + 1:])
    return tuple(parts)


def iter_python_files(paths: Iterable[Path | str]) -> Iterator[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    seen: set[Path] = set()
    for target in paths:
        target = Path(target)
        if target.is_dir():
            candidates: Iterable[Path] = sorted(target.rglob("*.py"))
        else:
            candidates = [target]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def parse_suppressions(source: str) -> dict[int, set[str] | None]:
    """Map 1-based line numbers to suppressed codes (``None`` = all codes)."""
    out: dict[int, set[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESSION.search(line)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            out[lineno] = None
        else:
            out[lineno] = {c.strip() for c in codes.split(",") if c.strip()}
    return out


def _suppressed(finding: Finding, suppressions: dict[int, set[str] | None]) -> bool:
    if finding.line not in suppressions:
        return False
    codes = suppressions[finding.line]
    return codes is None or finding.code in codes


def select_rules(
    select: Sequence[str] | None,
    ignore: Sequence[str] | None,
) -> list[type[Rule]]:
    """The per-file rules that *select* keeps and *ignore* drops (``None``: all)."""
    rules = list(ALL_RULES)
    if select is not None:
        wanted = set(select)
        unknown = wanted - {r.code for r in ALL_RULES}
        if unknown:
            raise ValueError(f"unknown rule code(s): {sorted(unknown)}")
        rules = [r for r in rules if r.code in wanted]
    if ignore:
        unwanted = set(ignore)
        unknown = unwanted - {r.code for r in ALL_RULES}
        if unknown:
            raise ValueError(f"unknown rule code(s): {sorted(unknown)}")
        rules = [r for r in rules if r.code not in unwanted]
    return rules


def lint_source(
    source: str,
    path: Path | str = "<string>",
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> list[Finding]:
    """Lint *source*, scoping rules by *path*; returns sorted findings."""
    path = Path(path)
    display = str(path)
    try:
        tree = ast.parse(source, filename=display)
    except SyntaxError as exc:
        return [
            Finding(
                path=display,
                line=exc.lineno or 1,
                col=(exc.offset or 0) or 1,
                code=PARSE_ERROR_CODE,
                message=f"file does not parse: {exc.msg}",
                hint="fix the syntax error; reprolint needs a valid AST",
            )
        ]
    suppressions = parse_suppressions(source)
    module = module_parts(path)
    findings: list[Finding] = []
    for rule_cls in select_rules(select, ignore):
        if not rule_cls.applies_to(module):
            continue
        rule = rule_cls(display, module)
        rule.visit(tree)
        findings.extend(
            f for f in rule.findings if not _suppressed(f, suppressions)
        )
    return sorted(findings)


def lint_paths(
    paths: Iterable[Path | str],
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> list[Finding]:
    """Lint every ``.py`` file under *paths*; returns sorted findings."""
    select_rules(select, ignore)  # validate codes even when no files match
    findings: list[Finding] = []
    for file_path in iter_python_files(paths):
        try:
            source = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            # Unreadable files are findings, not crashes: the run completes,
            # reports the file, and exits nonzero like any other finding.
            findings.append(
                Finding(
                    path=str(file_path),
                    line=1,
                    col=1,
                    code=PARSE_ERROR_CODE,
                    message=f"file unreadable: {exc}",
                    hint="fix the file's permissions or encoding; reprolint "
                    "never skips files silently",
                )
            )
            continue
        findings.extend(lint_source(source, file_path, select, ignore))
    return sorted(findings)


def format_findings(findings: Sequence[Finding], show_hints: bool = True) -> str:
    """Human-readable report: one line per finding, hint indented below."""
    if not findings:
        return "reprolint: no findings"
    lines: list[str] = []
    for finding in findings:
        lines.append(finding.render())
        if show_hints and finding.hint:
            lines.append(f"    hint: {finding.hint}")
    tally = TallyCounter(f.code for f in findings)
    summary = ", ".join(f"{code}×{count}" for code, count in sorted(tally.items()))
    lines.append(f"reprolint: {len(findings)} finding(s) ({summary})")
    return "\n".join(lines)


def format_json(findings: Sequence[Finding]) -> str:
    """Stable JSON document (see ``JSON_SCHEMA_VERSION``) for tooling."""
    tally = TallyCounter(f.code for f in findings)
    document = {
        "version": JSON_SCHEMA_VERSION,
        "findings": [f.as_dict() for f in findings],
        "summary": {
            "total": len(findings),
            "by_code": dict(sorted(tally.items())),
            "files": len({f.path for f in findings}),
        },
    }
    return json.dumps(document, indent=2, sort_keys=False)
